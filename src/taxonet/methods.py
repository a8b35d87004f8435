"""Registry of the ten association methods.

Each entry knows its parameter record, how to run it on a count table, and
the default rule for turning its output into a binary vote.  The order
below is the canonical roster order used everywhere (consensus columns,
Hamming matrices, reports).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cclasso import CclassoParams, cclasso_fit
from .cmi import CmimnParams, cmimn_fit
from .consensus import BinarizationRule
from .correlation import correlation_matrix
from .data import CountTable, clr_transform, log_transform, mclr_transform, to_composition
from .errors import EstimatorError
from .estimators import (
    GcodaParams,
    SpieceasiParams,
    SpringParams,
    gcoda_fit,
    spieceasi_fit,
    spring_fit,
)
from .network import MethodResult
from .sparcc import SparccParams, sparcc_fit

METHOD_ORDER = (
    "pearson",
    "spearman",
    "bicor",
    "sparcc",
    "spieceasi_mb",
    "spieceasi_glasso",
    "spring",
    "gcoda",
    "cmimn",
    "cclasso",
)

CORRELATION_TRANSFORMS = ("clr", "log", "mclr", "raw")


@dataclass
class CorrelationParams:
    """Settings for the plain correlation estimators (pearson, spearman,
    bicor): which transform feeds them, and the pseudo-count it uses."""

    transform: str = "clr"
    pseudo: float = 0.5


def _transformed(table: CountTable, params: CorrelationParams):
    if params.transform == "clr":
        return clr_transform(to_composition(table, pseudo=params.pseudo))
    if params.transform == "log":
        return log_transform(table, pseudo=params.pseudo)
    if params.transform == "mclr":
        return mclr_transform(table)
    if params.transform == "raw":
        return table
    raise EstimatorError(
        f"unknown transform {params.transform!r}; choose from {CORRELATION_TRANSFORMS}"
    )


def _run_correlation(method: str, table: CountTable, params: CorrelationParams, seed: int):
    corr = correlation_matrix(_transformed(table, params), method)
    return MethodResult(
        method=method,
        params=asdict(params),
        taxa=list(table.taxa),
        weighted=corr.values,
    )


def _run_sparcc(method, table, params: SparccParams, seed: int):
    corr = sparcc_fit(table, params, seed=seed)
    return MethodResult(
        method="sparcc", params=asdict(params), taxa=list(table.taxa), weighted=corr.values
    )


def _run_spieceasi_mb(method, table, params: SpieceasiParams, seed: int):
    return spieceasi_fit(table, mode="mb", params=params, seed=seed)


def _run_spieceasi_glasso(method, table, params: SpieceasiParams, seed: int):
    return spieceasi_fit(table, mode="glasso", params=params, seed=seed)


def _run_spring(method, table, params: SpringParams, seed: int):
    return spring_fit(table, params, seed=seed)


def _run_gcoda(method, table, params: GcodaParams, seed: int):
    return gcoda_fit(table, params)


def _run_cmimn(method, table, params: CmimnParams, seed: int):
    fit = cmimn_fit(table, params)
    return MethodResult(
        method="cmimn",
        params=asdict(params),
        taxa=list(table.taxa),
        weighted=fit.mi,
        network=fit.network,
        selection={
            "mi_threshold": fit.mi_threshold,
            "cmi_threshold": fit.cmi_threshold,
            "stage1_edges": fit.stage1.n_edges,
        },
    )


def _run_cclasso(method, table, params: CclassoParams, seed: int):
    fit = cclasso_fit(table, params, seed=seed)
    return MethodResult(
        method="cclasso",
        params=asdict(params),
        taxa=list(table.taxa),
        weighted=fit.correlation.values,
        pvalues=fit.pvalues,
        selection={"lambda": fit.selected_lambda, "converged": fit.converged},
    )


_ABS_RULE = BinarizationRule(kind="abs_threshold", threshold=0.3)
_NATIVE_RULE = BinarizationRule(kind="native_sparse")

_REGISTRY = {
    "pearson": (CorrelationParams, _run_correlation, _ABS_RULE),
    "spearman": (CorrelationParams, _run_correlation, _ABS_RULE),
    "bicor": (CorrelationParams, _run_correlation, _ABS_RULE),
    "sparcc": (SparccParams, _run_sparcc, _ABS_RULE),
    "spieceasi_mb": (SpieceasiParams, _run_spieceasi_mb, _NATIVE_RULE),
    "spieceasi_glasso": (SpieceasiParams, _run_spieceasi_glasso, _NATIVE_RULE),
    "spring": (SpringParams, _run_spring, _NATIVE_RULE),
    "gcoda": (GcodaParams, _run_gcoda, _NATIVE_RULE),
    "cmimn": (CmimnParams, _run_cmimn, _NATIVE_RULE),
    "cclasso": (
        CclassoParams,
        _run_cclasso,
        BinarizationRule(kind="pvalue", alpha=0.05, threshold=0.3),
    ),
}


def default_params(method: str):
    """Fresh parameter record with every field at its documented default:
    the record the pipeline runs when the config sets none of its fields."""
    _require(method)
    return _REGISTRY[method][0]()


def default_rule(method: str) -> BinarizationRule:
    _require(method)
    return _REGISTRY[method][2]


def _require(method: str) -> None:
    if method not in _REGISTRY:
        raise EstimatorError(
            f"unknown method {method!r}; choose from {', '.join(METHOD_ORDER)}"
        )


def method_seed(master_seed: int, method: str) -> int:
    """Per-method seed derived from the master seed and the method's fixed
    position in the roster, so enabling or disabling other methods never
    shifts it."""
    _require(method)
    idx = METHOD_ORDER.index(method)
    ss = np.random.SeedSequence([int(master_seed), idx])
    return int(ss.generate_state(1)[0])


def run_method(
    method: str, table: CountTable, params=None, seed: int | None = None
) -> MethodResult:
    """Run one method on a count table.

    ``seed`` feeds the stochastic methods (resampling, subsampling,
    bootstrap); deterministic methods ignore it.
    """
    _require(method)
    cls, runner, _ = _REGISTRY[method]
    if params is None:
        params = cls()
    elif not isinstance(params, cls):
        raise EstimatorError(
            f"{method} expects {cls.__name__}, got {type(params).__name__}"
        )
    return runner(method, table, params, 0 if seed is None else int(seed))
