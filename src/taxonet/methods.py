"""Registry of the ten association methods.

Each entry holds the method's parameter record, its fit, and the default
rule for turning the fit's output into a binary vote.  Every fit is called
as ``fit(table, params=..., seed=...)``; the deterministic ones drop the
seed.  A fit returns a :class:`MethodResult`, or, for the correlation
methods and sparcc, a bare taxa x taxa matrix that :func:`run_method`
wraps.  The order below is the canonical roster order used everywhere
(consensus columns, Hamming matrices, reports).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Literal, get_args, get_type_hints

import numpy as np

from .cclasso import CclassoParams, cclasso_fit
from .cmi import CmimnParams, cmimn_fit
from .consensus import BinarizationRule
from .correlation import correlation_matrix
from .data import CountTable, check_pseudo, clr_transform, log_transform, mclr_transform
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


@dataclass
class CorrelationParams:
    """Settings for the plain correlation estimators (pearson, spearman,
    bicor): which transform feeds them, and the pseudo-count it uses."""

    transform: Literal["clr", "log", "mclr", "raw"] = "clr"
    pseudo: float = 0.5

    def __post_init__(self) -> None:
        if self.transform in ("clr", "log"):   # mclr and raw add no pseudo-count
            check_pseudo(self.pseudo)


CORRELATION_TRANSFORMS = get_args(get_type_hints(CorrelationParams)["transform"])


def _transformed(table: CountTable, params: CorrelationParams) -> np.ndarray:
    if params.transform == "clr":
        return clr_transform(table, pseudo=params.pseudo)
    if params.transform == "log":
        return log_transform(table, pseudo=params.pseudo)
    if params.transform == "mclr":
        return mclr_transform(table)
    if params.transform == "raw":
        return table.values
    raise EstimatorError(
        f"unknown transform {params.transform!r}; choose from {CORRELATION_TRANSFORMS}"
    )


def _correlation(method: str):
    """The fit of one correlation method: its matrix over the transformed table."""
    return lambda table, params, seed: correlation_matrix(
        _transformed(table, params), table.taxa, method)


def _unseeded(fit):
    """A deterministic fit under the registry's call, which passes a seed."""
    return lambda table, params, seed: fit(table, params)


_ABS_RULE = BinarizationRule(kind="abs_threshold", threshold=0.3)
_NATIVE_RULE = BinarizationRule(kind="native_sparse")

_REGISTRY = {
    "pearson": (CorrelationParams, _correlation("pearson"), _ABS_RULE),
    "spearman": (CorrelationParams, _correlation("spearman"), _ABS_RULE),
    "bicor": (CorrelationParams, _correlation("bicor"), _ABS_RULE),
    "sparcc": (SparccParams, sparcc_fit, _ABS_RULE),
    "spieceasi_mb": (SpieceasiParams, partial(spieceasi_fit, mode="mb"), _NATIVE_RULE),
    "spieceasi_glasso": (SpieceasiParams, partial(spieceasi_fit, mode="glasso"), _NATIVE_RULE),
    "spring": (SpringParams, spring_fit, _NATIVE_RULE),
    "gcoda": (GcodaParams, _unseeded(gcoda_fit), _NATIVE_RULE),
    "cmimn": (CmimnParams, _unseeded(cmimn_fit), _NATIVE_RULE),
    "cclasso": (
        CclassoParams,
        cclasso_fit,
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
    cls, fit, _ = _REGISTRY[method]
    if params is None:
        params = cls()
    elif not isinstance(params, cls):
        raise EstimatorError(
            f"{method} expects {cls.__name__}, got {type(params).__name__}"
        )
    out = fit(table, params=params, seed=0 if seed is None else int(seed))
    if isinstance(out, MethodResult):
        return out
    return MethodResult(method=method, params=asdict(params), taxa=list(table.taxa), weighted=out)
