"""Penalty paths and model selection: stability (subsampling) and the EBIC
score and chooser."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import PathError, SelectionError
from .network import BinaryNetwork, network_from_mask
# nothing here calls it; kept because bench/layers.py wraps this attribute
from .solvers import graphical_lasso

DEFAULT_NLAMBDA = 15
DEFAULT_BETA_THRESHOLD = 0.1
DEFAULT_REP_NUM = 20

log = logging.getLogger("taxonet")


@dataclass(frozen=True)
class LambdaPath:
    """Log-equispaced, strictly decreasing penalty sequence."""

    values: np.ndarray
    nlambda: int
    lambda_min_ratio: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if len(v) != self.nlambda or (np.diff(v) >= 0).any():
            raise PathError("path must be strictly decreasing with nlambda values")


def lambda_path(
    s: np.ndarray,
    nlambda: int = DEFAULT_NLAMBDA,
    lambda_min_ratio: float = 1e-2,
) -> LambdaPath:
    """Geometric path from lambda_max = max offdiagonal |S| down to
    lambda_max * lambda_min_ratio."""
    s = np.asarray(s, dtype=float)
    off = np.abs(s - np.diag(np.diag(s)))
    lam_max = float(off.max(initial=0.0))
    if lam_max == 0.0:
        raise PathError("all off-diagonal entries are zero; no path exists")
    if nlambda < 1:
        raise PathError("nlambda must be >= 1")
    if not 0 < lambda_min_ratio < 1:
        raise PathError("lambda_min_ratio must lie in (0, 1)")
    if nlambda == 1:
        values = np.array([lam_max])
    else:
        values = np.geomspace(lam_max, lam_max * lambda_min_ratio, nlambda)
    return LambdaPath(values=values, nlambda=nlambda, lambda_min_ratio=lambda_min_ratio)


def default_subsample_ratio(n: int) -> float:
    """10*sqrt(n)/n for large n, 0.8 otherwise."""
    return 10.0 * math.sqrt(n) / n if n > 144 else 0.8


@dataclass
class StarsParams:
    rep_num: int = DEFAULT_REP_NUM
    subsample_ratio: float | None = None
    beta_threshold: float = DEFAULT_BETA_THRESHOLD
    seed: int = 0

    def resolved_ratio(self, n: int) -> float:
        return self.subsample_ratio if self.subsample_ratio is not None else default_subsample_ratio(n)


@dataclass
class StarsResult:
    network: BinaryNetwork
    lam: float
    lambda_index: int
    instability: np.ndarray
    monotone_instability: np.ndarray
    threshold_met: bool
    unconverged_fits: int

    def selection(self) -> dict:
        """The selection block a StARS-selected method result carries."""
        return {
            "lambda": self.lam,
            "lambda_index": self.lambda_index,
            "instability": self.monotone_instability.tolist(),
            "threshold_met": self.threshold_met,
            "unconverged_fits": self.unconverged_fits,
        }


# a fitter maps an (R, m, p) stack of row subsamples and descending
# penalties to an iterable that walks the path one penalty at a time: for
# each penalty, in order, an (R, p, p) stack of boolean adjacency matrices
# (one per subsample) and the number of fits at that penalty that stopped at
# their iteration limit.  It should do a penalty's work only when that
# penalty is drawn: stars_select stops drawing after the first unstable one.
PathFitter = Callable[[np.ndarray, np.ndarray], Iterable[tuple[np.ndarray, int]]]


def stars_select(
    x: np.ndarray,
    fitter: PathFitter,
    path: LambdaPath,
    params: StarsParams,
    taxa=None,
    provenance=None,
) -> StarsResult:
    """Stability-based penalty selection over row subsamples.

    All ``rep_num`` subsamples go to ``fitter`` in one call, so that it can
    solve them together one penalty at a time; the full-data refit at the
    selected penalty is a second call with a stack of one.

    Edge instability at each penalty is the mean over node pairs of
    2*f*(1-f), f being the selection frequency across subsamples; the curve
    is made monotone from the sparse end and the densest penalty with
    instability at or below the threshold is kept.  The path is walked from
    the sparse end and left after the first penalty above the threshold,
    since no denser penalty can be kept once the monotone curve has crossed
    it; ``instability`` and ``monotone_instability`` hold that evaluated
    prefix, all of the path when nothing crosses.  When not even the
    sparsest penalty passes, it is returned flagged and a warning is logged.
    ``unconverged_fits`` counts the subsample fits and the refit that
    stopped at their iteration limit.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    lams = path.values
    if len(lams) == 0:
        raise SelectionError("empty penalty path")
    ratio = params.resolved_ratio(n)
    size = max(2, int(math.floor(ratio * n)))
    children = np.random.SeedSequence(params.seed).spawn(params.rep_num)
    subsamples = np.array([
        x[np.sort(np.random.default_rng(child).choice(n, size=size, replace=False))]
        for child in children
    ])
    pairs = p * (p - 1) / 2.0
    curve = []
    unconverged = 0
    for adj, missed in fitter(subsamples, lams):
        freq = adj.sum(axis=0) / params.rep_num
        xi = 2.0 * freq * (1.0 - freq)
        curve.append(np.triu(xi, k=1).sum() / pairs)
        unconverged += missed
        if curve[-1] > params.beta_threshold:
            break
    instability = np.array(curve)
    monotone = np.maximum.accumulate(instability)
    admissible = np.flatnonzero(monotone <= params.beta_threshold)
    prov = dict(provenance or {})
    if admissible.size:
        sel = int(admissible[-1])
        met = True
    else:
        sel = int(np.argmin(monotone))
        met = False
        log.warning(
            "%s: no penalty has StARS instability at or below %g; keeping the "
            "most stable one, lambda %.6g with instability %.6g",
            prov.get("method", "stars"), params.beta_threshold, lams[sel], monotone[sel],
        )
    full, missed = next(iter(fitter(x[None], lams[sel : sel + 1])))
    prov.update({"lambda": float(lams[sel]), "selection": "stars"})
    labels = taxa if taxa is not None else [f"V{i}" for i in range(p)]
    net = network_from_mask(full[0], labels, provenance=prov)
    return StarsResult(
        network=net,
        lam=float(lams[sel]),
        lambda_index=sel,
        instability=instability,
        monotone_instability=monotone,
        threshold_met=met,
        unconverged_fits=unconverged + missed,
    )


def ebic_score(loglik: float, n_edges: int, n: int, p: int, gamma: float) -> float:
    """-2*loglik + E*ln(n) + 4*E*gamma*ln(p)."""
    return -2.0 * loglik + n_edges * math.log(n) + 4.0 * n_edges * gamma * math.log(p)


def ebic_choose(scores: np.ndarray) -> int:
    """Row index of the EBIC minimizer in ``scores`` (columns: lambda, ebic,
    edge count).  EBICs equal to 10 decimals tie; ties go to the sparser
    model, then to the larger penalty."""
    return min(
        range(len(scores)),
        key=lambda k: (round(scores[k, 1], 10), scores[k, 2], -scores[k, 0]),
    )

