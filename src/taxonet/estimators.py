"""Sparse-network pipelines over a count table.

Each fit wires the shared pieces together: a compositional transform, an
association matrix, a penalty path, and a selection strategy (stability
subsampling or EBIC).  All return a :class:`MethodResult` carrying the
selected binary network and the selection diagnostics.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np

from .correlation import (
    kendall_matrix,
    latent_correlation,
    nearest_psd_correlation,
    safe_correlation,
    tau_bridge,
)
from .data import CountTable, check_pseudo, clr_transform, mclr_transform
from .errors import EstimatorError, SolverError
from .neighborhood import mb_adjacency_path, standardize_columns
from .network import MethodResult, network_from_mask
from .selection import StarsParams, check_path, ebic_choose, ebic_score, lambda_path, stars_select
from .solvers import graphical_lasso, graphical_lasso_batch, graphical_lasso_support

log = logging.getLogger("taxonet")


@dataclass
class SpieceasiParams:
    lambda_min_ratio: float = 1e-2
    nlambda: int = 15
    rep_num: int | None = None   # 20 for mb, 50 for glasso when unset
    pseudo: float = 0.5
    rule: Literal["or", "and"] = "or"

    def __post_init__(self) -> None:
        check_path(self.nlambda, self.lambda_min_ratio)
        check_pseudo(self.pseudo)
        if self.rep_num is not None and self.rep_num < 1:
            raise EstimatorError("rep_num must be >= 1, or none for the default")

    def resolved_rep_num(self, mode: str) -> int:
        if self.rep_num is not None:
            return self.rep_num
        return 50 if mode == "glasso" else 20


@dataclass
class SpringParams:
    nlambda: int = 15
    rep_num: int = 20
    lambda_min_ratio: float = 1e-2
    rule: Literal["or", "and"] = "or"

    def __post_init__(self) -> None:
        check_path(self.nlambda, self.lambda_min_ratio)
        if self.rep_num < 1:
            raise EstimatorError("rep_num must be >= 1")


@dataclass
class GcodaParams:
    pseudo: float = 0.5
    lambda_min_ratio: float = 1e-4
    nlambda: int = 15
    ebic_gamma: float = 0.5

    def __post_init__(self) -> None:
        check_path(self.nlambda, self.lambda_min_ratio)
        check_pseudo(self.pseudo)
        if not 0 <= self.ebic_gamma < np.inf:
            raise EstimatorError("ebic_gamma must be finite and >= 0")


def _glasso_adjacency(s: np.ndarray, lam: float) -> tuple[np.ndarray, int]:
    """Off-diagonal supports of cold-started graphical-lasso fits at one
    penalty for a (R, p, p) stack of correlations, as an (R, p, p) boolean
    stack, and the number of fits that did not converge."""
    r, p = s.shape[:2]
    omega, converged, _ = graphical_lasso_batch(s, np.full(r, lam))
    mask = (omega != 0) & ~np.eye(p, dtype=bool)
    return mask, int((~converged).sum())


def _mb_adjacency_steps(grams: np.ndarray, lams, rule: str):
    """Walk the neighborhood-selection path one penalty at a time, keeping
    the warm starts between penalties, for :func:`stars_select`."""
    r, p = grams.shape[:2]
    betas = np.zeros((r * p, p))
    for lam in lams:
        adj, unconverged = mb_adjacency_path(grams, [lam], rule=rule, betas=betas)
        yield adj[:, 0], unconverged


def spieceasi_fit(
    table: CountTable,
    mode: str = "mb",
    params: SpieceasiParams | None = None,
    seed: int = 0,
) -> MethodResult:
    """Sparse inverse-covariance network on CLR data with stability-based
    penalty selection.

    ``mode="mb"`` uses neighborhood selection (OR rule); ``mode="glasso"``
    uses the graphical lasso with any nonzero off-diagonal counting as an
    edge.  ``seed`` draws the subsamples.
    """
    if mode not in ("mb", "glasso"):
        raise EstimatorError(f"unknown mode {mode!r}")
    params = params or SpieceasiParams()
    rep_num = params.resolved_rep_num(mode)
    x = clr_transform(table, params.pseudo)
    s = safe_correlation(x)
    path = lambda_path(s, nlambda=params.nlambda, lambda_min_ratio=params.lambda_min_ratio)

    if mode == "mb":
        def fitter(subs: np.ndarray, lams: np.ndarray):
            zs = [standardize_columns(rows) for rows in subs]
            grams = np.array([(z.T @ z) / z.shape[0] for z in zs])
            yield from _mb_adjacency_steps(grams, lams, params.rule)
    else:
        def fitter(subs: np.ndarray, lams: np.ndarray):
            corrs = np.array([safe_correlation(r) for r in subs])
            for lam in lams:
                yield _glasso_adjacency(corrs, lam)

    stars = stars_select(
        x,
        fitter,
        path,
        StarsParams(rep_num=rep_num, seed=seed),
        taxa=table.taxa,
        method=f"spieceasi_{mode}",
    )
    record = asdict(params)
    record["rep_num"] = rep_num
    record["method"] = mode
    return MethodResult(
        method=f"spieceasi_{mode}",
        params=record,
        taxa=list(table.taxa),
        network=stars.network,
        selection=stars.selection(),
    )


def _latent_corr_values(counts: np.ndarray) -> np.ndarray:
    """Latent correlation of a raw count matrix (mclr + tau bridge + PSD
    projection); tolerant of columns that lost all variation."""
    table = CountTable(
        values=counts,
        taxa=[f"V{i}" for i in range(counts.shape[1])],
        samples=[f"s{i}" for i in range(counts.shape[0])],
    )
    transformed = mclr_transform(table)
    tau = kendall_matrix(transformed)
    return nearest_psd_correlation(tau_bridge(tau))


def spring_fit(
    table: CountTable, params: SpringParams | None = None, seed: int = 0
) -> MethodResult:
    """Rank-based partial-correlation network for zero-inflated counts.

    The latent correlation matrix (modified CLR + Kendall bridge) is the
    sufficient statistic; neighborhood selection runs directly on it, with
    the penalty chosen by stability over subsamples of the raw counts, which
    ``seed`` draws.
    """
    params = params or SpringParams()
    corr = latent_correlation(table)
    path = lambda_path(
        corr, nlambda=params.nlambda, lambda_min_ratio=params.lambda_min_ratio
    )

    def fitter(subs: np.ndarray, lams: np.ndarray):
        corrs = np.array([_latent_corr_values(rows) for rows in subs])
        yield from _mb_adjacency_steps(corrs, lams, params.rule)

    stars = stars_select(
        table.values,
        fitter,
        path,
        StarsParams(rep_num=params.rep_num, seed=seed),
        taxa=table.taxa,
        method="spring",
    )
    return MethodResult(
        method="spring",
        params=asdict(params),
        taxa=list(table.taxa),
        weighted=corr,
        network=stars.network,
        selection=stars.selection(),
    )


GCODA_MM_MAX_ITER = 10
GCODA_MM_TOL = 1e-4


def _profiled_neg2loglik(s, omega):
    """Per-sample -2 log-likelihood of a basis precision under centered
    log-ratio observations.

    The direction lost to closure is profiled out exactly:
    -log det(omega) + log(1'omega 1) - log p + tr(S H) with
    H = omega - (omega 1)(1'omega)/(1'omega 1).
    """
    p = s.shape[0]
    ones = np.ones(p)
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        return np.inf
    o1 = omega @ ones
    d = float(ones @ o1)
    if d <= 0:
        return np.inf
    h = omega - np.outer(o1, o1) / d
    return -(logdet - np.log(d) + np.log(p) - float(np.sum(s * h)))


def _gcoda_surrogate(s, omega):
    """Covariance input for the next inner solve: the concave part of the
    profiled objective is linearized at the current iterate."""
    p = s.shape[0]
    ones = np.ones(p)
    o1 = omega @ ones
    d = float(ones @ o1)
    so1 = s @ o1
    quad = float(o1 @ so1)
    j = np.outer(ones, ones)
    grad = j / d - (np.outer(so1, ones) + np.outer(ones, so1)) / d + quad * j / d**2
    return 0.5 * (s + grad + (s + grad).T)


def _gcoda_solve(s, lam, omega0=None):
    """Majorize-minimize: each round fits a precision to the linearized
    surrogate.  ``lam`` is a graphical-lasso penalty, or a boolean support
    mask for an unpenalized refit held to that support, whose rounds are
    exact :func:`graphical_lasso_support` fits.  Returns (omega, converged);
    converged is false when the rounds or any fit in them hit their
    iteration limit."""
    omega = np.diag(1.0 / np.diag(s)) if omega0 is None else omega0
    refit = np.ndim(lam) > 0

    def objective(om):
        if refit:
            return _profiled_neg2loglik(s, om)
        a = np.abs(om)
        np.fill_diagonal(a, 0.0)
        return _profiled_neg2loglik(s, om) + float((lam * a).sum())

    prev = objective(omega)
    converged = False
    inner_converged = True
    for _ in range(GCODA_MM_MAX_ITER):
        surrogate = _gcoda_surrogate(s, omega)
        est = graphical_lasso_support(surrogate, lam) if refit else graphical_lasso(surrogate, lam)
        omega = est.omega
        inner_converged = inner_converged and est.converged
        cur = objective(omega)
        if abs(prev - cur) <= GCODA_MM_TOL * max(1.0, abs(prev)):
            converged = True
            break
        prev = cur
    return omega, converged and inner_converged


def gcoda_fit(table: CountTable, params: GcodaParams | None = None) -> MethodResult:
    """Sparse basis-precision network for compositional data with EBIC
    penalty selection.

    The closure-degenerate likelihood is profiled exactly and optimized by
    repeated graphical-lasso solves on a linearized surrogate.  Each
    candidate support is scored at its own constrained maximum likelihood,
    so the EBIC compares models, not shrunken fits: the refit runs the same
    rounds with an exact penalty-free fit held to the support
    (:func:`graphical_lasso_support`, ESL Algorithm 17.1) in place of the
    graphical lasso.  A penalty whose support refit meets a singular
    neighbour block or loses positive definiteness, as with p > n, is
    unscorable and never chosen; when the penalized fit itself fails, that
    penalty and every denser one are.
    ``pseudo`` is added before closure; relative abundances without zeros
    can be fed as they are with ``pseudo=0``.
    """
    params = params or GcodaParams()
    x = clr_transform(table, params.pseudo)
    s = np.cov(x, rowvar=False)
    p = table.n_taxa
    n = table.n_samples
    lams = lambda_path(s, nlambda=params.nlambda, lambda_min_ratio=params.lambda_min_ratio).values
    eye = np.eye(p, dtype=bool)
    rows = []
    masks = []
    # the refit starts cold from the support alone, so one refit per
    # distinct support serves every penalty that gives it
    refits: dict[bytes, tuple[float | None, bool]] = {}
    unconverged = []
    omega = None
    for k, lam in enumerate(lams):
        try:
            omega, ok = _gcoda_solve(s, float(lam), omega0=omega)
        except SolverError:
            # a penalty too small to keep the fit positive definite (p > n):
            # every denser one is smaller still
            rows.extend([float(rest), None, None] for rest in lams[k:])
            break
        mask = (omega != 0) & ~eye
        mask = mask | mask.T
        n_edges = int(mask.sum()) // 2
        key = mask.tobytes()
        if key not in refits:
            try:
                omega_r, ok_r = _gcoda_solve(s, mask)
                refits[key] = (float(-(n / 2.0) * _profiled_neg2loglik(s, omega_r)), ok_r)
            except SolverError:
                # with p > n the unpenalized likelihood on a support can be
                # unbounded: the penalty is unscorable, not unconverged
                refits[key] = (None, True)
        loglik, ok_r = refits[key]
        if not (ok and ok_r):
            unconverged.append(k)
        ebic = None if loglik is None else ebic_score(loglik, n_edges, n, p, params.ebic_gamma)
        rows.append([float(lam), ebic, float(n_edges)])
        masks.append(mask)
    unscorable = [k for k, row in enumerate(rows) if row[1] is None]
    scored = [k for k, row in enumerate(rows) if row[1] is not None]
    if not scored:
        raise EstimatorError(
            "gcoda: no penalty could be scored; every fit lost positive definiteness "
            "or met a singular block"
        )
    if unscorable:
        log.warning("gcoda: %d of %d penalties could not be scored (a fit lost positive "
                    "definiteness or met a singular block); EBIC chooses among the rest",
                    len(unscorable), len(lams))
    sel = scored[ebic_choose(np.array([rows[k] for k in scored]))]
    return MethodResult(
        method="gcoda",
        params=asdict(params),
        taxa=list(table.taxa),
        network=network_from_mask(masks[sel], table.taxa),
        selection={
            "lambda": rows[sel][0],
            "lambda_index": sel,
            "ebic": rows,
            "unscorable": unscorable,
            "unconverged": unconverged,
        },
    )
