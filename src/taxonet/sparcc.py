"""Basis-correlation inference for compositional counts.

Log-ratio variances only identify correlations of the latent absolute
abundances up to a linear system; under a sparsity assumption that system
is solved directly, and strongly correlated pairs are iteratively excluded
from it so they do not bias the basis variances.  Posterior resampling of
the fractions (Dirichlet with concentration counts + 1) averages out the
count noise; the final estimate is the elementwise median over iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import _finalize
from .data import CountTable
from .errors import EstimatorError


@dataclass
class SparccParams:
    imax: int = 20
    kmax: int = 10
    alpha: float = 0.1
    vmin: float = 1e-4

    def __post_init__(self):
        if self.imax < 1 or self.kmax < 0:
            raise EstimatorError("imax must be >= 1 and kmax >= 0")
        if not 0 < self.alpha < 1:
            raise EstimatorError("alpha must lie in (0, 1)")
        if not 0 < self.vmin < np.inf:
            raise EstimatorError("vmin must be positive and finite")


def log_ratio_variance(fractions: np.ndarray) -> np.ndarray:
    """T[i, j] = var over samples of ln(x_i / x_j).

    Invariant to per-sample rescaling of ``fractions``.
    """
    logs = np.log(fractions)
    cov = np.cov(logs, rowvar=False)
    d = np.diag(cov)
    return d[:, None] + d[None, :] - 2.0 * cov


def _basis_variances(t_mat, mask, vmin):
    """Solve the sparcc linear relations for the basis variances.

    ``mask`` flags pairs still participating; excluded pairs drop out of
    both the row sums and the system matrix.
    """
    p = t_mat.shape[0]
    m = np.ones((p, p)) + np.diag(np.full(p, p - 2.0))
    off = ~mask
    np.fill_diagonal(off, False)
    m[off] = 0.0
    m[np.diag_indices(p)] -= off.sum(axis=1)
    t = np.where(mask, t_mat, 0.0).sum(axis=1)
    omega = np.linalg.solve(m, t)
    return np.maximum(omega, vmin)


def _correlation_from_basis(t_mat, omega):
    oi = omega[:, None]
    oj = omega[None, :]
    rho = (oi + oj - t_mat) / (2.0 * np.sqrt(oi * oj))
    np.clip(rho, -1.0, 1.0, out=rho)
    np.fill_diagonal(rho, 1.0)
    return rho


def sparcc_iteration(fractions: np.ndarray, params: SparccParams):
    """One basis-correlation estimate from a fraction matrix.

    Returns the correlation estimate and the list of pairs excluded from
    the basis system, in exclusion order.
    """
    p = fractions.shape[1]
    t_mat = log_ratio_variance(fractions)
    mask = np.ones((p, p), dtype=bool)
    omega = _basis_variances(t_mat, mask, params.vmin)
    rho = _correlation_from_basis(t_mat, omega)
    excluded: list[tuple[int, int]] = []
    for _ in range(params.kmax):
        candidates = np.abs(np.triu(rho, k=1))
        candidates[~np.triu(mask, k=1)] = 0.0
        i, j = np.unravel_index(np.argmax(candidates), candidates.shape)
        if candidates[i, j] <= params.alpha:
            break
        mask[i, j] = mask[j, i] = False
        excluded.append((int(i), int(j)))
        try:
            omega = _basis_variances(t_mat, mask, params.vmin)
        except np.linalg.LinAlgError:
            # over-excluded system went singular; keep the last solvable state
            mask[i, j] = mask[j, i] = True
            excluded.pop()
            break
        rho = _correlation_from_basis(t_mat, omega)
    return rho, excluded


def sparcc_fit(
    table: CountTable, params: SparccParams | None = None, seed: int = 42
) -> np.ndarray:
    """Basis correlation matrix of a count table, as a taxa x taxa array.

    Each of ``imax`` iterations draws per-sample posterior fractions
    (Dirichlet, concentration counts + 1), estimates basis correlations
    with up to ``kmax`` exclusion rounds, and the iterations are combined
    by an elementwise median.
    """
    params = params or SparccParams()
    v = table.values
    n, p = v.shape
    if p < 4:
        raise EstimatorError("basis-variance system needs at least 4 taxa")
    if n < 4:
        raise EstimatorError("needs at least 4 samples")
    colsum = v.sum(axis=0)
    if (colsum == 0).any():
        bad = table.taxa[int(np.argmax(colsum == 0))]
        raise EstimatorError(f"taxon {bad!r} has all-zero counts; filter first")
    children = np.random.SeedSequence(seed).spawn(params.imax)
    estimates = np.empty((params.imax, p, p))
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        gammas = rng.gamma(v + 1.0)
        fractions = gammas / gammas.sum(axis=1, keepdims=True)
        estimates[k], _ = sparcc_iteration(fractions, params)
    med = np.median(estimates, axis=0)
    return _finalize(med)
