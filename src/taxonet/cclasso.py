"""Latent-correlation inference for compositional data via an l1-penalized
least-squares fit.

The CLR covariance of the observed compositions only identifies the latent
covariance up to the centering projection F = I - J/p, so the estimate
minimizes ||F Sigma F - S_clr||^2 with an l1 penalty on the off-diagonal,
solved by alternating-direction (ADMM) updates.  The quadratic step has a
closed form in the eigenbasis of F.  The penalty is picked by k-fold
cross-validation with a golden-section search over a fixed interval, and
edge significance comes from bootstrap refits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix
from .data import CountTable
from .errors import EstimatorError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PSD_FLOOR = 1e-8
# ADMM step size and the relative primal/dual residual that ends a solve
ADMM_RHO = 1.0
ADMM_TOL = 1e-5


@dataclass
class CclassoParams:
    pseudo: float = 0.5
    k_cv: int = 3
    lam_int: tuple[float, float] = (1e-4, 1.0)
    k_max: int = 20
    n_boot: int = 20


@dataclass
class CclassoResult:
    correlation: CorrelationMatrix
    pvalues: np.ndarray
    selected_lambda: float
    converged: bool


def _clr_covariance(x: np.ndarray) -> np.ndarray:
    logs = np.log(x)
    clr = logs - logs.mean(axis=1, keepdims=True)
    return np.cov(clr, rowvar=False)


def _centering_basis(p: int):
    """Orthonormal eigenbasis of F = I - J/p and the 0/1 eigenvalue mask."""
    f = np.eye(p) - np.full((p, p), 1.0 / p)
    eigval, eigvec = np.linalg.eigh(f)
    mask = (eigval > 0.5).astype(float)
    return eigvec, mask


def cclasso_solve(s: np.ndarray, lam: float, max_iter: int = 20):
    """ADMM for min 0.5*||F Sigma F - S||_F^2 + lam*sum_offdiag|Sigma_ij|,
    started from Sigma = S.

    Returns the sparse iterate (exact zeros from soft thresholding) and a
    convergence flag.
    """
    s = np.asarray(s, dtype=float)
    p = s.shape[0]
    q, mask = _centering_basis(p)
    denom = np.outer(mask, mask) + ADMM_RHO
    sfs_t = q.T @ s @ q * np.outer(mask, mask)   # F S F in the eigenbasis
    z = s.copy()
    u = np.zeros_like(s)
    converged = False
    for _ in range(max_iter):
        b_t = sfs_t + ADMM_RHO * (q.T @ (z - u) @ q)
        sigma = q @ (b_t / denom) @ q.T
        sigma = 0.5 * (sigma + sigma.T)
        z_old = z
        w = sigma + u
        z = np.sign(w) * np.maximum(np.abs(w) - lam / ADMM_RHO, 0.0)
        np.fill_diagonal(z, np.diag(w))
        u = u + sigma - z
        scale = max(1.0, np.linalg.norm(sigma), np.linalg.norm(z))
        primal = np.linalg.norm(sigma - z) / scale
        dual = ADMM_RHO * np.linalg.norm(z - z_old) / scale
        if primal < ADMM_TOL and dual < ADMM_TOL:
            converged = True
            break
    return 0.5 * (z + z.T), converged


def _projection_loss(sigma: np.ndarray, s_test: np.ndarray) -> float:
    p = sigma.shape[0]
    f = np.eye(p) - np.full((p, p), 1.0 / p)
    diff = f @ sigma @ f - s_test
    return 0.5 * float((diff**2).sum())


def _to_correlation(z: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.clip(np.diag(z), 1e-8, None))
    r = z / np.outer(d, d)
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    r = 0.5 * (r + r.T)
    # diagonal loading keeps the support intact while restoring PSD
    mu = float(np.linalg.eigvalsh(r).min())
    if mu < PSD_FLOOR:
        delta = (PSD_FLOOR - mu) / (1.0 - PSD_FLOOR)
        r = (r + delta * np.eye(len(r))) / (1.0 + delta)
        np.fill_diagonal(r, 1.0)
    return r


def _golden_section(evaluate, lo: float, hi: float, max_evals: int = 20):
    """Minimize over [lo, hi] in log space; returns the best point evaluated."""
    a, b = math.log(lo), math.log(hi)
    cache: list[tuple[float, float]] = []

    def f(t: float) -> float:
        lam = math.exp(t)
        loss = evaluate(lam)
        cache.append((lam, loss))
        return loss

    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while len(cache) < max_evals and (b - a) > 1e-3:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return min(cache, key=lambda t: t[1])[0]


def cclasso_fit(
    table: CountTable, params: CclassoParams | None = None, seed: int = 0
) -> CclassoResult:
    """Sparse latent correlation with cross-validated penalty and bootstrap
    edge p-values.

    ``pseudo`` is added before closure; relative abundances without zeros
    can be fed as they are with ``pseudo=0``.  ``seed`` draws the folds and
    the bootstrap samples.
    """
    params = params or CclassoParams()
    v = table.values
    n = table.n_samples
    if n // params.k_cv < 3:
        raise EstimatorError(
            f"cross-validation folds would have fewer than 3 samples (n={n}, k_cv={params.k_cv})"
        )
    x = v + params.pseudo
    if (x <= 0).any():
        raise EstimatorError("cclasso needs strictly positive values; use pseudo > 0 with zeros")
    x = x / x.sum(axis=1, keepdims=True)
    s_full = _clr_covariance(x)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(n)
    folds = np.array_split(order, params.k_cv)

    def cv_loss(lam: float) -> float:
        total = 0.0
        for holdout in folds:
            train = np.setdiff1d(order, holdout)
            sigma, _ = cclasso_solve(
                _clr_covariance(x[train]), lam, max_iter=params.k_max
            )
            total += _projection_loss(sigma, _clr_covariance(x[holdout]))
        return total

    lam_best = _golden_section(cv_loss, *params.lam_int)
    z, converged = cclasso_solve(s_full, lam_best, max_iter=params.k_max)
    r_hat = _to_correlation(z)

    boot = np.zeros((params.n_boot,) + r_hat.shape)
    for k in range(params.n_boot):
        rows = rng.integers(0, n, size=n)
        zb, _ = cclasso_solve(_clr_covariance(x[rows]), lam_best, max_iter=params.k_max)
        boot[k] = _to_correlation(zb)
    disagree = (boot * r_hat[None, :, :] <= 0).sum(axis=0)
    pvalues = (disagree + 1.0) / (params.n_boot + 1.0)
    np.clip(pvalues, 0.0, 1.0, out=pvalues)
    pvalues = 0.5 * (pvalues + pvalues.T)
    np.fill_diagonal(pvalues, 0.0)

    corr = CorrelationMatrix(values=r_hat, method="cclasso", taxa=list(table.taxa))
    return CclassoResult(
        correlation=corr,
        pvalues=pvalues,
        selected_lambda=lam_best,
        converged=converged,
    )
