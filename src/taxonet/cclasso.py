"""Latent-correlation inference for compositional data via an l1-penalized
least-squares fit.

The CLR covariance of the observed compositions only identifies the latent
covariance up to the centering projection F = I - J/p, so the estimate
minimizes ||F Sigma F - S_clr||^2 with an l1 penalty on the off-diagonal,
solved by alternating-direction (ADMM) updates.  F is an orthogonal
projection, so A(X) = F X F is one too, and the quadratic step
(A + rho I) Sigma = B has the closed form (B - F B F / (1 + rho)) / rho,
where F X F is double centering.  The penalty is picked by k-fold
cross-validation with a golden-section search over a fixed interval, and
edge significance comes from bootstrap refits.  ``cclasso_fit`` returns a
``MethodResult`` whose ``weighted`` is the correlation estimate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import CountTable, check_pseudo, clr_transform
from .errors import EstimatorError
from .network import MethodResult

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

    def __post_init__(self) -> None:
        check_pseudo(self.pseudo)
        if self.k_cv < 2:
            raise EstimatorError("k_cv must be >= 2")
        if not 0 < self.lam_int[0] < self.lam_int[1]:
            raise EstimatorError("lam_int must satisfy 0 < low < high")
        if self.k_max < 1 or self.n_boot < 1:
            raise EstimatorError("k_max and n_boot must be >= 1")


def _centered(x: np.ndarray) -> np.ndarray:
    """F X F for F = I - J/p: subtract the column means, then the row means."""
    x = x - x.mean(axis=0, keepdims=True)
    return x - x.mean(axis=1, keepdims=True)


def cclasso_solve(s: np.ndarray, lam: float, max_iter: int = 20):
    """ADMM for min 0.5*||F Sigma F - S||_F^2 + lam*sum_offdiag|Sigma_ij|,
    started from Sigma = S.

    The quadratic step solves (A + rho I) Sigma = B with A(X) = F X F; as A
    is an orthogonal projection, Sigma = (B - A(B) / (1 + rho)) / rho.
    Returns the sparse iterate (exact zeros from soft thresholding) and a
    convergence flag.
    """
    s = np.asarray(s, dtype=float)
    sfs = _centered(s)
    z = s.copy()
    u = np.zeros_like(s)
    converged = False
    for _ in range(max_iter):
        b = sfs + ADMM_RHO * (z - u)
        sigma = (b - _centered(b) / (1.0 + ADMM_RHO)) / ADMM_RHO
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
    diff = _centered(sigma) - s_test
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
) -> MethodResult:
    """Sparse latent correlation with cross-validated penalty and bootstrap
    edge p-values.

    ``pseudo`` is added before closure; relative abundances without zeros
    can be fed as they are with ``pseudo=0``.  ``seed`` draws the folds and
    the bootstrap samples.
    """
    params = params or CclassoParams()
    n = table.n_samples
    if n // params.k_cv < 3:
        raise EstimatorError(
            f"cross-validation folds would have fewer than 3 samples (n={n}, k_cv={params.k_cv})"
        )
    clr = clr_transform(table, params.pseudo)

    def cov(rows) -> np.ndarray:
        return np.cov(clr[rows], rowvar=False)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(n)
    splits = [(cov(np.setdiff1d(order, holdout)), cov(holdout))
              for holdout in np.array_split(order, params.k_cv)]

    def cv_loss(lam: float) -> float:
        total = 0.0
        for s_train, s_test in splits:
            sigma, _ = cclasso_solve(s_train, lam, max_iter=params.k_max)
            total += _projection_loss(sigma, s_test)
        return total

    lam_best = _golden_section(cv_loss, *params.lam_int)
    z, converged = cclasso_solve(np.cov(clr, rowvar=False), lam_best, max_iter=params.k_max)
    r_hat = _to_correlation(z)

    boot = np.zeros((params.n_boot,) + r_hat.shape)
    for k in range(params.n_boot):
        zb, _ = cclasso_solve(cov(rng.integers(0, n, size=n)), lam_best, max_iter=params.k_max)
        boot[k] = _to_correlation(zb)
    # (d + 1) / (n_boot + 1) of a symmetric count d <= n_boot: symmetric, in (0, 1]
    disagree = (boot * r_hat[None, :, :] <= 0).sum(axis=0)
    pvalues = (disagree + 1.0) / (params.n_boot + 1.0)
    np.fill_diagonal(pvalues, 0.0)

    return MethodResult(
        method="cclasso",
        params=asdict(params),
        taxa=list(table.taxa),
        weighted=r_hat,
        pvalues=pvalues,
        selection={"lambda": lam_best, "converged": converged},
    )
