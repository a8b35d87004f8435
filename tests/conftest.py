"""Shared synthetic-data helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from taxonet import CountTable
from taxonet.solvers import LASSO_MAX_SWEEPS, LASSO_TOL, _cd_gram


def make_table(values, prefix="T") -> CountTable:
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    return CountTable(
        values=values,
        taxa=[f"{prefix}{j:02d}" for j in range(p)],
        samples=[f"s{i:03d}" for i in range(n)],
    )


def chain_precision(p: int, partial: float = 0.45) -> np.ndarray:
    """Tridiagonal precision matrix whose graph is the path 0-1-...-(p-1)."""
    omega = np.eye(p)
    for i in range(p - 1):
        omega[i, i + 1] = omega[i + 1, i] = -partial
    if np.linalg.eigvalsh(omega).min() <= 0:
        raise ValueError("chain precision not positive definite")
    return omega


def chain_edges(p: int) -> set[tuple[int, int]]:
    return {(i, i + 1) for i in range(p - 1)}


def gaussian_from_precision(omega: np.ndarray, n: int, rng) -> np.ndarray:
    sigma = np.linalg.inv(omega)
    chol = np.linalg.cholesky(sigma)
    return rng.standard_normal((n, omega.shape[0])) @ chol.T


def compositional_counts(latent: np.ndarray, depth: float = 1e5) -> np.ndarray:
    """Counts whose log-basis equals the latent Gaussian: exponentiate,
    close to proportions, scale to a fixed depth, round."""
    basis = np.exp(latent)
    comp = basis / basis.sum(axis=1, keepdims=True)
    return np.round(comp * depth)


def mixed_chain_precision(p: int) -> np.ndarray:
    """Chain precision with alternating edge weights (-0.35, +0.5, ...).

    A chain with same-sign weights concentrates variance in one smooth
    mode; the row-mean removal inside the CLR then scrambles the marginal
    correlations and no estimator downstream of closure can order the true
    edges first.  Alternating signs keep the row-sum variance small, so
    closure is nearly invisible and recovery is limited by the estimator,
    not the transform."""
    omega = np.eye(p)
    for i in range(p - 1):
        w = -0.35 if i % 2 == 0 else 0.5
        omega[i, i + 1] = omega[i + 1, i] = w
    if np.linalg.eigvalsh(omega).min() <= 0:
        raise ValueError("mixed chain precision not positive definite")
    return omega


def chain_count_table(
    p: int = 10, n: int = 500, seed: int = 2, depth: float = 1e5
) -> CountTable:
    rng = np.random.default_rng(seed)
    latent = gaussian_from_precision(mixed_chain_precision(p), n, rng)
    return make_table(compositional_counts(latent, depth))


def acceptance_table() -> CountTable:
    """The 20-taxon, 80-sample table of the acceptance runs."""
    rng = np.random.default_rng(7)
    latent = gaussian_from_precision(mixed_chain_precision(20), 80, rng)
    return make_table(compositional_counts(latent, depth=1e4))


def lasso_from_gram(v, b, lam, beta0=None, tol=LASSO_TOL, max_sweeps=LASSO_MAX_SWEEPS):
    """Solve min_beta 0.5 beta'V beta - b'beta + sum_k lam_k |beta_k| with the
    scalar kernel.  ``lam`` is a scalar or a per-coordinate vector."""
    beta = np.zeros_like(b, dtype=float) if beta0 is None else beta0.astype(float).copy()
    lam_vec = np.broadcast_to(np.asarray(lam, dtype=np.float64), beta.shape)
    _cd_gram(
        np.ascontiguousarray(v, dtype=np.float64),
        np.ascontiguousarray(b, dtype=np.float64),
        beta,
        np.ascontiguousarray(lam_vec),
        float(tol),
        int(max_sweeps),
    )
    return beta


def f1_score(est: set, truth: set) -> float:
    tp = len(est & truth)
    if tp == 0:
        return 0.0
    precision = tp / len(est)
    recall = tp / len(truth)
    return 2 * precision * recall / (precision + recall)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_table(rng):
    counts = np.floor(rng.lognormal(2.0, 0.7, size=(20, 6)))
    counts[counts < 1] = 0
    counts[0, 0] = 5.0   # keep every taxon present somewhere
    return make_table(counts)
