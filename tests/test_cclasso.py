"""Latent-correlation fit: solver sparsity, selection, and bootstrap
significance."""

from __future__ import annotations

import numpy as np
import pytest

from taxonet.cclasso import ADMM_RHO, ADMM_TOL, CclassoParams, cclasso_fit, cclasso_solve
from taxonet.errors import EstimatorError, TransformError

from conftest import make_table

# noise_table and planted_table are strictly positive: fed without a pseudo-count
AS_IS = CclassoParams(pseudo=0.0)


def noise_table(p=8, n=400, seed=21):
    rng = np.random.default_rng(seed)
    return make_table(np.exp(rng.normal(0.0, 0.6, size=(n, p))) * 50.0)


def planted_table(p=6, n=500, r=0.8, seed=9):
    """Strictly positive abundances whose log-basis has one correlated
    pair (taxa 0 and 1) and independent remainder."""
    sigma = np.eye(p)
    sigma[0, 1] = sigma[1, 0] = r
    rng = np.random.default_rng(seed)
    latent = rng.multivariate_normal(np.zeros(p), sigma, size=n)
    return make_table(np.exp(latent) * 50.0)


def eigenbasis_solve(s, lam, max_iter=20):
    """Reference ADMM whose quadratic step divides by the eigenvalues of
    X -> F X F + rho X in the eigenbasis of F = I - J/p."""
    p = s.shape[0]
    eigval, q = np.linalg.eigh(np.eye(p) - np.full((p, p), 1.0 / p))
    mask = (eigval > 0.5).astype(float)
    denom = np.outer(mask, mask) + ADMM_RHO
    sfs_t = q.T @ s @ q * np.outer(mask, mask)
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


class TestSolver:
    @pytest.mark.parametrize("p", [3, 20, 60])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_matches_eigenbasis_reference(self, p, seed):
        # the two quadratic steps are the same linear map computed two ways;
        # over up to 200 iterations they agree to rounding: 1e-12 of max|S|
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(p, p + 5))
        s = a @ a.T / (p + 5)
        top = np.abs(s).max()
        for lam in (0.0, 1e-3 * top, 0.05 * top, 0.3 * top, top, 1.5 * top):
            for max_iter in (20, 200):
                got, ok = cclasso_solve(s, lam, max_iter=max_iter)
                want, ok_ref = eigenbasis_solve(s, lam, max_iter=max_iter)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * top)
                assert ok == ok_ref

    def test_soft_threshold_zeros_offdiagonal(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6))
        s = a @ a.T / 6
        z, _ = cclasso_solve(s, lam=50.0)
        off = z[~np.eye(6, dtype=bool)]
        assert np.abs(off).max() < 1e-8

    def test_sparsity_monotone_in_lambda(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 40))
        s = np.cov(a)
        counts = []
        for lam in (0.001, 0.01, 0.05, 0.1, 0.3, 1.0):
            z, _ = cclasso_solve(s, lam)
            off = z[~np.eye(8, dtype=bool)]
            counts.append(int((np.abs(off) > 1e-6).sum()))
        assert counts == sorted(counts, reverse=True)

    def test_converged_flag(self):
        s = np.eye(5)
        z, converged = cclasso_solve(s, lam=0.1, max_iter=200)
        assert converged


class TestFitNull:
    def test_iid_noise_is_flat_and_insignificant(self):
        res = cclasso_fit(noise_table(), AS_IS)
        r = res.weighted
        off = r[~np.eye(8, dtype=bool)]
        assert np.abs(off).mean() < 0.1
        pv = res.pvalues[np.triu_indices(8, k=1)]
        assert (pv > 0.05).mean() >= 0.9


class TestFitPlanted:
    def test_planted_pair_dominates(self):
        res = cclasso_fit(planted_table(), AS_IS)
        r = np.abs(res.weighted.copy())
        np.fill_diagonal(r, 0.0)
        i, j = np.unravel_index(np.argmax(r), r.shape)
        assert {i, j} == {0, 1}
        assert res.pvalues[0, 1] <= 0.1


class TestResultInvariants:
    def test_correlation_is_psd_with_unit_diagonal(self):
        res = cclasso_fit(planted_table(p=5, n=200, seed=4), AS_IS)
        r = res.weighted
        np.testing.assert_allclose(np.diag(r), 1.0)
        assert np.linalg.eigvalsh(r).min() >= -1e-8

    def test_pvalues_symmetric_in_unit_interval(self):
        res = cclasso_fit(noise_table(p=5, n=120, seed=2), AS_IS)
        pv = res.pvalues
        np.testing.assert_array_equal(pv, pv.T)
        assert (pv >= 0.0).all() and (pv <= 1.0).all()
        np.testing.assert_array_equal(np.diag(pv), 0.0)

    def test_deterministic_under_seed(self):
        a = cclasso_fit(noise_table(p=5, n=120, seed=2), AS_IS)
        b = cclasso_fit(noise_table(p=5, n=120, seed=2), AS_IS)
        np.testing.assert_array_equal(a.weighted, b.weighted)
        np.testing.assert_array_equal(a.pvalues, b.pvalues)
        assert a.selection["lambda"] == b.selection["lambda"]


class TestParams:
    def test_defaults(self):
        params = CclassoParams()
        assert params.pseudo == 0.5
        assert params.k_cv == 3
        assert params.lam_int == (1e-4, 1.0)
        assert params.k_max == 20
        assert params.n_boot == 20

    def test_small_folds_rejected(self):
        with pytest.raises(EstimatorError, match="fold"):
            cclasso_fit(noise_table(p=4, n=8, seed=0), AS_IS)

    def test_nonpositive_values_need_counts_flag(self):
        rng = np.random.default_rng(1)
        vals = np.floor(rng.lognormal(1.0, 1.0, size=(60, 5)))
        table = make_table(vals)
        assert (vals == 0).any()
        with pytest.raises(TransformError, match="without zeros"):
            cclasso_fit(table, CclassoParams(pseudo=0.0))
        res = cclasso_fit(table)
        assert res.weighted.shape == (5, 5)

    def test_negative_pseudo_rejected(self):
        with pytest.raises(TransformError, match="pseudo"):
            cclasso_fit(noise_table(p=4, n=60, seed=0), CclassoParams(pseudo=-0.5))
