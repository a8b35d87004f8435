"""End-to-end behavior of the sparse-network estimators.

The chain fixture in conftest pins one compositional simulation (p=10,
n=500, seed 2) reused across estimator and acceptance tests so every
recovery claim refers to the same data.
"""

from __future__ import annotations

import logging
import time
from functools import partial

import numpy as np
import pytest

from taxonet import estimators, gcoda_fit, neighborhood, solvers, spieceasi_fit, spring_fit
from taxonet.errors import EstimatorError, SolverError
from taxonet.estimators import GcodaParams, SpieceasiParams, SpringParams
from taxonet.selection import ebic_choose, ebic_score

from conftest import (
    acceptance_table,
    chain_count_table,
    chain_edges,
    f1_score,
    gaussian_from_precision,
    make_table,
    mixed_chain_precision,
)


def iid_noise_table(p=10, n=300, seed=11):
    rng = np.random.default_rng(seed)
    return make_table(np.floor(rng.lognormal(3.0, 0.6, size=(n, p))) + 1.0)


def continuous_chain_table(p=10, n=500, seed=2, scale=100.0):
    """Positive continuous abundances (no zeros, no rounding) whose log
    follows the mixed-sign chain model."""
    rng = np.random.default_rng(seed)
    latent = gaussian_from_precision(mixed_chain_precision(p), n, rng)
    return make_table(np.exp(latent) * scale)


class TestSpieceasiMb:
    def test_chain_recovery(self):
        fit = spieceasi_fit(chain_count_table(), mode="mb")
        f1 = f1_score(fit.network.edge_set(), chain_edges(10))
        assert f1 >= 0.8

    def test_iid_noise_gives_sparse_network(self):
        fit = spieceasi_fit(iid_noise_table(), mode="mb")
        assert fit.network.density() < 0.05

    def test_defaults(self):
        params = SpieceasiParams()
        assert params.lambda_min_ratio == 1e-2
        assert params.nlambda == 15
        assert params.resolved_rep_num("mb") == 20
        assert params.resolved_rep_num("glasso") == 50
        fit = spieceasi_fit(chain_count_table(p=6, n=80, seed=0), mode="mb")
        assert fit.params["rep_num"] == 20

    def test_deterministic(self):
        a = spieceasi_fit(chain_count_table(), mode="mb")
        b = spieceasi_fit(chain_count_table(), mode="mb")
        assert a.network.edge_set() == b.network.edge_set()
        assert a.selection == b.selection

    def test_unknown_mode_rejected(self):
        with pytest.raises(EstimatorError, match="mode"):
            spieceasi_fit(chain_count_table(p=5, n=40, seed=0), mode="ridge")


class TestSpieceasiGlasso:
    def test_iid_noise_gives_sparse_network(self):
        fit = spieceasi_fit(iid_noise_table(p=6, n=150), mode="glasso")
        assert fit.network.density() < 0.05

    def test_rep_num_resolution_recorded(self):
        fit = spieceasi_fit(iid_noise_table(p=5, n=60), mode="glasso")
        assert fit.params["rep_num"] == 50
        assert fit.method == "spieceasi_glasso"


class TestSpring:
    def test_agrees_with_mb_on_continuous_data(self):
        table = continuous_chain_table()
        spring = spring_fit(table)
        mb = spieceasi_fit(table, mode="mb")
        a = spring.network.edge_set()
        b = mb.network.edge_set()
        union = a | b
        assert union, "both estimators returned empty networks"
        jaccard = len(a & b) / len(union)
        assert jaccard >= 0.7

    def test_iid_noise_gives_sparse_network(self):
        fit = spring_fit(iid_noise_table())
        assert fit.network.density() < 0.05

    def test_defaults(self):
        params = SpringParams()
        assert params.nlambda == 15
        assert params.rep_num == 20

    def test_carries_latent_correlation(self):
        fit = spring_fit(chain_count_table(p=6, n=120, seed=4))
        assert fit.weighted is not None
        assert fit.weighted.shape == (6, 6)
        np.testing.assert_allclose(np.diag(fit.weighted), 1.0)

    def test_four_samples_fit_on_three_row_subsamples(self, monkeypatch):
        # the 4-sample floor is the full table's; StARS subsamples of it keep 3 rows
        rows = []
        kendall = estimators.kendall_matrix
        monkeypatch.setattr(estimators, "kendall_matrix",
                            lambda x: rows.append(len(x)) or kendall(x))
        table = make_table(np.random.default_rng(0).integers(1, 50, size=(4, 6)))
        fit = spring_fit(table)
        assert set(rows) == {3, 4}
        adj = fit.network.adj
        assert adj.shape == (6, 6) and (adj == adj.T).all() and not np.diag(adj).any()
        assert np.isfinite(fit.weighted).all()
        assert np.isfinite(fit.selection["instability"]).all()


def full_path_stars(x, fitter, path, params):
    """StARS without the early stop: every penalty fitted on every
    subsample, the selection rule applied to the whole instability curve.
    Returns the selected index, whether the threshold was met, the monotone
    curve and the refit adjacency."""
    n, p = x.shape
    size = max(2, int(np.floor(params.resolved_ratio(n) * n)))
    children = np.random.SeedSequence(params.seed).spawn(params.rep_num)
    subs = np.array([
        x[np.sort(np.random.default_rng(c).choice(n, size=size, replace=False))]
        for c in children
    ])
    adj = np.stack([a for a, _ in fitter(subs, path.values)], axis=1)
    assert adj.shape == (params.rep_num, path.nlambda, p, p)
    freq = adj.sum(axis=0) / params.rep_num
    xi = 2.0 * freq * (1.0 - freq)
    instability = np.array(
        [np.triu(xi[k], k=1).sum() / (p * (p - 1) / 2.0) for k in range(path.nlambda)]
    )
    monotone = np.maximum.accumulate(instability)
    ok = np.flatnonzero(monotone <= params.beta_threshold)
    sel = int(ok[-1]) if ok.size else int(np.argmin(monotone))
    full, _ = next(iter(fitter(x[None], path.values[sel : sel + 1])))
    return sel, bool(ok.size), monotone, full[0]


STARS_FITS = {
    "spieceasi_mb": partial(spieceasi_fit, mode="mb"),
    "spieceasi_glasso": partial(spieceasi_fit, mode="glasso"),
    "spring": spring_fit,
}


class TestStarsEarlyStop:
    @pytest.mark.parametrize("method", sorted(STARS_FITS))
    def test_same_selection_as_full_path(self, method, monkeypatch):
        calls = []
        stars_select = estimators.stars_select

        def recording(x, fitter, path, params, **kwargs):
            res = stars_select(x, fitter, path, params, **kwargs)
            calls.append((x, fitter, path, params, res))
            return res

        monkeypatch.setattr(estimators, "stars_select", recording)
        fit = STARS_FITS[method](acceptance_table())
        [(x, fitter, path, params, res)] = calls
        sel, met, monotone, full = full_path_stars(x, fitter, path, params)
        assert res.lambda_index == sel == fit.selection["lambda_index"]
        assert res.lam == path.values[sel] == fit.selection["lambda"]
        assert res.threshold_met == met == fit.selection["threshold_met"]
        np.testing.assert_array_equal(fit.network.adj, full)
        # the recorded curve is the full one cut after its first value
        # above the threshold
        k = len(fit.selection["instability"])
        assert fit.selection["instability"] == monotone[:k].tolist()
        over = np.flatnonzero(monotone > params.beta_threshold)
        assert k == (over[0] + 1 if over.size else path.nlambda)
        assert k < path.nlambda
        assert fit.selection["unconverged_fits"] == 0

    @pytest.mark.parametrize("method", sorted(STARS_FITS))
    def test_fits_at_their_limit_are_counted(self, method, monkeypatch):
        table = chain_count_table(p=6, n=80, seed=0)
        monkeypatch.setattr(neighborhood, "LASSO_MAX_SWEEPS", 2)
        for name in ("graphical_lasso", "graphical_lasso_batch"):
            monkeypatch.setattr(
                estimators, name, partial(getattr(solvers, name), max_iter=1)
            )
        fit = STARS_FITS[method](table)
        rep_num = fit.params["rep_num"]
        evaluated = len(fit.selection["instability"])
        # one fit per subsample, or one regression per subsample and node,
        # at every evaluated penalty, plus the full-data refit
        per_fit = 1 if method == "spieceasi_glasso" else table.n_taxa
        assert 0 < fit.selection["unconverged_fits"] <= per_fit * (rep_num * evaluated + 1)


def test_inner_solves_at_their_sweep_limit_are_recorded(monkeypatch):
    # a graphical-lasso fit whose inner lasso stopped at LASSO_MAX_SWEEPS
    # without a certified exact solution is not converged, and both methods
    # that run such fits record it; with certificates, two sweeps often
    # find the active set, so the exact solves are turned down here
    table = chain_count_table(p=6, n=120, seed=4)
    gcoda_params = GcodaParams(nlambda=6)
    glasso_params = SpieceasiParams(rep_num=5)
    assert gcoda_fit(table, gcoda_params).selection["unconverged"] == []
    assert spieceasi_fit(table, "glasso", glasso_params).selection["unconverged_fits"] == 0
    monkeypatch.setattr(solvers, "LASSO_MAX_SWEEPS", 2)
    monkeypatch.setattr(solvers, "_active_set_solve",
                        lambda v, b, beta, lam: (beta, np.zeros(len(b), dtype=bool)))
    assert gcoda_fit(table, gcoda_params).selection["unconverged"] == list(range(6))
    assert spieceasi_fit(table, "glasso", glasso_params).selection["unconverged_fits"] > 0


def test_gcoda_at_p_greater_than_n_finishes_with_its_limits_recorded():
    # 6 taxa x 5 samples: bench/tables.py's chain_table(5, 6, 5).  Every
    # penalty's fit stops at an iteration limit and is recorded; the exact
    # inner solves bring the fit from 6.3 s to 1.1 s (2-core VM), and the
    # bound leaves room for a loaded machine
    table = chain_count_table(p=6, n=5, seed=5, depth=1e4)
    start = time.perf_counter()
    fit = gcoda_fit(table)
    seconds = time.perf_counter() - start
    assert fit.selection["lambda_index"] == 14
    assert fit.selection["unscorable"] == []
    assert fit.selection["unconverged"] == list(range(15))
    assert seconds < 4.0


class TestGcoda:
    def test_defaults(self):
        params = GcodaParams()
        assert params.pseudo == 0.5
        assert params.lambda_min_ratio == 1e-4
        assert params.nlambda == 15
        assert params.ebic_gamma == 0.5

    def test_chain_recovery(self):
        fit = gcoda_fit(chain_count_table())
        f1 = f1_score(fit.network.edge_set(), chain_edges(10))
        assert f1 >= 0.7

    def test_no_signal_gives_empty_network(self):
        fit = gcoda_fit(iid_noise_table())
        assert fit.network.n_edges == 0

    def test_composition_input_without_pseudo(self):
        # pseudo=0 feeds strictly positive relative abundances as they are
        rng = np.random.default_rng(5)
        comp = rng.dirichlet(np.full(6, 8.0), size=200)
        fit = gcoda_fit(make_table(comp, prefix="C"), GcodaParams(pseudo=0.0))
        assert fit.network.adj.shape == (6, 6)

    def test_selection_reports_ebic(self):
        fit = gcoda_fit(chain_count_table(p=6, n=120, seed=4))
        assert "ebic" in fit.selection
        assert "lambda" in fit.selection
        assert fit.selection["lambda_index"] >= 0

    def test_each_distinct_support_is_refit_once(self, monkeypatch):
        solve = estimators._gcoda_solve
        covariances, path_omegas, refits = [], [], []

        def recording(s, lam, omega0=None):
            omega, ok = solve(s, lam, omega0=omega0)
            covariances.append(s)
            if np.ndim(lam) == 0:
                path_omegas.append(omega)
            else:
                refits.append(lam.tobytes())
            return omega, ok

        monkeypatch.setattr(estimators, "_gcoda_solve", recording)
        table = chain_count_table(p=6, n=120, seed=4)
        params = GcodaParams()
        fit = gcoda_fit(table, params)

        # reference: every penalty scored with a refit of its own
        s, n, p = covariances[0], table.n_samples, table.n_taxa
        eye = np.eye(p, dtype=bool)
        supports, rows = [], []
        for lam, omega in zip(fit.selection["ebic"], path_omegas):
            mask = (omega != 0) & ~eye
            mask = mask | mask.T
            omega_r, _ = solve(s, mask)
            loglik = -(n / 2.0) * estimators._profiled_neg2loglik(s, omega_r)
            n_edges = int(mask.sum()) // 2
            rows.append([lam[0], ebic_score(loglik, n_edges, n, p, params.ebic_gamma), n_edges])
            supports.append(mask.tobytes())
        assert fit.selection["ebic"] == rows
        assert sorted(refits) == sorted(set(supports))
        assert len(refits) < len(supports)

    def test_p_greater_than_n_scores_what_it_can(self, caplog):
        rng = np.random.default_rng(3)
        counts = rng.poisson(rng.uniform(5, 60, size=6), size=(4, 6))
        with caplog.at_level(logging.WARNING, logger="taxonet"):
            fit = gcoda_fit(make_table(counts), GcodaParams(nlambda=8))
        sel = fit.selection
        rows = sel["ebic"]
        assert [row[0] for row in rows] == sorted((row[0] for row in rows), reverse=True)
        # support refits fail from penalty 2 on; the penalized fit fails at 7
        assert sel["unscorable"] == [2, 3, 4, 5, 6, 7]
        assert [k for k, row in enumerate(rows) if row[1] is None] == sel["unscorable"]
        assert [k for k, row in enumerate(rows) if row[2] is None] == [7]
        assert sel["lambda_index"] == ebic_choose(np.array(rows[:2]))
        assert fit.network.n_edges == rows[sel["lambda_index"]][2]
        assert "6 of 8 penalties could not be scored" in caplog.text

    def test_failed_penalized_fit_ends_the_walk(self, monkeypatch):
        solve = estimators._gcoda_solve
        penalized = []

        def failing(s, lam, omega0=None):
            if np.ndim(lam) == 0:
                penalized.append(lam)
                if len(penalized) == 4:
                    raise SolverError("working covariance lost positive definiteness")
            return solve(s, lam, omega0=omega0)

        monkeypatch.setattr(estimators, "_gcoda_solve", failing)
        fit = gcoda_fit(chain_count_table(p=6, n=120, seed=4))
        rows = fit.selection["ebic"]
        assert len(penalized) == 4 and len(rows) == 15
        assert fit.selection["unscorable"] == list(range(3, 15))
        assert all(row[1] is None and row[2] is None for row in rows[3:])
        assert all(row[1] is not None for row in rows[:3])
        assert fit.selection["lambda_index"] < 3

    def test_no_scorable_penalty_is_an_estimator_error(self, monkeypatch):
        solve = estimators._gcoda_solve

        def failing_refits(s, lam, omega0=None):
            if np.ndim(lam):
                raise SolverError("working covariance lost positive definiteness")
            return solve(s, lam, omega0=omega0)

        monkeypatch.setattr(estimators, "_gcoda_solve", failing_refits)
        with pytest.raises(EstimatorError, match="no penalty could be scored"):
            gcoda_fit(chain_count_table(p=6, n=60, seed=4), GcodaParams(nlambda=4))

    def test_unconverged_inner_fit_is_recorded(self, monkeypatch):
        table = chain_count_table(p=6, n=120, seed=4)
        params = GcodaParams(nlambda=6)
        assert gcoda_fit(table, params).selection["unconverged"] == []
        fit_glasso = estimators.graphical_lasso
        calls = []

        def one_unconverged(s, lam):
            est = fit_glasso(s, lam)
            calls.append(est)
            # the third inner fit reports that it stopped at its iteration limit
            if len(calls) == 3:
                return solvers.PrecisionEstimate(est.omega, False, est.n_iter)
            return est

        monkeypatch.setattr(estimators, "graphical_lasso", one_unconverged)
        fit = gcoda_fit(table, params)
        assert len(calls) > 3
        # the third inner fit belongs to the penalized solve at the first penalty
        assert fit.selection["unconverged"] == [0]

    def test_unconverged_refit_counts_for_every_penalty_sharing_its_support(
        self, monkeypatch
    ):
        table = chain_count_table(p=6, n=120, seed=4)
        params = GcodaParams(nlambda=6)
        rows = gcoda_fit(table, params).selection["ebic"]
        # the three densest penalties give the full support and share one refit
        assert [row[2] for row in rows[3:]] == [15.0] * 3
        assert [row[2] for row in rows[:3]] != [15.0] * 3
        solve = estimators._gcoda_solve

        def full_refit_unconverged(s, lam, omega0=None):
            omega, ok = solve(s, lam, omega0=omega0)
            if np.ndim(lam) and lam.sum() == lam.size - len(lam):   # the full support
                return omega, False
            return omega, ok

        monkeypatch.setattr(estimators, "_gcoda_solve", full_refit_unconverged)
        fit = gcoda_fit(table, params)
        assert fit.selection["unconverged"] == [3, 4, 5]
        assert fit.selection["ebic"] == rows
