import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxonet import SolverError, graphical_lasso, solvers
from taxonet.solvers import (
    GLASSO_INNER_TOL,
    GLASSO_MAX_ITER,
    GLASSO_TOL,
    LASSO_MAX_SWEEPS,
    _assemble_precision,
    _cd_gram,
    _cd_gram_batch,
    _precision_diagonal,
    graphical_lasso_batch,
    graphical_lasso_support,
)

from conftest import lasso_from_gram


def random_spd(rng, p, jitter=0.5):
    a = rng.normal(size=(p, p))
    return a @ a.T / p + jitter * np.eye(p)


def penalized_loglik(s, omega, lam):
    """log det(omega) - tr(S omega) - lam * sum_offdiag |omega_ij|."""
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        return -np.inf
    pen = np.abs(omega).sum() - np.trace(np.abs(omega))
    return logdet - np.sum(s * omega) - lam * pen


class TestLasso:
    def test_unpenalized_solves_linear_system(self, rng):
        v = random_spd(rng, 6)
        b = rng.normal(size=6)
        beta = lasso_from_gram(v, b, lam=0.0)
        np.testing.assert_allclose(beta, np.linalg.solve(v, b), atol=1e-6)

    def test_orthogonal_design_soft_thresholds(self, rng):
        # with V = I the minimizer is coordinatewise soft thresholding of b
        b = rng.normal(size=8) * 2.0
        lam = 0.7
        beta = lasso_from_gram(np.eye(8), b, lam)
        expected = np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)
        np.testing.assert_allclose(beta, expected, atol=1e-9)

    def test_large_penalty_gives_zero(self, rng):
        v = random_spd(rng, 5)
        b = rng.normal(size=5)
        beta = lasso_from_gram(v, b, lam=float(np.abs(b).max()) + 1.0)
        np.testing.assert_array_equal(beta, 0.0)

    def test_kkt_conditions_hold(self, rng):
        for _ in range(20):
            p = int(rng.integers(3, 9))
            v = random_spd(rng, p)
            b = rng.normal(size=p)
            lam = float(rng.uniform(0.05, 0.5))
            beta = lasso_from_gram(v, b, lam, tol=1e-12)
            grad = v @ beta - b
            for k in range(p):
                if beta[k] > 0:
                    assert grad[k] == pytest.approx(-lam, abs=1e-6)
                elif beta[k] < 0:
                    assert grad[k] == pytest.approx(lam, abs=1e-6)
                else:
                    assert abs(grad[k]) <= lam + 1e-6

    def test_warm_start_reaches_same_solution(self, rng):
        v = random_spd(rng, 6)
        b = rng.normal(size=6)
        cold = lasso_from_gram(v, b, 0.2)
        warm = lasso_from_gram(v, b, 0.2, beta0=rng.normal(size=6))
        np.testing.assert_allclose(warm, cold, atol=1e-6)


class TestGraphicalLasso:
    def test_zero_penalty_inverts_covariance(self, rng):
        for _ in range(20):
            s = random_spd(rng, 5)
            est = graphical_lasso(s, lam=0.0)
            np.testing.assert_allclose(est.omega, np.linalg.inv(s), atol=1e-5)

    def test_huge_penalty_gives_diagonal(self, rng):
        s = random_spd(rng, 6)
        lam_max = np.abs(s - np.diag(np.diag(s))).max()
        est = graphical_lasso(s, lam=lam_max * 1.05)
        off = est.omega[~np.eye(6, dtype=bool)]
        np.testing.assert_allclose(off, 0.0, atol=1e-10)
        np.testing.assert_allclose(np.diag(est.omega), 1.0 / np.diag(s), atol=1e-8)

    def test_identity_input_is_fixed_point(self):
        est = graphical_lasso(np.eye(4), lam=0.1)
        np.testing.assert_allclose(est.omega, np.eye(4), atol=1e-10)

    def test_output_symmetric_positive_definite(self, rng):
        s = random_spd(rng, 8)
        est = graphical_lasso(s, lam=0.15)
        np.testing.assert_allclose(est.omega, est.omega.T, atol=1e-12)
        assert np.linalg.eigvalsh(est.omega).min() > 0

    def test_objective_beats_nearby_perturbations(self, rng):
        # the returned iterate should be at least as good as random feasible
        # perturbations of itself under the penalized log-likelihood
        s = random_spd(rng, 5)
        lam = 0.2
        est = graphical_lasso(s, lam, tol=1e-7)
        base = penalized_loglik(s, est.omega, lam)
        for _ in range(50):
            d = rng.normal(size=(5, 5)) * 1e-3
            d = 0.5 * (d + d.T)
            assert penalized_loglik(s, est.omega + d, lam) <= base + 1e-6

    def test_penalty_shrinks_offdiagonals_monotonically(self, rng):
        s = random_spd(rng, 6)
        norms = []
        for lam in (0.0, 0.1, 0.3, 0.8):
            est = graphical_lasso(s, lam)
            off = est.omega[~np.eye(6, dtype=bool)]
            norms.append(np.abs(off).sum())
        assert all(a >= b - 1e-8 for a, b in zip(norms, norms[1:]))

    def test_sparsity_increases_with_penalty(self, rng):
        s = np.corrcoef(rng.normal(size=(40, 7)), rowvar=False)
        low = graphical_lasso(s, 0.05)
        high = graphical_lasso(s, 0.5)
        nz = lambda e: (np.abs(e.omega[~np.eye(7, dtype=bool)]) > 1e-8).sum()
        assert nz(high) <= nz(low)

    def test_rejects_asymmetric_input(self, rng):
        s = random_spd(rng, 4)
        s[0, 1] += 1.0
        with pytest.raises(SolverError, match="symmetric"):
            graphical_lasso(s, 0.1)

    def test_rejects_negative_penalty(self, rng):
        with pytest.raises(SolverError, match="nonnegative"):
            graphical_lasso(np.eye(3), -0.1)

    def test_rejects_a_penalty_matrix(self, rng):
        s = random_spd(rng, 4)
        with pytest.raises(SolverError, match="one penalty"):
            graphical_lasso(s, np.full((4, 4), 0.1))
        with pytest.raises(SolverError, match="nonnegative"):
            graphical_lasso(s, np.nan)

    def test_inner_solve_at_its_sweep_limit_is_not_converged(self, monkeypatch):
        s = random_spd(np.random.default_rng(1), 8)
        lam = 0.05 * float(np.abs(s - np.diag(np.diag(s))).max())
        assert graphical_lasso(s, lam).converged
        # the outer sweeps still settle, but each column's lasso stops early
        monkeypatch.setattr(solvers, "LASSO_MAX_SWEEPS", 2)
        est = graphical_lasso(s, lam)
        assert not est.converged and est.n_iter < GLASSO_MAX_ITER
        _, converged, n_iter = graphical_lasso_batch(np.array([s, s]), [lam, lam])
        assert not converged.any() and (n_iter == est.n_iter).all()

    def test_reports_iteration_count_and_path(self, rng):
        s = random_spd(rng, 5)
        lam = 0.1
        est = graphical_lasso(s, lam)
        assert est.converged
        assert est.n_iter >= 2
        # the objective after each outer sweep, read from fits stopped there
        path = []
        for k in range(1, est.n_iter + 1):
            fit = graphical_lasso(s, lam, max_iter=k)
            assert fit.n_iter == k and fit.converged == (k == est.n_iter)
            path.append(penalized_loglik(s, fit.omega, lam))
        assert fit.omega.tobytes() == est.omega.tobytes()
        # outer sweeps should not degrade the objective materially
        assert all(b >= a - 1e-6 for a, b in zip(path, path[1:]))


# References: the scalar solver (without its objective bookkeeping) and the
# batched solver that the one solver replaced, both pure coordinate descent
# whose inner solves stop at GLASSO_INNER_TOL.  The one solver ends each inner
# solve exactly, so it must give their outcomes, supports and converged flags,
# and their omega to OMEGA_RTOL.  They share the kernels and
# _precision_diagonal, so a NaN iterate raises in them as it does in the one
# solver.


def reference_graphical_lasso(s, lam, tol=GLASSO_TOL, max_iter=GLASSO_MAX_ITER):
    """The scalar solver: one problem, scalar kernel, its own sweep loop."""
    p = s.shape[0]
    lam_mat = np.full((p, p), float(lam)) if np.ndim(lam) == 0 else np.asarray(lam)
    w = s.copy()
    betas = np.zeros((p, p - 1))
    idx = np.arange(p)
    converged = False
    n_iter = 0
    for it in range(max_iter):
        n_iter = it + 1
        max_change = 0.0
        for j in range(p):
            rest = idx != j
            v = np.ascontiguousarray(w[np.ix_(rest, rest)])
            b = s[rest, j]
            beta = betas[j]
            _cd_gram(
                v, b, beta,
                np.ascontiguousarray(lam_mat[rest, j]),
                GLASSO_INNER_TOL, LASSO_MAX_SWEEPS,
            )
            w12 = v @ beta
            change = np.abs(w12 - w[rest, j]).max(initial=0.0)
            if change > max_change:
                max_change = change
            w[rest, j] = w12
            w[j, rest] = w12
        _assemble_precision(w[None], betas[None])
        if max_change < tol:
            converged = True
            break
    return _assemble_precision(w[None], betas[None])[0], converged, n_iter


def reference_batch_slice(s, lam, tol, max_iter, omega, converged, n_iter):
    n, p = s.shape[:2]
    live = np.arange(n)
    w = s.copy()
    betas = np.zeros((n, p, p - 1))
    pen = np.repeat(lam[:, None], p - 1, axis=1)
    for it in range(max_iter):
        n_iter[live] = it + 1
        max_change = np.zeros(len(live))
        for j in range(p):
            rest = np.arange(p) != j
            v = np.ascontiguousarray(w[:, rest][:, :, rest])
            beta = betas[:, j]
            b = s[:, rest, j][live]
            _cd_gram_batch(v, b, beta, pen, GLASSO_INNER_TOL, LASSO_MAX_SWEEPS)
            w12 = np.matmul(v, beta[:, :, None])[:, :, 0]
            np.maximum(max_change, np.abs(w12 - w[:, rest, j]).max(axis=1), out=max_change)
            w[:, rest, j] = w12
            w[:, j, rest] = w12
        _precision_diagonal(w, betas)
        done = max_change < tol
        converged[live[done]] = True
        if it == max_iter - 1:
            done[:] = True
        if done.any():
            omega[live[done]] = _assemble_precision(w[done], betas[done])
            keep = ~done
            live, w, betas, pen = live[keep], w[keep], betas[keep], pen[keep]
            if not len(live):
                break


def reference_graphical_lasso_batch(s, lam, tol=GLASSO_TOL, max_iter=GLASSO_MAX_ITER):
    """The batched solver: scalar penalties, batched kernel, sliced."""
    lam = np.asarray(lam, dtype=float)
    n, p = s.shape[:2]
    omega = np.empty((n, p, p))
    converged = np.zeros(n, dtype=bool)
    n_iter = np.zeros(n, dtype=int)
    step = max(1, solvers.BATCH_MAX_ENTRIES // (p * p))
    for i in range(0, n, step):
        part = slice(i, i + step)
        reference_batch_slice(
            s[part], lam[part], tol, max_iter, omega[part], converged[part], n_iter[part]
        )
    return omega, converged, n_iter


def sample_correlation(p, n, seed):
    """Correlation of n Gaussian rows; singular when n <= p."""
    rng = np.random.default_rng(seed)
    s = np.corrcoef(rng.normal(size=(n, p)), rowvar=False)
    s = 0.5 * (s + s.T)
    np.fill_diagonal(s, 1.0)
    return s


def lam_max(s):
    return float(np.abs(s - np.diag(np.diag(s))).max())


def unit_diagonal(p, seed):
    """A symmetric unit-diagonal matrix, often indefinite, on which a fit
    can lose positive definiteness."""
    a = np.random.default_rng(seed).uniform(-1, 1, size=(p, p))
    s = 0.5 * (a + a.T)
    np.fill_diagonal(s, 1.0)
    return s


@st.composite
def covariances(draw, max_p=20):
    p = draw(st.integers(2, max_p))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return unit_diagonal(p, seed)
    return sample_correlation(p, draw(st.integers(max(2, p // 2), 3 * p)), seed)


# omega against the references, relative to its largest entry: at most
# 1.3e-8 on 2,000 scratch fits drawn like test_scalar_penalty's and 8.4e-9
# on 8,960 problems drawn like test_batch's
OMEGA_RTOL = 1e-6


def outcome(solve):
    """A fit's (omega, converged, n_iter) arrays, or the solver error."""
    try:
        omega, converged, n_iter = solve()
    except SolverError as exc:
        return str(exc)
    return np.asarray(omega), np.asarray(converged), np.asarray(n_iter)


def fit_bits(solve):
    """A fit's (omega bytes, converged, n_iter), or the solver error."""
    got = outcome(solve)
    if isinstance(got, str):
        return got
    omega, converged, n_iter = got
    return omega.tobytes(), converged.tolist(), n_iter.tolist()


def assert_agrees(got, ref):
    """The same SolverError outcome and, when both fit, the same supports
    and converged flags, with each omega within OMEGA_RTOL of its largest
    entry."""
    if isinstance(got, str) or isinstance(ref, str):
        assert got == ref
        return
    (omega, converged, _), (ref_omega, ref_converged, _) = got, ref
    np.testing.assert_array_equal(omega != 0, ref_omega != 0)
    np.testing.assert_array_equal(converged, ref_converged)
    err = np.abs(omega - ref_omega).max(axis=(-2, -1))
    assert (err <= OMEGA_RTOL * np.abs(ref_omega).max(axis=(-2, -1))).all()


def single(s, lam, max_iter):
    est = graphical_lasso(s, lam, max_iter=max_iter)
    return est.omega, est.converged, est.n_iter


def capped_reference(s, lam, max_iter=GLASSO_MAX_ITER):
    """reference_graphical_lasso under a rule it predates: a fit that has an
    inner solve stopped at LASSO_MAX_SWEEPS is not converged.  The
    reference's scalar-kernel calls are watched for such solves."""
    capped = []

    def kernel(*args):
        sweeps = solvers._cd_gram(*args)
        capped.append(sweeps >= LASSO_MAX_SWEEPS)
        return sweeps

    with mock.patch.object(sys.modules[__name__], "_cd_gram", kernel):
        omega, converged, n_iter = reference_graphical_lasso(s, lam, max_iter=max_iter)
    return omega, converged and not any(capped), n_iter


def capped_batch_reference(s, lam, max_iter=GLASSO_MAX_ITER):
    """reference_graphical_lasso_batch under the same rule.  A problem's
    inner solves are read from its scalar reference fit, whose kernel gives
    the batched kernel's bits."""
    omega, converged, n_iter = reference_graphical_lasso_batch(s, lam, max_iter=max_iter)
    for i in np.flatnonzero(converged):
        converged[i] = capped_reference(s[i], lam[i], max_iter)[1]
    return omega, converged, n_iter


def correlation_batch(p, count, seed):
    """``count`` sample correlations of p variables, singular when their
    sample count is at most p, with penalties below their largest
    off-diagonal entry."""
    rng = np.random.default_rng(seed)
    s = np.array([sample_correlation(p, int(rng.integers(max(2, p // 2), 3 * p)), seed + k)
                  for k in range(count)])
    lam = rng.uniform(0.05, 1.0, size=count) * [lam_max(x) for x in s]
    return s, lam


class TestOneSolverBits:
    """The one solver against the coordinate-descent references."""

    @settings(max_examples=40, deadline=None)
    @given(covariances(), st.floats(0.05, 1.1), st.integers(1, 40))
    def test_scalar_penalty(self, s, frac, max_iter):
        lam = frac * lam_max(s)
        assert_agrees(outcome(lambda: single(s, lam, max_iter)),
                      outcome(lambda: capped_reference(s, lam, max_iter)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 7), st.integers(0, 2**32 - 1),
           st.integers(1, 40))
    def test_batch(self, p, count, seed, max_iter):
        s, lam = correlation_batch(p, count, seed)
        assert_agrees(outcome(lambda: graphical_lasso_batch(s, lam, max_iter=max_iter)),
                      outcome(lambda: capped_batch_reference(s, lam, max_iter)))

    def test_batch_that_shrinks_to_one_live_problem(self):
        # the identity stops after one sweep and the others at distinct
        # sweeps, so the last sweeps run a single live problem
        s = np.array([np.eye(8)] + [sample_correlation(8, 12, seed) for seed in (1, 2)])
        lam = np.array([0.1, 0.2, 0.02])
        got = outcome(lambda: graphical_lasso_batch(s, lam))
        assert_agrees(got, outcome(lambda: capped_batch_reference(s, lam)))
        n_iter = got[2]
        assert n_iter[0] == 1 and (n_iter == n_iter.max()).sum() == 1

    def test_sliced_batch_with_a_tail_of_one(self, monkeypatch):
        monkeypatch.setattr(solvers, "BATCH_MAX_ENTRIES", 2 * 6 * 6)
        s = np.array([sample_correlation(6, 20, seed) for seed in range(5)])
        lam = np.linspace(0.05, 0.3, 5)
        assert_agrees(outcome(lambda: graphical_lasso_batch(s, lam)),
                      outcome(lambda: capped_batch_reference(s, lam)))


class TestBatchMatchesSingleFits:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 7), st.integers(0, 2**32 - 1),
           st.integers(1, 40), st.booleans())
    def test_each_problem_gives_its_stack_of_one_bits(self, p, count, seed, max_iter, sliced):
        # tables with no more samples than variables give singular
        # correlations, whose fits meet singular blocks and are solved again
        # by coordinate descent alone
        s, lam = correlation_batch(p, count, seed)
        entries = 2 * p * p if sliced else solvers.BATCH_MAX_ENTRIES
        with mock.patch.object(solvers, "BATCH_MAX_ENTRIES", entries):
            whole = outcome(lambda: graphical_lasso_batch(s, lam, max_iter=max_iter))
        ones = [outcome(lambda: graphical_lasso_batch(s[i : i + 1], lam[i : i + 1],
                                                      max_iter=max_iter))
                for i in range(count)]
        if isinstance(whole, str):
            assert whole in ones
            return
        for i, one in enumerate(ones):
            assert not isinstance(one, str), one
            assert one[0][0].tobytes() == whole[0][i].tobytes()
            assert (one[1][0], one[2][0]) == (whole[1][i], whole[2][i])


def never_certified(v, b, beta, lam):
    return beta, np.zeros(len(b), dtype=bool)


class TestCertifiedInnerSolves:
    def test_accepted_solutions_meet_the_optimality_conditions(self, monkeypatch):
        accepted = []
        certify = solvers._active_set_solve

        def recording(v, b, beta, lam):
            x, ok = certify(v, b, beta, lam)
            accepted.extend((v[i], b[i], lam[i, 0], x[i]) for i in np.flatnonzero(ok))
            return x, ok

        monkeypatch.setattr(solvers, "_active_set_solve", recording)
        for seed in range(4):
            s, lam = correlation_batch(12, 6, seed)
            graphical_lasso_batch(s, lam)
            graphical_lasso(s[0], lam[0])
        assert len(accepted) > 500 and any(x.any() for *_, x in accepted)
        worst = 0.0
        for v, b, lam, x in accepted:
            # the certificate's own product, so the bound off the active set
            # holds exactly; on it the gradient is lam * sign(x) up to rounding
            grad = b - np.matmul(v[None], x[None, :, None])[0, :, 0]
            on = x != 0
            assert (np.abs(grad[~on]) <= lam).all()
            scale = np.abs(b) + np.abs(v) @ np.abs(x) + lam
            worst = max(worst, (np.abs(grad - lam * np.sign(x)) / scale)[on].max(initial=0.0))
        # 2.4e-16 on these 768 solutions, against the 1e-6 that coordinate
        # descent to 1e-12 is held to in TestLasso::test_kkt_conditions_hold
        assert worst < 1e-12

    def test_a_failed_certificate_ends_at_the_coordinate_descent_answer(self, monkeypatch):
        # a loose tolerance of 1e3 stops coordinate descent after one sweep,
        # and many of its active sets fail the certificate
        tries = []
        certify = solvers._active_set_solve

        def recording(v, b, beta, lam):
            x, ok = certify(v, b, beta, lam)
            tries.extend(ok)
            return x, ok

        monkeypatch.setattr(solvers, "GLASSO_INNER_LOOSE_TOL", 1e3)
        monkeypatch.setattr(solvers, "_active_set_solve", recording)
        for seed in range(6):
            s = sample_correlation(10, 40, seed)
            lam = 0.1 * lam_max(s)
            assert_agrees(outcome(lambda: single(s, lam, GLASSO_MAX_ITER)),
                          outcome(lambda: capped_reference(s, lam)))
        assert 0 < tries.count(False) and 0 < tries.count(True)

    @pytest.mark.parametrize("seed", range(4))
    def test_without_certificates_it_is_the_reference(self, seed, monkeypatch):
        # every inner solve then runs coordinate descent once, to
        # GLASSO_INNER_TOL, as the references do
        monkeypatch.setattr(solvers, "GLASSO_INNER_LOOSE_TOL", GLASSO_INNER_TOL)
        monkeypatch.setattr(solvers, "_active_set_solve", never_certified)
        s, lam = correlation_batch(9, 4, seed)
        assert fit_bits(lambda: single(s[0], lam[0], GLASSO_MAX_ITER)) == fit_bits(
            lambda: capped_reference(s[0], lam[0]))
        # equal but for the sign of zeros: the batched reference keeps the
        # -0.0 coefficients its kernel writes
        got, ref = graphical_lasso_batch(s, lam), capped_batch_reference(s, lam)
        np.testing.assert_array_equal(got[0], ref[0])
        assert [a.tolist() for a in got[1:]] == [a.tolist() for a in ref[1:]]


def random_support(rng, p, density):
    """A symmetric boolean support with an empty diagonal."""
    support = np.triu(rng.random((p, p)) < density, 1)
    return support | support.T


def support_penalty(support):
    """The 0 / inf penalty matrix that holds the reference solver to
    ``support``."""
    lam = np.where(support, 0.0, np.inf)
    np.fill_diagonal(lam, 0.0)
    return lam


class TestSupportFit:
    """graphical_lasso_support, the exact refit, against the coordinate-
    descent reference held to the same support by a penalty matrix."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_matches_the_coordinate_descent_refit(self, p, seed, density):
        # with n >= 2p + 2 samples both fits stop at the same sweep, and
        # omega agrees to 1e-7 of its largest entry (5e-9 on 1500 probes);
        # the reference's inner solves stop at GLASSO_INNER_TOL, not exactly
        rng = np.random.default_rng(seed)
        s = sample_correlation(p, int(rng.integers(2 * p + 2, 4 * p + 4)), seed)
        support = random_support(rng, p, density)
        got = graphical_lasso_support(s, support)
        omega, converged, n_iter = reference_graphical_lasso(s, support_penalty(support))
        assert (got.converged, got.n_iter) == (converged, n_iter)
        np.testing.assert_allclose(got.omega, omega, rtol=0, atol=1e-7 * np.abs(omega).max())
        assert (got.omega[~support & ~np.eye(p, dtype=bool)] == 0).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.data())
    def test_p_greater_than_n_support_raises(self, p, seed, density, data):
        # n < p samples give a correlation of rank n - 1, so a support that
        # holds a clique on n nodes has no maximum-likelihood fit
        n = data.draw(st.integers(2, p - 1))
        rng = np.random.default_rng(seed)
        s = sample_correlation(p, n, seed)
        support = random_support(rng, p, density)
        clique = rng.choice(p, n, replace=False)
        support[np.ix_(clique, clique)] = True
        np.fill_diagonal(support, False)
        with pytest.raises(SolverError):
            graphical_lasso_support(s, support)

    @pytest.mark.parametrize("seed", range(5))
    def test_star_at_p_greater_than_n_is_unscorable(self, seed):
        # a tree's fit exists on 5 samples, but the fit starts from W = S:
        # the centre's first solve meets the 7 x 7 leaf block of S, of rank
        # 4, and raises; a chain on the same table fits (ROADMAP item 2
        # holds the proposed start from another positive-definite W)
        p = 8
        s = sample_correlation(p, 5, seed)
        star = np.zeros((p, p), dtype=bool)
        star[0, 1:] = True
        with pytest.raises(SolverError):
            graphical_lasso_support(s, star | star.T)
        chain = np.eye(p, k=1, dtype=bool)
        est = graphical_lasso_support(s, chain | chain.T)
        assert est.converged and np.linalg.eigvalsh(est.omega).min() > 0

    def test_full_and_empty_supports(self):
        s = sample_correlation(6, 40, 0)
        full = ~np.eye(6, dtype=bool)
        np.testing.assert_allclose(graphical_lasso_support(s, full).omega, np.linalg.inv(s),
                                   atol=1e-10)
        est = graphical_lasso_support(s, np.zeros((6, 6), dtype=bool))
        assert est.converged and est.n_iter == 2   # the second sweep changes nothing
        np.testing.assert_array_equal(est.omega, np.diag(1.0 / np.diag(s)))
