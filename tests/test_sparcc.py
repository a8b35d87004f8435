import numpy as np
import pytest

from taxonet import EstimatorError, SparccParams, sparcc_fit
from taxonet.sparcc import (
    _basis_variances,
    _correlation_from_basis,
    log_ratio_variance,
    sparcc_iteration,
)

from conftest import compositional_counts, make_table


class TestLogRatioVariance:
    def test_hand_example(self):
        f = np.array([[0.2, 0.8], [0.5, 0.5]])
        t = log_ratio_variance(f)
        # two samples of ln(x0/x1): ln(1/4) and 0, sample variance (ln 4)^2 / 2
        expected = np.log(4.0) ** 2 / 2.0
        assert t[0, 1] == pytest.approx(expected, abs=1e-12)
        assert t[1, 0] == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(np.diag(t), 0.0, atol=1e-15)

    def test_brute_force_all_pairs(self, rng):
        f = rng.dirichlet(np.ones(5), size=12)
        t = log_ratio_variance(f)
        for i in range(5):
            for j in range(5):
                expected = np.var(np.log(f[:, i] / f[:, j]), ddof=1)
                assert t[i, j] == pytest.approx(expected, abs=1e-10)

    def test_per_sample_scaling_invariance(self, rng):
        f = rng.dirichlet(np.ones(6), size=20)
        scales = rng.uniform(0.1, 50.0, size=(20, 1))
        np.testing.assert_allclose(
            log_ratio_variance(f * scales), log_ratio_variance(f), atol=1e-10
        )


class TestBasisSolve:
    def test_recovers_variances_of_uncorrelated_basis(self, rng):
        # with zero basis correlation the variation relation is exact:
        # t_ij = omega_i + omega_j, and the solve must invert it
        for _ in range(10):
            p = rng.integers(4, 9)
            omega = rng.uniform(0.5, 4.0, size=p)
            t = omega[:, None] + omega[None, :]
            np.fill_diagonal(t, 0.0)
            got = _basis_variances(t, np.ones((p, p), dtype=bool), vmin=1e-4)
            np.testing.assert_allclose(got, omega, atol=1e-10)

    def test_vmin_clamps_nonpositive_solutions(self):
        # all-zero log-ratio variances solve to omega = 0, below any floor
        t = np.zeros((4, 4))
        got = _basis_variances(t, np.ones((4, 4), dtype=bool), vmin=1e-4)
        np.testing.assert_allclose(got, 1e-4)

    def test_exclusion_removes_pair_from_system(self, rng):
        omega = np.array([1.0, 2.0, 3.0, 4.0])
        t = omega[:, None] + omega[None, :]
        np.fill_diagonal(t, 0.0)
        # corrupt one pair; with the pair masked out the solve must still
        # recover the true variances exactly
        t_bad = t.copy()
        t_bad[0, 1] = t_bad[1, 0] = 50.0
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        got = _basis_variances(t_bad, mask, vmin=1e-4)
        np.testing.assert_allclose(got, omega, atol=1e-10)


class TestCorrelationFromBasis:
    def test_round_trip(self, rng):
        p = 6
        omega = rng.uniform(0.5, 3.0, size=p)
        rho = np.clip(rng.uniform(-0.8, 0.8, size=(p, p)), -1, 1)
        rho = 0.5 * (rho + rho.T)
        np.fill_diagonal(rho, 1.0)
        root = np.sqrt(np.outer(omega, omega))
        t = omega[:, None] + omega[None, :] - 2.0 * rho * root
        got = _correlation_from_basis(t, omega)
        np.testing.assert_allclose(got, rho, atol=1e-12)

    def test_clips_to_unit_interval(self):
        omega = np.array([1.0, 1.0])
        t = np.array([[0.0, 9.0], [9.0, 0.0]])   # implies rho = -3.5
        got = _correlation_from_basis(t, omega)
        assert got[0, 1] == -1.0


class TestIteration:
    def test_no_exclusions_on_independent_fractions(self, rng):
        f = rng.dirichlet(np.ones(8), size=300)
        _, excluded = sparcc_iteration(f, SparccParams())
        assert excluded == []

    def test_kmax_zero_never_excludes(self, rng):
        z = rng.standard_normal((100, 6))
        z[:, 1] = z[:, 0] * 0.98 + 0.02 * z[:, 1]
        f = np.exp(z)
        f /= f.sum(axis=1, keepdims=True)
        _, excluded = sparcc_iteration(f, SparccParams(kmax=0))
        assert excluded == []

    def test_strong_pair_excluded_first(self, rng):
        z = rng.standard_normal((400, 8))
        z[:, 3] = z[:, 2] * 0.97 + 0.05 * z[:, 3]
        f = np.exp(z)
        f /= f.sum(axis=1, keepdims=True)
        _, excluded = sparcc_iteration(f, SparccParams())
        assert excluded and excluded[0] == (2, 3)


class TestFit:
    def test_null_has_weak_offdiagonals(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((200, 8))
        t = make_table(compositional_counts(z))
        m = sparcc_fit(t, seed=0)
        off = np.abs(m[~np.eye(8, dtype=bool)])
        assert np.median(off) < 0.15

    def test_planted_pair_recovered_and_largest(self):
        rng = np.random.default_rng(31)
        z = rng.standard_normal((200, 8))
        z[:, 1] = 0.9 * z[:, 0] + np.sqrt(1 - 0.81) * z[:, 1]
        t = make_table(compositional_counts(z))
        m = sparcc_fit(t, seed=0)
        assert m[0, 1] > 0.6
        a = np.abs(m)
        np.fill_diagonal(a, 0.0)
        assert np.unravel_index(np.argmax(a), a.shape) in {(0, 1), (1, 0)}

    def test_seed_determinism(self, rng):
        z = rng.standard_normal((60, 5))
        t = make_table(compositional_counts(z))
        a = sparcc_fit(t, seed=9)
        b = sparcc_fit(t, seed=9)
        c = sparcc_fit(t, seed=10)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 0

    def test_output_shape_and_validity(self, rng):
        z = rng.standard_normal((50, 5))
        t = make_table(compositional_counts(z))
        m = sparcc_fit(t, SparccParams(imax=4), seed=1)
        assert isinstance(m, np.ndarray)
        assert m.shape == (5, 5)
        np.testing.assert_array_equal(np.diag(m), 1.0)

    def test_too_few_taxa(self, rng):
        t = make_table(np.abs(rng.normal(size=(30, 3))) + 1.0)
        with pytest.raises(EstimatorError, match="4 taxa"):
            sparcc_fit(t)

    def test_too_few_samples(self, rng):
        t = make_table(np.abs(rng.normal(size=(3, 5))) + 1.0)
        with pytest.raises(EstimatorError, match="4 samples"):
            sparcc_fit(t)

    def test_all_zero_taxon_named(self, rng):
        v = np.abs(rng.normal(size=(20, 5))) + 1.0
        v[:, 2] = 0.0
        with pytest.raises(EstimatorError, match="'T02'"):
            sparcc_fit(make_table(v))


class TestParams:
    def test_alpha_range(self):
        with pytest.raises(EstimatorError):
            SparccParams(alpha=0.0)
        with pytest.raises(EstimatorError):
            SparccParams(alpha=1.5)

    def test_imax_positive(self):
        with pytest.raises(EstimatorError):
            SparccParams(imax=0)

    def test_vmin_positive(self):
        with pytest.raises(EstimatorError):
            SparccParams(vmin=0.0)
