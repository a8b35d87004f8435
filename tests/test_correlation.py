import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taxonet
from taxonet import (
    EstimatorError,
    SparccParams,
    clr_transform,
    correlation_matrix,
    latent_correlation,
    mclr_transform,
    nearest_psd_correlation,
    sparcc_fit,
    tau_bridge,
)
from taxonet.cclasso import cclasso_fit
from taxonet.correlation import (
    CORRELATION_METHODS,
    average_ranks,
    kendall_matrix,
    safe_correlation,
)

from conftest import make_table


def corr_of(values, method):
    return correlation_matrix(values, make_table(values).taxa, method)


def shifted(values):
    """Count tables reject negatives; a global shift leaves every
    correlation estimator here unchanged."""
    v = np.asarray(values, dtype=float)
    return v - v.min() + 1.0


class TestPearson:
    def test_perfect_linear(self, rng):
        x = rng.normal(size=30)
        v = shifted(np.column_stack([x, 2 * x + 3, rng.normal(size=30)]))
        m = corr_of(v, "pearson")
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_recovers_generating_r(self):
        rng = np.random.default_rng(2024)
        estimates = []
        for _ in range(200):
            z = rng.standard_normal((30, 2))
            x = z[:, 0]
            y = 0.6 * z[:, 0] + np.sqrt(1 - 0.36) * z[:, 1]
            estimates.append(np.corrcoef(x, y)[0, 1])
        assert abs(np.mean(estimates) - 0.6) < 0.1

    def test_constant_column_names_taxon(self):
        v = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        with pytest.raises(EstimatorError, match="'T01'"):
            corr_of(v, "pearson")

    def test_needs_four_samples(self):
        with pytest.raises(EstimatorError, match="4 samples"):
            corr_of(np.arange(9.0).reshape(3, 3), "pearson")


class TestSpearman:
    def test_monotone_equals_one(self, rng):
        x = rng.permutation(np.arange(20.0)) + 1.0
        v = shifted(np.column_stack([x, np.exp(x / 5.0), rng.normal(size=20)]))
        assert corr_of(v, "spearman")[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert corr_of(v, "pearson")[0, 1] < 1.0 - 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(12, 3))
        v += np.abs(v.min()) + 1.0
        base = corr_of(v, "spearman")
        warped = np.column_stack([v[:, 0] ** 3, np.log(v[:, 1]), np.exp(v[:, 2] / 2)])
        np.testing.assert_allclose(corr_of(shifted(warped), "spearman"), base, atol=1e-12)


class TestBicor:
    def test_equals_pearson_when_all_weights_unit(self):
        # two-valued balanced columns: every |x - median| is equal, so all
        # biweights coincide and bicor collapses to pearson
        x = np.array([0.0, 1.0] * 8)
        y = np.array([0.0, 1.0, 1.0, 0.0] * 4)
        z = np.array([1.0, 0.0] * 8)
        v = np.column_stack([x, y, z])
        np.testing.assert_allclose(
            corr_of(v, "bicor"), corr_of(v, "pearson"), atol=1e-12
        )

    def test_downweights_single_outlier(self, rng):
        x = rng.normal(size=40) + 10.0
        y = x + rng.normal(scale=0.2, size=40)
        v = np.column_stack([x, y])
        clean_b = corr_of(v, "bicor")[0, 1]
        spoiled = v.copy()
        spoiled[0, 1] = 60.0
        spoiled_p = corr_of(spoiled, "pearson")[0, 1]
        spoiled_b = corr_of(spoiled, "bicor")[0, 1]
        assert spoiled_b > spoiled_p
        assert abs(spoiled_b - clean_b) < 0.1

    def test_mad_zero_columns_fall_back_to_pearson(self):
        # heavy central mass gives MAD 0 without a constant column; with both
        # columns falling back to mean centering bicor equals pearson exactly
        a = np.array([2.0] * 12 + [1.0, 3.0, 2.5, 1.5])
        b = np.array([5.0] * 12 + [4.0, 6.0, 5.5, 4.5])
        assert np.median(np.abs(a - np.median(a))) == 0.0
        v = np.column_stack([a, b])
        assert corr_of(v, "bicor")[0, 1] == pytest.approx(
            np.corrcoef(a, b)[0, 1], abs=1e-12
        )


def scipy_kendall(v):
    """Reference tau-b matrix, one ``scipy.stats.kendalltau`` call per pair
    with a NaN (constant column) read as 0."""
    from scipy import stats

    p = v.shape[1]
    out = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            tau = stats.kendalltau(v[:, i], v[:, j], variant="b").statistic
            out[i, j] = out[j, i] = 0.0 if np.isnan(tau) else tau
    return out


def tie_heavy_integers(n):
    return st.lists(
        st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=n, max_size=n
    ).map(lambda rows: np.array(rows, dtype=float))


@st.composite
def zero_heavy_mclr(draw):
    n = draw(st.integers(4, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    counts = rng.poisson(1.5, size=(n, 6)) * (rng.random((n, 6)) < 0.5)
    counts[:, 0] += 1 + rng.integers(0, 3, size=n)   # every sample keeps a nonzero
    counts[0, 1:] = 0
    return mclr_transform(make_table(counts))


class TestKendall:
    def test_matches_scipy_pairwise(self, rng):
        v = np.floor(rng.lognormal(1.0, 1.0, size=(15, 4)))
        assert (kendall_matrix(v) == scipy_kendall(v)).all()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 25).flatmap(tie_heavy_integers))
    def test_tie_heavy_integers_exact(self, v):
        assert (kendall_matrix(v) == scipy_kendall(v)).all()

    @settings(max_examples=40, deadline=None)
    @given(zero_heavy_mclr())
    def test_zero_heavy_mclr_exact(self, v):
        assert (v[0, 1:] == 0).all()   # mclr keeps zeros as ties at 0
        assert (kendall_matrix(v) == scipy_kendall(v)).all()

    @pytest.mark.parametrize("n", [2, 4])
    def test_tiny_samples_exact(self, n, rng):
        for _ in range(20):
            v = rng.integers(0, 3, size=(n, 5)).astype(float)
            assert (kendall_matrix(v) == scipy_kendall(v)).all()

    def test_constant_column_gives_zero(self, rng):
        v = rng.normal(size=(12, 4))
        v[:, 2] = 0.7
        m = kendall_matrix(v)
        assert (m[2, [0, 1, 3]] == 0.0).all() and (m[[0, 1, 3], 2] == 0.0).all()
        assert m[2, 2] == 1.0
        assert (m == scipy_kendall(v)).all()


class TestAverageRanks:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
    def test_matches_scipy_rankdata(self, values):
        from scipy import stats

        col = np.array(values, dtype=float)
        assert (average_ranks(col) == stats.rankdata(col)).all()


def test_import_loads_no_scipy():
    code = (
        "import sys, taxonet.cli; "
        "print(','.join(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = os.path.dirname(os.path.dirname(taxonet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == ""


class TestPermutationEquivariance:
    @pytest.mark.parametrize("method", ["pearson", "spearman", "bicor", "kendall"])
    def test_column_permutation_conjugates(self, method, rng):
        v = rng.normal(size=(25, 5)) + 5.0
        base = corr_of(v, method)
        perm = np.array([3, 0, 4, 1, 2])
        permuted = corr_of(v[:, perm], method)
        np.testing.assert_allclose(permuted, base[np.ix_(perm, perm)], atol=1e-12)


class TestBridge:
    def test_endpoints(self):
        assert tau_bridge(0.0) == pytest.approx(0.0, abs=1e-15)
        assert tau_bridge(1.0) == pytest.approx(1.0, abs=1e-15)
        assert tau_bridge(-1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_known_value(self):
        # sin(pi/4) at tau = 1/2
        assert tau_bridge(0.5) == pytest.approx(np.sqrt(0.5), abs=1e-12)


class TestPsdProjection:
    def test_indefinite_input_becomes_psd(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        assert np.linalg.eigvalsh(bad).min() < 0
        fixed = nearest_psd_correlation(bad)
        assert np.linalg.eigvalsh(fixed).min() >= -1e-10
        np.testing.assert_allclose(np.diag(fixed), 1.0)

    def test_psd_input_unchanged(self, rng):
        a = rng.normal(size=(6, 4))
        s = np.corrcoef(a, rowvar=False)
        np.testing.assert_allclose(nearest_psd_correlation(s), s, atol=1e-10)


class TestLatent:
    def test_agrees_with_pearson_on_transformed_values(self):
        # kendall-bridge and the product-moment estimator target the same
        # association for Gaussian data, so on the shared transform they must
        # agree up to Monte Carlo error
        rng = np.random.default_rng(77)
        p = 8
        cov = 0.6 * np.eye(p) + 0.4 * np.ones((p, p))
        z = rng.standard_normal((1500, p)) @ np.linalg.cholesky(cov).T
        t = make_table(np.exp(z))
        latent = latent_correlation(t)
        pear = correlation_matrix(mclr_transform(t), t.taxa, "pearson")
        off = ~np.eye(p, dtype=bool)
        assert np.abs(latent - pear)[off].max() < 0.08

    def test_planted_pair_is_strongest(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((400, 6))
        z[:, 1] = 0.9 * z[:, 0] + np.sqrt(1 - 0.81) * z[:, 1]
        t = make_table(np.floor(np.exp(z) * 30.0))
        m = np.abs(latent_correlation(t))
        np.fill_diagonal(m, 0.0)
        assert np.unravel_index(np.argmax(m), m.shape) in {(0, 1), (1, 0)}

    def test_output_is_psd(self, small_table):
        m = latent_correlation(small_table)
        assert np.linalg.eigvalsh(m).min() >= -1e-8


class TestSafeCorrelation:
    def test_constant_column_gets_zeros(self, rng):
        v = rng.normal(size=(10, 3))
        v[:, 1] = 4.0
        m = safe_correlation(v)
        assert m[0, 1] == 0.0 and m[1, 2] == 0.0
        assert m[1, 1] == 1.0
        expected = np.corrcoef(v[:, [0, 2]], rowvar=False)[0, 1]
        assert m[0, 2] == pytest.approx(expected, abs=1e-12)


def zero_heavy_counts(n, p, seed):
    """Poisson counts with a zero rate of 30-80 % per column, and at least
    one nonzero cell in every row and every column."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rng.lognormal(1.5, 1.0, size=p), size=(n, p)).astype(float)
    counts[rng.random((n, p)) < rng.uniform(0.3, 0.8, size=p)] = 0.0
    counts[np.arange(n), rng.integers(0, p, size=n)] += 1.0
    counts[rng.integers(0, n, size=p), np.arange(p)] += 1.0
    return make_table(counts)


def assert_correlation_matrix(v, p):
    """What every association estimator promises its caller: a finite,
    exactly symmetric p x p matrix in [-1, 1] with a diagonal of exactly 1."""
    assert v.shape == (p, p)
    assert np.isfinite(v).all()
    assert np.array_equal(v, v.T)
    assert (np.diag(v) == 1.0).all()
    assert (np.abs(v) <= 1.0).all()


class TestOutputInvariants:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(5, 40), st.integers(4, 12), st.integers(0, 2**32 - 1))
    def test_estimators_return_valid_correlation_matrices(self, n, p, seed):
        table = zero_heavy_counts(n, p, seed)
        clr = clr_transform(table)
        for method in CORRELATION_METHODS:
            assert_correlation_matrix(correlation_matrix(clr, table.taxa, method), p)
            frozen = clr.copy()
            frozen[:, 1] = frozen[0, 1]
            with pytest.raises(EstimatorError, match=repr(table.taxa[1])):
                correlation_matrix(frozen, table.taxa, method)
        assert_correlation_matrix(latent_correlation(table), p)
        sub = clr[: max(2, n // 2)].copy()
        sub[:, 0] = sub[0, 0]
        assert_correlation_matrix(safe_correlation(sub), p)
        assert_correlation_matrix(sparcc_fit(table, SparccParams(imax=2), seed=seed), p)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_cclasso_returns_a_valid_correlation_matrix(self, seed):
        table = zero_heavy_counts(30, 8, seed)
        assert_correlation_matrix(cclasso_fit(table, seed=seed).weighted, 8)
