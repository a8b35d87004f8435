"""Gaussian mutual information, conditional MI, and the two-stage network."""

from __future__ import annotations

import math

import numpy as np
import pytest

from taxonet.cmi import CmimnParams, cmimn_fit, conditional_mi, gaussian_mi
from taxonet.errors import EstimatorError
from taxonet.network import network_from_mask

from conftest import make_table


def unit(v: np.ndarray) -> np.ndarray:
    v = v - v.mean()
    return v / v.std()


def pair_with_exact_correlation(r: float, n: int = 400, seed: int = 0):
    """Two vectors whose sample pearson correlation is exactly r, built by
    orthogonalizing one draw against another."""
    rng = np.random.default_rng(seed)
    x = unit(rng.standard_normal(n))
    e = rng.standard_normal(n)
    e = e - (e @ x) / (x @ x) * x
    e = unit(e)
    y = r * x + math.sqrt(1.0 - r * r) * e
    return x, y


class TestGaussianMi:
    def test_uncorrelated_gives_zero(self):
        x, y = pair_with_exact_correlation(0.0)
        assert gaussian_mi(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_r06_hand_value(self):
        x, y = pair_with_exact_correlation(0.6)
        assert gaussian_mi(x, y) == pytest.approx(-0.5 * math.log(0.64), abs=1e-5)
        assert gaussian_mi(x, y) == pytest.approx(0.22314, abs=1e-4)

    def test_identical_inputs_hit_clip_ceiling(self):
        x = np.random.default_rng(5).standard_normal(100)
        ceiling = -0.5 * math.log1p(-((1.0 - 1e-12) ** 2))
        assert gaussian_mi(x, x) == pytest.approx(ceiling)
        assert gaussian_mi(x, x) > 13.0

    def test_symmetric_and_nonnegative(self):
        # symmetry is mathematical; float evaluation order leaves ulp noise
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.standard_normal(30)
            y = rng.standard_normal(30)
            assert gaussian_mi(x, y) == pytest.approx(gaussian_mi(y, x), rel=1e-12)
            assert gaussian_mi(x, y) >= 0.0

    def test_input_validation(self):
        with pytest.raises(EstimatorError, match="at least 4"):
            gaussian_mi([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(EstimatorError, match="constant"):
            gaussian_mi([1.0] * 10, list(range(10)))
        with pytest.raises(EstimatorError, match="equal length"):
            gaussian_mi(list(range(10)), list(range(12)))


class TestConditionalMi:
    n = 2000

    def test_conditionally_independent_pair_scores_near_zero(self):
        rng = np.random.default_rng(123)
        z = rng.standard_normal(self.n)
        x = z + rng.standard_normal(self.n)
        y = z + rng.standard_normal(self.n)
        assert conditional_mi(x, y, z) < 0.02

    def test_irrelevant_conditioner_changes_nothing(self):
        x, y = pair_with_exact_correlation(0.6, n=self.n, seed=123)
        z = np.random.default_rng(321).standard_normal(self.n)
        assert conditional_mi(x, y, z) == pytest.approx(gaussian_mi(x, y), abs=0.02)

    def test_fully_independent_triple_near_zero(self):
        rng = np.random.default_rng(77)
        x, y, z = rng.standard_normal((3, self.n))
        assert conditional_mi(x, y, z) < 0.02

    def test_symmetric_in_first_two_arguments(self):
        rng = np.random.default_rng(4)
        x, y, z = rng.standard_normal((3, 50))
        assert conditional_mi(x, y, z) == pytest.approx(conditional_mi(y, x, z), rel=1e-12)

    def test_conditioner_equal_to_input_is_singular(self):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((2, 40))
        with pytest.raises(EstimatorError, match="singular"):
            conditional_mi(x, y, x)


def chain_plus_noise_table(p=12, n=1000, r=0.8, seed=42):
    """Taxa 0-1-2 follow a correlation chain (0-1 and 1-2 direct, 0-2 only
    transitive); the rest are independent noise.

    The chain's two links carry opposite signs so the trio has no common
    mode for the closure inside the CLR to smear across the noise taxa."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    scale = math.sqrt(1.0 - r * r)
    t0 = r * z1 + scale * rng.standard_normal(n)
    t1 = z1
    t2 = -r * z1 + scale * z2
    noise = rng.standard_normal((n, p - 3))
    latent = np.column_stack([t0, t1, t2, noise])
    return make_table(np.exp(latent) * 50.0)


def stage1_network(res):
    """cmimn's stage-1 network: the pairs whose MI clears the first cut."""
    return network_from_mask(res.weighted >= res.selection["mi_threshold"], res.taxa)


class TestCmimnFit:
    def test_transitive_edge_removed(self):
        res = cmimn_fit(chain_plus_noise_table())
        stage1 = stage1_network(res).edge_set()
        final = res.network.edge_set()
        assert (0, 2) in stage1, "transitive pair should clear the MI cut"
        assert (0, 2) not in final

    def test_direct_edges_survive_in_a_larger_graph(self):
        # with enough noise edges the second quantile cut falls below the
        # direct links' conditional dependence, so only the transitive edge
        # is removed
        res = cmimn_fit(chain_plus_noise_table(p=20, seed=1))
        final = res.network.edge_set()
        assert (0, 2) in stage1_network(res).edge_set()
        assert (0, 1) in final
        assert (1, 2) in final
        assert (0, 2) not in final

    def test_stage2_is_subset_of_stage1(self):
        res = cmimn_fit(chain_plus_noise_table(seed=7))
        assert res.network.edge_set() <= stage1_network(res).edge_set()

    def test_pruned_edges_all_had_common_neighbors(self):
        res = cmimn_fit(chain_plus_noise_table(seed=9), CmimnParams(q1=0.7, q2=0.7))
        adj = stage1_network(res).adj.astype(bool)
        for i, j in stage1_network(res).edge_set() - res.network.edge_set():
            shared = np.flatnonzero(adj[i] & adj[j])
            shared = shared[(shared != i) & (shared != j)]
            assert shared.size > 0

    def test_stage1_count_follows_quantile_rule(self):
        p, n = 8, 200
        rng = np.random.default_rng(13)
        table = make_table(np.exp(rng.standard_normal((n, p))) * 30.0)
        res = cmimn_fit(table)
        n_pairs = p * (p - 1) // 2
        assert stage1_network(res).n_edges == math.ceil((1.0 - 0.7) * n_pairs)

    def test_scale_invariance_of_edge_sets(self):
        table = chain_plus_noise_table(seed=11)
        doubled = make_table(table.values * 2.0)
        a = cmimn_fit(table)
        b = cmimn_fit(doubled)
        assert stage1_network(a).edge_set() == stage1_network(b).edge_set()
        assert a.network.edge_set() == b.network.edge_set()

    def test_too_few_taxa_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(EstimatorError, match="3 taxa"):
            cmimn_fit(make_table(rng.lognormal(size=(30, 2))))


class TestParams:
    def test_defaults(self):
        params = CmimnParams()
        assert params.quantitative is True
        assert params.q1 == 0.7
        assert params.q2 == 0.95

    @pytest.mark.parametrize("q1,q2", [(0.0, 0.5), (0.8, 0.5), (0.5, 1.0), (-0.1, 0.9)])
    def test_invalid_quantiles_rejected(self, q1, q2):
        with pytest.raises(EstimatorError, match="quantile"):
            CmimnParams(q1=q1, q2=q2)
