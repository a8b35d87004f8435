"""Consensus algebra: binarization rules, vote aggregation, thresholding,
and Hamming comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxonet.config import parse_rule
from taxonet.consensus import (
    BinarizationRule,
    WeightedConsensus,
    binarize,
    build_consensus,
    edge_records,
    hamming_distance,
    hamming_matrix,
    threshold_network,
    threshold_sweep,
)
from taxonet.errors import ConsensusError, RuleError, ThresholdError
from taxonet.network import BinaryNetwork, MethodResult


def taxa_labels(p):
    return [f"t{k}" for k in range(p)]


def net_from_pairs(p, pairs, taxa=None):
    adj = np.zeros((p, p), dtype=np.int8)
    for i, j in pairs:
        adj[i, j] = adj[j, i] = 1
    return BinaryNetwork(adj=adj, taxa=taxa or taxa_labels(p))


def corr_result(weighted, pvalues=None, method="pearson"):
    weighted = np.asarray(weighted, dtype=float)
    return MethodResult(
        method=method,
        params={},
        taxa=taxa_labels(weighted.shape[0]),
        weighted=weighted,
        pvalues=None if pvalues is None else np.asarray(pvalues, dtype=float),
    )


def symmetric(p, entries):
    m = np.zeros((p, p))
    for (i, j), v in entries.items():
        m[i, j] = m[j, i] = v
    return m


class TestBinarizationRule:
    def test_describe_strings(self):
        assert BinarizationRule("abs_threshold", threshold=0.3).describe() == "abs_threshold:0.3"
        assert BinarizationRule("top_quantile", q=0.8).describe() == "top_quantile:0.8"
        assert BinarizationRule("pvalue", alpha=0.05).describe() == "pvalue:0.05"
        assert (
            BinarizationRule("pvalue", alpha=0.05, threshold=0.3).describe()
            == "pvalue:0.05+abs:0.3"
        )
        assert BinarizationRule("native_sparse").describe() == "native_sparse"

    @pytest.mark.parametrize(
        "rule",
        [
            BinarizationRule("native_sparse"),
            BinarizationRule("abs_threshold", threshold=0.1 + 0.2),
            BinarizationRule("top_quantile", q=0.875),
            BinarizationRule("pvalue", alpha=1 / 3),
            BinarizationRule("pvalue", alpha=0.05, threshold=0.123456789),
        ],
        ids=["native_sparse", "abs_threshold", "top_quantile", "pvalue", "pvalue_abs"],
    )
    def test_describe_parses_back_to_the_rule(self, rule):
        assert parse_rule(rule.describe()) == rule

    def test_unknown_kind_rejected(self):
        with pytest.raises(RuleError, match="unknown binarization rule kind"):
            BinarizationRule("zscore")

    @pytest.mark.parametrize("threshold", [None, 0.0, -0.2, 1.5])
    def test_abs_threshold_validation(self, threshold):
        with pytest.raises(RuleError, match="threshold"):
            BinarizationRule("abs_threshold", threshold=threshold)

    @pytest.mark.parametrize("q", [None, 0.0, 1.0])
    def test_top_quantile_validation(self, q):
        with pytest.raises(RuleError, match="q in"):
            BinarizationRule("top_quantile", q=q)

    @pytest.mark.parametrize("alpha", [None, 0.0, 1.1])
    def test_pvalue_validation(self, alpha):
        with pytest.raises(RuleError, match="alpha"):
            BinarizationRule("pvalue", alpha=alpha)


class TestBinarize:
    def test_abs_threshold_zero_matrix_gives_empty_network(self):
        res = corr_result(np.zeros((6, 6)))
        net = binarize(res, BinarizationRule("abs_threshold", threshold=0.3))
        assert net.n_edges == 0

    def test_abs_threshold_counts_pairs_at_or_above_cut(self):
        # five upper-triangle magnitudes at or above 0.3, including one hit
        # exactly at the cut and one negative entry
        w = symmetric(
            5,
            {
                (0, 1): 0.5,
                (0, 2): -0.4,
                (1, 3): 0.31,
                (2, 4): 0.9,
                (3, 4): -0.3,
                (0, 3): 0.1,
                (1, 2): -0.05,
            },
        )
        net = binarize(corr_result(w), BinarizationRule("abs_threshold", threshold=0.3))
        assert net.n_edges == 5
        assert net.edge_set() == {(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)}

    def test_top_quantile_uses_offdiagonal_magnitudes(self):
        # six magnitudes 0.1 .. 0.6, median 0.35: the top three survive
        w = symmetric(
            4,
            {
                (0, 1): 0.1,
                (0, 2): -0.2,
                (0, 3): 0.3,
                (1, 2): 0.4,
                (1, 3): -0.5,
                (2, 3): 0.6,
            },
        )
        net = binarize(corr_result(w), BinarizationRule("top_quantile", q=0.5))
        assert net.edge_set() == {(1, 2), (1, 3), (2, 3)}

    def test_pvalue_rule_keeps_small_pvalues(self):
        w = symmetric(3, {(0, 1): 0.9, (0, 2): 0.8, (1, 2): 0.7})
        pv = symmetric(3, {(0, 1): 0.01, (0, 2): 0.2, (1, 2): 0.04})
        net = binarize(corr_result(w, pvalues=pv), BinarizationRule("pvalue", alpha=0.05))
        assert net.edge_set() == {(0, 1), (1, 2)}

    def test_pvalue_rule_with_magnitude_floor(self):
        w = symmetric(3, {(0, 1): 0.9, (0, 2): 0.05, (1, 2): 0.7})
        pv = symmetric(3, {(0, 1): 0.01, (0, 2): 0.01, (1, 2): 0.04})
        rule = BinarizationRule("pvalue", alpha=0.05, threshold=0.3)
        net = binarize(corr_result(w, pvalues=pv), rule)
        # (0, 2) is significant but too weak to pass the magnitude floor
        assert net.edge_set() == {(0, 1), (1, 2)}

    def test_native_sparse_returns_the_methods_own_network(self):
        inner = net_from_pairs(4, [(0, 1)])
        res = MethodResult(method="gcoda", params={}, taxa=taxa_labels(4), network=inner)
        assert binarize(res, BinarizationRule("native_sparse")) is inner

    def test_native_sparse_without_network_is_an_error(self):
        res = corr_result(np.zeros((3, 3)))
        with pytest.raises(RuleError, match="produced no network"):
            binarize(res, BinarizationRule("native_sparse"))

    def test_abs_threshold_without_weighted_is_an_error(self):
        res = MethodResult(method="gcoda", params={}, taxa=taxa_labels(3))
        with pytest.raises(RuleError, match="no weighted matrix"):
            binarize(res, BinarizationRule("abs_threshold", threshold=0.3))

    def test_pvalue_rule_without_pvalues_is_an_error(self):
        res = corr_result(np.zeros((3, 3)))
        with pytest.raises(RuleError, match="no p-values"):
            binarize(res, BinarizationRule("pvalue", alpha=0.05))


class TestBuildConsensus:
    def test_two_identical_networks_give_weight_two(self):
        nets = [net_from_pairs(4, [(0, 1), (2, 3)]) for _ in range(2)]
        cons = build_consensus(nets, methods=["a", "b"])
        assert cons.weights[0, 1] == 2
        assert cons.weights[2, 3] == 2
        assert set(np.unique(cons.weights)) == {0, 2}
        assert cons.methods == ["a", "b"]

    def test_disjoint_edges_each_get_weight_one(self):
        cons = build_consensus(
            [net_from_pairs(4, [(0, 1)]), net_from_pairs(4, [(2, 3)])],
            methods=["m1", "m2"],
        )
        assert cons.weights[0, 1] == 1
        assert cons.weights[2, 3] == 1
        assert cons.weights.sum() == 4  # each edge counted twice by symmetry

    def test_weights_never_exceed_method_count(self):
        rng = np.random.default_rng(3)
        nets = []
        for k in range(5):
            mask = rng.random((6, 6)) < 0.5
            nets.append(
                BinaryNetwork(
                    adj=((mask | mask.T) & ~np.eye(6, dtype=bool)).astype(np.int8),
                    taxa=taxa_labels(6),
                )
            )
        cons = build_consensus(nets, methods=[f"m{k}" for k in range(5)])
        assert cons.weights.max() <= 5
        assert cons.n_methods == 5

    def test_order_of_networks_does_not_change_weights(self):
        nets = [
            net_from_pairs(5, [(0, 1), (1, 2)]),
            net_from_pairs(5, [(1, 2)]),
            net_from_pairs(5, [(3, 4)]),
        ]
        forward = build_consensus(nets, methods=["a", "b", "c"])
        backward = build_consensus(nets[::-1], methods=["c", "b", "a"])
        assert np.array_equal(forward.weights, backward.weights)

    def test_fewer_than_two_networks_rejected(self):
        with pytest.raises(ConsensusError, match="at least 2"):
            build_consensus([net_from_pairs(3, [(0, 1)])], methods=["a"])

    def test_roster_mismatch_names_the_first_disagreement(self):
        a = net_from_pairs(3, [(0, 1)], taxa=["a", "b", "c"])
        b = net_from_pairs(3, [(0, 1)], taxa=["a", "x", "c"])
        with pytest.raises(ConsensusError, match="'b' vs 'x'"):
            build_consensus([a, b], methods=["m1", "m2"])

    def test_roster_size_mismatch_rejected(self):
        a = net_from_pairs(3, [(0, 1)])
        b = net_from_pairs(4, [(0, 1)])
        with pytest.raises(ConsensusError, match="different sizes"):
            build_consensus([a, b], methods=["m1", "m2"])

    def test_duplicate_method_identifiers_rejected(self):
        nets = [net_from_pairs(3, [(0, 1)]), net_from_pairs(3, [(1, 2)])]
        with pytest.raises(ConsensusError, match="unique"):
            build_consensus(nets, methods=["m", "m"])

    def test_method_count_must_match_network_count(self):
        nets = [net_from_pairs(3, [(0, 1)]), net_from_pairs(3, [(1, 2)])]
        with pytest.raises(ConsensusError, match="per network"):
            build_consensus(nets, methods=["m1"])

    def test_constructor_rejects_float_weights(self):
        with pytest.raises(ConsensusError, match="integer"):
            WeightedConsensus(
                weights=np.zeros((3, 3)), taxa=taxa_labels(3), methods=["a", "b"]
            )

    def test_constructor_rejects_asymmetric_weights(self):
        w = np.zeros((3, 3), dtype=np.int16)
        w[0, 1] = 1
        with pytest.raises(ConsensusError, match="symmetric"):
            WeightedConsensus(weights=w, taxa=taxa_labels(3), methods=["a", "b"])

    def test_constructor_rejects_weights_beyond_method_count(self):
        w = np.zeros((3, 3), dtype=np.int16)
        w[0, 1] = w[1, 0] = 3
        with pytest.raises(ConsensusError, match=r"\[0, M\]"):
            WeightedConsensus(weights=w, taxa=taxa_labels(3), methods=["a", "b"])


class TestThresholding:
    def three_method_consensus(self):
        nets = [
            net_from_pairs(4, [(0, 1), (1, 2)]),
            net_from_pairs(4, [(0, 1), (2, 3)]),
            net_from_pairs(4, [(0, 1)]),
        ]
        return build_consensus(nets, methods=["a", "b", "c"])

    def test_threshold_zero_is_the_union(self):
        cons = self.three_method_consensus()
        net = threshold_network(cons, 0)
        assert net.edge_set() == {(0, 1), (1, 2), (2, 3)}

    def test_strictly_greater_semantics(self):
        cons = self.three_method_consensus()
        # weight 3 edge survives t=2; weight 1 edges drop at t=1
        assert threshold_network(cons, 1).edge_set() == {(0, 1)}
        assert threshold_network(cons, 2).edge_set() == {(0, 1)}

    def test_threshold_at_method_count_is_empty(self):
        cons = self.three_method_consensus()
        assert threshold_network(cons, 3).n_edges == 0

    def test_threshold_above_method_count_rejected(self):
        with pytest.raises(ThresholdError, match="exceeds the method count"):
            threshold_network(self.three_method_consensus(), 4)

    @pytest.mark.parametrize("t", [-1, 1.5])
    def test_invalid_threshold_rejected(self, t):
        with pytest.raises(ThresholdError, match="nonnegative integer"):
            threshold_network(self.three_method_consensus(), t)

    def test_sweep_of_two_disjoint_single_edge_networks(self):
        cons = build_consensus(
            [net_from_pairs(5, [(0, 1)]), net_from_pairs(5, [(2, 3)])],
            methods=["m1", "m2"],
        )
        rows = threshold_sweep(cons)
        assert [r.t for r in rows] == [0, 1]
        # every method voted alone, so both edges vanish past t=0
        assert rows[0].connected_node_count == 4
        assert rows[0].edge_count == 2
        assert rows[1].connected_node_count == 0
        assert rows[1].edge_count == 0

    def test_sweep_counts_only_connected_nodes(self):
        cons = self.three_method_consensus()
        rows = threshold_sweep(cons)
        assert rows[0].connected_node_count == 4
        assert rows[1].connected_node_count == 2  # only the weight-3 pair remains
        assert rows[2].edge_count == 1


class TestEdgeRecords:
    def test_sorted_by_weight_then_labels(self):
        nets = [
            net_from_pairs(3, [(0, 1)], taxa=["a", "b", "c"]),
            net_from_pairs(3, [(0, 1), (1, 2)], taxa=["a", "b", "c"]),
        ]
        records = edge_records(build_consensus(nets, methods=["m1", "m2"]))
        assert [(r.taxon_a, r.taxon_b, r.weight) for r in records] == [
            ("a", "b", 2),
            ("b", "c", 1),
        ]
        assert records[0].supporting_methods == ("m1", "m2")
        assert records[1].supporting_methods == ("m2",)

    def test_zero_weight_pairs_are_omitted(self):
        nets = [net_from_pairs(4, [(0, 1)]), net_from_pairs(4, [(0, 1)])]
        records = edge_records(build_consensus(nets, methods=["x", "y"]))
        assert len(records) == 1


class TestHamming:
    def test_identical_networks_have_distance_zero(self):
        net = net_from_pairs(5, [(0, 1), (2, 4)])
        assert hamming_distance(net, net) == 0

    def test_complete_versus_empty(self):
        p = 6
        full = BinaryNetwork(
            adj=(np.ones((p, p), dtype=np.int8) - np.eye(p, dtype=np.int8)),
            taxa=taxa_labels(p),
        )
        empty = net_from_pairs(p, [])
        assert hamming_distance(full, empty) == p * (p - 1) // 2

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(8)
        p = 7
        nets = []
        for _ in range(2):
            mask = rng.random((p, p)) < 0.4
            nets.append(
                BinaryNetwork(
                    adj=((mask | mask.T) & ~np.eye(p, dtype=bool)).astype(np.int8),
                    taxa=taxa_labels(p),
                )
            )
        expected = sum(
            1
            for i in range(p)
            for j in range(i + 1, p)
            if nets[0].adj[i, j] != nets[1].adj[i, j]
        )
        assert hamming_distance(nets[0], nets[1]) == expected

    def test_roster_mismatch_rejected(self):
        a = net_from_pairs(3, [(0, 1)], taxa=["a", "b", "c"])
        b = net_from_pairs(3, [(0, 1)], taxa=["a", "b", "z"])
        with pytest.raises(ConsensusError, match="rosters disagree"):
            hamming_distance(a, b)

    def test_matrix_is_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(12)
        p = 5
        nets = []
        for _ in range(4):
            mask = rng.random((p, p)) < 0.5
            nets.append(
                BinaryNetwork(
                    adj=((mask | mask.T) & ~np.eye(p, dtype=bool)).astype(np.int8),
                    taxa=taxa_labels(p),
                )
            )
        dist = hamming_matrix(nets)
        assert np.array_equal(dist, dist.T)
        assert not np.diag(dist).any()
        assert dist[1, 3] == hamming_distance(nets[1], nets[3])


# -- property suite ----------------------------------------------------------

@st.composite
def binary_network_family(draw, min_count=2, max_count=6):
    p = draw(st.integers(min_value=3, max_value=8))
    count = draw(st.integers(min_value=min_count, max_value=max_count))
    npairs = p * (p - 1) // 2
    taxa = taxa_labels(p)
    iu, ju = np.triu_indices(p, k=1)
    nets = []
    for _ in range(count):
        bits = draw(st.lists(st.booleans(), min_size=npairs, max_size=npairs))
        adj = np.zeros((p, p), dtype=np.int8)
        adj[iu, ju] = np.asarray(bits, dtype=np.int8)
        nets.append(BinaryNetwork(adj=adj | adj.T, taxa=taxa))
    return nets


@settings(max_examples=200, deadline=None)
@given(binary_network_family())
def test_consensus_votes_match_per_pair_tallies(nets):
    cons = build_consensus(nets, methods=[f"m{k}" for k in range(len(nets))])
    stacked = np.stack([net.adj for net in nets])
    assert np.array_equal(cons.weights, stacked.sum(axis=0))
    assert cons.weights.min() >= 0
    assert cons.weights.max() <= len(nets)


@settings(max_examples=200, deadline=None)
@given(binary_network_family())
def test_threshold_filtration_nests_and_telescopes(nets):
    cons = build_consensus(nets, methods=[f"m{k}" for k in range(len(nets))])
    m = cons.n_methods
    layers = [threshold_network(cons, t) for t in range(m + 1)]
    iu = np.triu_indices(cons.n_taxa, k=1)
    pair_weights = cons.weights[iu]
    for t in range(m):
        assert layers[t + 1].edge_set() <= layers[t].edge_set()
        # dropping the threshold by one admits exactly the weight-(t+1) pairs
        assert layers[t].n_edges - layers[t + 1].n_edges == int(
            (pair_weights == t + 1).sum()
        )
    assert layers[0].n_edges == int((pair_weights > 0).sum())
    assert layers[m].n_edges == 0


@settings(max_examples=200, deadline=None)
@given(binary_network_family(min_count=3, max_count=3))
def test_hamming_metric_axioms(nets):
    a, b, c = nets
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
    if hamming_distance(a, b) == 0:
        assert np.array_equal(a.adj, b.adj)
