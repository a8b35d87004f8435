"""Serialization round trips: GraphML through a standard reader, DOT text,
and the edge-list import/export pair."""

from html import escape
from xml.sax import saxutils

import numpy as np
import networkx as nx
import pytest

from taxonet.consensus import build_consensus
from taxonet.errors import ExportError
from taxonet.exports import EXPORT_FORMATS, _quoteattr, export_graph, import_edgelist_tsv
from taxonet.network import BinaryNetwork


def taxa_labels(p):
    return [f"t{k}" for k in range(p)]


def net_from_pairs(p, pairs, taxa=None):
    adj = np.zeros((p, p), dtype=np.int8)
    for i, j in pairs:
        adj[i, j] = adj[j, i] = 1
    return BinaryNetwork(adj=adj, taxa=taxa or taxa_labels(p))


def small_consensus():
    nets = [
        net_from_pairs(4, [(0, 1), (1, 2)]),
        net_from_pairs(4, [(0, 1)]),
    ]
    return build_consensus(nets, methods=["m1", "m2"])


class TestGraphml:
    def test_consensus_parses_with_weights(self, tmp_path):
        cons = small_consensus()
        path = tmp_path / "net.graphml"
        export_graph(cons, "graphml", path)
        g = nx.read_graphml(path)
        assert set(g.nodes) == set(cons.taxa)
        assert g.number_of_edges() == 2
        assert g.edges["t0", "t1"]["weight"] == 2
        assert g.edges["t1", "t2"]["weight"] == 1
        assert g.edges["t0", "t1"]["methods"] == "m1,m2"

    def test_binary_network_parses_without_weight_attribute(self, tmp_path):
        net = net_from_pairs(3, [(0, 2)])
        path = tmp_path / "net.graphml"
        export_graph(net, "graphml", path)
        g = nx.read_graphml(path)
        assert g.number_of_edges() == 1
        assert "weight" not in g.edges["t0", "t2"]
        assert "methods" not in g.edges["t0", "t2"]

    def test_empty_network_keeps_the_full_roster(self, tmp_path):
        net = net_from_pairs(5, [])
        path = tmp_path / "empty.graphml"
        export_graph(net, "graphml", path)
        g = nx.read_graphml(path)
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 0

    def test_awkward_taxon_labels_survive_escaping(self, tmp_path):
        taxa = ['g__"Ca. Foo"', "f__Bar & Baz", "plain"]
        net = net_from_pairs(3, [(0, 1)], taxa=taxa)
        path = tmp_path / "escaped.graphml"
        export_graph(net, "graphml", path)
        g = nx.read_graphml(path)
        assert set(g.nodes) == set(taxa)


@pytest.mark.parametrize(
    "text",
    ["", "plain", "a&b<c>d", 'say "hi"', "it's", "both \"'\" quotes", "tab\there",
     "line\nbreak\r\nend", "&amp; already", "<&>\"'\t\n\r", "\u00b5-taxon & <sp.>"],
)
def test_escaping_gives_the_bytes_of_saxutils(text):
    # the writers escape without importing xml.sax.saxutils, whose import
    # pulls in urllib.request, http.client and email
    assert escape(text, quote=False) == saxutils.escape(text)
    assert _quoteattr(text) == saxutils.quoteattr(text)


class TestDot:
    def test_single_edge_network_has_one_edge_statement(self, tmp_path):
        net = net_from_pairs(2, [(0, 1)])
        path = tmp_path / "pair.dot"
        export_graph(net, "dot", path)
        text = path.read_text()
        assert text.count(" -- ") == 1
        assert text.startswith("graph ")

    def test_consensus_edges_carry_penwidth(self, tmp_path):
        path = tmp_path / "cons.dot"
        export_graph(small_consensus(), "dot", path)
        text = path.read_text()
        assert "penwidth=2.0" in text
        assert "penwidth=1.0" in text

    def test_binary_network_edges_have_no_penwidth(self, tmp_path):
        path = tmp_path / "net.dot"
        export_graph(net_from_pairs(3, [(0, 1)]), "dot", path)
        assert "penwidth" not in path.read_text()

    def test_labels_with_quotes_are_escaped(self, tmp_path):
        net = net_from_pairs(2, [(0, 1)], taxa=['say "hi"', "other"])
        path = tmp_path / "quoted.dot"
        export_graph(net, "dot", path)
        assert '"say \\"hi\\""' in path.read_text()


class TestEdgelist:
    def test_round_trip_reproduces_the_adjacency(self, tmp_path):
        rng = np.random.default_rng(5)
        p = 9
        mask = rng.random((p, p)) < 0.3
        net = BinaryNetwork(
            adj=((mask | mask.T) & ~np.eye(p, dtype=bool)).astype(np.int8),
            taxa=taxa_labels(p),
        )
        path = tmp_path / "edges.tsv"
        export_graph(net, "edgelist_tsv", path)
        back = import_edgelist_tsv(path, taxa_labels(p))
        assert np.array_equal(back.adj, net.adj)

    def test_consensus_rows_are_sorted_and_weighted(self, tmp_path):
        path = tmp_path / "cons.tsv"
        export_graph(small_consensus(), "edgelist_tsv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "taxon_a\ttaxon_b\tweight\tsupporting_methods"
        assert lines[1] == "t0\tt1\t2\tm1,m2"
        assert lines[2] == "t1\tt2\t1\tm1"

    def test_empty_network_writes_only_the_header(self, tmp_path):
        path = tmp_path / "empty.tsv"
        export_graph(net_from_pairs(4, []), "edgelist_tsv", path)
        assert path.read_text() == "taxon_a\ttaxon_b\tweight\tsupporting_methods\n"
        back = import_edgelist_tsv(path, taxa_labels(4))
        assert back.n_edges == 0
        assert back.taxa == taxa_labels(4)

    def test_import_rejects_taxa_outside_the_roster(self, tmp_path):
        path = tmp_path / "edges.tsv"
        export_graph(net_from_pairs(3, [(0, 1)]), "edgelist_tsv", path)
        with pytest.raises(ExportError, match=r"'t1' not in roster"):
            import_edgelist_tsv(path, ["t0", "x", "t2"])

    def test_import_rejects_files_without_the_header(self, tmp_path):
        path = tmp_path / "junk.tsv"
        path.write_text("a\tb\n1\t2\n")
        with pytest.raises(ExportError, match="not an edge-list file"):
            import_edgelist_tsv(path, ["a", "b"])


class TestErrors:
    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ExportError, match="unknown export format"):
            export_graph(net_from_pairs(2, []), "json", tmp_path / "x")
        assert set(EXPORT_FORMATS) == {"graphml", "dot", "edgelist_tsv"}

    def test_unexportable_object_rejected(self, tmp_path):
        with pytest.raises(ExportError, match="cannot export object"):
            export_graph({"not": "a network"}, "dot", tmp_path / "x")

    def test_unwritable_path_is_an_export_error(self, tmp_path):
        # the target is a directory, so the open fails
        with pytest.raises(ExportError, match="cannot write"):
            export_graph(net_from_pairs(2, []), "dot", tmp_path)
