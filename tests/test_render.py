"""SVG rendering: deterministic bytes, glyph counts, panel annotations, the
heatmap parse-back oracle, and one layout per distinct network."""

import hashlib
import json
import logging
import re
import shutil
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxonet import render
from taxonet.cli import main
from taxonet.config import build_config
from taxonet.consensus import build_consensus, threshold_network, threshold_sweep
from taxonet.errors import RenderError
from taxonet.network import BinaryNetwork, MethodResult
from taxonet.pipeline import run_pipeline
from taxonet.render import (
    fr_layout,
    render_hamming_heatmap,
    render_network_svg,
    render_threshold_panel,
)

from conftest import make_table


def taxa_labels(p):
    return [f"t{k}" for k in range(p)]


def net_from_pairs(p, pairs, taxa=None):
    adj = np.zeros((p, p), dtype=np.int8)
    for i, j in pairs:
        adj[i, j] = adj[j, i] = 1
    return BinaryNetwork(adj=adj, taxa=taxa or taxa_labels(p))


def svg_elements(path, local_name):
    root = ET.parse(path).getroot()
    return [el for el in root.iter() if el.tag.endswith("}" + local_name)]


def reference_fr_layout(adj, seed, iterations=render.LAYOUT_ITERATIONS):
    """The layout as first written, on one (p, p, 2) array of pairwise
    offsets.  Its bits are the contract that ``fr_layout`` keeps."""
    p = adj.shape[0]
    rng = np.random.default_rng(seed)
    pos = rng.random((p, 2))
    if p == 1:
        return np.array([[0.5, 0.5]])
    a = np.asarray(adj, dtype=float)
    k = np.sqrt(1.0 / p)
    t = 0.1
    dt = t / (iterations + 1)
    for _ in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((delta**2).sum(axis=-1))
        np.clip(dist, 0.01, None, out=dist)
        force = k * k / dist**2 - a * dist / k
        disp = (delta * force[:, :, None]).sum(axis=1)
        length = np.sqrt((disp**2).sum(axis=1))
        np.clip(length, 1e-9, None, out=length)
        pos = pos + disp / length[:, None] * np.minimum(length, t)[:, None]
        t -= dt
    return pos


def assert_same_bits(adj, seed):
    got, want = fr_layout(adj, seed), reference_fr_layout(adj, seed)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def symmetric_adjacency(draw, max_p=40):
    p = draw(st.integers(min_value=1, max_value=max_p))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    upper = np.random.default_rng(seed).random((p, p)) < density
    adj = np.triu(upper, k=1).astype(np.int8)
    return adj + adj.T


class TestLayoutBits:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_smallest_graphs(self, p):
        assert_same_bits(net_from_pairs(p, [(0, p - 1)] if p > 1 else []).adj, p)

    def test_empty_graph(self):
        assert_same_bits(np.zeros((12, 12), dtype=np.int8), 4)

    def test_complete_graph(self):
        adj = np.ones((15, 15), dtype=np.int8)
        np.fill_diagonal(adj, 0)
        assert_same_bits(adj, 5)

    def test_disconnected_graph(self):
        pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (7, 8)]
        assert_same_bits(net_from_pairs(9, pairs).adj, 6)

    def test_two_hundred_node_sparse_graph(self):
        rng = np.random.default_rng(11)
        upper = np.triu(rng.random((200, 200)) < 0.02, k=1).astype(np.int8)
        assert_same_bits(upper + upper.T, 7)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_adjacency(), st.integers(min_value=0, max_value=1000))
    def test_generated_symmetric_graphs(self, adj, seed):
        assert_same_bits(adj, seed)


class TestLayout:
    def test_same_seed_same_embedding(self):
        adj = net_from_pairs(6, [(0, 1), (1, 2), (3, 4)]).adj
        assert np.array_equal(fr_layout(adj, seed=3), fr_layout(adj, seed=3))

    def test_different_seeds_differ(self):
        adj = net_from_pairs(6, [(0, 1), (1, 2)]).adj
        assert not np.array_equal(fr_layout(adj, seed=3), fr_layout(adj, seed=4))

    def test_positions_are_finite(self):
        adj = net_from_pairs(8, [(i, i + 1) for i in range(7)]).adj
        assert np.isfinite(fr_layout(adj, seed=0)).all()


class TestNetworkSvg:
    def test_fixed_seed_is_byte_identical(self, tmp_path):
        net = net_from_pairs(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_network_svg(net, 7, a)
        render_network_svg(net, 7, b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_edges_gives_caption_and_no_glyphs(self, tmp_path):
        path = tmp_path / "empty.svg"
        render_network_svg(net_from_pairs(5, []), 0, path)
        text = path.read_text()
        assert "no edges above threshold" in text
        assert len(svg_elements(path, "circle")) == 0
        assert len(svg_elements(path, "line")) == 0

    def test_triangle_has_three_glyphs_and_three_edges(self, tmp_path):
        path = tmp_path / "tri.svg"
        render_network_svg(net_from_pairs(3, [(0, 1), (1, 2), (0, 2)]), 1, path)
        assert len(svg_elements(path, "circle")) == 3
        assert len(svg_elements(path, "line")) == 3

    def test_isolated_taxa_are_omitted(self, tmp_path):
        path = tmp_path / "partial.svg"
        render_network_svg(net_from_pairs(6, [(0, 3)]), 2, path)
        assert len(svg_elements(path, "circle")) == 2
        labels = {el.text for el in svg_elements(path, "text")}
        assert "t0" in labels and "t3" in labels
        assert "t1" not in labels

    def test_output_is_well_formed_xml(self, tmp_path):
        path = tmp_path / "net.svg"
        render_network_svg(net_from_pairs(4, [(0, 1), (2, 3)]), 5, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("}svg")


class TestThresholdPanel:
    def hand_consensus(self):
        nets = [
            net_from_pairs(4, [(0, 1), (1, 2)]),
            net_from_pairs(4, [(0, 1), (2, 3)]),
            net_from_pairs(4, [(0, 1)]),
        ]
        return build_consensus(nets, methods=["a", "b", "c"])

    def parse_annotation(self, path):
        title = svg_elements(path, "text")[0].text
        m = re.fullmatch(r"t=(\d+): (\d+) nodes, (\d+) edges", title)
        assert m is not None, title
        return tuple(int(g) for g in m.groups())

    def test_one_panel_per_threshold(self, tmp_path):
        cons = self.hand_consensus()
        paths, rows = render_threshold_panel(cons, tmp_path)
        assert len(paths) == cons.n_methods
        assert [r.t for r in rows] == [0, 1, 2]

    def test_annotations_match_the_sweep_table(self, tmp_path):
        cons = self.hand_consensus()
        paths, rows = render_threshold_panel(cons, tmp_path)
        for path, row in zip(paths, rows):
            assert self.parse_annotation(path) == (
                row.t,
                row.connected_node_count,
                row.edge_count,
            )
        assert rows == threshold_sweep(cons)

    def test_last_panel_annotation_equals_last_sweep_row(self, tmp_path):
        cons = self.hand_consensus()
        paths, rows = render_threshold_panel(cons, tmp_path)
        last = rows[-1]
        assert self.parse_annotation(paths[-1]) == (
            cons.n_methods - 1,
            last.connected_node_count,
            last.edge_count,
        )


class TestHammingHeatmap:
    def cell_texts(self, path):
        cells = [
            el
            for el in svg_elements(path, "text")
            if el.get("text-anchor") == "middle"
        ]
        return [el.text for el in cells]

    def test_zero_matrix_is_uniform_with_zero_labels(self, tmp_path):
        path = tmp_path / "zero.svg"
        render_hamming_heatmap(np.zeros((3, 3), dtype=int), ["a", "b", "c"], path)
        assert self.cell_texts(path) == ["0"] * 9
        fills = {el.get("fill") for el in svg_elements(path, "rect")}
        # background plus a single uniform cell color
        assert fills == {"#ffffff", "rgb(255,255,255)"}

    def test_two_by_two_off_diagonal_label(self, tmp_path):
        h = np.array([[0, 7], [7, 0]])
        path = tmp_path / "pair.svg"
        render_hamming_heatmap(h, ["m1", "m2"], path)
        assert self.cell_texts(path).count("7") == 2

    def test_cell_text_matches_matrix_entries(self, tmp_path):
        rng = np.random.default_rng(19)
        h = rng.integers(0, 30, size=(4, 4))
        h = np.triu(h, k=1)
        h = h + h.T
        path = tmp_path / "rand.svg"
        render_hamming_heatmap(h, taxa_labels(4), path)
        # cells are written row-major
        assert self.cell_texts(path) == [str(int(v)) for v in h.ravel()]

    def test_axis_labels_present_on_both_axes(self, tmp_path):
        path = tmp_path / "lab.svg"
        render_hamming_heatmap(np.zeros((2, 2), dtype=int), ["sparcc", "spring"], path)
        texts = [el.text for el in svg_elements(path, "text")]
        assert texts.count("sparcc") == 2
        assert texts.count("spring") == 2

    def test_asymmetric_matrix_rejected(self, tmp_path):
        h = np.array([[0, 1], [2, 0]])
        with pytest.raises(RenderError, match="symmetric"):
            render_hamming_heatmap(h, ["a", "b"], tmp_path / "x.svg")

    def test_nonzero_diagonal_rejected(self, tmp_path):
        h = np.array([[1, 0], [0, 0]])
        with pytest.raises(RenderError, match="diagonal"):
            render_hamming_heatmap(h, ["a", "b"], tmp_path / "x.svg")

    def test_label_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(RenderError, match="label count"):
            render_hamming_heatmap(np.zeros((3, 3), dtype=int), ["a", "b"], tmp_path / "x.svg")

    def test_rendering_is_deterministic(self, tmp_path):
        h = np.array([[0, 3, 1], [3, 0, 2], [1, 2, 0]])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_hamming_heatmap(h, ["x", "y", "z"], a)
        render_hamming_heatmap(h, ["x", "y", "z"], b)
        assert a.read_bytes() == b.read_bytes()


# Four methods vote so that the union (t=0) has three edges, t=1 and t=2
# keep the same two edges and t=3 keeps none: two distinct networks to lay
# out, where drawing without a memo lays out four.
LAYOUT_VOTES = {
    "pearson": [(0, 1), (1, 2), (3, 4)],
    "spearman": [(0, 1), (1, 2)],
    "bicor": [(0, 1), (1, 2)],
    "sparcc": [],
}


def vote_result(method, table, params=None, seed=None):
    adj = net_from_pairs(table.n_taxa, LAYOUT_VOTES[method], list(table.taxa)).adj
    return MethodResult(
        method=method,
        params={},
        taxa=list(table.taxa),
        weighted=adj.astype(float),
        pvalues=1.0 - adj,
        network=BinaryNetwork(adj=adj, taxa=list(table.taxa)),
    )


class TestOneLayoutPerNetwork:
    seed = 3

    def run(self, out, monkeypatch, seed=seed):
        monkeypatch.setattr("taxonet.pipeline.run_method", vote_result)
        rng = np.random.default_rng(0)
        table = make_table(rng.integers(1, 50, size=(12, 6)))
        cfg = build_config(
            {"methods": ",".join(LAYOUT_VOTES), "output": str(out), "seed": str(seed)}
        )
        return run_pipeline(cfg, table=table)

    def count_layouts(self, monkeypatch):
        calls = Counter()
        original = render.fr_layout

        def counted(adj, seed, *args, **kwargs):
            calls[(adj.tobytes(), seed)] += 1
            return original(adj, seed, *args, **kwargs)

        monkeypatch.setattr(render, "fr_layout", counted)
        return calls

    def distinct_networks(self, c):
        keys = set()
        for t in range(c.n_methods):
            adj = threshold_network(c, t).adj
            keep = np.flatnonzero(adj.sum(axis=0) > 0)
            if keep.size:
                keys.add((adj[np.ix_(keep, keep)].tobytes(), self.seed))
        return keys

    def svgs(self, out):
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.svg"))}

    def test_write_artifacts_lays_out_each_distinct_network_once(
        self, tmp_path, monkeypatch
    ):
        calls = self.count_layouts(monkeypatch)
        run = self.run(tmp_path, monkeypatch)
        assert set(calls) == self.distinct_networks(run.consensus)
        assert len(calls) == 2
        assert set(calls.values()) == {1}

    def test_render_verb_lays_out_each_distinct_network_once(
        self, tmp_path, monkeypatch
    ):
        run = self.run(tmp_path, monkeypatch)
        (tmp_path / "layouts.json").unlink()
        calls = self.count_layouts(monkeypatch)
        assert main(["render", "--out", str(tmp_path)]) == 0
        assert set(calls) == self.distinct_networks(run.consensus)
        assert set(calls.values()) == {1}

    def test_render_after_run_lays_out_nothing(self, tmp_path, monkeypatch, capsys):
        run = self.run(tmp_path, monkeypatch)
        svgs = self.svgs(tmp_path)
        recorded = json.loads((tmp_path / "layouts.json").read_text())
        # keyed by the sha256 of the laid-out adjacency's shape, dtype, bytes and seed
        assert set(recorded) == {
            hashlib.sha256(f"{(k, k)} |i1 {seed}\n".encode() + adj).hexdigest()
            for adj, seed in self.distinct_networks(run.consensus)
            for k in [round(len(adj) ** 0.5)]
        }
        capsys.readouterr()
        calls = self.count_layouts(monkeypatch)
        assert main(["render", "--out", str(tmp_path)]) == 0
        assert not calls
        assert self.svgs(tmp_path) == svgs
        assert "(2 layouts read from layouts.json, 0 laid out)" in capsys.readouterr().out

    @staticmethod
    def _first_entry(path, value):
        recorded = json.loads(path.read_text())
        recorded[min(recorded)] = value
        path.write_text(json.dumps(recorded))

    @pytest.mark.parametrize("damage, affected", [
        ("deleted", 2), ("not_json", 2), ("not_an_object", 2), ("nan_entry", 1),
        ("misshapen_entry", 1), ("ragged_entry", 2), ("other_seed", 2),
    ])
    def test_render_lays_out_what_the_record_does_not_cover(
        self, tmp_path, monkeypatch, caplog, damage, affected
    ):
        run = self.run(tmp_path, monkeypatch)
        svgs = self.svgs(tmp_path)
        record = tmp_path / "layouts.json"
        if damage == "deleted":
            record.unlink()
        elif damage == "not_json":
            record.write_text("{not json")
        elif damage == "not_an_object":
            record.write_text("[1, 2]")
        elif damage == "nan_entry":
            self._first_entry(record, [[float("nan"), 0.5]] * 3)
        elif damage == "misshapen_entry":
            self._first_entry(record, [[0.5, 0.5, 0.5]])
        elif damage == "ragged_entry":
            # not an array at all, so the record as a whole is unreadable
            self._first_entry(record, [[0.5], [0.5, 0.5]])
        else:
            self.run(tmp_path / "other", monkeypatch, seed=self.seed + 1)
            shutil.copy(tmp_path / "other" / "layouts.json", record)
        calls = self.count_layouts(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="taxonet"):
            assert main(["render", "--out", str(tmp_path)]) == 0
        assert len(calls) == affected
        assert set(calls) <= self.distinct_networks(run.consensus)
        assert set(calls.values()) == {1}
        assert self.svgs(tmp_path) == svgs
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and str(record) in warnings[0].getMessage()

    def test_svg_bytes_equal_an_unmemoized_run(self, tmp_path, monkeypatch):
        memo_dir = tmp_path / "memo"
        self.run(memo_dir, monkeypatch)
        memo = self.svgs(memo_dir)
        assert "network_t3.svg" in memo and "consensus_network.svg" in memo
        assert main(["render", "--out", str(memo_dir)]) == 0
        assert self.svgs(memo_dir) == memo
        # every drawing laid out afresh by the (p, p, 2) reference
        monkeypatch.setattr(
            render, "_layout", lambda sub, seed, layouts: reference_fr_layout(sub, seed)
        )
        self.run(tmp_path / "plain", monkeypatch)
        assert self.svgs(tmp_path / "plain") == memo
