"""Full-pipeline behavior: artifact set, manifest, partial-failure policy,
determinism across reruns, and the command-line verbs.

These tests run a three-method subset (pearson, spearman, sparcc) to stay
fast; the all-methods run lives in the acceptance suite.
"""

import json
import os

import numpy as np
import pytest

from taxonet.cli import main
from taxonet.config import build_config, parse_config_text
from taxonet.errors import ConsensusError, EstimatorError, FilterError
from taxonet.methods import run_method
from taxonet.pipeline import (
    load_consensus,
    prepare_table,
    read_labeled_matrix,
    run_pipeline,
)

from conftest import compositional_counts, gaussian_from_precision, make_table, mixed_chain_precision

FAST_METHODS = "pearson,spearman,sparcc"


def small_counts(p=8, n=60, seed=4):
    rng = np.random.default_rng(seed)
    latent = gaussian_from_precision(mixed_chain_precision(p), n, rng)
    return make_table(compositional_counts(latent, depth=1e4))


def write_counts_tsv(path, table):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample\t" + "\t".join(table.taxa) + "\n")
        for s, row in zip(table.samples, table.values):
            fh.write(s + "\t" + "\t".join(str(int(v)) for v in row) + "\n")


def fast_config(out_dir, seed=1, **extra):
    raw = {"methods": FAST_METHODS, "output": str(out_dir), "seed": str(seed)}
    raw.update(extra)
    return build_config(raw)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = fast_config(out)
    run = run_pipeline(cfg, table=small_counts())
    return run, out


class TestArtifacts:
    def test_expected_files_exist(self, finished_run):
        _, out = finished_run
        expected = [
            "consensus_matrix.tsv",
            "edge_list.tsv",
            "adjacency_pearson.tsv",
            "adjacency_spearman.tsv",
            "adjacency_sparcc.tsv",
            "threshold_sweep.tsv",
            "hamming_matrix.tsv",
            "network_t0.svg",
            "network_t1.svg",
            "network_t2.svg",
            "consensus_network.svg",
            "hamming_heatmap.svg",
            "config_echo.txt",
            "manifest.json",
        ]
        for name in expected:
            assert (out / name).exists(), name

    def test_manifest_lists_exactly_the_written_artifacts(self, finished_run):
        _, out = finished_run
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = sorted(p.name for p in out.iterdir())
        assert manifest["artifacts"] == on_disk

    def test_consensus_weights_stay_within_method_count(self, finished_run):
        run, _ = finished_run
        assert run.consensus.n_methods == 3
        assert run.consensus.weights.min() >= 0
        assert run.consensus.weights.max() <= 3

    def test_consensus_matrix_file_round_trips(self, finished_run):
        run, out = finished_run
        labels, weights = read_labeled_matrix(out / "consensus_matrix.tsv")
        assert labels == list(run.consensus.taxa)
        assert np.array_equal(weights, run.consensus.weights)

    def test_edge_list_total_weight_matches_the_matrix(self, finished_run):
        run, out = finished_run
        lines = (out / "edge_list.tsv").read_text().splitlines()[1:]
        listed = sum(int(line.split("\t")[2]) for line in lines)
        iu = np.triu_indices(run.consensus.n_taxa, k=1)
        assert listed == int(run.consensus.weights[iu].sum())
        assert listed > 0

    def test_sweep_file_matches_the_run(self, finished_run):
        run, out = finished_run
        lines = (out / "threshold_sweep.tsv").read_text().splitlines()
        assert lines[0] == "t\tconnected_node_count\tedge_count"
        assert len(lines) == 1 + run.consensus.n_methods
        for line, row in zip(lines[1:], run.sweep):
            assert line == f"{row.t}\t{row.connected_node_count}\t{row.edge_count}"

    def test_adjacency_files_hold_the_votes(self, finished_run):
        run, out = finished_run
        labels, adj = read_labeled_matrix(out / "adjacency_pearson.tsv")
        assert np.array_equal(adj, run.runs["pearson"].vote.adj)
        assert set(np.unique(adj)) <= {0, 1}

    def test_load_consensus_rebuilds_the_run(self, finished_run):
        run, out = finished_run
        rebuilt = load_consensus(out)
        assert rebuilt.methods == list(run.consensus.methods)
        assert np.array_equal(rebuilt.weights, run.consensus.weights)

    def test_load_consensus_needs_a_manifest(self, tmp_path):
        with pytest.raises(ConsensusError, match="cannot read run manifest"):
            load_consensus(tmp_path)


class TestManifest:
    def test_run_record_contents(self, finished_run):
        run, out = finished_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["enabled_methods"] == ["pearson", "spearman", "sparcc"]
        assert manifest["failed_methods"] == []
        assert manifest["consensus_methods"] == ["pearson", "spearman", "sparcc"]
        for m in ("pearson", "spearman", "sparcc"):
            rec = manifest["methods"][m]
            assert rec["status"] == "ok"
            assert rec["seconds"] >= 0.0
            assert rec["rule"] == "abs_threshold(0.3)"
            assert rec["params"] is not None

    def test_per_method_seeds_are_distinct_and_recorded(self, finished_run):
        _, out = finished_run
        manifest = json.loads((out / "manifest.json").read_text())
        seeds = [manifest["methods"][m]["seed"] for m in manifest["enabled_methods"]]
        assert len(set(seeds)) == len(seeds)

    def test_config_echo_reparses_to_the_same_run_setup(self, finished_run):
        run, out = finished_run
        back = build_config(parse_config_text((out / "config_echo.txt").read_text()))
        assert back.methods == run.config.methods
        assert back.seed == run.config.seed
        for m in back.methods:
            assert back.params_for(m) == run.config.params_for(m)

    def test_every_echoed_setting_is_the_one_that_ran(self, tmp_path):
        # all ten methods on 6 taxa: every setting the echo spells out (bar
        # the unset ones, echoed as none) must be the value the method used
        run_pipeline(
            build_config({"methods": "all", "output": str(tmp_path), "seed": "3"}),
            table=small_counts(p=6),
        )
        echo = build_config(parse_config_text((tmp_path / "config_echo.txt").read_text()))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failed_methods"] == []
        for m in echo.methods:
            recorded = manifest["methods"][m]["params"]
            for name, value in vars(echo.params_for(m)).items():
                if value is not None:
                    want = list(value) if isinstance(value, tuple) else value
                    assert recorded[name] == want, f"{m}.{name}"


class TestPartialFailure:
    def fail_one(self, monkeypatch, broken):
        def patched(method, table, params=None, seed=None):
            if method == broken:
                raise EstimatorError("synthetic failure")
            return run_method(method, table, params, seed=seed)

        monkeypatch.setattr("taxonet.pipeline.run_method", patched)

    def test_failing_method_is_dropped_not_fatal(self, tmp_path, monkeypatch):
        self.fail_one(monkeypatch, "sparcc")
        run = run_pipeline(fast_config(tmp_path), table=small_counts())
        assert run.failed == ["sparcc"]
        assert run.consensus.n_methods == 2
        assert run.consensus.methods == ["pearson", "spearman"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failed_methods"] == ["sparcc"]
        assert "synthetic failure" in manifest["methods"]["sparcc"]["error"]
        assert not (tmp_path / "adjacency_sparcc.tsv").exists()

    def test_survivor_outputs_still_written_when_consensus_impossible(
        self, tmp_path, monkeypatch
    ):
        self.fail_one(monkeypatch, "spearman")
        cfg = build_config(
            {"methods": "pearson,spearman", "output": str(tmp_path), "seed": "1"}
        )
        with pytest.raises(ConsensusError, match="fewer than 2 methods succeeded"):
            run_pipeline(cfg, table=small_counts())
        assert (tmp_path / "adjacency_pearson.tsv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["consensus_methods"] == []
        assert manifest["failed_methods"] == ["spearman"]


class TestDeterminism:
    def artifact_bytes(self, out):
        # the manifest carries wall-clock timings and the echo names the
        # actual output directory; neither is covered by the byte contract
        skip = {"manifest.json", "config_echo.txt"}
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name not in skip}

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        outs, echoes = [], []
        for name in ("a", "b"):
            out = tmp_path / name
            run_pipeline(fast_config(out, seed=5), table=small_counts())
            outs.append(self.artifact_bytes(out))
            echoes.append(
                [
                    line
                    for line in (out / "config_echo.txt").read_text().splitlines()
                    if not line.startswith("output = ")
                ]
            )
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name
        assert echoes[0] == echoes[1]

    def test_parallel_run_matches_serial(self, tmp_path):
        serial = run_pipeline(fast_config(tmp_path / "s", seed=2), table=small_counts())
        parallel = run_pipeline(
            fast_config(tmp_path / "p", seed=2, jobs="2"), table=small_counts()
        )
        assert np.array_equal(serial.consensus.weights, parallel.consensus.weights)


class TestPrepareTable:
    def test_prevalence_filter_drops_rare_taxa(self):
        table = small_counts()
        values = table.values.copy()
        values[:, 0] = 0.0
        values[0, 0] = 3.0  # present in 1 of 60 samples
        sparse = make_table(values)
        cfg = build_config({"methods": FAST_METHODS, "filter.min_prevalence": "0.5"})
        kept, dropped = prepare_table(cfg, sparse)
        assert "T0" not in kept.taxa
        assert kept.n_taxa == table.n_taxa - 1
        assert dropped == []

    def test_too_few_taxa_after_filtering(self):
        cfg = build_config({"methods": FAST_METHODS})
        with pytest.raises(FilterError, match="at least 3"):
            prepare_table(cfg, make_table(np.ones((10, 2)) + np.eye(10, 2)))

    def test_too_few_samples(self):
        cfg = build_config({"methods": FAST_METHODS})
        rng = np.random.default_rng(0)
        with pytest.raises(FilterError, match="need at least 4"):
            prepare_table(cfg, make_table(rng.integers(1, 50, size=(3, 6)).astype(float)))

    def test_missing_input_path(self):
        cfg = build_config({"methods": FAST_METHODS})
        with pytest.raises(FilterError, match="no input table"):
            prepare_table(cfg, None)


class TestCli:
    def test_run_verb_full_cycle(self, tmp_path, capsys):
        counts = tmp_path / "counts.tsv"
        write_counts_tsv(counts, small_counts())
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--input", str(counts),
                "--methods", FAST_METHODS,
                "--out", str(out),
                "--seed", "3",
            ]
        )
        assert code == 0
        assert f"artifacts written to {out}" in capsys.readouterr().out
        assert (out / "consensus_matrix.tsv").exists()

        # the follow-up verbs operate on the finished directory
        assert main(["threshold", "--t", "1", "--out", str(out)]) == 0
        assert (out / "thresholded_t1.tsv").exists()

        assert main(["export", "--format", "graphml", "--out", str(out)]) == 0
        assert (out / "consensus.graphml").read_text().startswith("<?xml")

        assert main(["sweep", "--out", str(out)]) == 0
        sweep_out = capsys.readouterr().out
        assert sweep_out.splitlines()[-4] == "t\tconnected_node_count\tedge_count"

        assert main(["hamming", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("method\t")

        assert main(["render", "--out", str(out), "--seed", "9"]) == 0
        assert "rendered" in capsys.readouterr().out

    def test_run_without_input_is_a_usage_error(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path), "--methods", FAST_METHODS])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_single_method_rejected_before_any_computation(self, tmp_path, capsys):
        counts = tmp_path / "counts.tsv"
        write_counts_tsv(counts, small_counts())
        code = main(
            ["run", "--input", str(counts), "--methods", "pearson", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "at least 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_partial_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def patched(method, table, params=None, seed=None):
            if method == "sparcc":
                raise EstimatorError("synthetic failure")
            return run_method(method, table, params, seed=seed)

        monkeypatch.setattr("taxonet.pipeline.run_method", patched)
        counts = tmp_path / "counts.tsv"
        write_counts_tsv(counts, small_counts())
        code = main(
            [
                "run",
                "--input", str(counts),
                "--methods", FAST_METHODS,
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 3
        assert "FAILED sparcc" in capsys.readouterr().err
        assert (tmp_path / "o" / "consensus_matrix.tsv").exists()

    def test_verbs_need_an_output_directory(self, capsys):
        assert main(["sweep"]) == 2
        assert "needs --out" in capsys.readouterr().err

    def test_taxa_in_rows_orientation(self, tmp_path, capsys):
        table = small_counts()
        path = tmp_path / "wide.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("taxon\t" + "\t".join(table.samples) + "\n")
            for j, taxon in enumerate(table.taxa):
                fh.write(
                    taxon + "\t" + "\t".join(str(int(v)) for v in table.values[:, j]) + "\n"
                )
        code = main(
            [
                "run",
                "--input", str(path),
                "--orientation", "taxa_in_rows",
                "--methods", FAST_METHODS,
                "--out", str(tmp_path / "o"),
                "--seed", "3",
            ]
        )
        assert code == 0
