"""Release gate for the whole package.

Each test covers one acceptance criterion end to end and prints a single
visible PASS/FAIL line with its headline numbers, so a release run reads
as a nine-line report.  Budgets are wall-clock seconds on a desk machine.
"""

import json
import re
import time
import xml.etree.ElementTree as ET

import numpy as np
import networkx as nx
import pytest

from taxonet.cmi import cmimn_fit, conditional_mi, gaussian_mi
from taxonet.config import build_config
from taxonet.consensus import build_consensus, hamming_distance, threshold_network
from taxonet.correlation import correlation_matrix, tau_bridge
from taxonet.data import clr_transform
from taxonet.estimators import gcoda_fit, spieceasi_fit
from taxonet.exports import export_graph, import_edgelist_tsv
from taxonet.network import BinaryNetwork
from taxonet.pipeline import run_pipeline
from taxonet.solvers import graphical_lasso
from taxonet.sparcc import sparcc_fit

from conftest import (
    acceptance_table,
    chain_count_table,
    chain_edges,
    compositional_counts,
    f1_score,
    make_table,
)
from test_cmi import chain_plus_noise_table, pair_with_exact_correlation, stage1_network


def report(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"acceptance {num} {label}: {detail}"


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """Two identical all-methods pipeline runs on a 20-taxon, 80-sample
    synthetic table, plus their combined wall-clock time."""
    table = acceptance_table()
    base = tmp_path_factory.mktemp("full")
    start = time.perf_counter()
    runs = []
    for name in ("a", "b"):
        out = base / name
        cfg = build_config({"output": str(out), "seed": "0"})
        runs.append((run_pipeline(cfg, table=table), out))
    return runs, time.perf_counter() - start


def test_a01_unpenalized_solver_matches_direct_inversion(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    worst_offdiag = 0.0
    for _ in range(20):
        x = rng.standard_normal((200, 5))
        s = np.corrcoef(x, rowvar=False)
        assert np.linalg.cond(s) < 100  # well-conditioned instances only
        est = graphical_lasso(s, 0.0)
        worst_gap = max(worst_gap, float(np.abs(est.omega - np.linalg.inv(s)).max()))
        lam_max = float(np.abs(s - np.eye(5)).max())
        hard = graphical_lasso(s, lam_max * 1.001)
        worst_offdiag = max(
            worst_offdiag, float(np.abs(hard.omega[~np.eye(5, dtype=bool)]).max())
        )
    elapsed = time.perf_counter() - start
    ok = worst_gap < 1e-5 and worst_offdiag < 1e-12 and elapsed < 5.0
    report(
        capsys, 1, "solver inversion oracle", ok,
        f"max inversion gap {worst_gap:.1e}, max shrunk off-diagonal "
        f"{worst_offdiag:.1e}, {elapsed:.2f}s",
    )


def test_a02_chain_structure_recovery(capsys):
    start = time.perf_counter()
    table = chain_count_table()
    truth = chain_edges(10)
    mb = spieceasi_fit(table, mode="mb")
    f1_mb = f1_score(mb.network.edge_set(), truth)
    gc = gcoda_fit(table)
    f1_gc = f1_score(gc.network.edge_set(), truth)
    elapsed = time.perf_counter() - start
    ok = f1_mb >= 0.8 and f1_gc >= 0.7 and elapsed < 60.0
    report(
        capsys, 2, "chain recovery", ok,
        f"neighborhood F1 {f1_mb:.2f} (need 0.80), "
        f"log-ratio glasso F1 {f1_gc:.2f} (need 0.70), {elapsed:.1f}s",
    )


def test_a03_sparcc_null_and_planted_signal(capsys):
    start = time.perf_counter()
    z = np.random.default_rng(11).standard_normal((500, 10))
    null = sparcc_fit(make_table(compositional_counts(z)), seed=0)
    null_median = float(np.median(np.abs(null[~np.eye(10, dtype=bool)])))

    z = np.random.default_rng(31).standard_normal((500, 10))
    z[:, 1] = 0.9 * z[:, 0] + np.sqrt(1 - 0.81) * z[:, 1]
    planted = sparcc_fit(make_table(compositional_counts(z)), seed=0)
    mags = np.abs(planted)
    np.fill_diagonal(mags, 0.0)
    top = np.unravel_index(int(np.argmax(mags)), mags.shape)
    elapsed = time.perf_counter() - start
    ok = null_median < 0.15 and top in {(0, 1), (1, 0)} and elapsed < 30.0
    report(
        capsys, 3, "compositional correlation null and signal", ok,
        f"null median {null_median:.3f} (need < 0.15), planted pair ranked "
        f"{'first' if top in {(0, 1), (1, 0)} else 'NOT first'} "
        f"at {planted[0, 1]:.2f}, {elapsed:.1f}s",
    )


def test_a04_conditional_information_estimates(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    z = rng.standard_normal(2000)
    x = 0.8 * z + 0.6 * rng.standard_normal(2000)
    y = 0.8 * z + 0.6 * rng.standard_normal(2000)
    blocked = conditional_mi(x, y, z)

    x2, y2 = pair_with_exact_correlation(0.6, n=2000, seed=405)
    z2 = np.random.default_rng(406).standard_normal(2000)
    irrelevant_gap = abs(conditional_mi(x2, y2, z2) - gaussian_mi(x2, y2))

    fit = cmimn_fit(chain_plus_noise_table())
    considered = (0, 2) in stage1_network(fit).edge_set()
    removed = (0, 2) not in fit.network.edge_set()
    elapsed = time.perf_counter() - start
    ok = (
        blocked < 0.02
        and irrelevant_gap < 0.02
        and considered
        and removed
        and elapsed < 20.0
    )
    report(
        capsys, 4, "conditional information", ok,
        f"blocked pair {blocked:.4f} (need < 0.02), irrelevant-z gap "
        f"{irrelevant_gap:.4f} (need < 0.02), transitive edge "
        f"{'removed' if considered and removed else 'NOT removed'}, {elapsed:.1f}s",
    )


def test_a05_consensus_algebra_properties(capsys):
    cases = 200
    rng = np.random.default_rng(505)
    violations = []

    def random_vote(p, taxa):
        mask = rng.random((p, p)) < rng.uniform(0.1, 0.7)
        adj = ((mask | mask.T) & ~np.eye(p, dtype=bool)).astype(np.int8)
        return BinaryNetwork(adj=adj, taxa=taxa)

    for case in range(cases):
        p = int(rng.integers(3, 11))
        m = int(rng.integers(2, 7))
        taxa = [f"t{k}" for k in range(p)]
        nets = [random_vote(p, taxa) for _ in range(m)]
        cons = build_consensus(nets, [f"m{k}" for k in range(m)])
        if cons.weights.min() < 0 or cons.weights.max() > m:
            violations.append((case, "weight bounds"))
        layers = [threshold_network(cons, t) for t in range(m + 1)]
        iu = np.triu_indices(p, k=1)
        w = cons.weights[iu]
        for t in range(m):
            if not layers[t + 1].edge_set() <= layers[t].edge_set():
                violations.append((case, f"nesting at t={t}"))
            if layers[t].n_edges - layers[t + 1].n_edges != int((w == t + 1).sum()):
                violations.append((case, f"telescoping at t={t}"))
        if layers[m].n_edges != 0:
            violations.append((case, "top layer not empty"))
        a, b, c = (random_vote(p, taxa) for _ in range(3))
        if hamming_distance(a, a) != 0:
            violations.append((case, "self distance"))
        if hamming_distance(a, b) != hamming_distance(b, a):
            violations.append((case, "symmetry"))
        if hamming_distance(a, c) > hamming_distance(a, b) + hamming_distance(b, c):
            violations.append((case, "triangle inequality"))
    ok = not violations
    report(
        capsys, 5, "consensus algebra", ok,
        f"{cases} randomized cases, {len(violations)} violations"
        + (f", first: {violations[0]}" if violations else ""),
    )


def test_a06_default_parameter_fidelity(capsys, full_runs):
    runs, _ = full_runs
    _, out = runs[0]
    manifest = json.loads((out / "manifest.json").read_text())
    expected = {
        "sparcc": {"imax": 20, "kmax": 10, "alpha": 0.1, "vmin": 1e-4},
        "gcoda": {"ebic_gamma": 0.5, "nlambda": 15},
        "cmimn": {"q1": 0.7, "q2": 0.95},
        "cclasso": {"k_cv": 3, "k_max": 20, "n_boot": 20, "lam_int": [1e-4, 1.0]},
        "spieceasi_mb": {"nlambda": 15, "rep_num": 20},
        "spieceasi_glasso": {"nlambda": 15, "rep_num": 50},
        "spring": {"nlambda": 15, "rep_num": 20},
    }
    mismatches = []
    for method, fields in expected.items():
        recorded = manifest["methods"][method]["params"]
        for name, want in fields.items():
            if recorded.get(name) != want:
                mismatches.append(f"{method}.{name}={recorded.get(name)!r} (want {want!r})")
    if manifest["failed_methods"]:
        mismatches.append(f"failed methods: {manifest['failed_methods']}")
    ok = not mismatches
    report(
        capsys, 6, "default parameter fidelity", ok,
        f"{sum(len(v) for v in expected.values())} fields checked across "
        f"{len(expected)} methods"
        + (f"; mismatches: {'; '.join(mismatches)}" if mismatches else ""),
    )


def test_a07_pipeline_determinism(capsys, full_runs):
    runs, elapsed = full_runs
    (run_a, out_a), (run_b, out_b) = runs
    names = ["consensus_matrix.tsv", "edge_list.tsv"]
    names += sorted(p.name for p in out_a.iterdir() if p.name.endswith(".svg"))
    differing = [
        n for n in names if (out_a / n).read_bytes() != (out_b / n).read_bytes()
    ]
    ok = (
        not differing
        and not run_a.failed
        and not run_b.failed
        and len(run_a.config.methods) == 10
        and elapsed < 180.0
    )
    report(
        capsys, 7, "pipeline determinism", ok,
        f"{len(names)} artifacts compared ({len(differing)} differ), "
        f"10 methods, two runs in {elapsed:.1f}s (budget 180s)",
    )


def test_a08_estimator_identities(capsys):
    rng = np.random.default_rng(808)
    counts = rng.integers(1, 1000, size=(60, 6)).astype(float)
    base = correlation_matrix(counts, make_table(counts).taxa, "spearman")
    warped = counts.copy()
    warped[:, 0] = warped[:, 0] ** 3
    warped[:, 1] = 3.0 * warped[:, 1] + 7.0
    warped[:, 2] = np.sqrt(warped[:, 2])
    monotone_exact = np.array_equal(
        base, correlation_matrix(warped, make_table(warped).taxa, "spearman")
    )

    table = make_table(np.floor(rng.lognormal(3.0, 1.0, size=(40, 8))))
    clr_rows = float(
        np.abs(clr_transform(table, pseudo=0.5).sum(axis=1)).max()
    )

    bridge_exact = float(tau_bridge(0.0)) == 0.0 and float(tau_bridge(1.0)) == 1.0

    x, y = pair_with_exact_correlation(0.6, n=400, seed=0)
    mi_gap = abs(gaussian_mi(x, y) - 0.22314)

    ok = monotone_exact and clr_rows < 1e-8 and bridge_exact and mi_gap <= 1e-5
    report(
        capsys, 8, "estimator identities", ok,
        f"monotone invariance {'exact' if monotone_exact else 'BROKEN'}, "
        f"max log-ratio row sum {clr_rows:.1e}, concordance bridge endpoints "
        f"{'exact' if bridge_exact else 'BROKEN'}, information pin gap {mi_gap:.1e}",
    )


def test_a09_export_round_trips(capsys, full_runs, tmp_path):
    runs, _ = full_runs
    run, out = runs[0]
    cons = run.consensus

    gml = tmp_path / "consensus.graphml"
    export_graph(cons, "graphml", gml)
    g = nx.read_graphml(gml)
    index = {t: k for k, t in enumerate(cons.taxa)}
    weights_match = all(
        g.edges[u, v]["weight"] == int(cons.weights[index[u], index[v]])
        for u, v in g.edges
    )
    positive_pairs = int((cons.weights[np.triu_indices(cons.n_taxa, k=1)] > 0).sum())
    graphml_ok = (
        g.number_of_nodes() == cons.n_taxa
        and g.number_of_edges() == positive_pairs
        and weights_match
    )

    union = threshold_network(cons, 0)
    tsv = tmp_path / "union.tsv"
    export_graph(union, "edgelist_tsv", tsv)
    round_trip_ok = np.array_equal(
        import_edgelist_tsv(tsv, list(cons.taxa)).adj, union.adj
    )

    sweep_ok = True
    for row in run.sweep:
        root = ET.parse(out / f"network_t{row.t}.svg").getroot()
        title = next(el for el in root.iter() if el.tag.endswith("}text")).text
        m = re.fullmatch(r"t=(\d+): (\d+) nodes, (\d+) edges", title)
        if m is None or tuple(int(v) for v in m.groups()) != (
            row.t, row.connected_node_count, row.edge_count,
        ):
            sweep_ok = False
    ok = graphml_ok and round_trip_ok and sweep_ok
    report(
        capsys, 9, "export round trips", ok,
        f"graph markup {'parses' if graphml_ok else 'BROKEN'} "
        f"({positive_pairs} weighted edges), edge-list round trip "
        f"{'exact' if round_trip_ok else 'BROKEN'}, "
        f"{len(run.sweep)} panel annotations "
        f"{'match' if sweep_ok else 'MISMATCH'}",
    )
