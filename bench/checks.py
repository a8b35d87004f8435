"""Output checks for a finished run and for the verbs run on it.

Each check compares an artifact with an independent computation from the
input table or from other artifacts, or with a property the method must
have; none compares with a stored copy of earlier output.  Only numpy,
scipy and networkx are used, never taxonet.  Every function returns a list
of problems, empty when the check passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
from scipy import stats

CORRELATION_CUT = 0.3
CUT_SLACK = 1e-9
STARS_BETA = 0.1
STARS_METHODS = ("spieceasi_mb", "spieceasi_glasso", "spring")
# the planted chain must carry this multiple of the mean non-edge weight,
# and at least this share of the method count
CHAIN_RATIO = 4.0
CHAIN_SHARE = 0.3


def read_counts(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        taxa = fh.readline().rstrip("\n").split("\t")[1:]
    counts = np.loadtxt(path, delimiter="\t", skiprows=1, usecols=range(1, len(taxa) + 1))
    return taxa, counts


def read_matrix(path: str) -> tuple[list[str], np.ndarray]:
    """A labeled square integer matrix as the pipeline writes it."""
    with open(path, encoding="utf-8") as fh:
        labels = fh.readline().rstrip("\n").split("\t")[1:]
        rows, row_labels = [], []
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            row_labels.append(parts[0])
            rows.append([int(v) for v in parts[1:]])
    if row_labels != labels:
        raise ValueError(f"{path}: row labels differ from column labels")
    return labels, np.array(rows, dtype=np.int64).reshape(len(labels), len(labels))


def digests(run_dir: str) -> dict[str, str]:
    """sha256 of every artifact except the manifest, which holds timings."""
    out = {}
    for name in sorted(os.listdir(run_dir)):
        if name != "manifest.json":
            with open(os.path.join(run_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _clr(counts: np.ndarray) -> np.ndarray:
    shifted = counts + 0.5
    logs = np.log(shifted / shifted.sum(axis=1, keepdims=True))
    return logs - logs.mean(axis=1, keepdims=True)


def _bicor(x: np.ndarray) -> np.ndarray:
    """Biweight midcorrelation (tuning constant 9); a column with zero MAD
    enters by its mean-centered values."""
    med = np.median(x, axis=0)
    mad = np.median(np.abs(x - med), axis=0)
    safe = np.where(mad > 0, mad, 1.0)
    u = (x - med) / (9.0 * safe)
    weighted = (x - med) * (1.0 - u**2) ** 2 * (np.abs(u) < 1.0)
    cols = np.where(mad > 0, weighted, x - x.mean(axis=0))
    norms = np.sqrt((cols**2).sum(axis=0))
    return (cols.T @ cols) / np.outer(norms, norms)


def independent_correlations(counts: np.ndarray) -> dict[str, np.ndarray]:
    z = _clr(counts)
    return {
        "pearson": np.corrcoef(z, rowvar=False),
        "spearman": np.corrcoef(stats.rankdata(z, axis=0), rowvar=False),
        "bicor": _bicor(z),
    }


def check_run(run_dir: str, tsv: str, methods: list[str]) -> list[str]:
    """Checks on the artifacts ``taxonet run`` wrote into ``run_dir``."""
    problems: list[str] = []
    taxa, counts = read_counts(tsv)
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["consensus_methods"] != methods:
        return [f"consensus methods {manifest['consensus_methods']} != {methods}"]
    m_count = len(methods)

    adj = {}
    for m in methods:
        labels, a = read_matrix(os.path.join(run_dir, f"adjacency_{m}.tsv"))
        if labels != taxa:
            problems.append(f"adjacency_{m}.tsv: taxa differ from the input table")
            continue
        if not np.array_equal(a, a.T) or np.diag(a).any() or not np.isin(a, (0, 1)).all():
            problems.append(f"adjacency_{m}.tsv is not a symmetric 0/1 matrix with zero diagonal")
        adj[m] = a
    if problems:
        return problems

    for m, r in independent_correlations(counts).items():
        if m not in adj:
            continue
        decided = np.abs(np.abs(r) - CORRELATION_CUT) > CUT_SLACK
        np.fill_diagonal(decided, False)
        expected = np.abs(r) >= CORRELATION_CUT
        wrong = decided & (expected != adj[m].astype(bool))
        if wrong.any():
            i, j = np.argwhere(wrong)[0]
            problems.append(f"{m}: vote at ({taxa[i]}, {taxa[j]}) is {adj[m][i, j]}, "
                            f"|r| = {abs(r[i, j]):.12f}")

    labels, w = read_matrix(os.path.join(run_dir, "consensus_matrix.tsv"))
    total = sum(adj[m] for m in methods)
    if labels != taxa or not np.array_equal(w, total):
        problems.append("consensus_matrix.tsv is not the sum of the adjacency files")
    if not np.array_equal(w, w.T) or np.diag(w).any() or w.min() < 0 or w.max() > m_count:
        problems.append("consensus matrix is not symmetric with zero diagonal in [0, M]")

    problems += _check_sweep(run_dir, total, m_count)
    problems += _check_hamming(run_dir, adj, methods)
    problems += _check_edge_list(run_dir, taxa, total, adj, methods)
    problems += _check_selection(manifest, adj)
    problems += _check_chain(total, m_count)
    return problems


def sweep_rows(w: np.ndarray, m_count: int) -> list[tuple[int, int, int]]:
    rows = []
    for t in range(m_count):
        keep = w > t
        rows.append((t, int(keep.any(axis=0).sum()), int(np.triu(keep, 1).sum())))
    return rows


def _check_sweep(run_dir, w, m_count) -> list[str]:
    with open(os.path.join(run_dir, "threshold_sweep.tsv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    expected = ["t\tconnected_node_count\tedge_count"] + [
        "\t".join(map(str, row)) for row in sweep_rows(w, m_count)
    ]
    if lines != expected:
        return ["threshold_sweep.tsv does not match the consensus weights"]
    return []


def _check_hamming(run_dir, adj, methods) -> list[str]:
    labels, h = read_matrix(os.path.join(run_dir, "hamming_matrix.tsv"))
    expected = np.array([
        [int(np.triu(adj[a] != adj[b], 1).sum()) for b in methods] for a in methods
    ])
    if labels != methods or not np.array_equal(h, expected):
        return ["hamming_matrix.tsv does not match the adjacency files"]
    return []


def _expected_edges(taxa, w, adj, methods) -> list[str]:
    rows = []
    for i, j in zip(*np.nonzero(np.triu(w, 1))):
        a, b = sorted((taxa[i], taxa[j]))
        support = ",".join(m for m in methods if adj[m][i, j])
        rows.append((-int(w[i, j]), a, b, support))
    rows.sort()
    return [f"{a}\t{b}\t{-nw}\t{s}" for nw, a, b, s in rows]


def _check_edge_list(run_dir, taxa, w, adj, methods) -> list[str]:
    with open(os.path.join(run_dir, "edge_list.tsv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines != ["taxon_a\ttaxon_b\tweight\tsupporting_methods"] + _expected_edges(
        taxa, w, adj, methods
    ):
        return ["edge_list.tsv does not list the positive-weight pairs and their votes"]
    return []


def _check_selection(manifest, adj) -> list[str]:
    problems = []
    for m, record in manifest["methods"].items():
        sel = record["selection"]
        if m in STARS_METHODS:
            running = np.maximum.accumulate(np.asarray(sel["instability"]))
            ok = np.flatnonzero(running <= STARS_BETA)
            expected = int(ok[-1]) if ok.size else int(np.argmin(running))
            if sel["lambda_index"] != expected or sel["threshold_met"] != bool(ok.size):
                problems.append(f"{m}: StARS picked index {sel['lambda_index']}, "
                                f"the recorded instability gives {expected}")
        elif m == "gcoda":
            scores = sel["ebic"]   # rows: lambda, ebic, edge count
            # least EBIC; ties go to fewer edges, then to the larger penalty
            expected = min(range(len(scores)), key=lambda k: (
                round(scores[k][1], 10), scores[k][2], -scores[k][0]))
            if sel["lambda_index"] != expected:
                problems.append(f"gcoda: EBIC picked index {sel['lambda_index']}, "
                                f"the recorded scores give {expected}")
            elif int(np.triu(adj["gcoda"], 1).sum()) != int(scores[expected][2]):
                problems.append("gcoda: the vote's edge count differs from the recorded one")
    return problems


def chain_weights(w: np.ndarray) -> tuple[float, float]:
    """Mean consensus weight on the planted chain pairs and off them."""
    p = w.shape[0]
    chain = np.zeros_like(w, dtype=bool)
    chain[np.arange(p - 1), np.arange(1, p)] = True
    upper = np.triu(np.ones_like(chain), 1)
    return float(w[chain].mean()), float(w[upper & ~chain].mean())


def _check_chain(w, m_count) -> list[str]:
    on, off = chain_weights(w)
    if on < CHAIN_SHARE * m_count or on < CHAIN_RATIO * off:
        return [f"planted chain weight {on:.3f} vs non-edges {off:.3f} over {m_count} methods"]
    return []


def check_verbs(run_dir: str, m_count: int, outputs: list[dict[str, str]],
                run_digests: dict[str, str]) -> dict[str, list[str]]:
    """Checks on what the verb passes wrote, keyed by verb.  ``outputs``
    holds, for each pass, the standard output of ``sweep`` and ``hamming``;
    ``run_digests`` are the digests of the run's own artifacts."""
    taxa, w = read_matrix(os.path.join(run_dir, "consensus_matrix.tsv"))
    found: dict[str, list[str]] = {}

    for t in range(m_count):
        labels, a = read_matrix(os.path.join(run_dir, f"thresholded_t{t}.tsv"))
        if labels != taxa or not np.array_equal(a, (w > t).astype(np.int64)):
            found.setdefault("threshold", []).append(f"thresholded_t{t}.tsv != weight > {t}")

    found["export"] = _check_exports(run_dir, taxa, w)

    for verb, name in (("sweep", "threshold_sweep.tsv"), ("hamming", "hamming_matrix.tsv")):
        with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
            expected = fh.read()
        if any(printed.get(verb) != expected for printed in outputs):
            found[verb] = [f"{verb} output differs from {name}"]

    render = []
    now = digests(run_dir)
    for name in sorted(n for n in now if n.endswith(".svg")):
        try:
            ET.parse(os.path.join(run_dir, name))
        except ET.ParseError as exc:
            render.append(f"{name} is not XML: {exc}")
        # the verb re-renders with the run's seed, so the bytes must not move
        if now[name] != run_digests.get(name):
            render.append(f"render changed {name}")
    found["render"] = render
    return {verb: p for verb, p in found.items() if p}


def _check_exports(run_dir, taxa, w) -> list[str]:
    import networkx as nx

    problems = []
    expected = {
        frozenset((taxa[i], taxa[j])): int(w[i, j]) for i, j in zip(*np.nonzero(np.triu(w, 1)))
    }
    g = nx.read_graphml(os.path.join(run_dir, "consensus.graphml"))
    got = {frozenset((a, b)): d.get("weight") for a, b, d in g.edges(data=True)}
    if sorted(g.nodes) != sorted(taxa) or got != expected:
        problems.append("consensus.graphml does not hold exactly the positive-weight pairs")

    dot = {}
    with open(os.path.join(run_dir, "consensus.dot"), encoding="utf-8") as fh:
        for line in fh:
            if " -- " in line:
                left, _, rest = line.strip().partition(" -- ")
                right, _, attr = rest.partition(" [penwidth=")
                dot[frozenset((left.strip('"'), right.strip('"')))] = int(float(attr.split("]")[0]))
    if dot != expected:
        problems.append("consensus.dot does not hold exactly the positive-weight pairs")

    with open(os.path.join(run_dir, "consensus.tsv"), "rb") as a, \
            open(os.path.join(run_dir, "edge_list.tsv"), "rb") as b:
        if a.read() != b.read():
            problems.append("edgelist export differs from the run's edge_list.tsv")
    return problems
