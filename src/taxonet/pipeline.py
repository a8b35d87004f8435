"""End-to-end run: load counts, filter, run every enabled method, vote,
and write the artifact set.

Artifacts written to the output directory:

- ``consensus_matrix.tsv``    integer agreement counts, taxa-labeled
- ``edge_list.tsv``           positive-weight edges with supporting methods
- ``adjacency_<method>.tsv``  each method's binary vote
- ``threshold_sweep.tsv``     nodes/edges at every threshold
- ``hamming_matrix.tsv``      pairwise edge disagreements between methods
- ``network_t<k>.svg``        one rendering per threshold
- ``consensus_network.svg``   the union network (weight >= 1)
- ``hamming_heatmap.svg``     the disagreement matrix as a heatmap
- ``layouts.json``            the positions behind the SVGs, for ``render``
- ``config_echo.txt``         the effective configuration, fully spelled out
- ``manifest.json``           run record (seeds, timings, selections, failures)

A failing method is dropped with a warning and recorded in the manifest;
the consensus is built from the survivors.  Everything except the manifest
(which carries wall-clock timings) is byte-identical across reruns with the
same config and seed.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig, config_to_text
from .consensus import (
    SweepRow,
    WeightedConsensus,
    binarize,
    build_consensus,
    hamming_matrix,
    threshold_network,
    threshold_sweep,
)
from .data import (
    CountTable,
    clr_transform,
    degenerate_taxa,
    drop_taxa,
    filter_taxa,
    load_count_table,
)
from .errors import ConsensusError, ExportError, FilterError, TaxonetError
from .exports import export_graph, write_text
from .methods import method_seed, run_method
from .network import BinaryNetwork, MethodResult
from .render import render_hamming_heatmap, render_network_svg, render_threshold_panel

log = logging.getLogger("taxonet")

MANIFEST_NAME = "manifest.json"
LAYOUTS_NAME = "layouts.json"

# With jobs > 1 these methods go to the workers first, in this order, and
# the rest follow in roster order, so the longest job never starts last.
# Seconds in a traced run on the 20-taxon acceptance table (two cores):
# gcoda 6.66, spieceasi_glasso 1.26, every other method 0.10 or less.
LONGEST_FIRST = ("gcoda", "spieceasi_glasso")


@dataclass
class MethodRun:
    method: str
    seed: int
    status: str = "ok"            # "ok" or "failed"
    error: str | None = None
    seconds: float = 0.0
    result: MethodResult | None = None
    vote: BinaryNetwork | None = None
    rule: str = ""


@dataclass
class PipelineRun:
    config: PipelineConfig
    table: CountTable
    dropped_taxa: list[str]
    runs: dict[str, MethodRun]
    consensus: WeightedConsensus | None
    sweep: list[SweepRow] = field(default_factory=list)
    hamming: np.ndarray | None = None
    out_dir: str = ""

    @property
    def failed(self) -> list[str]:
        return [m for m, r in self.runs.items() if r.status == "failed"]

    @property
    def succeeded(self) -> list[str]:
        return [m for m, r in self.runs.items() if r.status == "ok"]


def _execute_method(method: str, table: CountTable, params, seed: int):
    start = time.perf_counter()
    result = run_method(method, table, params, seed=seed)
    return result, time.perf_counter() - start


def prepare_table(cfg: PipelineConfig, table: CountTable | None = None):
    """Load, filter, and strip taxa that carry no usable signal: those
    with all-zero counts, then those constant after the transform.

    Returns the working table and the list of dropped taxa, in roster order.
    """
    if table is None:
        if cfg.input_path is None:
            raise FilterError("no input table: set 'input' in the config or pass a table")
        table = load_count_table(cfg.input_path, orientation=cfg.orientation)
    table = filter_taxa(table, min_prevalence=cfg.min_prevalence, min_total=cfg.min_total)
    if table.n_taxa < 3:
        raise FilterError(f"only {table.n_taxa} taxa left after filtering; need at least 3")
    if table.n_samples < 4:
        raise FilterError(f"only {table.n_samples} samples; need at least 4")
    zero = [t for t, total in zip(table.taxa, table.values.sum(axis=0)) if total == 0]
    kept = drop_taxa(table, zero)
    degenerate = sorted(zero + degenerate_taxa(clr_transform(kept, pseudo=0.5), kept.taxa),
                        key=table.taxa.index)
    if degenerate:
        log.warning(
            "dropping %d degenerate taxa (no variation after transform): %s",
            len(degenerate),
            ", ".join(degenerate),
        )
        table = drop_taxa(table, degenerate)
        if table.n_taxa < 3:
            raise FilterError("fewer than 3 taxa left after dropping degenerate ones")
    return table, degenerate


def run_methods(cfg: PipelineConfig, table: CountTable) -> dict[str, MethodRun]:
    """Run every enabled method, serially or across worker processes."""
    runs: dict[str, MethodRun] = {}
    jobs = []
    for m in cfg.methods:
        runs[m] = MethodRun(
            method=m, seed=method_seed(cfg.seed, m), rule=cfg.rule_for(m).describe()
        )
        jobs.append((m, table, cfg.params_for(m), runs[m].seed))

    pool = None
    if cfg.jobs > 1:
        # imported here so that a serial run does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=cfg.jobs)
    with pool or contextlib.nullcontext():
        futures = {}
        if pool is not None:
            rank = {m: i for i, m in enumerate(LONGEST_FIRST)}
            for m, t, p, s in sorted(jobs, key=lambda job: rank.get(job[0], len(rank))):
                futures[m] = pool.submit(_execute_method, m, t, p, s)
        for m, t, p, s in jobs:
            try:
                outcome = futures[m].result() if m in futures else _execute_method(m, t, p, s)
                runs[m].result, runs[m].seconds = outcome
            except Exception as exc:
                runs[m].status = "failed"
                runs[m].error = f"{type(exc).__name__}: {exc}"

    for m, run in runs.items():
        if run.status != "ok":
            log.warning("method %s failed and is dropped from the consensus: %s", m, run.error)
            continue
        try:
            run.vote = binarize(run.result, cfg.rule_for(m))
        except TaxonetError as exc:
            run.status = "failed"
            run.error = f"{type(exc).__name__}: {exc}"
            log.warning("binarization failed for %s: %s", m, exc)
    return runs


def labeled_matrix_text(labels: list[str], values: np.ndarray, corner: str) -> str:
    """An integer matrix as TSV under a header of ``corner`` and the labels."""
    rows = [lab + "\t" + "\t".join(str(int(v)) for v in row) for lab, row in zip(labels, values)]
    return "\n".join([corner + "\t" + "\t".join(labels)] + rows) + "\n"


def sweep_text(sweep: list[SweepRow]) -> str:
    """The threshold sweep as TSV, one row per threshold."""
    rows = [f"{r.t}\t{r.connected_node_count}\t{r.edge_count}\n" for r in sweep]
    return "t\tconnected_node_count\tedge_count\n" + "".join(rows)


def read_labeled_matrix(path):
    """Labels and integer matrix of a file in ``labeled_matrix_text`` form;
    a missing or malformed file is a ``ConsensusError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            labels = fh.readline().rstrip("\n").split("\t")[1:]
            rows = [line.rstrip("\n").split("\t") for line in fh]
        values = np.array([[int(v) for v in row[1:]] for row in rows], dtype=np.int64)
    except (OSError, ValueError) as exc:
        raise ConsensusError(f"cannot read run artifact {path}: {exc}") from exc
    if [row[0] for row in rows] != labels or values.shape != (len(labels), len(labels)):
        raise ConsensusError(f"cannot read run artifact {path}: not a square matrix "
                             "under the labels of its header")
    return labels, values


def write_artifacts(run: PipelineRun) -> list[str]:
    out = run.out_dir
    written: list[str] = []

    def record(name: str) -> str:
        written.append(name)
        return os.path.join(out, name)

    for m in run.succeeded:
        vote = run.runs[m].vote
        write_text(record(f"adjacency_{m}.tsv"), labeled_matrix_text(vote.taxa, vote.adj, "taxon"))

    c = run.consensus
    if c is not None:
        write_text(record("consensus_matrix.tsv"),
                    labeled_matrix_text(c.taxa, c.weights, "taxon"))
        export_graph(c, "edgelist_tsv", record("edge_list.tsv"))
        write_text(record("threshold_sweep.tsv"), sweep_text(run.sweep))
        write_text(record("hamming_matrix.tsv"),
                    labeled_matrix_text(c.methods, run.hamming, "method"))
        layouts: dict = {}
        panel_paths, _ = render_threshold_panel(
            c, out, layout_seed=run.config.seed, layouts=layouts
        )
        written.extend(os.path.basename(p) for p in panel_paths)
        union = threshold_network(c, 0)
        render_network_svg(
            union,
            run.config.seed,
            record("consensus_network.svg"),
            title=f"consensus union: {union.n_edges} edges",
            layouts=layouts,
        )
        render_hamming_heatmap(
            run.hamming, list(c.methods), record("hamming_heatmap.svg")
        )
        # floats are written in their shortest exact repr, so they read back bit for bit
        write_text(record(LAYOUTS_NAME), json.dumps(
            {key: pos.tolist() for key, pos in layouts.items()}, sort_keys=True) + "\n")

    write_text(record("config_echo.txt"), config_to_text(run.config))

    manifest = {
        "seed": run.config.seed,
        "n_samples": run.table.n_samples,
        "taxa": list(run.table.taxa),
        "dropped_taxa": run.dropped_taxa,
        "enabled_methods": list(run.config.methods),
        "consensus_methods": run.succeeded if c is not None else [],
        "failed_methods": run.failed,
        "methods": {
            m: {
                "status": r.status,
                "error": r.error,
                "seed": r.seed,
                "seconds": round(r.seconds, 6),
                "rule": r.rule,
                "params": r.result.params if r.result else None,
                "selection": r.result.selection if r.result else None,
            }
            for m, r in run.runs.items()
        },
        "config": config_to_text(run.config),
        "artifacts": sorted(written + [MANIFEST_NAME]),
    }
    write_text(os.path.join(out, MANIFEST_NAME),
               json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(MANIFEST_NAME)
    return written


def run_pipeline(cfg: PipelineConfig, table: CountTable | None = None) -> PipelineRun:
    """Full pipeline; artifacts land in ``cfg.output_dir``, which is made
    before any method runs.

    Raises only on configuration/input problems.  Individual method
    failures are recorded in the run and reflected in the CLI exit code,
    not raised, unless fewer than two methods survive.
    """
    table, dropped = prepare_table(cfg, table)
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ExportError(f"cannot create output directory {cfg.output_dir}: {exc}") from exc
    runs = run_methods(cfg, table)
    survivors = [m for m in cfg.methods if runs[m].status == "ok"]

    consensus = None
    sweep: list[SweepRow] = []
    ham = None
    if len(survivors) >= 2:
        consensus = build_consensus([runs[m].vote for m in survivors], survivors)
        sweep = threshold_sweep(consensus)
        ham = hamming_matrix([runs[m].vote for m in survivors])

    run = PipelineRun(
        config=cfg,
        table=table,
        dropped_taxa=dropped,
        runs=runs,
        consensus=consensus,
        sweep=sweep,
        hamming=ham,
        out_dir=cfg.output_dir,
    )
    write_artifacts(run)
    if consensus is None:
        failures = "; ".join(f"{m}: {runs[m].error}" for m in run.failed)
        raise ConsensusError(
            f"fewer than 2 methods succeeded, no consensus possible ({failures})"
        )
    return run


def read_manifest(out_dir) -> dict:
    """The run record of a finished run directory."""
    path = os.path.join(out_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConsensusError(f"cannot read run manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConsensusError(
            f"run manifest {path} holds a {type(manifest).__name__}, not an object"
        )
    return manifest


def read_layouts(path) -> dict | None:
    """The positions a run recorded in ``path``, keyed as ``render``'s
    ``layouts``; None, with a warning naming the file, when it is missing or
    not a JSON object of numeric arrays."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return {key: np.asarray(pos, dtype=float) for key, pos in dict(json.load(fh)).items()}
    except (OSError, TypeError, ValueError) as exc:
        log.warning("cannot read the recorded layouts in %s: %s", path, exc)
        return None


def load_consensus(out_dir) -> WeightedConsensus:
    """Rebuild the consensus of a finished run from its artifact directory."""
    methods = read_manifest(out_dir).get("consensus_methods", [])
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ConsensusError(f"run manifest {os.path.join(out_dir, MANIFEST_NAME)} records "
                             f"consensus_methods {methods!r}, not a list of method names")
    if len(methods) < 2:
        raise ConsensusError(f"run in {out_dir} has no consensus (methods: {methods})")
    nets = []
    for m in methods:
        labels, adj = read_labeled_matrix(os.path.join(out_dir, f"adjacency_{m}.tsv"))
        nets.append(BinaryNetwork(adj=adj.astype(np.int8), taxa=labels))
    return build_consensus(nets, methods)
