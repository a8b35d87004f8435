"""Command-line interface.

Verbs::

    taxonet run       --input counts.tsv [--config cfg] [--out DIR] [--seed N] [--jobs N]
    taxonet threshold --t K --out DIR
    taxonet export    --format graphml|dot|edgelist_tsv --out DIR
    taxonet sweep     --out DIR
    taxonet hamming   --out DIR
    taxonet render    --out DIR

``run`` executes the full pipeline.  Its flags set the config keys of the
same name (``--out`` sets ``output``) over the config file's entries.  The
other verbs operate on a finished run directory; ``render`` lays the SVGs
out with the seed recorded in the run's manifest.  Exit codes: 0 clean, 2
usage or data errors, 3 when one or more methods failed (the consensus of
the survivors is still written).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import ORIENTATIONS, PipelineConfig, build_config, load_config
from .consensus import threshold_network, threshold_sweep
from .errors import ConfigError, ConsensusError, TaxonetError
from .exports import EXPORT_FORMATS, export_graph, write_text
from .pipeline import (
    labeled_matrix_text,
    load_consensus,
    read_labeled_matrix,
    read_manifest,
    run_pipeline,
    sweep_text,
)
from .render import render_hamming_heatmap, render_network_svg, render_threshold_panel


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="configuration file (dotted key = value lines)")
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxonet",
        description="consensus microbial association networks from abundance tables",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline")
    _add_common(p_run)
    p_run.add_argument("--input", help="count table (samples x taxa by default)")
    p_run.add_argument("--orientation", help=f"one of {', '.join(ORIENTATIONS)}")
    p_run.add_argument("--methods", help="comma-separated method subset (default: all)")
    p_run.add_argument("--seed", help="master seed")
    p_run.add_argument("--jobs", help="worker process count")

    p_thr = sub.add_parser("threshold", help="threshold a finished run's consensus")
    _add_common(p_thr)
    p_thr.add_argument("--t", type=int, required=True, help="keep edges with weight > t")

    p_exp = sub.add_parser("export", help="export a finished run's consensus")
    _add_common(p_exp)
    p_exp.add_argument("--format", required=True, choices=EXPORT_FORMATS)

    p_sweep = sub.add_parser("sweep", help="print the threshold sweep table")
    _add_common(p_sweep)

    p_ham = sub.add_parser("hamming", help="print the method disagreement matrix")
    _add_common(p_ham)

    p_render = sub.add_parser("render", help="re-render the SVG outputs")
    _add_common(p_render)
    return parser


def _config_from_args(args) -> PipelineConfig:
    flags = {"input": args.input, "orientation": args.orientation, "methods": args.methods,
             "seed": args.seed, "jobs": args.jobs, "output": args.out}
    flags = {key: value for key, value in flags.items() if value is not None}
    return load_config(args.config, flags) if args.config else build_config(flags)


def _out_dir(args) -> str:
    if args.out:
        return args.out
    if args.config:
        return load_config(args.config).output_dir
    raise ConfigError("this verb needs --out (or --config) pointing at a run directory")


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    if cfg.input_path is None:
        raise ConfigError("run needs an input table: --input or 'input' in the config")
    run = run_pipeline(cfg)
    c = run.consensus
    print(f"consensus over {c.n_methods} methods: {c.n_taxa} taxa, "
          f"{int((c.weights > 0).sum()) // 2} edges with support")
    print(f"artifacts written to {cfg.output_dir}")
    if run.failed:
        for m in run.failed:
            print(f"FAILED {m}: {run.runs[m].error}", file=sys.stderr)
        return 3
    return 0


def _cmd_threshold(args) -> int:
    out = _out_dir(args)
    c = load_consensus(out)
    net = threshold_network(c, args.t)
    degrees = net.adj.sum(axis=0)
    path = os.path.join(out, f"thresholded_t{args.t}.tsv")
    write_text(path, labeled_matrix_text(net.taxa, net.adj, "taxon"))
    print(f"t={args.t}: {int((degrees > 0).sum())} connected nodes, "
          f"{net.n_edges} edges -> {path}")
    return 0


def _cmd_export(args) -> int:
    out = _out_dir(args)
    c = load_consensus(out)
    ext = {"graphml": "graphml", "dot": "dot", "edgelist_tsv": "tsv"}[args.format]
    path = os.path.join(out, f"consensus.{ext}")
    export_graph(c, args.format, path)
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    print(sweep_text(threshold_sweep(load_consensus(_out_dir(args)))), end="")
    return 0


def _cmd_hamming(args) -> int:
    out = _out_dir(args)
    labels, h = read_labeled_matrix(os.path.join(out, "hamming_matrix.tsv"))
    print(labeled_matrix_text(labels, h, "method"), end="")
    return 0


def _cmd_render(args) -> int:
    out = _out_dir(args)
    c = load_consensus(out)
    seed = read_manifest(out).get("seed")
    if not isinstance(seed, int):
        raise ConsensusError(f"the run manifest in {out} records no seed")
    layouts: dict = {}
    paths, _ = render_threshold_panel(c, out, layout_seed=seed, layouts=layouts)
    union = threshold_network(c, 0)
    union_path = os.path.join(out, "consensus_network.svg")
    render_network_svg(union, seed, union_path,
                       title=f"consensus union: {union.n_edges} edges", layouts=layouts)
    paths.append(union_path)
    ham = os.path.join(out, "hamming_matrix.tsv")
    if os.path.exists(ham):
        labels, h = read_labeled_matrix(ham)
        heat = os.path.join(out, "hamming_heatmap.svg")
        render_hamming_heatmap(h, labels, heat)
        paths.append(heat)
    print(f"rendered {len(paths)} images in {out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "threshold": _cmd_threshold,
    "export": _cmd_export,
    "sweep": _cmd_sweep,
    "hamming": _cmd_hamming,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except TaxonetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
