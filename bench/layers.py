"""The program's layers as the traced run sees them: which functions are
wrapped, under which span names, what is counted, and how the spans turn
into the per-layer metrics.

The layers are taxonet's modules.  ``pipeline.*_s`` are the inclusive
seconds of the three pipeline stages and ``cli.*_s`` the inclusive seconds
of each verb, so each group adds up to ``run_s`` or ``verbs_s``; every other
``*_s`` is the layer's self time, its spans minus their child spans.
"""

from __future__ import annotations

import json
import os

import numpy as np


def _stars(counts, a, result):
    fits_per_lambda = a["params"].rep_num
    lams = len(a["path"].values)
    # a penalty past the first one whose monotone instability exceeds beta
    # cannot change the selection
    over = np.flatnonzero(result.monotone_instability > a["params"].beta_threshold)
    needed = int(over[0]) + 1 if over.size else lams
    counts["selection.stars_fits"] += fits_per_lambda * lams
    counts["selection.stars_needed"] += fits_per_lambda * needed


def _glasso_batch(counts, a, result):
    _, converged, n_iter = result
    counts["solvers.glasso_batch_problems"] += len(n_iter)
    counts["solvers.glasso_batch_sweeps"] += int(n_iter.sum())
    counts["solvers.glasso_batch_unconverged"] += int((~converged).sum())


def _glasso(counts, a, result):
    counts["solvers.glasso_calls"] += 1
    counts["solvers.glasso_sweeps"] += result.n_iter


def _mb_path(counts, a, result):
    r, p = np.shape(a["grams"])[:2]
    counts["neighborhood.mb_regressions"] += r * p * len(a["lambdas"])


def _kendall(counts, a, result):
    p = np.shape(a["x"])[1]
    counts["correlation.kendall_pairs"] += p * (p - 1) // 2


def _one(key):
    def count(counts, a, result):
        counts[key] += 1
    return count


def _export_bytes(counts, a, result):
    counts["exports.bytes"] += os.path.getsize(a["path"])


def install(tracer) -> None:
    """Wrap each layer's public functions at every module attribute where
    the program looks them up."""
    from taxonet import (cclasso, cli, correlation, estimators, pipeline, render,
                         selection)

    wrap = tracer.wrap
    wrap(pipeline, "load_count_table", "data.load")
    wrap(pipeline, "prepare_table", "pipeline.prepare")
    wrap(pipeline, "run_methods", "pipeline.methods")
    wrap(pipeline, "write_artifacts", "pipeline.write")
    wrap(pipeline, "run_method", lambda a: "method." + a["method"], worker_root=True)
    wrap(estimators, "stars_select", "selection.stars", _stars)
    wrap(estimators, "graphical_lasso_batch", "solvers.glasso_batch", _glasso_batch)
    for module in (estimators, selection):
        wrap(module, "graphical_lasso", "solvers.glasso", _glasso)
    wrap(estimators, "mb_adjacency_path", "neighborhood.mb_path", _mb_path)
    for module in (correlation, estimators):
        wrap(module, "kendall_matrix", "correlation.kendall", _kendall)
    wrap(cclasso, "cclasso_solve", "cclasso.solve", _one("cclasso.solves"))
    for attr in ("binarize", "build_consensus", "threshold_sweep", "hamming_matrix",
                 "threshold_network"):
        wrap(pipeline, attr, "consensus")
    for module in (cli, render):
        for attr in ("threshold_sweep", "threshold_network"):
            wrap(module, attr, "consensus")
    wrap(render, "fr_layout", "render.layout", _one("render.layouts"))
    wrap(render, "render_network_svg", "render.svg")
    for module in (pipeline, cli):
        for attr in ("render_threshold_panel", "render_network_svg", "render_hamming_heatmap"):
            wrap(module, attr, "render.svg")
        wrap(module, "export_graph", "exports", _export_bytes)


def figures(tracer, run_dir: str, jobs: int) -> dict:
    """Per-layer metrics of one traced round whose run wrote ``run_dir``."""
    from taxonet.methods import METHOD_ORDER

    inclusive, own = tracer.totals()
    counts = tracer.counts
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        seconds = {m: r["seconds"] for m, r in json.load(fh)["methods"].items()}

    def s(value):
        return {"value": value, "unit": "s"}

    def n(key):
        return {"value": int(counts.get(key, 0)), "unit": "count"}

    methods_s = inclusive.get("pipeline.methods", 0.0)
    fits = counts.get("selection.stars_fits", 0)
    out = {
        "data.load_s": s(own.get("data.load", 0.0)),
        "pipeline.prepare_s": s(inclusive.get("pipeline.prepare", 0.0)),
        "pipeline.methods_s": s(methods_s),
        "pipeline.write_s": s(inclusive.get("pipeline.write", 0.0)),
        "pipeline.worker_utilization": {
            "value": sum(seconds.values()) / (jobs * methods_s) if methods_s else 0.0,
            "unit": "ratio"},
    }
    for m in METHOD_ORDER:
        out[f"method.{m}_s"] = s(seconds.get(m, 0.0))
    out.update({
        "selection.stars_s": s(own.get("selection.stars", 0.0)),
        "selection.stars_fits": n("selection.stars_fits"),
        "selection.stars_needed_ratio": {
            "value": counts.get("selection.stars_needed", 0) / fits if fits else 0.0,
            "unit": "ratio"},
        "solvers.glasso_batch_s": s(own.get("solvers.glasso_batch", 0.0)),
        "solvers.glasso_batch_problems": n("solvers.glasso_batch_problems"),
        "solvers.glasso_batch_sweeps": n("solvers.glasso_batch_sweeps"),
        "solvers.glasso_batch_unconverged": n("solvers.glasso_batch_unconverged"),
        "solvers.glasso_s": s(own.get("solvers.glasso", 0.0)),
        "solvers.glasso_calls": n("solvers.glasso_calls"),
        "solvers.glasso_sweeps": n("solvers.glasso_sweeps"),
        "neighborhood.mb_path_s": s(own.get("neighborhood.mb_path", 0.0)),
        "neighborhood.mb_regressions": n("neighborhood.mb_regressions"),
        "correlation.kendall_s": s(own.get("correlation.kendall", 0.0)),
        "correlation.kendall_pairs": n("correlation.kendall_pairs"),
        "cclasso.solve_s": s(own.get("cclasso.solve", 0.0)),
        "cclasso.solves": n("cclasso.solves"),
        "consensus.s": s(own.get("consensus", 0.0)),
        "render.layout_s": s(own.get("render.layout", 0.0)),
        "render.layouts": n("render.layouts"),
        "render.svg_s": s(own.get("render.svg", 0.0)),
        "exports.s": s(own.get("exports", 0.0)),
        "exports.bytes": {"value": int(counts.get("exports.bytes", 0)), "unit": "bytes"},
    })
    for verb in ("threshold", "export", "sweep", "hamming", "render"):
        out[f"cli.{verb}_s"] = s(inclusive.get(f"cli.{verb}", 0.0))
    return out
