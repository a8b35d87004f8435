"""The benchmark's traced run against the program it wraps.

``bench/layers.py`` replaces program functions by name, at each module
attribute where a caller looks them up, and ``bench/run.py`` reads the
kernel backend from ``solvers``.  Renaming or deleting any of those names
would break ``bench/run.py --trace 1``; this test runs the bench's own
tracer over a ten-method ``taxonet run`` so that such a change fails here.
The bench files are imported as they are.
"""

import importlib
import os

import numpy as np
import pytest

from taxonet import cli, estimators, selection, solvers
from taxonet.methods import METHOD_ORDER

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

LAYER_SPANS = {
    "data.load", "pipeline.prepare", "pipeline.methods", "pipeline.write",
    "selection.stars", "solvers.glasso_batch", "solvers.glasso", "neighborhood.mb_path",
    "correlation.kendall", "cclasso.solve", "consensus", "render.layout", "render.svg",
    "exports",
} | {f"method.{m}" for m in METHOD_ORDER}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return {name: importlib.import_module(name) for name in ("layers", "spans", "run")}


def test_traced_run_reaches_every_layer(bench, tmp_path):
    # 60 samples of 6 taxa: every method runs, in a few seconds
    rng = np.random.default_rng(5)
    tsv = str(tmp_path / "table.tsv")
    bench["run"].tables.write_tsv(rng.poisson(rng.uniform(20, 200, size=6), size=(60, 6)), tsv)
    out = str(tmp_path / "run")
    originals = (estimators.graphical_lasso, selection.graphical_lasso,
                 estimators.graphical_lasso_batch)

    tracer = bench["spans"].Tracer(worker_dir=str(tmp_path))
    bench["layers"].install(tracer)
    try:
        code = cli.main(["run", "--input", tsv, "--out", out, "--seed", "0", "--jobs", "1"])
    finally:
        tracer.restore()

    assert code == 0
    assert (estimators.graphical_lasso, selection.graphical_lasso,
            estimators.graphical_lasso_batch) == originals
    assert estimators.graphical_lasso is solvers.graphical_lasso
    names = {name for name, *_ in tracer.spans}
    assert LAYER_SPANS <= names, sorted(LAYER_SPANS - names)
    figures = bench["layers"].figures(tracer, out, 1)
    assert figures["solvers.glasso_calls"]["value"] > 0
    assert figures["solvers.glasso_batch_problems"]["value"] > 0
    env = bench["run"].environment(1)
    assert env["jobs"] == 1 and env["numba_importable"] in (True, False)
