"""Benchmark: time from a count table to a finished consensus run, and for
the verbs that work on the finished run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Set-up writes the workload's seeded table as a TSV.  A run then measures
whole rounds until ``--seconds`` have passed, and at least the workload's
``min_rounds``.  A round is one ``taxonet run`` of the TSV and a fixed
number of passes of the verbs over the finished directory, all called
in-process through ``taxonet.cli.main``.  After the timed rounds the outputs are checked; see
``checks.py``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 1`` makes a separate run of two rounds, one untraced and one
traced, and reports the per-layer figures of the traced round together
with the tracing overhead (traced minus untraced ``run_s``).

Everything the benchmark writes goes to ``bench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks
import tables

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# fresh interpreters that import taxonet.cli for setup_s; the median counts
SETUP_IMPORTS = 3
PIPELINE_SEED = 0
EIGHT = "pearson,spearman,bicor,sparcc,spieceasi_mb,spring,cmimn,cclasso"
SIX = "pearson,spearman,bicor,sparcc,cmimn,cclasso"


@dataclass(frozen=True)
class Workload:
    table: object          # seed -> counts (samples x taxa)
    methods: str | None    # --methods argument, None for all ten
    jobs: int
    # verb passes per round, so that a round's verb time is seconds long
    verb_passes: int
    # rounds a run makes at least, whatever --seconds says
    min_rounds: int = 1

    @property
    def method_list(self) -> list[str]:
        from taxonet.methods import METHOD_ORDER

        return list(METHOD_ORDER) if self.methods is None else self.methods.split(",")


WORKLOADS = {
    "acceptance-p20": Workload(tables.acceptance_table, None, 1, 5),
    # two processes make the wall time depend on both cores, and it moves
    # more from call to call than at jobs=1, so two rounds are taken; the
    # verbs are the same as on acceptance-p20
    "acceptance-p20-jobs2": Workload(tables.acceptance_table, None, 2, 1, min_rounds=2),
    "zeroheavy-p40": Workload(tables.zeroheavy_table, EIGHT, 1, 4),
    "wide-p200": Workload(tables.wide_table, SIX, 1, 1),
}

END_TO_END_UNITS = {"run_s": "s", "run_cpu_s": "s", "verbs_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class Operations:
    """Every CLI invocation is one operation; it fails on a non-zero exit,
    an exception, or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # operations that did not run cleanly
        self.wrong: list[str] = []      # output checks that failed

    def call(self, cli, argv: list[str]) -> tuple[bool, str]:
        self.attempted += 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        if code != 0:
            self.failed += 1
            self.problems.append(f"taxonet {' '.join(argv)} exited with {code}")
        return code == 0, out.getvalue()

    def check(self, problems: list[str], operations: int) -> None:
        """Count ``operations`` that ran cleanly as failed when their
        outputs have ``problems``."""
        if problems:
            self.failed += operations
            self.wrong.extend(problems)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_round(cli, w: Workload, tsv: str, workdir: str, k: int, passes: int,
              ops: Operations, tracer=None) -> dict:
    """One ``taxonet run`` and ``passes`` verb passes; returns timings,
    the run's artifact digests and what the verbs printed.

    Every round writes to the same path, which the artifacts record, and
    the finished directory is then moved to ``round<k>``."""
    out = os.path.join(workdir, "run")
    os.makedirs(out)
    argv = ["run", "--input", tsv, "--out", out, "--seed", str(PIPELINE_SEED),
            "--jobs", str(w.jobs)]
    if w.methods:
        argv += ["--methods", w.methods]
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    cpu = _cpu_seconds()
    start = time.perf_counter()
    with span("cli.run"):
        run_ok, _ = ops.call(cli, argv)
    run_s = time.perf_counter() - start
    run_cpu_s = _cpu_seconds() - cpu
    record = {"run_s": run_s, "run_cpu_s": run_cpu_s, "run_ok": run_ok,
              "digests": checks.digests(out), "verbs_s": [], "printed": []}
    m_count = len(w.method_list)
    for _ in range(passes):
        printed = {}
        start = time.perf_counter()
        with span("cli.threshold"):
            for t in range(m_count):
                ops.call(cli, ["threshold", "--t", str(t), "--out", out])
        with span("cli.export"):
            for fmt in ("graphml", "dot", "edgelist_tsv"):
                ops.call(cli, ["export", "--format", fmt, "--out", out])
        for verb in ("sweep", "hamming", "render"):
            with span(f"cli.{verb}"):
                _, printed[verb] = ops.call(cli, [verb, "--out", out])
        record["verbs_s"].append(time.perf_counter() - start)
        record["printed"].append(printed)
    os.rename(out, os.path.join(workdir, f"round{k}"))
    return record


# a check that meets a missing or malformed artifact reports it as a problem
CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError, SyntaxError)


def _guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except CHECK_ERRORS as exc:
        return [f"{check.__name__}: artifacts unreadable: {exc!r}"]


def check_round(w: Workload, tsv: str, out: str, record: dict, first: dict | None,
                ops: Operations) -> None:
    """Output checks for one round, outside the timed region.  ``first`` is
    the run's first round, whose artifacts this one must repeat."""
    methods = w.method_list
    problems = _guarded(checks.check_run, out, tsv, methods) if record["run_ok"] else []
    if first is not None and record["digests"] != first["digests"]:
        differ = sorted(k for k in set(record["digests"]) | set(first["digests"])
                        if record["digests"].get(k) != first["digests"].get(k))
        problems.append(f"artifacts differ from the first round: {', '.join(differ)}")
    ops.check(problems, 1)
    if not record["run_ok"]:
        return
    passes = len(record["verbs_s"])
    per_pass = {"threshold": len(methods), "export": 3, "sweep": 1, "hamming": 1, "render": 1}
    try:
        found = checks.check_verbs(out, len(methods), record["printed"], record["digests"])
    except CHECK_ERRORS as exc:
        found = {verb: [f"verb outputs unreadable: {exc!r}"] for verb in per_pass}
    for verb, problems in found.items():
        ops.check(problems, per_pass[verb] * passes)


def environment(jobs: int) -> dict:
    import scipy
    from taxonet import solvers

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    # solvers falls back to plain Python kernels when numba does not import
    numba = getattr(solvers.njit, "__module__", "").startswith("numba")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "numba_importable": numba,
            "cpu_count": os.cpu_count(), "jobs": jobs}


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import taxonet.cli."""
    code = ("import time; t = time.perf_counter(); import taxonet.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(cli, w: Workload, tsv: str, out: str, seconds: float, ops: Operations):
    rounds = []
    start = time.perf_counter()
    while len(rounds) < w.min_rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(cli, w, tsv, out, len(rounds), w.verb_passes, ops))
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup = [import_seconds() for _ in range(SETUP_IMPORTS)]
    for k, record in enumerate(rounds):
        check_round(w, tsv, os.path.join(out, f"round{k}"), record,
                    rounds[0] if k else None, ops)
    values = {
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "run_cpu_s": statistics.median(r["run_cpu_s"] for r in rounds),
        "verbs_s": statistics.median(v for r in rounds for v in r["verbs_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    samples = {"run_s": [r["run_s"] for r in rounds],
               "run_cpu_s": [r["run_cpu_s"] for r in rounds],
               "verbs_s": [v for r in rounds for v in r["verbs_s"]], "setup_s": setup}
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, samples


def measure_traced(cli, w: Workload, tsv: str, out: str, ops: Operations):
    import layers
    from spans import Tracer

    plain_dir, traced_dir = os.path.join(out, "round0"), os.path.join(out, "round1")
    plain = run_round(cli, w, tsv, out, 0, 1, ops)
    tracer = Tracer(worker_dir=out)
    layers.install(tracer)
    try:
        traced = run_round(cli, w, tsv, out, 1, 1, ops, tracer)
    finally:
        tracer.restore()
    tracer.collect_workers()
    tracer.write(os.path.join(out, "spans.jsonl"))
    check_round(w, tsv, plain_dir, plain, None, ops)
    check_round(w, tsv, traced_dir, traced, plain, ops)
    figures = layers.figures(tracer, traced_dir, w.jobs)
    figures["trace.overhead_s"] = metric(traced["run_s"] - plain["run_s"], "s")
    return figures, {"untraced_run_s": plain["run_s"], "traced_run_s": traced["run_s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "taxonet", "__init__.py")):
        print(f"error: no taxonet sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from taxonet import cli

    w = WORKLOADS[args.workload]
    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    tsv = os.path.join(out, "table.tsv")
    tables.write_tsv(w.table(args.seed), tsv)

    ops = Operations()
    if args.trace:
        metrics, samples = measure_traced(cli, w, tsv, out, ops)
    else:
        metrics, samples = measure(cli, w, tsv, out, args.seconds, ops)
    for problem in ops.problems:
        print(f"failed: {problem}", file=sys.stderr)
    for problem in ops.wrong:
        print(f"check failed: {problem}", file=sys.stderr)
    env = environment(w.jobs)
    result = {"correct": not ops.wrong, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": env, "samples": samples, "problems": ops.problems + ops.wrong,
                   **result}, fh, indent=2)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
