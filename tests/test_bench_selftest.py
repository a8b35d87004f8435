"""The benchmark's output checks, run by tier-1.

``bench/selftest.py`` runs the pipeline and the verbs on a small seeded
table, checks that every output check passes on the clean run, and plants
three faults in copies of it (a flipped vote, a dropped GraphML edge, a
changed sweep row) that the checks must each catch.  The bench files are
imported as they are; the run goes to a temporary directory.
"""

import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_bench_checks_pass_clean_and_catch_planted_faults(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(BENCH)
    run = importlib.import_module("run")
    selftest = importlib.import_module("selftest")
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    assert selftest.main() == 0
