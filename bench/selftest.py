"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs the pipeline and one pass of the verbs on a small seeded table, shows
that every check passes on the clean run, then corrupts copies of the
finished run one way at a time and shows that a check catches each:

- one vote flipped in ``adjacency_pearson.tsv``;
- one edge dropped from ``consensus.graphml``;
- one row changed in ``threshold_sweep.tsv``.

Exits 0 when the clean run passes and every corruption is caught.
"""

from __future__ import annotations

import os
import re
import shutil
import sys

import checks
import run
import tables

METHODS = "pearson,spearman,bicor,spieceasi_mb,gcoda,cmimn"


def _flip_vote(run_dir):
    path = os.path.join(run_dir, "adjacency_pearson.tsv")
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    for i, j in ((1, 4), (4, 1)):      # taxa 0 and 3, both triangles
        rows[i][j] = str(1 - int(rows[i][j]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join("\t".join(r) + "\n" for r in rows))


def _drop_graphml_edge(run_dir):
    path = os.path.join(run_dir, "consensus.graphml")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    edge = re.search(r"    <edge .*?</edge>\n", text, flags=re.S)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:edge.start()] + text[edge.end():])


def _change_sweep_row(run_dir):
    path = os.path.join(run_dir, "threshold_sweep.tsv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    t, nodes, edges = lines[1].split("\t")
    lines[1] = f"{t}\t{nodes}\t{int(edges) + 1}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


CORRUPTIONS = {
    "one vote flipped": _flip_vote,
    "one GraphML edge dropped": _drop_graphml_edge,
    "one sweep row changed": _change_sweep_row,
}


def problems_in(w, tsv, run_dir, record) -> list[str]:
    found = checks.check_run(run_dir, tsv, w.method_list)
    for verb_problems in checks.check_verbs(
        run_dir, len(w.method_list), record["printed"], record["digests"]
    ).values():
        found += verb_problems
    return found


def main() -> int:
    sys.path.insert(0, run.SRC)
    from taxonet import cli

    w = run.Workload(lambda seed: tables.chain_table(seed, 10, 200), METHODS, 1, 1)
    out = os.path.join(run.OUT, "selftest")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    tsv = os.path.join(out, "table.tsv")
    tables.write_tsv(w.table(0), tsv)
    ops = run.Operations()
    record = run.run_round(cli, w, tsv, out, 0, 1, ops)
    clean = os.path.join(out, "round0")
    baseline = ops.problems + problems_in(w, tsv, clean, record)
    ok = not baseline
    print(f"clean run: {'PASS' if ok else 'FAIL'} {baseline}")
    for label, corrupt in CORRUPTIONS.items():
        copy = os.path.join(out, label.replace(" ", "-"))
        shutil.copytree(clean, copy)
        corrupt(copy)
        found = problems_in(w, tsv, copy, record)
        ok = ok and bool(found)
        print(f"{label}: {'caught' if found else 'NOT CAUGHT'} {found}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
