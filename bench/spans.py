"""Span tracing for the benchmark's traced run.

The tracer replaces public functions of the program at each module
attribute where a caller looks them up (``graphical_lasso`` is looked up in
both ``estimators`` and ``selection``, so both attributes are wrapped) and
restores them afterwards.  Each call becomes a span (name, start, end,
parent) kept in memory; counts are taken from the call's arguments and
return value.  Nothing in the program is edited.

Worker processes forked by the pipeline inherit the wrappers.  A worker
appends the spans of each method it runs to a file in ``worker_dir``, and
:meth:`Tracer.collect_workers` merges them, so a run with ``jobs > 1`` is
traced as fully as a serial one.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import inspect
import json
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self, worker_dir: str):
        self.spans: list[list] = []          # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self.worker_dir = worker_dir
        self._pid = os.getpid()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name, count=None, worker_root: bool = False) -> None:
        """Replace ``module.attr`` by a traced wrapper.

        ``name`` is the span name, or a callable of the bound arguments that
        returns it.  ``count(counts, arguments, result)`` adds to the counts
        after each call.  A ``worker_root`` span is the outermost one a
        worker process opens; the worker hands its spans over when it ends.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            arguments = None
            if count is not None or callable(name):
                arguments = signature.bind(*args, **kwargs).arguments
            label = name(arguments) if callable(name) else name
            first, before = len(self.spans), dict(self.counts)
            with self.span(label):
                result = original(*args, **kwargs)
            if count is not None:
                count(self.counts, arguments, result)
            if worker_root and os.getpid() != self._pid:
                self._hand_over(first, before)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _hand_over(self, first: int, before: dict[str, float]) -> None:
        """In a worker: append the spans opened since index ``first``, and
        what the counts gained since ``before``, to this worker's file."""
        gained = {k: v - before.get(k, 0.0) for k, v in self.counts.items()}
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"first": first, "spans": self.spans[first:],
                                 "counts": gained}) + "\n")
        del self.spans[first:]

    def collect_workers(self) -> None:
        """Merge the spans and counts that worker processes handed over.

        A worker's spans are numbered from where the parent's list stood
        when the worker was forked; they are renumbered onto the end of the
        parent's list, and parents opened before the fork keep their index.
        """
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    batch = json.loads(line)
                    first, base = batch["first"], len(self.spans)
                    for name, start, end, parent in batch["spans"]:
                        if parent is not None and parent >= first:
                            parent = parent - first + base
                        self.spans.append([name, start, end, parent])
                    for key, value in batch["counts"].items():
                        self.counts[key] += value
            os.remove(path)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.  Self time is a span's
        duration minus the durations of its child spans."""
        inclusive: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[k]
        return inclusive, own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
