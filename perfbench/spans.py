"""In-memory span tracer that wraps diffal's public functions from outside.

Every public function defined in a traced diffal module is replaced, in
every diffal namespace that holds it, by a wrapper that records a span
(name, start, end, parent).  Rebinding each name a caller looks up
(``diffal.pipeline.knn_search``, ``diffal.cli.linkage``, ...) is what makes
calls between modules visible without touching the package.  A few public
methods are wrapped on their classes.  Spans stay in a list until
``write_jsonl`` is called once at the end of the run.  ``start`` and
``stop`` bracket one traced step and summarize its spans as a `Sample`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

TRACED_MODULES = (
    "baselines", "cache", "cli", "datagen", "dataset", "geometry",
    "graph", "land", "lund", "metrics", "pipeline",
)

# (module, class, method, span name)
TRACED_METHODS = (
    ("pipeline", "DiffusionModel", "scores_at", "pipeline.scores_at"),
    ("cache", "DiffusionCache", "load_neighbors", "cache.load"),
    ("cache", "DiffusionCache", "load_spectrum", "cache.load"),
    ("cache", "DiffusionCache", "save_neighbors", "cache.save"),
    ("cache", "DiffusionCache", "save_spectrum", "cache.save"),
)


def _array_bytes(obj) -> int:
    return sum(int(v.nbytes) for v in vars(obj).values() if hasattr(v, "nbytes"))


def _count_kernel(counts, args, result):
    counts["graph.kernel_nnz"] = max(counts["graph.kernel_nnz"], int(result.weights.nnz))


def _count_load(counts, args, result):
    if result is None:
        counts["cache.misses"] += 1
    else:
        counts["cache.hits"] += 1
        counts["cache.bytes_loaded"] += _array_bytes(result)


def _count_save(counts, args, result):
    counts["cache.bytes_saved"] += _array_bytes(args[2])


def _count_merges(counts, args, result):
    counts["baselines.merges"] += int(result.n_merges)


def _count_file(counts, args, result):
    counts["dataset.bytes_read"] += os.path.getsize(args[0])


# span name -> hook(counts, args, result) run after a successful call
COUNTERS = {
    "graph.kernel_matrix": _count_kernel,
    "cache.load": _count_load,
    "cache.save": _count_save,
    "baselines.linkage": _count_merges,
    "dataset.load_csv": _count_file,
    "dataset.load_hsi_cube": _count_file,
}


@dataclass
class Sample:
    """What one traced step did: self time and calls per span name, counter
    increments, the number of spans, and the step's own timed seconds."""

    self_s: dict
    calls: dict
    counts: dict
    spans: int
    seconds: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._mark: tuple[int, dict] = (0, {})

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        after = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Rebind every traced function in every diffal namespace."""
        package = importlib.import_module("diffal")
        modules = [importlib.import_module(f"diffal.{m}") for m in TRACED_MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for owner in [package, *modules]:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[obj])
        for mod_name, cls_name, meth, span_name in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"diffal.{mod_name}"), cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def start(self) -> None:
        """Begin a traced step: remember where its spans and counts start."""
        self._mark = (len(self.spans), dict(self.counts))
        self.install()

    def stop(self) -> Sample:
        """End the traced step begun by `start` and summarize it."""
        self.uninstall()
        first, counts = self._mark
        self_s, calls = self.self_times(first)
        grown = {name: value - counts.get(name, 0) for name, value in self.counts.items()}
        return Sample(self_s, calls, grown, len(self.spans) - first)

    def self_times(self, first: int = 0) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (duration minus child spans) and call counts
        of the spans from index ``first`` on."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
        return self_s, calls

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start": start - origin, "end": end - origin,
                }) + "\n")
