"""In-memory span tracer that wraps attackcf's layer functions from outside.

Each wrapper replaces a function at the name its caller looks it up by
(the package attribute for calls the benchmark makes, the module global
for calls inside attackcf), records a span (name, start, end, parent,
query) and restores the original on exit.  Python's garbage collector is
timed through gc.callbacks as spans of its own.  A wrapped name that no
longer exists is skipped, so a deleted function reads as zero calls.

Spans nest, so a span's self time is its duration minus its children's,
and the self times inside a query add up to the query's duration.
"""

from __future__ import annotations

import gc
import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, counters to update from the call's result)
_TRACED = (
    ("attackcf", "load_bundle", "ingest.load", None),
    ("attackcf", "validate_model", "model.validate", None),
    ("attackcf", "discover", "discovery.discover",
     lambda r: {"discovery.paths": len(r.paths)}),
    ("attackcf.discovery", "entry_eligible", "discovery.eligibility",
     lambda r: {"discovery.entries_eligible" if r else "discovery.entries_rejected": 1}),
    ("attackcf._kernels", "bfs_lengths", "_kernels.bfs", None),
    ("attackcf._kernels", "simple_paths", "_kernels.dfs",
     lambda r: {"_kernels.dfs_paths": len(r[1]), "_kernels.dfs_hits": int(len(r[1]) > 0)}),
    ("attackcf", "predict", "prediction.predict",
     lambda r: {"prediction.predictions": len(r.predictions)}),
    ("attackcf.prediction", "similarity_matrix", "similarity.matrix",
     lambda r: {"similarity.pairs": len(r)}),
    ("attackcf.similarity", "pcc", "similarity.pcc", None),
    ("attackcf.prediction", "same_type", "prediction.same_type", None),
    ("attackcf.prediction", "classify_pair", "prediction.classify", None),
    ("attackcf.report", "format_discovery_report", "report.format",
     lambda r: {"report.bytes": len(r.encode())}),
    ("attackcf.report", "format_prediction_report", "report.format",
     lambda r: {"report.bytes": len(r.encode())}),
)

# Called over a million times per analysis on predict-1800, so these are
# counted without a span; their time stays in the caller's self time.
_COUNTED = (
    ("attackcf.similarity", "common_vulnerabilities", "similarity.probes"),
)


class Tracer:
    """Context manager that installs the wrappers while it is active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.counts: dict[str, int] = defaultdict(int)
        self.query = None  # id of the query in progress, None outside queries
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._gc_start = 0.0

    def __enter__(self):
        for mod_name, attr, name, count in _TRACED:
            self._install(mod_name, attr, self._spanned(name, count))
        for mod_name, attr, name in _COUNTED:
            self._install(mod_name, attr, self._counted(name))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def _install(self, mod_name, attr, make_wrapper):
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        self._restore.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def open(self, name: str) -> list:
        """Start a span under the innermost open span; close it with close()."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.query]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _spanned(self, name, count):
        def make(fn):
            def wrapper(*args, **kwargs):
                rec = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(rec)
                if count is not None:
                    self._count(count, result)
                return result
            return wrapper
        return make

    def _count(self, count, result):
        if self.query is None:  # counters cover queries only, not set-up or warm-up
            return
        # a later attackcf may return another shape; the count is then lost, not the run
        try:
            updates = count(result)
        except (AttributeError, IndexError, KeyError, TypeError):
            return
        for key, n in updates.items():
            self.counts[key] += n

    def _counted(self, name):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
            return
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(["runtime.gc", self._gc_start, perf_counter(), parent, self.query])

    def totals(self, in_queries: bool):
        """Per span name: (calls, total seconds, self seconds).

        in_queries selects the spans recorded during queries (True) or
        outside them, as in set-up (False).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, query in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, query) in enumerate(self.spans):
            if (query is not None) == in_queries:
                t = out[name]
                t[0] += 1
                t[1] += end - start
                t[2] += end - start - child[i]
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "query": q}
            for n, s, e, p, q in self.spans
        ]
