"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper
everywhere the package holds a reference to it: in its defining module, in
every module that imported it by name, and on the class for methods.  A
wrapper records a span (name, start, duration, parent, request) and adds
its call and self time (duration minus the wrapped children's durations) to
per-function totals.  Spans stay in memory until ``write_spans``; after
``MAX_SPANS`` only the totals are kept.
"""

from __future__ import annotations

import functools
import json
import sys
from importlib import import_module
from time import perf_counter_ns

# the package re-exports functions named like their modules (chi, hilbert),
# so the modules are looked up by full name
padic, quadratic, chi, surface, globalq, hilbert = (
    import_module("chatelet." + m)
    for m in ("padic", "quadratic", "chi", "surface", "globalq", "hilbert"))

# (metric prefix, owner, attribute): owner is a module or a class
TRACED = (
    ("padic.rational_square_class_rep", padic, "rational_square_class_rep"),
    ("padic.frac_val_unit", padic, "frac_val_unit"),
    ("padic.SquareClass.of", padic.SquareClass, "of"),
    ("quadratic.is_norm", quadratic.QuadExt, "is_norm"),
    ("quadratic.build_extension", quadratic, "build_extension"),
    ("chi.find_witness", chi, "find_witness"),
    ("chi.sample_M", chi, "sample_M"),
    ("chi.chi", chi, "chi"),
    ("chi.in_M", chi, "in_M"),
    ("surface.classify_pair", surface, "classify_pair"),
    ("surface.classify_cubic", surface, "classify_cubic"),
    ("surface.count_roots_cubic", surface, "count_roots_cubic"),
    ("globalq.bad_places", globalq, "bad_places"),
    ("globalq.classify_all_places", globalq, "classify_all_places"),
    ("hilbert.hilbert", hilbert, "hilbert"),
    ("hilbert.hilbert_oracle", hilbert, "hilbert_oracle"),
)
MAX_SPANS = 200_000


class Tracer:
    def __init__(self, oracle_cells):
        self.on = False
        self.names = [name for name, _, _ in TRACED] + ["request"]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.spans = []  # (id, parent id, name index, start ns, duration ns, request)
        self.dropped = 0
        self.request = -1
        # frames of the open spans: [span id, name index, children's ns]
        self._stack = []
        self._next_id = 0
        self.counters = {"chi.find_witness.candidates": 0, "chi.sample_M.candidates": 0,
                         "chi.sample_M.members": 0, "surface.count_roots_cubic.roots": 0,
                         "surface.count_roots_cubic.residues_certified": 0,
                         "hilbert.hilbert_oracle.cells": 0}
        self._oracle_cells = oracle_cells

    # -- spans ------------------------------------------------------------------

    def _open(self, index):
        self._next_id += 1
        self._stack.append([self._next_id, index, 0])
        return perf_counter_ns()

    def _close(self, start):
        dur = perf_counter_ns() - start
        span_id, index, child_ns = self._stack.pop()
        self.calls[index] += 1
        self.self_ns[index] += dur - child_ns
        parent = 0
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, index, start, dur, self.request))
        else:
            self.dropped += 1

    def begin_request(self, request: int):
        self.request = request
        return self._open(len(self.names) - 1)

    def end_request(self, start):
        self._close(start)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, index, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            start = tracer._open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(start)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _after_sample_M(self, args, members):
        self.counters["chi.sample_M.members"] += len(members)

    def _after_count_roots(self, args, result):
        self.counters["surface.count_roots_cubic.roots"] += result[0]
        self.counters["surface.count_roots_cubic.residues_certified"] += \
            result[2]["residues_certified"]

    def _after_oracle(self, args, result):
        p, a, b = args
        self.counters["hilbert.hilbert_oracle.cells"] += self._oracle_cells(p, a, b)

    def install(self):
        """Rebind every traced function in the package and on its class."""
        after = {"chi.sample_M": self._after_sample_M,
                 "surface.count_roots_cubic": self._after_count_roots,
                 "hilbert.hilbert_oracle": self._after_oracle}
        modules = [m for name, m in sys.modules.items()
                   if name == "chatelet" or name.startswith("chatelet.")]
        for index, (name, owner, attr) in enumerate(TRACED):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(index, raw.__func__, after.get(name))))
                continue
            wrapper = self._wrap(index, raw, after.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapper)
        self._count_candidates(chi.SearchGrid)

    def _count_candidates(self, grid_cls):
        """Count grid points drawn, charged to the innermost open span."""
        original = grid_cls.candidates
        counters = self.counters
        keys = {self.names.index("chi.find_witness"): "chi.find_witness.candidates",
                self.names.index("chi.sample_M"): "chi.sample_M.candidates"}
        tracer = self

        def candidates(grid, p):
            for x in original(grid, p):
                if tracer.on and tracer._stack:
                    key = keys.get(tracer._stack[-1][1])
                    if key:
                        counters[key] += 1
                yield x
        grid_cls.candidates = candidates

    # -- output -----------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "dropped": self.dropped,
                       "fields": ["id", "parent", "name", "start_ns", "duration_ns", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))
