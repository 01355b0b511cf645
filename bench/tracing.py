"""Spans around bigiso's public functions, installed from outside the package.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent).  A module-level function is replaced in every bigiso
module namespace that holds it (for example both membership.in_span and
structures.in_span); a method is replaced on its class.  uninstall() puts
every original object back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# (module, qualified name) of every function that gets a span
SPANNED = (
    ("parser", "parse_document"),
    ("structures", "default_grid"),
    ("structures", "BigIsotropicStructure.validate"),
    ("structures", "BigIsotropicStructure.evaluate_at"),
    ("structures", "check_integrability"),
    ("structures", "check_module_property"),
    ("structures", "verify_modular_enlargement"),
    ("membership", "in_span"),
    ("membership", "poly_det"),
    ("calculus", "courant_bracket"),
    ("calculus", "lie_derivative_oneform"),
    ("pointwise", "orthogonal_g"),
    ("pointwise", "IsotropicData.__post_init__"),
    ("linalg", "Matrix.rref"),
    ("linalg", "Matrix.det"),
    ("linalg", "Matrix.inverse"),
    ("transport", "pullback_subspace"),
    ("transport", "pushforward_subspace"),
    ("canonical", "normalize_frame"),
    ("canonical", "coupling_equivalences"),
    ("canonical", "transversal_structure"),
    ("reduction", "restrict"),
    ("reduction", "reduce_structure"),
)
# hot arithmetic: calls are counted, no span (a span would dwarf the work)
COUNTED = (
    ("scalars", "Polynomial.__mul__"),
    ("scalars", "RationalFunction.__mul__"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in SPANNED)
COUNT_NAMES = tuple(f"{mod}.{qual}" for mod, qual in COUNTED)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request]
        self.counts = Counter()
        self.grid_points = [0, 0]  # kept, generated
        self.minors = [0, 0]  # nonzero, evaluated
        self.request = 0
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # ---- installation ----------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, qual in SPANNED:
            self._patch(mod, qual, self._spanned)
        for mod, qual in COUNTED:
            self._patch(mod, qual, self._counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched(self) -> list:
        """(owner, attribute, original) for every replaced attribute."""
        return list(self._patches)

    def _patch(self, mod, qual, make_wrapper):
        module = importlib.import_module(f"bigiso.{mod}")
        owner_name, _, attr = qual.rpartition(".")
        name = f"{mod}.{qual}"
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, make_wrapper(name, original))
            self._patches.append((owner, attr, original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(name, original)
        for mod_name, namespace in list(sys.modules.items()):
            if mod_name != "bigiso" and not mod_name.startswith("bigiso."):
                continue
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    self._patches.append((namespace, key, original))

    # ---- wrappers --------------------------------------------------------
    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack
        after = None
        if name == "structures.default_grid":
            after = self._after_grid(fn)
        elif name == "membership.poly_det":
            after = self._after_det

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_grid(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.grid_points[0] += len(result)
            self.grid_points[1] += len(bound.arguments["values"]) ** bound.arguments["m"]

        return after

    def _after_det(self, args, kwargs, result):
        self.minors[0] += not result.is_zero()
        self.minors[1] += 1

    # ---- results ---------------------------------------------------------
    def export(self) -> dict:
        """Spans and counters as plain JSON data."""
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "grid_points": self.grid_points,
            "minors": self.minors,
        }


def summarize(exports: list) -> dict:
    """Calls and self seconds per span name, plus the counters, over exports.

    Self time is a span's duration minus the durations of its direct
    children; spans nest because every traced call runs on one thread.
    """
    calls = Counter()
    self_s = Counter()
    counts = Counter()
    grid = [0, 0]
    minors = [0, 0]
    for ex in exports:
        spans = ex["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        counts.update(ex["counts"])
        grid = [a + b for a, b in zip(grid, ex["grid_points"])]
        minors = [a + b for a, b in zip(minors, ex["minors"])]
    return {"calls": calls, "self_s": self_s, "counts": counts, "grid": grid, "minors": minors}
