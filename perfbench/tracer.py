"""Per-layer tracer for the nilpoisson benchmark.

Spans and counters are installed from outside the package by rebinding public
names: a module-level function is replaced in every ``nilpoisson.*`` module
that holds it, and a class is traced through its ``__init__`` (or a dunder
method, for the scalar counters).  Every target is resolved by name when the
tracer is installed, so a name that a later change removes shows up in
``Tracer.missing`` and its metrics read ``None``; installing never fails on it.

A layer's self time is the duration of its spans minus the part covered by
nested spans of any layer.  The self times of all layers in one operation,
the benchmark's own root span included, add up to the operation's wall time.
"""
from __future__ import annotations

import contextlib
import sys
import time

# Layer metric -> (public names whose spans it times, end-to-end metric the
# layer should move and on which workload).  The second column is the
# reference later performance changes cite; keep it in step with the layers.
SPAN_LAYERS = {
    "homology.pages_s": (
        ["homology.spectral_pages"],
        "sweep_s on verdict-ladder; about 0 on cohomology-n6"),
    "homology.assemble_s": (
        ["homology.BigradedComplex.__init__"],
        "sweep_s on cohomology-n6"),
    "homology.total_complex_s": (
        ["homology.TotalComplex.__init__"],
        "sweep_s on cohomology-n6 and verdict-ladder"),
    "homology.dolbeault_table_s": (
        ["homology.dolbeault_table", "homology.dolbeault_cohomology"],
        "sweep_s on cohomology-n6"),
    "homology.e2_oracle_s": (
        ["homology.e2_dims_via_induced_map"],
        "sweep_s on verdict-ladder"),
    "homology.betti_s": (
        ["homology.poisson_betti"],
        "sweep_s on cohomology-n6"),
    "homology.crosscheck_s": (
        ["homology.d_bicomplex_crosscheck"],
        "sweep_s on cohomology-n6; op_p90_s (detail line) on query-mix"),
    "homology.verdict_s": (
        ["homology.degeneration_verdict"],
        "sweep_s on verdict-ladder"),
    "exact_linalg.rref_s": (
        ["exact_linalg.rref"],
        "sweep_s on verdict-ladder; op_p50_s on query-mix"),
    "exact_linalg.mat_mul_s": (
        ["exact_linalg.mat_mul"],
        "sweep_s on cohomology-n6"),
    "calculus.context_s": (
        ["calculus.CalculusContext.__init__"],
        "op_p50_s on query-mix"),
    "calculus.schouten_s": (
        ["calculus.schouten", "calculus.ad_images"],
        "op_p50_s on query-mix"),
    "lie_structure.validate_s": (
        ["lie_structure.validate"],
        "op_p50_s on query-mix"),
    "lie_structure.frame_s": (
        ["lie_structure.complex_frame", "lie_structure.grading"],
        "op_p50_s on query-mix"),
    "poisson.s": (
        ["poisson.holomorphic_bivector_space", "poisson.theorem2_lambda",
         "poisson.is_holomorphic_poisson"],
        "op_p50_s on query-mix"),
    "lambda_parser.parse_s": (
        ["lambda_parser.parse_lambda"],
        "op_p50_s on query-mix"),
    "catalog.load_s": (
        ["catalog.catalog_load"],
        "op_p50_s on query-mix"),
    "cli.overhead_s": (
        ["cli.main"],
        "op_p50_s on query-mix; sweep_s on cohomology-n6 (torus:6 JSON)"),
}

# The benchmark's own span around each operation: output capture and the
# glue of the library-path operation.
HARNESS_LAYER = "bench.harness_s"

# Counter metric -> (public names it counts through, what it should move).
COUNT_LAYERS = {
    "exact_linalg.rref_calls": (
        ["exact_linalg.rref"],
        "sweep_s on verdict-ladder; op_p50_s on query-mix"),
    "exact_linalg.rref_cells": (
        ["exact_linalg.rref"],
        "sweep_s on verdict-ladder; op_p50_s on query-mix"),
    "exact_linalg.mat_mul_calls": (
        ["exact_linalg.mat_mul"],
        "sweep_s on cohomology-n6"),
    "scalars.zero_tests": (
        ["scalars.GaussRational.__bool__"],
        "sweep_s on verdict-ladder and cohomology-n6"),
    "scalars.mul_ops": (
        ["scalars.GaussRational.__mul__"],
        "sweep_s on verdict-ladder and cohomology-n6"),
    "exterior.monomials": (
        ["exterior.cell_monomials", "exterior.graded_monomials"],
        "none (fixed by n); the base for the ratios"),
}

# Derived: zero tests that found a nonzero value / zero tests.
NONZERO_FRAC = "scalars.nonzero_frac"

PACKAGE = "nilpoisson"


def resolve(dotted):
    """(owner, attribute, object) for "module.name" or "module.Class.attr" of
    the package, or None when any part is gone."""
    parts = dotted.split(".")
    module = sys.modules.get(f"{PACKAGE}.{parts[0]}")
    if module is None:
        return None
    owner = module
    for name in parts[1:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # only an attribute the class defines itself can be restored exactly
        obj = owner.__dict__.get(parts[-1])
    else:
        obj = getattr(owner, parts[-1], None)
    if obj is None:
        return None
    return owner, parts[-1], obj


class Tracer:
    """Spans and counts for one benchmark process.

    ``spans`` holds the spans of the current operation as
    ``[layer, start, end, parent_index]`` lists, parent ``-1`` for the root;
    ``finish_op`` folds them into ``self_s`` and clears them.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.self_s = dict.fromkeys(list(SPAN_LAYERS) + [HARNESS_LAYER], 0.0)
        self.counts = dict.fromkeys(COUNT_LAYERS, 0)
        self.nonzero = 0
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []
        self._exterior_depth = 0

    # -- spans ----------------------------------------------------------

    def _enter(self, layer):
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def root(self):
        """The benchmark's span around one operation."""
        self._enter(HARNESS_LAYER)
        try:
            yield
        finally:
            self._exit()

    def finish_op(self):
        """Add the current operation's self times to the totals; return
        (spans, self time per layer) of the operation."""
        spans = self.spans
        now = time.perf_counter()
        for span in spans:
            # a span cut by a ceiling breach ends where the breach is seen
            if span[2] is None:
                span[2] = now
        self._open = []
        child = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        per_layer: dict[str, float] = {}
        for k, (layer, start, end, _) in enumerate(spans):
            own = (end - start) - child[k]
            per_layer[layer] = per_layer.get(layer, 0.0) + own
            self.self_s[layer] += own
        self.spans = []
        return spans, per_layer

    # -- installation ---------------------------------------------------

    def _patch_everywhere(self, owner, attr, original, replacement):
        """Rebind ``attr`` on ``owner`` and, for a module-level function,
        on every package module that imported the same object."""
        targets = [owner]
        if not isinstance(owner, type):
            for name, module in list(sys.modules.items()):
                if (module is not owner and module is not None
                        and (name == PACKAGE or name.startswith(PACKAGE + "."))
                        and getattr(module, attr, None) is original):
                    targets.append(module)
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, replacement)

    def _wrap(self, dotted, make_wrapper):
        """Rebind ``dotted`` to ``make_wrapper(original)``, or record it as
        missing."""
        found = resolve(dotted)
        if found is None:
            self.missing.append(dotted)
            return
        owner, attr, original = found
        wrapper = make_wrapper(original)
        wrapper.__wrapped__ = original
        self._patch_everywhere(owner, attr, original, wrapper)

    def _span(self, layer, on_call=None):
        enter, exit_ = self._enter, self._exit

        def make(fn):
            def traced(*args, **kwargs):
                if on_call is not None:
                    on_call(args, kwargs)
                enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
            return traced
        return make

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        tracer, counts = self, self.counts

        def count_rref(args, kwargs):
            rows = args[0] if args else kwargs.get("rows", [])
            ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
            if ncols is None:
                ncols = len(rows[0]) if rows else 0
            counts["exact_linalg.rref_calls"] += 1
            counts["exact_linalg.rref_cells"] += len(rows) * ncols

        def count_mat_mul(args, kwargs):
            counts["exact_linalg.mat_mul_calls"] += 1

        hooks = {"exact_linalg.rref": count_rref,
                 "exact_linalg.mat_mul": count_mat_mul}
        for layer, (names, _) in SPAN_LAYERS.items():
            for dotted in names:
                self._wrap(dotted, self._span(layer, hooks.get(dotted)))

        def counted_bool(orig_bool):
            def zero_test(value):
                counts["scalars.zero_tests"] += 1
                if orig_bool(value):
                    tracer.nonzero += 1
                    return True
                return False
            return zero_test

        def counted_mul(orig_mul):
            def mul(value, other):
                counts["scalars.mul_ops"] += 1
                return orig_mul(value, other)
            return mul

        def counted_monomials(fn):
            def monomials(*args, **kwargs):
                # graded_monomials is built from cell_monomials: count each
                # monomial once, at the outermost call
                tracer._exterior_depth += 1
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._exterior_depth -= 1
                if tracer._exterior_depth == 0:
                    counts["exterior.monomials"] += len(out)
                return out
            return monomials

        self._wrap("scalars.GaussRational.__bool__", counted_bool)
        self._wrap("scalars.GaussRational.__mul__", counted_mul)
        for dotted in COUNT_LAYERS["exterior.monomials"][0]:
            self._wrap(dotted, counted_monomials)

    def uninstall(self):
        """Restore every rebound name, latest first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results --------------------------------------------------------

    def take(self) -> dict:
        """Per-layer values since the last call, then reset; ``None`` for a
        metric whose every source name is missing."""
        out: dict = {}
        for layer, (names, _) in SPAN_LAYERS.items():
            gone = all(name in self.missing for name in names)
            out[layer] = None if gone else self.self_s[layer]
        out[HARNESS_LAYER] = self.self_s[HARNESS_LAYER]
        for metric, (names, _) in COUNT_LAYERS.items():
            gone = all(name in self.missing for name in names)
            out[metric] = None if gone else self.counts[metric]
        zero_tests = out["scalars.zero_tests"]
        out[NONZERO_FRAC] = (None if not zero_tests
                             else self.nonzero / zero_tests)
        # reset in place: the installed wrappers hold these dicts
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        for metric in self.counts:
            self.counts[metric] = 0
        self.nonzero = 0
        return out


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric the tracer reports."""
    units = {layer: "s" for layer in SPAN_LAYERS}
    units[HARNESS_LAYER] = "s"
    units.update({metric: "count" for metric in COUNT_LAYERS})
    units[NONZERO_FRAC] = "ratio"
    return units
