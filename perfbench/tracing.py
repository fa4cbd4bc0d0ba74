"""Spans around calls into comodular's modules, recorded from outside.

Nothing in the package changes.  ``Tracer.install`` rebinds each traced
function in every comodular module namespace that holds it (so calls the
package makes internally are seen too, as long as they go through a module
global) and ``uninstall`` puts the originals back.

A span is [name, tag, start_ns, end_ns, parent].  The spans of one op live
in memory until the op ends; its tree is then folded into per-name totals:
calls, inclusive time, and self time (duration minus the time its child
spans cover).  Counting wrappers only count calls, for functions too hot
to time one by one.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

KINDS = (
    "choquet",
    "choquet_via_dual",
    "symmetric_choquet",
    "sugeno",
    "sugeno_normal_form",
    "shilkret",
    "quasi_choquet",
    "quasi_sugeno",
)
FORM_FNS = (
    "fit_signed_choquet",
    "fit_symmetric_choquet",
    "fit_quasi_choquet",
    "factorize_quasi_sugeno",
    "build_separation",
    "eval_separation",
    "build_normal_form",
    "eval_normal_form",
)
GENERATE_FNS = ("signed_capacity", "capacity", "interval_capacity", "monotone_transform", "generate")


def _check_axiom(args, kwargs):
    return args[0] if args else kwargs["axiom"]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.root_ns = 0
        self.root_self_ns = 0
        self._undo: list = []

    # --- recording -----------------------------------------------------------

    def span(self, name, fn, tag=None, after=None):
        """Wrap fn so each call inside a root records a span named ``name``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = [name, tag(args, kwargs) if tag else None, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts, stack = self.counts, self.stack

        def counted(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def root(self, fn, label="op"):
        """Run fn as the root span of one op and fold its tree into totals."""
        if self.stack:
            raise RuntimeError("root spans do not nest")
        rec = [label, None, time.perf_counter_ns(), 0, -1]
        self.spans.append(rec)
        self.stack.append(0)
        try:
            return fn()
        finally:
            rec[3] = time.perf_counter_ns()
            self.stack.pop()
            self._fold(count_root=label == "op")

    def _fold(self, count_root):
        spans = self.spans
        covered = [0] * len(spans)
        for rec in spans[1:]:
            covered[rec[4]] += rec[3] - rec[2]
        for idx, (name, tag, start, end, _) in enumerate(spans):
            dur = end - start
            own = dur - covered[idx]
            if idx == 0:
                if count_root:
                    self.root_ns += dur
                    self.root_self_ns += own
                continue
            keys = (name,) if tag is None else (name, "%s.%s" % (name, tag))
            for key in keys:
                self.calls[key] += 1
                self.total_ns[key] += dur
                self.self_ns[key] += own
        spans.clear()

    # --- installing ----------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("comodular"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_class(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        from comodular import axioms, comono, decompose, generate, integrals, scalars, setfunc
        from comodular import transforms

        def count_pairs(result):
            self.counts["axioms.comonotonic_pairs.pairs"] += len(result)

        def count_instances(report):
            self.counts["axioms.instances.tested"] += report.tested
            self.counts["axioms.instances.skipped"] += report.skipped

        self._rebind(scalars.as_fraction, self.counter("scalars.as_fraction", scalars.as_fraction))
        self._rebind(comono.as_point, self.counter("comono.as_point", comono.as_point))
        for mod, fn_name, name in (
            [(setfunc, "validate", "setfunc.validate"),
             (comono, "sorted_view", "comono.sorted_view"),
             (comono, "split_parts", "comono.split_parts"),
             (axioms, "grid_points", "axioms.grid_points"),
             (axioms, "audit", "axioms.audit")]
            + [(integrals, k, "integrals." + k) for k in KINDS]
            + [(decompose, f, "decompose." + f) for f in FORM_FNS]
            + [(generate, f, "generate") for f in GENERATE_FNS]
        ):
            original = getattr(mod, fn_name, None)
            if original is not None:  # a later version may drop a name
                self._rebind(original, self.span(name, original))
        self._rebind(axioms.comonotonic_pairs,
                     self.span("axioms.comonotonic_pairs", axioms.comonotonic_pairs,
                               after=count_pairs))
        self._rebind(axioms.check, self.span("axioms.check", axioms.check, tag=_check_axiom,
                                             after=count_instances))
        self._patch_class(setfunc.SetFunction, "__init__",
                          self.span("setfunc.SetFunction.init", setfunc.SetFunction.__init__))
        self._patch_class(transforms.TransformFn, "__call__",
                          self.span("transforms.apply", transforms.TransformFn.__call__))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- reading -------------------------------------------------------------

    def self_ms(self, key) -> float:
        return self.self_ns[key] / 1e6

    def total_ms(self, key) -> float:
        return self.total_ns[key] / 1e6

    def unattributed_share(self) -> float:
        """Share of op wall time that no layer span claims."""
        return self.root_self_ns / self.root_ns if self.root_ns else 0.0
