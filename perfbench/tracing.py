"""Spans and counters around the package's layer boundaries, from outside.

`Tracer.install()` replaces each traced function by a wrapper in every loaded
`prymlab` module that holds it (so `h0` is caught whether `prym`, `scroll`,
`jacobian` or `riemann_roch` calls it), and each traced method on its class;
`uninstall()` puts every original object back.  Timed runs never install it.

Spans (name, start, end, parent span, op id) are kept in memory; when the
run ends they are written out and reduced to per-layer metrics.  A span's
self time is its duration minus the durations of its child spans, so the
self times of all spans of an op add up to the op span's duration exactly.  The hottest tiny calls get a
call counter and summed (inclusive) time instead of a span each.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from prymlab import curves, jacobian, polynomials, riemann_roch

# (module, function name, span name); patched wherever the function is bound
SPAN_FUNCTIONS = (
    ("prymlab.prym", "search_report", "search_report"),
    ("prymlab.prym", "geometry_probes", "geometry_probes"),
    ("prymlab.prym", "closed_form_report", "closed_form_report"),
    ("prymlab.scroll", "scroll_report", "scroll_report"),
    ("prymlab.riemann_roch", "h0", "h0"),
    ("prymlab.riemann_roch", "riemann_roch_space", "riemann_roch_space"),
    ("prymlab.linalg", "kernel_basis", "kernel_basis"),
    ("prymlab.jacobian", "mumford_of_divisor", "mumford_of_divisor"),
    ("prymlab.serialize", "dumps_canonical", "dumps_canonical"),
)
COUNTED_FUNCTIONS = (
    ("prymlab.polynomials", "poly_gcd", "gcd"),
    ("prymlab.jacobian", "cantor_add", "cantor"),
    ("prymlab.series", "series_sqrt_branch", "branch"),
    ("prymlab.riemann_roch", "valuation", "valuation"),
)
COUNTED_METHODS = (
    (curves.Divisor, "__init__", "divisor"),
    (jacobian.TwoTorsionClass, "twist", "twist"),
    (curves.HyperellipticCurve, "validate_divisor", "validate"),
    (polynomials.Poly, "evaluate", "evaluate"),
)
SPAN_NAMES = ("op",) + tuple(span for _, _, span in SPAN_FUNCTIONS) + ("CurveFunction.make",)
PRYM_SPANS = ("search_report", "geometry_probes", "closed_form_report")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op id)
        self.stack: list[int] = []
        self.op_id = -1
        self._op_start = 0
        self.calls: Counter = Counter()
        self.time_ns: Counter = Counter()
        self.matrix_entries = 0
        self.max_cols = 0
        self.dump_bytes = 0
        self._saved: list = []  # (owner, attribute, original object)

    # -- recording -------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        return wrapper

    def _counted(self, key, fn):
        calls, time_ns, clock = self.calls, self.time_ns, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                time_ns[key] += clock() - start
                calls[key] += 1

        return wrapper

    def _kernel_span(self, fn):
        span = self._span("kernel_basis", fn)

        def wrapper(matrix, cols):
            self.matrix_entries += len(matrix) * cols
            self.max_cols = max(self.max_cols, cols)
            return span(matrix, cols)

        return wrapper

    def _dump_span(self, fn):
        span = self._span("dumps_canonical", fn)

        def wrapper(obj):
            text = span(obj)
            self.dump_bytes += len(text.encode())
            return text

        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack.append(len(self.spans))
        self.spans.append(None)
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        idx = self.stack.pop()
        self.spans[idx] = ("op", self._op_start, end, -1, self.op_id)

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, module_name, attr, wrapper):
        original = getattr(sys.modules[module_name], attr)
        for name, module in list(sys.modules.items()):
            if (name == "prymlab" or name.startswith("prymlab.")) and getattr(module, attr, None) is original:
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in SPAN_FUNCTIONS:
            fn = getattr(sys.modules[module_name], attr)
            if span == "kernel_basis":
                wrapper = self._kernel_span(fn)
            elif span == "dumps_canonical":
                wrapper = self._dump_span(fn)
            else:
                wrapper = self._span(span, fn)
            self._patch_everywhere(module_name, attr, wrapper)
        for module_name, attr, key in COUNTED_FUNCTIONS:
            fn = getattr(sys.modules[module_name], attr)
            self._patch_everywhere(module_name, attr, self._counted(key, fn))
        for cls, attr, key in COUNTED_METHODS:
            self._saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self._counted(key, cls.__dict__[attr]))
        make = riemann_roch.CurveFunction.__dict__["make"]
        self._saved.append((riemann_roch.CurveFunction, "make", make))
        riemann_roch.CurveFunction.make = classmethod(self._span("CurveFunction.make", make.__func__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start ns, end ns, parent index, op id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- reduction -----------------------------------------------------------

    def metrics(self, n_ops: int, memo_entries: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced ops, as name -> (value, unit)."""
        spans = self.spans
        n = len(spans)
        child_ns = [0] * n
        entry = [None] * n  # innermost enclosing search/probe/closed-form/scroll span
        for idx, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                entry[idx] = entry[parent]
            if name in PRYM_SPANS or name == "scroll_report":
                entry[idx] = name
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        h0_under: Counter = Counter()
        for idx, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[idx]
            if name == "h0":
                h0_under[entry[idx]] += 1

        def s(ns):
            return ns / 1e9

        h0_calls = calls["h0"]
        out = {
            "riemann_roch.h0_calls": (h0_calls, "count"),
            "riemann_roch.h0_misses": (memo_entries, "count"),
            "riemann_roch.h0_hit_ratio": ((h0_calls - memo_entries) / h0_calls if h0_calls else 0.0, "ratio"),
            "riemann_roch.space_calls": (calls["riemann_roch_space"], "count"),
            "riemann_roch.space_self_s": (s(self_ns["riemann_roch_space"]), "s"),
            "riemann_roch.make_calls": (calls["CurveFunction.make"], "count"),
            "riemann_roch.make_s": (s(total_ns["CurveFunction.make"]), "s"),
            "riemann_roch.valuation_s": (s(self.time_ns["valuation"]), "s"),
            "riemann_roch.memo_entries": (memo_entries, "count"),
            "linalg.kernel_calls": (calls["kernel_basis"], "count"),
            "linalg.kernel_s": (s(total_ns["kernel_basis"]), "s"),
            "linalg.matrix_entries": (self.matrix_entries, "count"),
            "linalg.max_cols": (self.max_cols, "count"),
            "polynomials.gcd_calls": (self.calls["gcd"], "count"),
            "polynomials.gcd_s": (s(self.time_ns["gcd"]), "s"),
            "polynomials.evaluate_calls": (self.calls["evaluate"], "count"),
            "polynomials.evaluate_s": (s(self.time_ns["evaluate"]), "s"),
            "series.branch_calls": (self.calls["branch"], "count"),
            "series.branch_s": (s(self.time_ns["branch"]), "s"),
            "curves.divisor_new": (self.calls["divisor"], "count"),
            "curves.divisor_s": (s(self.time_ns["divisor"]), "s"),
            "curves.validate_s": (s(self.time_ns["validate"]), "s"),
            "jacobian.twist_calls": (self.calls["twist"], "count"),
            "jacobian.twist_s": (s(self.time_ns["twist"]), "s"),
            "jacobian.cantor_calls": (self.calls["cantor"], "count"),
            "jacobian.cantor_s": (s(self.time_ns["cantor"]), "s"),
            "prym.search_self_s": (s(self_ns["search_report"]), "s"),
            "prym.probes_s": (s(total_ns["geometry_probes"]), "s"),
            "prym.closed_form_s": (s(total_ns["closed_form_report"]), "s"),
            "prym.h0_per_op": (sum(h0_under[name] for name in PRYM_SPANS) / n_ops, "count/op"),
            "scroll.report_self_s": (s(self_ns["scroll_report"]), "s"),
            "scroll.h0_per_op": (h0_under["scroll_report"] / n_ops, "count/op"),
            "serialize.dump_s": (s(total_ns["dumps_canonical"]), "s"),
            "serialize.bytes_per_op": (self.dump_bytes / n_ops, "B/op"),
            "trace.op_s": (s(total_ns["op"]), "s"),
        }
        for name in SPAN_NAMES:
            out[f"self_s.{name}"] = (s(self_ns[name]), "s")
        return out
