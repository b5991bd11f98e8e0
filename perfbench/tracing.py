"""Per-layer tracing for the traced benchmark run, from outside polyloj.

Tracer.install() wraps every public module-level function of each layer
module (and scipy.optimize.least_squares, which polyloj imports inside
function bodies) and rebinds the wrapper everywhere the original function
object is bound: in its own module, in every consuming polyloj module, in
the polyloj package and in the benchmark's own modules. uninstall() puts
the originals back.

A wrapped call records a span (name, start, end, parent, item). The hot
evaluators, which run millions of times, are not spans: they add to a
call counter and a summed time instead, and that time is charged to the
innermost open span as covered by a child. A span's self time is its
duration minus the part of it that its child spans cover, minus the time
of the hot calls made directly under it.

Span times are wall time from perf_counter: a wrapper reads its clock
twice per call, and the CPU-time clock costs a system call each time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "polynomials",
    "polyhedra",
    "linalg",
    "nondegeneracy",
    "univariate",
    "lattice",
    "lojasiewicz",
    "genericity",
    "reports",
)

# (class name in polyloj.polynomials, method) pairs counted, not spanned.
HOT_METHODS = (("Polynomial", "evaluate_float"), ("Polynomial", "evaluate_float_batch"))
# Module-level functions called too often for one span per call.
HOT_FUNCTIONS = ("linalg.dot",)

LEAST_SQUARES = "scipy.least_squares"
EVIDENCE_KINDS = ("EmptyZeroSet", "FullRankEverywhere", "Witness", "SearchExhausted")


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "hot_s", "info")

    def __init__(self, name, start, end, parent, item, hot_s=0.0, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.item = item
        self.hot_s = hot_s
        self.info = info


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration, minus the union of its direct
    children's intervals clipped to its own, minus its hot-call time.

    Children may overlap one another and may end after their parent (or
    after the parent's later siblings); the union and the clipping keep
    each instant of the parent counted at most once."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered - span.hot_s)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.hot_stack: list[list[float]] = []
        self.hot_calls: dict[str, int] = defaultdict(int)
        self.hot_self_s: dict[str, float] = defaultdict(float)
        self.hot_points: dict[str, int] = defaultdict(int)
        self.item = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.item)
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if on_result is not None:
                span.info = on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot_wrapper(self, name: str, fn, points: bool = False):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer.hot_stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.hot_stack.pop()
                tracer.hot_calls[name] += 1
                tracer.hot_self_s[name] += elapsed - frame[0]
                if points:
                    tracer.hot_points[name] += len(args[1])
                if tracer.hot_stack:
                    tracer.hot_stack[-1][0] += elapsed
                elif tracer.stack:
                    tracer.spans[tracer.stack[-1]].hot_s += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self, extra_modules=()) -> None:
        import scipy.optimize

        import polyloj
        from polyloj import polynomials

        layer_modules = [sys.modules[f"polyloj.{name}"] for name in LAYERS]
        consumers = [polyloj, *layer_modules, *extra_modules]
        for module in layer_modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in HOT_FUNCTIONS:
                    wrapper = self._hot_wrapper(name, fn)
                else:
                    wrapper = self._span_wrapper(name, fn, RESULT_HOOKS.get(name))
                self._rebind(fn, wrapper, consumers)
        for cls_name, method in HOT_METHODS:
            cls = getattr(polynomials, cls_name)
            fn = cls.__dict__[method]
            wrapper = self._hot_wrapper(
                f"polynomials.{method}", fn, points=method.endswith("_batch")
            )
            self._patches.append((cls, method, fn))
            setattr(cls, method, wrapper)
        lsq = scipy.optimize.least_squares
        self._patches.append((scipy.optimize, "least_squares", lsq))
        scipy.optimize.least_squares = self._span_wrapper(
            LEAST_SQUARES, lsq, lambda r: {f"{LEAST_SQUARES}.nfev": int(r.nfev)}
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------------

    def start_items(self) -> None:
        """End set-up: hot-call counters from here on belong to the items."""
        self.hot_calls.clear()
        self.hot_self_s.clear()
        self.hot_points.clear()

    def totals(self, setup: bool = False) -> dict[str, float]:
        """Summed per-layer quantities over the items' spans and hot calls,
        or with setup=True over the spans recorded before the first item."""
        out: dict[str, float] = defaultdict(float)
        selfs = self_times(self.spans)
        for span, own in zip(self.spans, selfs):
            if (span.item < 0) != setup:
                continue
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += own
            for key, value in (span.info or {}).items():
                out[key] += value
            if span.name == LEAST_SQUARES and self._under(span, "nondegeneracy.witness_search"):
                out["nondegeneracy.least_squares.starts"] += 1
                out["nondegeneracy.least_squares.nfev"] += span.info[f"{LEAST_SQUARES}.nfev"]
                out["nondegeneracy.least_squares.self_s"] += own
        if setup:
            return out
        for name, calls in self.hot_calls.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += self.hot_self_s[name]
        for name, points in self.hot_points.items():
            out[f"{name}.points"] += points
        return out

    def _under(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def _report_evidence(report) -> dict:
    """Face-system counts of a NondegeneracyReport, by evidence kind."""
    counts = {f"nondegeneracy.evidence.{kind}": 0 for kind in EVIDENCE_KINDS}
    for entry in report.entries:
        counts[f"nondegeneracy.evidence.{entry.evidence.kind}"] += 1
    counts["nondegeneracy.systems"] = len(report.entries)
    counts["nondegeneracy.systems_decided"] = sum(
        1 for e in report.entries if e.evidence.kind != "SearchExhausted"
    )
    return counts


# Extra quantities read off a wrapped function's result, by metric name.
RESULT_HOOKS = {
    "polyhedra.enumerate_negative_face_tuples": lambda r: {
        "polyhedra.enumerate_negative_face_tuples.tuples": len(r)
    },
    "lojasiewicz.mu_estimate_detail": lambda r: {
        "lojasiewicz.mu_estimate_detail.crossings": r.crossings
    },
    "nondegeneracy.nondegenerate_at_infinity": _report_evidence,
    "nondegeneracy.khovanskii_check": _report_evidence,
}
