"""Spans and work counts at charclass's layer boundaries, recorded from outside.

The traced run wraps the functions listed in ``BOUNDARIES``.  Each wrapper
opens a span (name, start, end, parent span, task id) around the call and
adds the boundary's work counts from its arguments and result.  A wrapper is
bound in place of every ``charclass.*`` module attribute that aliases the
wrapped function (``steenrod.normal_form`` is ``bott.normal_form``, and so
on), so calls between modules are attributed too.  A boundary that no longer
exists is reported as absent and skipped; nothing is wrapped while tracing
is off, so untraced timings run the package unmodified.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# A count function receives (tracer, args, kwargs, result) after a call that
# returned, and adds to the tracer's counters.
Count = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Boundary:
    name: str  # span name, "<module>.<boundary>"
    module: str  # module that owns the function
    attr: str  # "function" or "Class.method"
    counts: tuple[tuple[str, str, str], ...] = ()  # (quantity, unit, better)
    count: Count | None = None
    span: bool = True  # False: count calls only, for hot tiny functions


def _dense_sweep(t, args, kwargs, result):
    t.add("bott.dense_sweep.cells", 1 << args[0].n)
    t.add("bott.dense_sweep.bytes", getattr(result, "nbytes", 0))


def _to_poly(t, args, kwargs, result):
    t.add("bott.to_poly.terms", len(result))


def _format_poly(t, args, kwargs, result):
    t.add("poly2.format_poly.chars", len(result))


def _normal_form(t, args, kwargs, result):
    t.add("bott.normal_form.terms_in", len(args[0]))
    t.add("bott.normal_form.terms_out", len(result))
    t.add("bott.normal_form.nonzero", 1 if len(result) else 0)


def _act(t, args, kwargs, result):
    t.add("steenrod.act.nonzero", 1 if len(result) else 0)


def _enumerate_tuples(t, args, kwargs, result):
    t.add("steenrod.enumerate_tuples.tuples", len(result))


def _top_class_bit(t, args, kwargs, result):
    t.add("bott.top_class_bit.hits", int(result))


def _verify_key(t, args, kwargs, result):
    t.add("qring.verify_key.items", result.total)
    t.add("qring.verify_key.nonzero", result.nonzero)


def _fold(t, args, kwargs, result):
    start, stop = args[2], args[3]
    t.add("qring.fold.items", stop - start)


def _mul_grids(t, args, kwargs, result):
    a, b = args[0], args[1]
    nnz = min(int(np.count_nonzero(a)), int(np.count_nonzero(b)))
    t.add("dold.mul_grids.cell_nnz", result.size * nnz)


def _verify_dold(t, args, kwargs, result):
    if t.inside("dold.scan_dold"):
        t.add("dold.scan_dold.specs_tried", 1)


_C, _S = "count", "s"
BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("bott.dual_sw", "charclass.bott", "dual_sw"),
    Boundary("bott.total_sw", "charclass.bott", "total_sw"),
    Boundary(
        "bott.dense_sweep", "charclass.bott", "_DenseRing._mul_by_seeds",
        (("cells", _C, "lower"), ("bytes", "B", "lower")), _dense_sweep,
    ),
    Boundary(
        "bott.to_poly", "charclass.bott", "_DenseRing.to_poly",
        (("terms", _C, "lower"),), _to_poly,
    ),
    Boundary(
        "bott.normal_form", "charclass.bott", "normal_form",
        (("terms_in", _C, "lower"), ("terms_out", _C, "lower")), _normal_form,
    ),
    Boundary("bott.top_class_bit", "charclass.bott", "top_class_bit", (), _top_class_bit),
    Boundary(
        "poly2.format_poly", "charclass.poly2", "format_poly",
        (("chars", _C, "lower"),), _format_poly,
    ),
    Boundary("poly2.poly_mul", "charclass.poly2", "Poly.__mul__"),
    Boundary("poly2.monomial_mul", "charclass.poly2", "Monomial.__mul__", span=False),
    Boundary("steenrod.chi_sq", "charclass.steenrod", "chi_sq"),
    Boundary("steenrod.act", "charclass.steenrod", "act", (), _act),
    Boundary(
        "steenrod.enumerate_tuples", "charclass.steenrod", "enumerate_tuples",
        (("tuples", _C, "lower"),), _enumerate_tuples,
    ),
    Boundary("steenrod.permsum", "charclass.steenrod", "permsum"),
    Boundary("qring.verify_zero", "charclass.qring", "verify_zero_a"),
    Boundary("qring.verify_zero", "charclass.qring", "verify_zero_b"),
    Boundary(
        "qring.verify_key", "charclass.qring", "verify_key",
        (("items", _C, "lower"), ("nonzero", _C, "lower")), _verify_key,
    ),
    Boundary("qring.fold", "charclass.qring", "_fold_range", (("items", _C, "lower"),), _fold),
    Boundary(
        "dold.mul_grids", "charclass.dold", "_mul_grids",
        (("cell_nnz", _C, "lower"),), _mul_grids,
    ),
    Boundary("dold.verify_dold", "charclass.dold", "verify_dold", (), _verify_dold),
    Boundary("dold.dual_sw_dold", "charclass.dold", "dual_sw_dold"),
    Boundary("dold.scan_dold", "charclass.dold", "scan_dold", (("specs_tried", _C, "lower"),)),
)

# Ratios of useful outcomes to attempts: metric -> (numerator counter, span).
RATIOS = {
    "bott.normal_form.nonzero_ratio": ("bott.normal_form.nonzero", "bott.normal_form"),
    "steenrod.act.nonzero_ratio": ("steenrod.act.nonzero", "steenrod.act"),
    "bott.top_class_bit.hit_ratio": ("bott.top_class_bit.hits", "bott.top_class_bit"),
}

# Import cost read from `python -X importtime` (see run.measure_imports).
IMPORTS = ("numpy", "click", "charclass")


def layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run emits: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for b in BOUNDARIES:
        out[f"{b.name}.calls"] = (_C, "lower")
        if b.span:
            out[f"{b.name}.self_s"] = (_S, "lower")
        for quantity, unit, better in b.counts:
            out[f"{b.name}.{quantity}"] = (unit, better)
    for ratio in RATIOS:
        out[ratio] = ("ratio", "higher")
    for module in IMPORTS:
        out[f"cli.import.{module}_us"] = ("us", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


class Tracer:
    """Spans of one traced pass, kept in memory, with self times and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, task id]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.task: int | None = None
        self.paused = False  # set while the runner checks outputs
        self._stack: list[list] = []  # [span index, time covered by children]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task])

    def exit(self, count: Count | None = None, call: tuple = ()) -> None:
        """Close the innermost span, then run ``count`` on ``call``.

        Time spent counting is covered for the parent span, so it lands in
        no layer's self time; it shows only in the tracing overhead.
        """
        end = time.perf_counter()
        index, covered = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        name = span[0]
        self.self_s[name] = self.self_s.get(name, 0.0) + end - span[1] - covered
        self.calls[name] = self.calls.get(name, 0) + 1
        if count is not None:
            count(self, *call)
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - span[1]

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i, _ in self._stack)

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def metrics(self, present: set[str]) -> dict[str, float]:
        """Per-layer values of this pass for the boundaries that exist."""
        out: dict[str, float] = {}
        for b in BOUNDARIES:
            if b.name not in present:
                continue
            out[f"{b.name}.calls"] = self.calls.get(b.name, 0)
            if b.span:
                out[f"{b.name}.self_s"] = self.self_s.get(b.name, 0.0)
            for quantity, _, _ in b.counts:
                key = f"{b.name}.{quantity}"
                out[key] = self.counters.get(key, 0)
        for ratio, (numerator, span) in RATIOS.items():
            if span in present:
                calls = self.calls.get(span, 0)
                out[ratio] = self.counters.get(numerator, 0) / calls if calls else 0.0
        return out


def _resolve(boundary: Boundary):
    """(owner object, attribute name, original function), or None if gone."""
    owner = sys.modules.get(boundary.module)
    *path, attr = boundary.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return None if fn is None else (owner, attr, fn)


def _make_wrapper(fn, boundary: Boundary, tracer: Tracer):
    name, count = boundary.name, boundary.count
    if not boundary.span:
        calls = tracer.calls

        def counted(*args, **kwargs):
            if not tracer.paused:
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit()
            raise
        tracer.exit(count, (args, kwargs, result))
        return result

    return wrapper


class Instrumentation:
    """Installs the wrappers for one traced pass and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "charclass" or name.startswith("charclass."))
        ]
        for boundary in BOUNDARIES:
            found = _resolve(boundary)
            if found is None:
                self.absent.add(boundary.name)
                continue
            self.present.add(boundary.name)
            owner, attr, fn = found
            wrapper = _make_wrapper(fn, boundary, self.tracer)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, key, wrapper)
        # a span name is absent only if none of its functions exist
        self.absent -= self.present
        return self

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def self_time_shares(values: dict[str, float], wall: float) -> list[tuple[str, float]]:
    """Layers by share of the traced pass time, largest first."""
    shares = [
        (key.removesuffix(".self_s"), v / wall)
        for key, v in values.items()
        if key.endswith(".self_s")
    ]
    return sorted(shares, key=lambda kv: -kv[1])
