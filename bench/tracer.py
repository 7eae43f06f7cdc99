"""Span tracer that wraps the ordalg layers from outside, at run time.

Each public function and method of a layer module is replaced by a wrapper
that records one span per call: the function's name, its start and end
(``perf_counter_ns``), the span that was open when it was called, and the
benchmark op it belongs to.  Spans are kept in flat arrays until the run
ends and are analysed afterwards.

Module-level functions are patched in every loaded ``ordalg`` module that
binds them, not only in the module that defines them, because
``from .order import monotone_envelope`` gives ``sbal``, ``proximity`` and
``cli`` their own name for the same function; patching the defining module
alone would let those calls escape.  Classes are shared objects, so their
methods are patched once, on the class that defines them.

The library source is not edited, and ``uninstall`` restores every
attribute that ``install`` replaced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("fnalg", "order", "sbal", "proximity", "spectrum", "approx",
          "sbal_plus", "rng", "cli")

# Dunder methods that do work callers ask for; the rest (repr, setattr,
# ...) are plumbing.
TRACED_DUNDERS = frozenset({
    "__init__", "__post_init__", "__call__", "__getitem__", "__eq__",
    "__hash__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__neg__", "__abs__",
})

# The layer that owns time not covered by any span of an op.
BENCH = "bench"
PACKAGE = "ordalg"


class Tracer:
    """Records spans for the calls made while ``active`` is true."""

    def __init__(self):
        self.names: list = []          # span name by name id
        self.name_layer = array("b")   # layer index by name id
        self.name = array("i")         # per span: name id
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")       # -1 for a span opened by the benchmark
        self.op = array("i")
        self.stack: list = []
        self.active = False
        self.op_id = -1
        self._undo: list = []

    # -- installing -----------------------------------------------------

    def install(self) -> int:
        """Wrap every layer's public callables; returns how many were wrapped."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")}
        functions = {}
        for layer in LAYERS:
            module = modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    functions[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                hit = functions.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._replace(module, attr, hit[1])
        return len(self.names)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        prefix = f"{layer}.{cls.__name__}."
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            if isinstance(value, classmethod):
                new = classmethod(self._wrap(prefix + attr, layer, value.__func__))
            elif isinstance(value, staticmethod):
                new = staticmethod(self._wrap(prefix + attr, layer, value.__func__))
            elif isinstance(value, property) and value.fget is not None:
                new = property(self._wrap(prefix + attr, layer, value.fget),
                               value.fset, value.fdel, value.__doc__)
            elif inspect.isfunction(value):
                new = self._wrap(prefix + attr, layer, value)
            else:
                continue
            self._replace(cls, attr, new)

    def _wrap(self, qualname: str, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"cannot time generator function {qualname}")
        name_id = len(self.names)
        self.names.append(qualname)
        self.name_layer.append(LAYERS.index(layer))
        names, starts, ends, parents, ops = (self.name, self.start, self.end,
                                             self.parent, self.op)
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    # -- recording ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True

    def end_op(self) -> None:
        self.active = False
        if self.stack:
            raise RuntimeError("a traced call did not return before its op ended")

    # -- analysis -------------------------------------------------------------

    def analyse(self, windows: dict) -> "TraceSummary":
        """Self times, per-name totals and the nesting checks.

        ``windows`` maps each op id to the (start, end) the benchmark
        measured around it.  A span's self time is its duration minus the
        time covered by its nearest descendants in other layers; a layer's
        self time sums that over the spans through which the layer is
        entered, so the layer self times of an op plus the benchmark's
        unspanned time equal the op's wall time.
        """
        n = len(self.name)
        layer_of = array("b", (self.name_layer[k] for k in self.name))
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        other = array("q", bytes(8 * n))
        problems = []
        for i in range(n - 1, -1, -1):
            p = self.parent[i]
            if dur[i] < 0:
                problems.append(f"span {i} ends before it starts")
            if p < 0:
                continue
            if not (self.start[p] <= self.start[i] and self.end[i] <= self.end[p]):
                problems.append(f"span {i} ({self.names[self.name[i]]}) lies outside its parent")
            if self.op[i] != self.op[p]:
                problems.append(f"span {i} belongs to another op than its parent")
            other[p] += dur[i] if layer_of[i] != layer_of[p] else other[i]

        nlayers = len(LAYERS)
        by_name = [[0, 0, 0] for _ in self.names]   # calls, inclusive ns, self ns
        layer_self: dict = {}                       # op -> per-layer ns
        covered: dict = {}                          # op -> list of top-level spans
        for i in range(n):
            s = dur[i] - other[i]
            if s < 0:
                problems.append(f"span {i} has negative self time")
            row = by_name[self.name[i]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += s
            p = self.parent[i]
            if p < 0 or layer_of[p] != layer_of[i]:
                per_op = layer_self.setdefault(self.op[i], [0] * nlayers)
                per_op[layer_of[i]] += s
            if p < 0:
                covered.setdefault(self.op[i], []).append((self.start[i], self.end[i]))

        totals = {layer: 0 for layer in LAYERS + (BENCH,)}
        for op_id, (w0, w1) in windows.items():
            tops = sorted(covered.get(op_id, []))
            last = w0
            for s0, s1 in tops:
                if s0 < last or s1 > w1:
                    problems.append(f"op {op_id} has overlapping or escaping top-level spans")
                    break
                last = s1
            unspanned = (w1 - w0) - sum(s1 - s0 for s0, s1 in tops)
            per_op = layer_self.get(op_id, [0] * nlayers)
            if unspanned < 0 or sum(per_op) + unspanned != w1 - w0:
                problems.append(f"op {op_id}: layer self times do not add up to its wall time")
            for k, layer in enumerate(LAYERS):
                totals[layer] += per_op[k]
            totals[BENCH] += unspanned
        if set(layer_self) - set(windows):
            problems.append("spans recorded outside any op")

        named = {self.names[k]: tuple(row) for k, row in enumerate(by_name) if row[0]}
        return TraceSummary(spans=n, by_name=named,
                            layer_self_s={k: v / 1e9 for k, v in totals.items()},
                            problems=problems)


class TraceSummary:
    """Aggregates of one traced run."""

    def __init__(self, spans: int, by_name: dict, layer_self_s: dict, problems: list):
        self.spans = spans
        self.by_name = by_name            # name -> (calls, inclusive ns, self ns)
        self.layer_self_s = layer_self_s
        self.problems = problems

    def calls(self, *names: str) -> int:
        return sum(self.by_name.get(n, (0, 0, 0))[0] for n in names)

    def inclusive_s(self, *names: str) -> float:
        return sum(self.by_name.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.by_name.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def us_per_call(self, *names: str) -> float:
        calls = self.calls(*names)
        return self.inclusive_s(*names) * 1e6 / calls if calls else 0.0

    def matching(self, prefix: str) -> tuple:
        return tuple(n for n in self.by_name if n.startswith(prefix))
