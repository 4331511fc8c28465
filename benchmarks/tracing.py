"""Spans around the public functions and methods of every qhg module.

The tracer wraps each public module-level function and each public
method or static method of the public classes of `qhg.<layer>`, and
rebinds every name in every qhg namespace that refers to a wrapped
function: `report`, `connections`, `contact`, `g2` and `cone` import
library functions directly, and patching only the defining module
would miss those calls.  `Scalar` is not wrapped; its `+` and `*`
operators are counted instead, with the number of calls whose two
operands are both nonzero.

Spans (name, parent, start, end) stay in flat arrays until `write`;
self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

from qhg.scalars import Scalar

LAYERS = (
    "exterior",
    "linalg",
    "algebra",
    "connections",
    "contact",
    "clifford",
    "g2",
    "cone",
    "report",
    "cli",
)
NAMESPACES = ("qhg", "qhg.scalars", *(f"qhg.{layer}" for layer in LAYERS))


class Tracer:
    """Span wrappers and Scalar counters; `uninstall` restores every binding."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.mul = [0, 0]  # calls, calls with both operands nonzero
        self.add = [0, 0]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qhg.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._span(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for ns in NAMESPACES:
            mod = importlib.import_module(ns)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        for attr, counter in (("__add__", self.add), ("__radd__", self.add),
                              ("__mul__", self.mul), ("__rmul__", self.mul)):
            self._patch(Scalar, attr, _counted(counter, vars(Scalar)[attr]))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap_methods(self, layer: str, cls: type):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            label = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self._span(label, member))
            elif isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self._span(label, member.__func__)))

    def _patch(self, owner, name: str, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _span(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # -- results -----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self time and call count per wrapped name."""
        n = len(self.name_of)
        children = array("d", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            label = self.names[self.name_of[i]]
            self_s[label] += self.end[i] - self.start[i] - children[i]
            calls[label] += 1
        return self_s, calls

    def write(self, path):
        """Write the spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.name_of)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name_of[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )


def _counted(counter: list[int], op):
    def counted(a, b):
        counter[0] += 1
        if a and b:
            counter[1] += 1
        return op(a, b)

    return counted
