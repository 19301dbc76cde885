"""Span tracer that times mrparse layers from outside the package.

Each layer is entered through public module attributes (``model.block_backward``,
``rules.minimal_rule_set``, ...).  ``Tracer.install`` replaces every binding of
such a function in the loaded ``mrparse`` modules with a timing wrapper, so
both cross-module calls (``model.block_backward(...)``) and same-module
bare-name calls (``enumerate_applicable_rules(...)`` inside ``rules``) pass
through it.  ``uninstall`` restores the originals.

Two kinds of boundary exist:

* ``SPAN``: every call is stored as a span (name, start, end, parent span,
  operation id).  Self time is computed from the stored spans afterwards.
* ``LEAF``: hot functions with no traced callees (``model.add_grad`` runs
  millions of times per training run).  Calls are counted and timed in
  aggregate; the time is charged to the enclosing span as covered child time.

Hooks attached to a boundary see its arguments and result and feed extra
counters (tie-break fallbacks, Σn³ of the assignment kernel, ...).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SPAN = "span"
LEAF = "leaf"


class TraceError(Exception):
    pass


@dataclass(frozen=True)
class Boundary:
    """One public function to wrap: ``owner.attr`` reported as ``name``.

    ``owner`` is a module or a class; ``hook(tracer, args, kwargs, result)``
    runs after each call; ``wrap_args(tracer, args, kwargs)`` may replace the
    arguments before the call (used to count a callback's invocations).
    """

    owner: object
    attr: str
    name: str
    kind: str = SPAN
    hook: Optional[Callable] = None
    wrap_args: Optional[Callable] = None


class Tracer:
    """In-memory spans plus aggregate counters for one benchmark run."""

    def __init__(self, op_roots: tuple[str, ...] = (), clock=time.perf_counter):
        self.clock = clock
        self.op_roots = frozenset(op_roots)
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_leaf = array("d")       # aggregate LEAF time inside the span
        self._stack: list[int] = []
        self._roots_open = 0
        self._in_leaf = False
        self.op = -1
        self.leaf_calls: Counter = Counter()
        self.leaf_time: Counter = Counter()
        self.counters: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return ident

    def open(self, name: str) -> int:
        if self._in_leaf:
            raise TraceError(f"span {name!r} opened inside a leaf boundary")
        is_root = name in self.op_roots
        if is_root:
            if self._roots_open == 0:
                self.op += 1
            self._roots_open += 1
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_leaf.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(self.clock())
        return index

    def close(self, index: int):
        end = self.clock()
        self.span_end[index] = end
        popped = self._stack.pop()
        if popped != index:
            raise TraceError("span stack out of order")
        if self._names[self.span_name[index]] in self.op_roots:
            self._roots_open -= 1

    def add_leaf(self, name: str, seconds: float):
        self.leaf_calls[name] += 1
        self.leaf_time[name] += seconds
        if self._stack:
            self.span_leaf[self._stack[-1]] += seconds

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, boundary: Boundary, fn):
        tracer = self
        name = boundary.name
        hook = boundary.hook
        wrap_args = boundary.wrap_args

        if boundary.kind == LEAF:
            clock = self.clock

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                tracer._in_leaf = True
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.add_leaf(name, clock() - start)
                    tracer._in_leaf = False
            return leaf

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(tracer, args, kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return spanned

    def install(self, boundaries, package: str = "mrparse"):
        """Wrap every boundary and every module-level alias of it.

        Aliases are names that other loaded modules of the package imported
        with ``from module import name``; calls through them would otherwise
        escape the tracer.  A binding kept anywhere else (a default argument,
        a container) is not found here, which is why each workload also checks
        that the boundaries it exercises were entered.
        """
        if self._installed:
            raise TraceError("tracer already installed")
        replaced: dict[int, object] = {}
        for boundary in boundaries:
            if not hasattr(boundary.owner, boundary.attr):
                raise TraceError(f"no attribute {boundary.name!r} to wrap")
            original = boundary.owner.__dict__[boundary.attr]
            if id(original) in replaced:
                raise TraceError(f"{boundary.name!r} wrapped twice")
            wrapper = self._wrapper(boundary, original)
            self._set(boundary.owner, boundary.attr, wrapper)
            replaced[id(original)] = wrapper
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._set(module, attr, replaced[id(value)])

    def _set(self, owner, attr, value):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per boundary name, computed from the stored spans.

        A span's self time is its duration minus the durations of its child
        spans and minus the aggregate leaf time charged to it.  Leaf
        boundaries have no traced callees, so their self time is their total.
        """
        if self._stack:
            raise TraceError("self times requested while spans are open")
        out = {name: 0.0 for name in self._names}
        if len(self.span_start):
            start = np.frombuffer(self.span_start, dtype=np.float64)
            end = np.frombuffer(self.span_end, dtype=np.float64)
            parent = np.frombuffer(self.span_parent, dtype=np.int64)
            leaf = np.frombuffer(self.span_leaf, dtype=np.float64)
            names = np.frombuffer(self.span_name, dtype=np.int64)
            duration = end - start
            child = np.zeros_like(duration)
            nested = parent >= 0
            np.add.at(child, parent[nested], duration[nested])
            own = duration - child - leaf
            totals = np.bincount(names, weights=own, minlength=len(self._names))
            out = {name: float(totals[i]) for i, name in enumerate(self._names)}
        for name, seconds in self.leaf_time.items():
            out[name] = out.get(name, 0.0) + seconds
        return out

    def calls(self) -> Counter:
        counts = Counter()
        if len(self.span_name):
            tally = np.bincount(np.frombuffer(self.span_name, dtype=np.int64),
                                minlength=len(self._names))
            counts.update({name: int(tally[i]) for i, name in enumerate(self._names)})
        counts.update(self.leaf_calls)
        return counts

    def dump(self, path: str):
        """Write every span and counter as gzip-compressed JSON."""
        payload = {
            "names": self._names,
            "spans": {"name": list(self.span_name), "start": list(self.span_start),
                      "end": list(self.span_end), "parent": list(self.span_parent),
                      "op": list(self.span_op), "leaf_s": list(self.span_leaf)},
            "leaves": {name: {"calls": self.leaf_calls[name],
                              "s": self.leaf_time[name]} for name in self.leaf_calls},
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)


class BoundaryTimer:
    """Untraced runs: wall time of a few coarse call boundaries only.

    Used where an end-to-end metric must exclude a phase (``trainer.prepare``
    and ``trainer.evaluate`` inside ``trainer.train``).  Each call appends one
    (start, end) interval to ``intervals[attr]``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.intervals: dict[str, list[tuple[float, float]]] = {}
        self._installed: list[tuple[object, str, object]] = []

    def install(self, owner, attr: str):
        original = owner.__dict__[attr]
        intervals = self.intervals.setdefault(attr, [])
        clock = self.clock

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                intervals.append((start, clock()))
        self._installed.append((owner, attr, original))
        setattr(owner, attr, timed)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
