"""Spans for traced benchmark runs, and the self-time arithmetic.

A traced operation wraps the public functions of each centrallift module
from outside: the module attribute (and every other module attribute
that names the same function object, as ``from .words import evaluate``
does) is replaced by a wrapper that records one span per call.  Nothing
under ``src/`` changes.

Spans are kept in memory as four parallel integer arrays (name id,
start, end, parent index) and written out once, when the operation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pickle
import time
from array import array

# The centrallift modules whose public functions are traced.
MODULES = (
    "cli",
    "engines",
    "lifting",
    "metacyclic",
    "modlinalg",
    "oracle",
    "presentation",
    "words",
)

# Functions whose distinct first arguments are counted, for reuse ratios.
DISTINCT_ARG = ("modlinalg.smith",)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.distinct: dict[str, set] = {}

    def wrap(self, span_name: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._ids.get(span_name)
        if nid is None:
            nid = self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, clock = self._stack, self.clock
        seen = self.distinct.setdefault(span_name, set()) if span_name in DISTINCT_ARG else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(args[0])
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self, package_name: str = "centrallift") -> None:
        """Wrap every public module-level function of the traced modules,
        plus the two class entry points the layer table names:
        ``LiftProblem.build`` and the ``PermutationEngine`` constructor."""
        package = importlib.import_module(package_name)
        modules = {m: importlib.import_module(f"{package_name}.{m}") for m in MODULES}
        wrapped: dict[int, tuple] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        problem = modules["lifting"].LiftProblem
        build = problem.__dict__["build"].__func__
        problem.build = classmethod(self.wrap("lifting.LiftProblem.build", build))
        engine = modules["engines"].PermutationEngine
        engine.__init__ = self.wrap("engines.PermutationEngine", engine.__init__)

    def dump(self, path: str) -> None:
        """Write the spans out (called once, when the operation ends)."""
        payload = {
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)


def load(path: str) -> dict:
    """Read spans written by ``Tracer.dump`` in a benchmark child."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def layer_totals(spans: dict) -> dict[str, list[int]]:
    """Span name -> [calls, self nanoseconds].

    A span's self time is its duration minus the part of that interval
    its child spans cover.  Spans come from one thread, so children of
    one span never overlap and the covered part is the sum of their
    durations.
    """
    names, name = spans["names"], spans["name"]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    covered = [0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    totals: dict[str, list[int]] = {}
    for i, nid in enumerate(name):
        entry = totals.setdefault(names[nid], [0, 0])
        entry[0] += 1
        entry[1] += end[i] - start[i] - covered[i]
    return totals


def merge_totals(parts) -> dict[str, list[int]]:
    """Sum per-name [calls, self ns] over several operations."""
    out: dict[str, list[int]] = {}
    for part in parts:
        for key, (calls, self_ns) in part.items():
            entry = out.setdefault(key, [0, 0])
            entry[0] += calls
            entry[1] += self_ns
    return out
