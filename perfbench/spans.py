"""Layer instrumentation applied from outside the ule package.

The benchmark never edits the package. It replaces the public functions of
each layer module (and `Superoperator.apply_matrix`) with wrappers, in every
`ule` module namespace that holds a reference to them, and puts the
originals back when the measured work is done.

Two kinds of wrapper exist:

* `FirstCall` (untraced runs): every non-CLI layer function is replaced by a
  sentinel that records the time of the first layer call, then restores all
  originals, so the measured work runs on the unmodified code.
* `Tracer` (traced runs): every layer function gets a span. Spans are
  aggregated as they close, keyed by (parent, name), which keeps memory
  constant over the ~10^5 generator applications of a relaxation run.

Both accept observers: callables that look at a layer function's arguments
and return value (step counts, kernel dimensions, f pairs) without changing
either.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

LAYERS = ("operators", "bath", "generator", "dynamics", "analysis",
          "spinchain", "cli", "io")
METHODS = (("generator", "Superoperator", "apply_matrix"),)


def layer_functions():
    """(qualified name, owner, attribute, function) for every traced callable.

    Qualified names are `<layer>.<function>`, e.g. `bath.f_integral`.
    """
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"ule.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{name}", mod, name, obj))
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"ule.{layer}"), cls_name)
        out.append((f"{layer}.{meth}", cls, meth, vars(cls)[meth]))
    return out


class Patches:
    """Attribute replacements that can be undone in one call."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, original, replacement):
        """Replace `original` on `owner` and in every ule module that imported it."""
        targets = [owner] if inspect.isclass(owner) else [
            mod for name, mod in sorted(sys.modules.items())
            if name == "ule" or name.startswith("ule.")]
        for target in targets:
            for key, val in list(vars(target).items()):
                if val is original:
                    self._saved.append((target, key, val))
                    setattr(target, key, replacement)

    def restore(self):
        while self._saved:
            target, key, val = self._saved.pop()
            setattr(target, key, val)


def _observed(fn, observer):
    if observer is None:
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        observer(result, args, kwargs)
        return result
    return wrapper


class WorkClock:
    """Wall, CPU and peak-RSS readings at the start and end of the measured work.

    `start` is taken at the first call into a non-CLI layer; `monotonic` is
    comparable across processes, so the parent can compute set-up time from
    its own spawn timestamp.
    """

    def __init__(self):
        self.start_monotonic = None
        self.start_wall = None
        self.start_cpu = None
        self.wall_s = None
        self.cpu_s = None

    @property
    def started(self) -> bool:
        return self.start_monotonic is not None

    def mark_start(self):
        self.start_cpu = time.process_time()
        self.start_wall = time.perf_counter()
        self.start_monotonic = time.monotonic()

    def mark_end(self):
        self.wall_s = time.perf_counter() - self.start_wall
        self.cpu_s = time.process_time() - self.start_cpu

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupDone(BaseException):
    """Raised at the first layer call by a set-up probe.

    A BaseException so that the CLI's error handlers do not catch it.
    """


class FirstCall:
    """Sentinels that time the first layer call and then step aside."""

    def __init__(self, clock: WorkClock, observers: dict, stop_at_first: bool = False):
        self.clock = clock
        self.stop_at_first = stop_at_first
        self._sentinels = Patches()
        self._observers = Patches()
        for qualname, owner, attr, fn in layer_functions():
            observed = _observed(fn, observers.get(qualname))
            if observed is not fn:
                self._observers.replace(owner, attr, fn, observed)
            if not qualname.startswith("cli."):
                self._sentinels.replace(owner, attr, observed,
                                        self._sentinel(observed))

    def _sentinel(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.clock.mark_start()
            self._sentinels.restore()
            if self.stop_at_first:
                raise SetupDone()
            return fn(*args, **kwargs)
        return wrapper

    def close(self):
        self._sentinels.restore()
        self._observers.restore()


class Tracer:
    """Aggregated spans around every layer function.

    edges[(parent, name)] = [calls, inclusive seconds, self seconds], where
    self time is the span minus the time covered by its child spans. No
    layer function calls itself, directly or through another, so summing a
    name's edges gives its inclusive time without double counting.
    """

    def __init__(self, clock: WorkClock, observers: dict):
        self.clock = clock
        self.edges: dict = {}
        self._stack: list = []
        self._patches = Patches()
        for qualname, owner, attr, fn in layer_functions():
            observed = _observed(fn, observers.get(qualname))
            self._patches.replace(owner, attr, fn, self._span(qualname, observed))

    def _span(self, name, fn):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        starts_work = not name.startswith("cli.")

        # a frame is [start, child seconds, name]; children add to slot 1
        @functools.wraps(fn)
        def framed(*args, **kwargs):
            if starts_work and self.clock.start_wall is None:
                self.clock.mark_start()
            frame = [clock(), 0.0, name]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    key = (parent[2], name)
                else:
                    key = (None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[1]
        return framed

    def close(self):
        self._patches.restore()

    def calls(self, name) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def inclusive(self, name) -> float:
        return sum(e[1] for (_, n), e in self.edges.items() if n == name)

    def self_time(self, prefix) -> float:
        """Self seconds of the spans named `prefix` or `prefix.<anything>`.

        A layer name (`cli`) sums all of its functions.
        """
        dotted = prefix + "."
        return sum(e[2] for (_, n), e in self.edges.items()
                   if n == prefix or n.startswith(dotted))

    def rows(self):
        """Edges as JSON-ready rows, heaviest first."""
        rows = [{"parent": p, "name": n, "calls": e[0], "inclusive_s": e[1], "self_s": e[2]}
                for (p, n), e in self.edges.items()]
        return sorted(rows, key=lambda r: -r["inclusive_s"])
