"""Spans around fuzzrel's public functions, installed from outside.

Tracer.install replaces every public function and public method of the
package's layer modules with a wrapper that records a span: name, start,
end, parent and the type of any exception raised. Every module
attribute that refers to a wrapped function is patched, so names bound
by `from .x import y` are traced too. scipy.optimize.minimize is traced
as `bounds.minimize`, since only the bounds search calls it. restore()
puts every original back. The package's source is not touched.

A span's parent is the innermost open span on its own thread. A span
that starts on a thread with no open span (a worker of the bounds
thread pool) takes the innermost open span of the thread that installed
the tracer, which is the thread that submitted the work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "fuzzrel"
LAYERS = ("cli", "decision", "bounds", "fuzzy", "markov", "simulate")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    error: str | None
    cpu: float  # CPU time of the span's thread while it was open


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else None
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(span_id)
            error = None
            cpu_start = time.thread_time()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu_start
                stack.pop()
                tracer.spans[span_id] = Span(span_id, name, start, end, parent, error, cpu)

        return traced

    def take(self) -> list[Span]:
        """Finished spans so far, and a fresh buffer for the next ones."""
        with self._lock:
            spans, self.spans = self.spans, []
        return [s for s in spans if s is not None]

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._home_stack
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        wrappers = {}  # id(original function) -> wrapper
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            self._patch(obj, meth_name,
                                        self.wrap(f"{layer}.{obj.__name__}.{meth_name}", meth))
        package = importlib.import_module(PACKAGE)
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and not attr.startswith("__"):
                    self._patch(module, attr, wrappers[id(obj)])
        optimize = importlib.import_module("scipy.optimize")
        self._patch(optimize, "minimize", self.wrap("bounds.minimize", optimize.minimize))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._local.stack = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# -- analysis -------------------------------------------------------------


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of the part of `interval` covered by the union of `parts`."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children on other threads can overlap each other, so the covered
    part is the length of the union of their intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered((s.start, s.end), children.get(s.id, []))
        for s in spans
    }


def has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        node = by_id.get(parent)
        if node is None:
            return False
        if node.name == name:
            return True
        parent = node.parent
    return False
