"""Span recorder for the per-layer trace.

The recorder times gradflow's layer functions without editing them. For each
layer it takes the function object from the module that defines it and
replaces every binding of that object in the loaded ``gradflow`` modules,
so a wrapper sits wherever a caller looks the function up:
``gradflow.checkpointing.build_backward`` for ``plan()``,
``gradflow.interpreter.run_forward`` for ``gradient()``'s call-time import,
``gradflow.ir.validate`` for ``validate_or_raise`` and so on.
``installed()`` restores every binding when it exits.

Each call becomes one span: its name, its parent span, a tag that the
benchmark sets (the workload item being run), its duration, the part of
that duration its child spans cover, and the counts its ``count`` function
reads off the call. Self time is the duration minus the child part.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: str | None
    tag: str | None
    seconds: float = 0.0
    child_seconds: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


@dataclass(frozen=True)
class Layer:
    """One traced function: ``module.attr`` under the span name ``name``.
    ``count(result, *args, **kwargs)`` returns the counts of one call."""

    name: str
    module: str
    attr: str
    count: Callable[..., dict[str, int]] | None = None


class Recorder:
    def __init__(self, layers: tuple[Layer, ...], clock: Callable[[], float]):
        self.layers = layers
        self.clock = clock
        self.spans: list[Span] = []
        self.tag: str | None = None
        self._stack: list[Span] = []

    def _wrap(self, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(layer.name, parent.name if parent else None, self.tag)
            self._stack.append(span)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.seconds = self.clock() - t0
                self._stack.pop()
                if parent is not None:
                    parent.child_seconds += span.seconds
                self.spans.append(span)
            if layer.count is not None:
                span.counts = layer.count(result, *args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every layer function; restore on exit."""
        swapped: list[tuple[object, str, object]] = []
        try:
            for layer in self.layers:
                original = getattr(sys.modules[layer.module], layer.attr)
                traced = self._wrap(layer, original)
                for mod in _gradflow_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            swapped.append((mod, attr, original))
                            setattr(mod, attr, traced)
            yield self
        finally:
            for mod, attr, original in reversed(swapped):
                setattr(mod, attr, original)

    def rescale(self, first: int, factor: float) -> None:
        """Multiply the times of the spans from index ``first`` on."""
        for span in self.spans[first:]:
            span.seconds *= factor
            span.child_seconds *= factor

    def self_ms(self, name: str) -> float:
        return 1e3 * sum(s.self_seconds for s in self.spans if s.name == name)

    def count(self, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans)

    def by_tag(self, name: str) -> dict[str, tuple[float, dict[str, int]]]:
        """Self milliseconds and summed counts of one span name, per tag."""
        out: dict[str, tuple[float, dict[str, int]]] = {}
        for s in self.spans:
            if s.name != name:
                continue
            ms, counts = out.get(s.tag, (0.0, {}))
            merged = dict(counts)
            for k, v in s.counts.items():
                merged[k] = merged.get(k, 0) + v
            out[s.tag] = (ms + 1e3 * s.self_seconds, merged)
        return out

    def tree(self) -> dict[tuple[str | None, str], tuple[int, float]]:
        """(parent, name) -> (calls, self milliseconds)."""
        out: dict[tuple[str | None, str], tuple[int, float]] = {}
        for s in self.spans:
            calls, ms = out.get((s.parent, s.name), (0, 0.0))
            out[(s.parent, s.name)] = (calls + 1, ms + 1e3 * s.self_seconds)
        return out


def _gradflow_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "gradflow" or name.startswith("gradflow."))
    ]
