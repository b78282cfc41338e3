"""Spans and counters recorded from the benchmark's own code.

Nothing here edits nullstream.  Spans go around public calls: a proxy
algorithm wraps `update` and `finalize`, and `patched` temporarily rebinds a
public name in one nullstream module (for example `nullstream.cli.shuffle`)
to a timed wrapper, restoring it on exit.  A patch whose target name no
longer exists raises, so a refactor that moves a call fails the traced run
instead of silently dropping its spans.

A layer's self time is its span's duration minus the durations of its direct
children.  Spans stay in memory; the run aggregates them when it ends.
"""

from __future__ import annotations

import contextlib
import copy
import time

import numpy as np

from nullstream.streaming import SharedRandomness

_now = time.perf_counter


class Tracer:
    """In-memory span tree plus named counters.

    Each span is [name, parent index, start, end]; index -1 is a root.  An op
    is one root span named "op", so every span of an op shares that root.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, _now(), None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][3] = _now()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError("span %r closed out of order" % self.spans[idx][0])

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def add(self, name: str, value: float):
        """Accumulate a counter: sum, number of samples and maximum."""
        c = self.counters.setdefault(name, [0.0, 0, None])
        c[0] += value
        c[1] += 1
        c[2] = value if c[2] is None else max(c[2], value)


class Aggregate:
    """Totals by span name over every span a Tracer holds."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.counters = tracer.counters
        self.count = {}
        self.total = {}
        self.self_time = {}
        self.edge_count = {}
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if end is None:
                raise RuntimeError("span %r was never closed" % name)
            if parent >= 0:
                child_time[parent] += end - start
                key = (spans[parent][0], name)
                self.edge_count[key] = self.edge_count.get(key, 0) + 1
        for i, (name, _, start, end) in enumerate(spans):
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start) - child_time[i]

    def counter_sum(self, name: str):
        c = self.counters.get(name)
        return c[0] if c else None

    def counter_mean(self, name: str):
        c = self.counters.get(name)
        return c[0] / c[1] if c and c[1] else None

    def counter_max(self, name: str):
        c = self.counters.get(name)
        return c[2] if c else None


def maybe_span(tracer, name: str):
    """tracer.span(name), or a no-op context when the op is untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return wrapper


@contextlib.contextmanager
def patched(module, name: str, make_wrapper):
    """Rebind module.name to make_wrapper(original) for the duration."""
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield original
    finally:
        setattr(module, name, original)


class TracedAlgorithm:
    """Proxy around a OnePassAlgorithm that times update and finalize.

    Arguments pass through untouched, so the proxy follows changes to the
    update signature.  Attribute reads fall through to the wrapped algorithm
    (a reduction reads nothing of its inner algorithm but its methods).  A
    deep copy, as made by the protocol simulation, copies the wrapped
    algorithm and keeps recording into the same tracer.

    When the wrapped algorithm has a public `projection_for`, the proxy times
    it once before the first update (filling its cache, so the update itself
    then only reads it) and keeps the streamed vectors so the projection
    matvec can be replayed after the run.
    """

    def __init__(self, inner, tracer: Tracer, layer: str):
        self.inner = inner
        self.tracer = tracer
        self.layer = layer
        self.watch_projection = hasattr(inner, "projection_for")
        self.vectors = []
        self.shared = None

    def __getattr__(self, name):
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __deepcopy__(self, memo):
        return TracedAlgorithm(copy.deepcopy(self.inner, memo), self.tracer, self.layer)

    def update(self, *args, **kwargs):
        if self.watch_projection:
            self._watch(args)
        idx = self.tracer.begin(self.layer + ".update")
        try:
            return self.inner.update(*args, **kwargs)
        finally:
            self.tracer.end(idx)

    def finalize(self, *args, **kwargs):
        idx = self.tracer.begin(self.layer + ".finalize")
        try:
            return self.inner.finalize(*args, **kwargs)
        finally:
            self.tracer.end(idx)

    def _watch(self, args):
        sample = args[1]
        x = np.asarray(sample[0], dtype=float)
        if self.shared is None:
            self.shared = next(a for a in args if isinstance(a, SharedRandomness))
            with self.tracer.span("algorithms.projection"):
                self.inner.projection_for(x.shape[0], self.shared)
        self.vectors.append(x)

    def replay_matvec(self):
        """Time `basis @ x` over the streamed vectors; returns (seconds, steps)."""
        if not self.vectors:
            return 0.0, 0
        basis = self.inner.projection_for(self.vectors[0].shape[0], self.shared).basis
        start = _now()
        for x in self.vectors:
            basis @ x
        return _now() - start, len(self.vectors)
