"""In-memory spans and counters for the traced benchmark run.

Two kinds of span share one stack:

* boundary spans, opened by the benchmark around its own calls into the
  public functions of ``flow``, ``sections``, ``analysis`` and ``reporting``;
  each one is kept as a record (id, parent, name, start, end);
* hot spans, opened by the counting proxies around every profile and metric
  evaluation.  There are millions of those per pass, so they are aggregated in
  place (calls, total and self time) instead of being stored one by one.

A span's self time is its duration minus the time covered by its child spans.
``NullTracer`` has the same call surface and does nothing, so untraced passes
run the library with no wrapper in the hot path.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class NullTracer:
    """Untraced passes: call straight through, count nothing."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1):
        pass

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    """Spans and counters of one traced pass, kept in memory until the end."""

    enabled = True

    def __init__(self):
        self.clock = time.perf_counter
        self.reset()

    def reset(self):
        """Start a new pass; proxies keep pointing at this same tracer."""
        self.stack: list[list[float]] = []  # open spans: [child_time]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.records: list[tuple[int, int, str, float, float]] = []
        self._open_ids: list[int] = []

    def count(self, name, amount=1):
        self.counters[name] += amount

    def _close(self, name, frame, t0):
        dt = self.clock() - t0
        self.stack.pop()
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - frame[0]
        if self.stack:
            self.stack[-1][0] += dt
        return t0 + dt

    def hot(self, name, fn, *args):
        """Aggregated span around one evaluation (proxy fast path)."""
        frame = [0.0]
        self.stack.append(frame)
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            self._close(name, frame, t0)

    @contextmanager
    def span(self, name):
        """Recorded boundary span."""
        span_id = len(self.records)
        parent = self._open_ids[-1] if self._open_ids else -1
        self.records.append((span_id, parent, name, 0.0, 0.0))
        self._open_ids.append(span_id)
        frame = [0.0]
        self.stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            end = self._close(name, frame, t0)
            self._open_ids.pop()
            self.records[span_id] = (span_id, parent, name, t0, end)

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counters": dict(self.counters),
        }


class ProfileProxy:
    """Counts and times f/fp (vector) and f_fp_scalar (scalar) evaluations."""

    def __init__(self, profile, tracer: Tracer):
        self._profile = profile
        self._tracer = tracer
        period = getattr(profile, "period", None)
        eps = getattr(profile, "eps_splice", None)
        # the splice bridge is |x2 mod L| > L/2 - eps (SplicedTorusProfile)
        self._bridge = (period, period / 2.0 - eps) if period and eps else None

    def __getattr__(self, name):
        return getattr(self._profile, name)

    def f(self, x2):
        self._tracer.counters["profiles.vector_points"] += np.size(x2)
        return self._tracer.hot("profiles.vector", self._profile.f, x2)

    def fp(self, x2):
        self._tracer.counters["profiles.vector_points"] += np.size(x2)
        return self._tracer.hot("profiles.vector", self._profile.fp, x2)

    def f_fp_scalar(self, x2):
        if self._bridge is not None:
            period, zone = self._bridge
            if abs(x2 - period * round(x2 / period)) > zone:
                self._tracer.counters["profiles.bridge_calls"] += 1
        return self._tracer.hot("profiles.scalar", self._profile.f_fp_scalar, x2)


class MetricProxy:
    """Counts and times value, gradient and scalar-RHS calls of a dual metric.

    The library reaches a metric's profile only through ``getattr(H, "inner")``
    and ``getattr(H, "profile")``, which fall through to the wrapped object.
    """

    def __init__(self, metric, tracer: Tracer):
        self._metric = metric
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._metric, name)

    def value(self, y):
        return self._tracer.hot("metrics.value", self._metric.value, y)

    def _grad(self, fn, y):
        self._tracer.counters["metrics.grad_rows"] += int(np.prod(np.shape(y)[:-1], dtype=int))
        return self._tracer.hot("metrics.grad", fn, y)

    def grad_x(self, y):
        return self._grad(self._metric.grad_x, y)

    def grad_xi(self, y):
        return self._grad(self._metric.grad_xi, y)

    def scalar_rhs(self):
        rhs = self._metric.scalar_rhs()
        hot = self._tracer.hot

        def traced_rhs(t, y):
            return hot("metrics.rhs", rhs, t, y)

        return traced_rhs
