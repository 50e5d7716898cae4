"""Process-wide, swappable metric registry.

The library's instrumentation hooks all funnel through the module-level
accessors here::

    from repro import obs

    obs.counter("sim.delivered").inc(12)
    with obs.span("sim.round", round=3):
        ...

By default the installed registry is a :class:`NullRegistry`: every
accessor returns a shared do-nothing object and spans are a reused
no-op context manager, so an uninstrumented run pays a few attribute
lookups per hook and nothing else — simulation results are identical
with observability on or off (the hooks never touch RNG state or data
paths).

To collect, install a real :class:`Registry` — either explicitly
(:func:`install` / :func:`uninstall`) or scoped with
:func:`collecting`::

    with obs.collecting() as reg:
        SwitchSimulation(switch, traffic).run(rounds=50)
    print(reg.snapshot()["counters"]["sim.delivered"])
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Callable, ContextManager, Hashable, Iterator

from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    NullCounter,
    NullGauge,
    NullHistogram,
)
from repro.obs.timeseries import NULL_SERIES, NullSeries, Series
from repro.obs.tracing import Tracer


def metric_key(name: str, labels: dict[str, object]) -> str:
    """Flatten a metric name plus labels into one stable key:
    ``name{k=v,...}`` with label keys sorted."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`metric_key`: ``"name{a=1,b=2}"`` back into
    ``("name", {"a": "1", "b": "2"})``.  Label *values* produced by the
    library never contain ``,`` or ``=``, which keeps this exact."""
    name, brace, rest = key.partition("{")
    if not brace:
        return key, {}
    labels: dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


def _with_worker(key: str, worker: str) -> str:
    """Re-flatten ``key`` with a ``worker`` provenance label added."""
    name, labels = split_metric_key(key)
    labels["worker"] = worker
    return metric_key(name, labels)


class Registry:
    """Holds every live metric plus the span tracer for one collection
    scope."""

    enabled = True

    def __init__(
        self,
        max_trace_events: int = 10_000,
        clock: Callable[[], float] = perf_counter,
    ):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, Series] = {}
        #: Metric handles a hot path resolved once on this registry,
        #: keyed by that caller (``metric_key`` sorts and joins labels
        #: on every lookup); cleared with the metrics by :meth:`reset`.
        self.handles: dict[Hashable, object] = {}
        self.clock = clock
        self.tracer = Tracer(max_events=max_trace_events, clock=clock)

    # -- metric accessors (create on first use) -------------------------
    def counter(self, name: str, /, **labels: object) -> Counter:
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(key)
        return metric

    def gauge(self, name: str, /, **labels: object) -> Gauge:
        key = metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(key)
        return metric

    def histogram(self, name: str, /, **labels: object) -> Histogram:
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(key)
        return metric

    def series(self, name: str, /, **labels: object) -> Series:
        """Bounded per-cycle timeseries (see
        :mod:`repro.obs.timeseries`)."""
        key = metric_key(name, labels)
        metric = self._series.get(key)
        if metric is None:
            metric = self._series[key] = Series(key)
        return metric

    # -- tracing --------------------------------------------------------
    @contextmanager
    def span(self, name: str, /, **meta: object) -> Iterator[None]:
        """Timed, nested span; the duration also lands in the
        ``<name>.seconds`` histogram."""
        with self.tracer.span(name, **meta):
            start = self.clock()
            try:
                yield
            finally:
                self.histogram(f"{name}.seconds").observe(self.clock() - start)

    # -- cross-worker aggregation ---------------------------------------
    def merge_snapshot(self, snapshot: dict, *, worker: str | None = None) -> None:
        """Fold another registry's :meth:`snapshot` into this one — the
        aggregation protocol worker threads/processes use to report
        back to a parent (see :mod:`repro.obs.live.merge`).

        Counters and histograms merge into their *original* keys, so
        the parent's totals are global (replaying a journal reproduces
        them exactly no matter where the increments happened).  Gauges
        are last-write-wins and meaningless summed, so each worker's
        gauges keep a ``worker=<label>`` provenance label; spans get
        ``worker`` added to their meta.  Every merge also increments
        ``obs.workers_merged{worker=...}`` so provenance survives in
        the metric namespace itself.
        """
        for key, value in snapshot.get("counters", {}).items():
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(key)
            metric.inc(float(value))
        for key, value in snapshot.get("gauges", {}).items():
            target = _with_worker(key, worker) if worker is not None else key
            gauge = self._gauges.get(target)
            if gauge is None:
                gauge = self._gauges[target] = Gauge(target)
            gauge.set(float(value))
        for key, hist_dict in snapshot.get("histograms", {}).items():
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(key)
            hist.merge_dict(hist_dict)
        for key, series_dict in snapshot.get("series", {}).items():
            # A worker's timeline is a per-worker fact (like a gauge):
            # rekey with provenance, never interleave into the parent's.
            target = _with_worker(key, worker) if worker is not None else key
            self._series[target] = Series.from_dict(target, series_dict)
        spans = snapshot.get("spans", {})
        self.tracer.absorb(
            spans.get("events", []), spans.get("dropped", 0), worker=worker
        )
        if worker is not None:
            self.counter("obs.workers_merged", worker=worker).inc()

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        self.handles.clear()
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._series.clear()
        self.tracer.reset()

    def snapshot(self) -> dict:
        """One JSON-serialisable dict of everything collected so far."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.as_dict() for k, h in sorted(self._histograms.items())
            },
            "series": {
                k: s.as_dict() for k, s in sorted(self._series.items())
            },
            "spans": self.tracer.as_dict(),
        }


class NullRegistry:
    """Do-nothing stand-in installed by default.

    Hands out shared null metrics and a reused no-op context manager,
    so disabled instrumentation costs one method call per hook.
    """

    enabled = False

    def counter(self, name: str, /, **labels: object) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, /, **labels: object) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, /, **labels: object) -> NullHistogram:
        return NULL_HISTOGRAM

    def series(self, name: str, /, **labels: object) -> NullSeries:
        return NULL_SERIES

    def span(self, name: str, /, **meta: object) -> ContextManager[None]:
        return nullcontext()

    def reset(self) -> None:
        pass

    def snapshot(self) -> dict:
        return {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "series": {},
            "spans": {"events": [], "dropped": 0},
        }


NULL_REGISTRY = NullRegistry()
_active: Registry | NullRegistry = NULL_REGISTRY

#: Per-thread registry overrides (a stack, so `using` nests).  Worker
#: threads route their instrumentation into a private registry without
#: disturbing the process-wide one — and without sharing the parent
#: tracer's span *stack* across threads, which would interleave
#: unrelated spans into bogus parent/child paths.
_tls = threading.local()


def _current() -> Registry | NullRegistry:
    override = getattr(_tls, "stack", None)
    if override:
        return override[-1]
    return _active


def get_registry() -> Registry | NullRegistry:
    """The currently active registry: this thread's `using` override
    if one is set, else the process-wide installed one (the null
    registry by default)."""
    return _current()


def install(registry: Registry | NullRegistry) -> Registry | NullRegistry:
    """Install ``registry`` process-wide; returns the previous one so
    callers can restore it."""
    global _active
    previous = _active
    _active = registry
    return previous


def uninstall() -> Registry | NullRegistry:
    """Re-install the null registry; returns whatever was active."""
    return install(NULL_REGISTRY)


@contextmanager
def collecting(registry: Registry | None = None) -> Iterator[Registry]:
    """Scope with a live registry installed; restores the previous
    registry (usually the null one) on exit."""
    reg = registry if registry is not None else Registry()
    previous = install(reg)
    try:
        yield reg
    finally:
        install(previous)


@contextmanager
def using(registry: Registry | NullRegistry) -> Iterator[Registry | NullRegistry]:
    """Route *this thread's* instrumentation into ``registry`` for the
    scope — the worker-side half of the cross-process aggregation
    protocol.  Unlike :func:`install`/:func:`collecting`, other
    threads are unaffected; the worker's registry is merged back into
    the parent with :meth:`Registry.merge_snapshot` afterwards."""
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(registry)
    try:
        yield registry
    finally:
        stack.pop()


def enabled() -> bool:
    """Whether a live (non-null) registry is active on this thread."""
    return _current().enabled


# -- hook-side conveniences: obs.counter(...) etc. ----------------------
def counter(name: str, /, **labels: object):
    return _current().counter(name, **labels)


def gauge(name: str, /, **labels: object):
    return _current().gauge(name, **labels)


def histogram(name: str, /, **labels: object):
    return _current().histogram(name, **labels)


def series(name: str, /, **labels: object):
    return _current().series(name, **labels)


def span(name: str, /, **meta: object) -> ContextManager[None]:
    return _current().span(name, **meta)
