"""repro.obs — unified tracing and metrics.

One process-wide, swappable :class:`Registry` of counters, gauges, and
magnitude-bucket histograms; span-based structured tracing with nested
``perf_counter`` timers; and a Markdown exporter that plugs into
:class:`repro.analysis.reporting.ReportBuilder`.

Disabled by default: the installed registry is a no-op
:class:`NullRegistry`, so instrumented library code runs unchanged and
produces byte-identical simulation results.  Enable collection with::

    from repro import obs

    with obs.collecting() as reg:
        summary = SwitchSimulation(switch, traffic).run(rounds=100)
    print(obs.metrics_markdown(reg.snapshot()))

A command's telemetry persists as one event journal (``--journal``,
:mod:`repro.obs.live`); ``repro obs export --journal`` replays it to
the same snapshot as JSON.

See ``docs/observability.md`` for the metric catalog and span
taxonomy, or run ``python -m repro obs``.
"""

from repro.obs.catalog import CATALOG, MetricInfo, catalog_rows, metric_names
from repro.obs.export import metrics_markdown
from repro.obs.metrics import Counter, Gauge, Histogram, bucket_key
from repro.obs.registry import (
    NULL_REGISTRY,
    NullRegistry,
    Registry,
    collecting,
    counter,
    enabled,
    gauge,
    get_registry,
    histogram,
    install,
    metric_key,
    series,
    span,
    split_metric_key,
    uninstall,
    using,
)
from repro.obs.runmeta import environment, git_dirty, git_sha, run_metadata
from repro.obs.timeseries import NullSeries, Series
from repro.obs.tracectx import TraceContext, child_context, new_trace_id
from repro.obs.tracing import SpanRecord, Tracer

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricInfo",
    "NULL_REGISTRY",
    "NullRegistry",
    "NullSeries",
    "Registry",
    "Series",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "bucket_key",
    "catalog_rows",
    "child_context",
    "collecting",
    "counter",
    "enabled",
    "environment",
    "gauge",
    "get_registry",
    "git_dirty",
    "git_sha",
    "histogram",
    "install",
    "metric_key",
    "metric_names",
    "metrics_markdown",
    "new_trace_id",
    "run_metadata",
    "series",
    "span",
    "split_metric_key",
    "uninstall",
    "using",
]
