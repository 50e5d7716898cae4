"""Snapshot exporter: Markdown sections.

A *snapshot* is the plain dict produced by
:meth:`repro.obs.registry.Registry.snapshot` — five keys
(``counters``, ``gauges``, ``histograms``, ``series``, ``spans``)
holding only JSON-native values.  A command persists it as an event
journal (``--journal``); ``repro obs export --journal`` replays that
to the same snapshot as JSON.

:func:`metrics_markdown` renders a snapshot as GitHub-flavoured
Markdown tables; :meth:`repro.analysis.reporting.ReportBuilder
.add_metrics` splices that into a report document.
"""

from __future__ import annotations


def _fmt(value: float) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def metrics_markdown(snapshot: dict, *, max_span_events: int = 20) -> str:
    """Render a snapshot as Markdown tables (counters, gauges,
    histograms, then the slowest span events)."""
    parts: list[str] = []

    counters = snapshot.get("counters", {})
    if counters:
        parts.append("**Counters**\n")
        parts.append("| counter | value |")
        parts.append("|---|---|")
        parts.extend(f"| `{k}` | {_fmt(v)} |" for k, v in sorted(counters.items()))
        parts.append("")

    gauges = snapshot.get("gauges", {})
    if gauges:
        parts.append("**Gauges**\n")
        parts.append("| gauge | value |")
        parts.append("|---|---|")
        parts.extend(f"| `{k}` | {_fmt(v)} |" for k, v in sorted(gauges.items()))
        parts.append("")

    histograms = snapshot.get("histograms", {})
    if histograms:
        parts.append("**Histograms**\n")
        parts.append("| histogram | count | mean | min | max |")
        parts.append("|---|---|---|---|---|")
        for name, h in sorted(histograms.items()):
            parts.append(
                f"| `{name}` | {_fmt(h.get('count', 0))} | "
                f"{_fmt(h.get('mean', 0.0))} | {_fmt(h.get('min'))} | "
                f"{_fmt(h.get('max'))} |"
            )
        parts.append("")

    spans = snapshot.get("spans", {})
    events = spans.get("events", [])
    if events:
        slowest = sorted(events, key=lambda e: -e["duration_s"])[:max_span_events]
        parts.append(f"**Slowest spans** ({len(events)} recorded, "
                     f"{spans.get('dropped', 0)} dropped)\n")
        parts.append("| span | depth | duration (s) |")
        parts.append("|---|---|---|")
        parts.extend(
            f"| `{e['path']}` | {e['depth']} | {e['duration_s']:.6g} |"
            for e in slowest
        )
        parts.append("")

    if not parts:
        return "_(no metrics collected)_"
    return "\n".join(parts).strip()
