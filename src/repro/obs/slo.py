"""Declarative service-level-objective gate (``repro obs slo``).

An SLO spec is a small TOML or JSON document of rules, each pinning one
scalar derived from a telemetry source to a threshold::

    schema = "repro.obs/slo@1"

    [[rules]]
    name = "p99 FCT"
    metric = "flows:concentrator.p99"
    op = "<="
    threshold = 600.0

Sources are either a replayed ``repro.obs/journal@1`` journal (its
counters / gauges / series / spans) or the JSON documents the flows CLI
writes (``repro flows run --format json`` /
``repro flows compare --format json``).  The metric selector grammar:

``counter:KEY``
    Final counter total (exact key, labels included).
``gauge:KEY``
    Last gauge value.
``ratio:K1/K2``
    Counter ``K1`` divided by counter ``K2`` (0/0 resolves to 0).
``series_max:KEY`` / ``series_last:KEY`` / ``series_mean:KEY``
    Aggregates over a journaled timeseries' retained points.
``worker_idle_pct``
    The *worst* worker's idle share of the dispatch window, percent
    (0 when the run had no workers — nothing was idle).
``flows:FABRIC.FIELD``
    Field of one fabric's result in a flows run/compare document
    (``p99``, ``loss_rate``, ``delivered_cells``, ...).

Evaluation is pure (:func:`evaluate_slo` returns verdicts); the CLI
turns failed verdicts into a :class:`~repro.errors.ConcentrationError`
so the process exits 1, or exits 0 under ``--warn-only`` — the CI
smoke wiring starts warn-only until the thresholds have soaked.

TOML parsing uses :mod:`tomllib` (Python >= 3.11); on older runtimes
write the spec as JSON — the loader degrades with a clear error, never
an ImportError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro._util.persisted import load_document
from repro.errors import ConfigurationError

SLO_SCHEMA = "repro.obs/slo@1"

_OPS = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    ">": lambda value, threshold: value > threshold,
}


@dataclass(frozen=True)
class SloRule:
    """One objective: ``metric op threshold``.

    ``default`` substitutes for an *absent* metric instead of failing
    the rule.  The journal sink only emits counters that ever moved, so
    "this counter stayed at zero" — the shape of every
    nothing-went-wrong objective, e.g. ``engine.shard_retries`` on a
    clean run — looks like a missing metric; ``default = 0`` states
    that absence is the passing value.  A present-but-NaN value still
    fails: defaults cover absence, never corruption.
    """

    name: str
    metric: str
    op: str
    threshold: float
    default: float | None = None

    def check(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


@dataclass(frozen=True)
class SloVerdict:
    """The outcome of one rule against one source."""

    rule: SloRule
    value: float | None
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.rule.name,
            "metric": self.rule.metric,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "value": self.value,
            "ok": self.ok,
            "detail": self.detail,
        }


def load_slo_spec(path: str | Path) -> list[SloRule]:
    """Load and validate a spec file (``.toml`` or ``.json``)."""
    target = Path(path)
    if target.suffix.lower() == ".json":
        parse = json.loads
    else:
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            raise ConfigurationError(
                f"{target} is TOML but this Python has no tomllib "
                "(>= 3.11); write the spec as JSON instead"
            ) from None
        parse = tomllib.loads
    document = load_document(target, what="SLO spec", parse=parse)
    return parse_slo_spec(document, source=str(target))


def parse_slo_spec(document: dict, *, source: str = "<spec>") -> list[SloRule]:
    schema = document.get("schema")
    if schema != SLO_SCHEMA:
        raise ConfigurationError(
            f"{source}: expected schema {SLO_SCHEMA!r}, got {schema!r}"
        )
    raw_rules = document.get("rules")
    if not isinstance(raw_rules, list) or not raw_rules:
        raise ConfigurationError(f"{source}: spec has no rules")
    rules = []
    for index, raw in enumerate(raw_rules):
        try:
            op = str(raw["op"])
            if op not in _OPS:
                raise ConfigurationError(
                    f"{source}: rule {index}: unknown op {op!r} "
                    f"(use one of {sorted(_OPS)})"
                )
            default = raw.get("default")
            rules.append(
                SloRule(
                    name=str(raw.get("name") or raw["metric"]),
                    metric=str(raw["metric"]),
                    op=op,
                    threshold=float(raw["threshold"]),
                    default=float(default) if default is not None else None,
                )
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"{source}: rule {index} is missing {exc}"
            ) from None
    return rules


# -- metric resolution ---------------------------------------------------
def _series_points(source: dict, key: str) -> list[float] | None:
    series = source.get("series", {}).get(key)
    if series is None:
        return None
    return [float(v) for _, v in series.get("points", [])]


def _flows_field(source: dict, selector: str) -> float | None:
    fabric, _, field = selector.partition(".")
    if not field:
        return None
    fabrics = source.get("fabrics")
    if fabrics is None:
        # A flows-run document: one result, addressable by its fabric
        # name or the generic "result".
        result = source.get("result")
        if result is None:
            return None
        if fabric not in ("result", str(result.get("fabric"))):
            return None
        value = result.get(field)
    else:
        value = (fabrics.get(fabric) or {}).get(field)
    return float(value) if value is not None else None


def _worker_idle_pct(source: dict) -> float:
    from repro.obs.perf.analyze import worker_rows

    rows = worker_rows(source.get("spans", {}).get("events", []))
    shares = [row["of_window"] for row in rows if row["of_window"] is not None]
    if not shares:
        return 0.0
    return max(0.0, (1.0 - min(shares)) * 100.0)


def resolve_metric(selector: str, source: dict) -> tuple[float | None, str]:
    """Resolve one selector against a source dict; returns
    ``(value, detail)`` with ``value=None`` when the metric is absent
    (which fails the rule — a missing objective is a violated one)."""
    kind, _, rest = selector.partition(":")
    if kind == "counter":
        value = source.get("counters", {}).get(rest)
        return (float(value), "") if value is not None else (None, "no such counter")
    if kind == "gauge":
        value = source.get("gauges", {}).get(rest)
        return (float(value), "") if value is not None else (None, "no such gauge")
    if kind == "ratio":
        numerator, _, denominator = rest.partition("/")
        counters = source.get("counters", {})
        if numerator not in counters or denominator not in counters:
            return None, "ratio needs both counters"
        denom = float(counters[denominator])
        if denom == 0.0:
            return (0.0, "0/0") if float(counters[numerator]) == 0.0 else (
                None,
                "division by zero",
            )
        return float(counters[numerator]) / denom, ""
    if kind in ("series_max", "series_last", "series_mean"):
        points = _series_points(source, rest)
        if not points:
            return None, "no such series (or empty)"
        if kind == "series_max":
            return max(points), ""
        if kind == "series_last":
            return points[-1], ""
        return sum(points) / len(points), ""
    if selector == "worker_idle_pct":
        return _worker_idle_pct(source), ""
    if kind == "flows":
        value = _flows_field(source, rest)
        return (value, "") if value is not None else (None, "no such flows field")
    return None, f"unknown selector kind {kind!r}"


def evaluate_slo(rules: list[SloRule], source: dict) -> list[SloVerdict]:
    """Check every rule; NaN values and missing metrics fail."""
    verdicts = []
    for rule in rules:
        value, detail = resolve_metric(rule.metric, source)
        if value is None and rule.default is not None:
            value, detail = rule.default, "defaulted (metric absent)"
        if value is None:
            verdicts.append(SloVerdict(rule, None, False, detail or "missing"))
        elif value != value:  # NaN — e.g. FCT percentiles with no completions
            verdicts.append(SloVerdict(rule, value, False, "value is NaN"))
        else:
            verdicts.append(SloVerdict(rule, value, rule.check(value), detail))
    return verdicts


def violations(verdicts: list[SloVerdict]) -> list[SloVerdict]:
    return [v for v in verdicts if not v.ok]


def slo_rows(verdicts: list[SloVerdict]) -> list[dict]:
    """Human-facing verdict rows for the CLI table."""
    rows = []
    for verdict in verdicts:
        value = verdict.value
        rows.append(
            {
                "objective": verdict.rule.name,
                "metric": verdict.rule.metric,
                "want": f"{verdict.rule.op} {verdict.rule.threshold:g}",
                "got": f"{value:g}" if value is not None else "-",
                "verdict": "ok" if verdict.ok else "FAIL",
                "detail": verdict.detail,
            }
        )
    return rows
