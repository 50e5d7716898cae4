"""Noise-aware regression detection over a bench trajectory.

``repro bench compare`` gates on **median-of-repeats**: each record
already carries the median wall time of its repeats, and the baseline
for a bench is the *median of the trailing window* of historical
medians — one noisy historical record cannot move the gate, and one
noisy candidate repeat cannot trip it.

A candidate regresses when its median exceeds the baseline by more
than the relative ``tolerance`` band::

    candidate > baseline * (1 + tolerance)   ->  regression
    candidate < baseline / (1 + tolerance)   ->  improvement
    otherwise                                ->  ok

Benches with no history produce ``no-baseline`` verdicts (they pass:
the first record of a new bench must be appendable), and an exact tie
is always ``ok`` — including the degenerate all-zero-wall case.

**Host normalisation.**  Records stamped with ``host_ref_s`` (the
reference-loop time of :mod:`repro.obs.perf.hostref`) are compared in
units of that loop: when the candidate and at least one earlier record
of its bench carry it, the baseline is the median of
``median_wall_s / host_ref_s`` over the trailing window of stamped
records, and the candidate's ratio is taken on the same scale.  The
reported ``baseline_wall_s`` is then that baseline at the candidate's
host speed.  Unstamped records keep the raw comparison.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Relative band within which a wall-time change is considered noise.
#: 0.5 tolerates the +-50% jitter of shared CI hosts while still
#: catching a 2x slowdown with margin.
DEFAULT_TOLERANCE = 0.5

#: How many trailing historical records form the baseline.
DEFAULT_WINDOW = 5

_STATUS_ORDER = {"regression": 0, "no-baseline": 1, "improvement": 2, "ok": 3}


@dataclass(frozen=True)
class Verdict:
    """The comparison outcome for one bench."""

    bench: str
    status: str  # "ok" | "regression" | "improvement" | "no-baseline"
    candidate_wall_s: float
    baseline_wall_s: float | None
    window: int  # historical records the baseline summarises
    ratio: float | None  # candidate / baseline (None without baseline)
    normalised: bool = False  # compared in host_ref_s units

    @property
    def regressed(self) -> bool:
        return self.status == "regression"

    @property
    def delta_pct(self) -> float | None:
        """Relative change vs the baseline, percent (+30.0 = 30%
        slower); None without a meaningful ratio."""
        if self.ratio is None:
            return None
        return (self.ratio - 1.0) * 100.0

    def as_dict(self) -> dict:
        return {
            "bench": self.bench,
            "status": self.status,
            "candidate_wall_s": self.candidate_wall_s,
            "baseline_wall_s": self.baseline_wall_s,
            "window": self.window,
            "ratio": self.ratio,
            "delta_pct": self.delta_pct,
            "normalised": self.normalised,
        }


def _judge(candidate: float, baseline: float, tolerance: float) -> tuple[str, float | None]:
    if candidate == baseline:  # exact tie, including 0 == 0
        return "ok", 1.0
    if baseline == 0.0:
        # A zero baseline with a nonzero candidate has no meaningful
        # ratio; any measurable time over an unmeasurable baseline is
        # flagged so clock-resolution bugs surface instead of hiding.
        return "regression", None
    ratio = candidate / baseline
    if ratio > 1.0 + tolerance:
        return "regression", ratio
    if ratio < 1.0 / (1.0 + tolerance):
        return "improvement", ratio
    return "ok", ratio


def compare_records(
    candidates: dict[str, dict],
    history: list[dict],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    window: int = DEFAULT_WINDOW,
) -> list[Verdict]:
    """Judge each candidate record against the trailing ``window`` of
    its bench's history.  ``candidates`` maps bench id to its newest
    record (see :func:`repro.obs.perf.trajectory.split_latest`);
    ``history`` is the baseline pool in append order."""
    if tolerance < 0:
        raise ConfigurationError("tolerance must be non-negative")
    if window < 1:
        raise ConfigurationError("window must be >= 1")
    verdicts: list[Verdict] = []
    for bench, record in sorted(candidates.items()):
        candidate_wall = float(record["median_wall_s"])
        prior = [r for r in history if r.get("bench") == bench]
        ref = _host_ref(record)
        stamped = [r for r in prior if _host_ref(r)]
        normalised = bool(ref and stamped)
        tail = (stamped if normalised else prior)[-window:]
        if not tail:
            verdicts.append(
                Verdict(bench, "no-baseline", candidate_wall, None, 0, None)
            )
            continue
        # Normalised, each historical wall is rescaled to the
        # candidate's host speed before taking the median.
        baseline_wall = statistics.median(
            float(r["median_wall_s"]) * (ref / _host_ref(r) if normalised else 1.0)
            for r in tail
        )
        status, ratio = _judge(candidate_wall, baseline_wall, tolerance)
        verdicts.append(
            Verdict(bench, status, candidate_wall, baseline_wall, len(tail),
                    ratio, normalised)
        )
    verdicts.sort(key=lambda v: (_STATUS_ORDER[v.status], v.bench))
    return verdicts


def _host_ref(record: dict) -> float | None:
    """A record's positive ``host_ref_s``, else None."""
    ref = record.get("host_ref_s")
    return float(ref) if isinstance(ref, (int, float)) and ref > 0 else None


def has_regressions(verdicts: list[Verdict]) -> bool:
    return any(v.regressed for v in verdicts)
