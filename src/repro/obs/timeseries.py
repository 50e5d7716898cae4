"""Bounded per-cycle timeseries with deterministic decimation.

End-of-run totals say *what* a run delivered; a timeseries says *when*
it degraded — the per-cycle queue-depth, in-flight, cwnd, and rate
curves the flows study needs to explain knockout-style loss dynamics
between cycle 0 and the summary line.

A :class:`Series` holds at most ``budget`` points.  Appends are
sampled with a power-of-two ``stride``: every ``stride``-th raw sample
is kept, and whenever the buffer reaches the budget it drops every
other stored point and doubles the stride.  The retained point set is
therefore a *pure function of the append sequence* — no wall clock, no
randomness — so journaled series replay byte-identically and same-seed
runs produce the same curves at any run length.  A series that saw
``count`` raw samples with budget *B* keeps between *B/2* and *B*
points spread evenly across the whole run (the classic halving
reservoir, not a tail window).

Registries hand these out next to counters/gauges/histograms
(``obs.series("flows.queue_depth", fabric=...)``); the journal sink
flushes them as ``series`` frames (last write wins on replay) and the
merge protocol rekeys worker series with ``{worker=...}`` provenance,
like gauges — a worker's timeline is a per-worker fact, meaningless
summed.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Default point budget per series: enough for a readable sparkline and
#: a max/mean SLO check, small enough that a hundred series stay cheap
#: in the journal.
DEFAULT_BUDGET = 256


class Series:
    """One bounded, decimating timeseries."""

    __slots__ = ("key", "budget", "stride", "count", "points")

    def __init__(self, key: str, budget: int = DEFAULT_BUDGET):
        if budget < 2:
            raise ConfigurationError("series budget must be >= 2")
        self.key = key
        self.budget = int(budget)
        self.stride = 1
        self.count = 0  # raw samples offered, including decimated ones
        self.points: list[tuple[float, float]] = []

    def append(self, value: float, t: float | None = None) -> None:
        """Offer one sample; ``t`` defaults to the raw sample index so
        callers without a natural time axis still get a monotone one."""
        if t is None:
            t = float(self.count)
        if self.count % self.stride == 0:
            self.points.append((float(t), float(value)))
            if len(self.points) >= self.budget:
                # Halve deterministically: keep every other point from
                # the start, double the sampling stride going forward.
                del self.points[1::2]
                self.stride *= 2
        self.count += 1

    def due(self) -> bool:
        """Whether the next :meth:`append` keeps its sample; a caller
        whose value is costly computes it only then (a decimated
        sample's value is never read)."""
        return self.count % self.stride == 0

    @property
    def last(self) -> float | None:
        return self.points[-1][1] if self.points else None

    @property
    def max(self) -> float | None:
        return max(v for _, v in self.points) if self.points else None

    @property
    def mean(self) -> float | None:
        if not self.points:
            return None
        return sum(v for _, v in self.points) / len(self.points)

    def values(self) -> list[float]:
        return [v for _, v in self.points]

    def as_dict(self) -> dict:
        """JSON-shaped form (what journal ``series`` frames and
        portable worker snapshots carry)."""
        return {
            "budget": self.budget,
            "stride": self.stride,
            "count": self.count,
            "points": [[t, v] for t, v in self.points],
        }

    @classmethod
    def from_dict(cls, key: str, document: dict) -> "Series":
        series = cls(key, budget=int(document.get("budget", DEFAULT_BUDGET)))
        series.stride = int(document.get("stride", 1))
        series.count = int(document.get("count", 0))
        series.points = [
            (float(t), float(v)) for t, v in document.get("points", [])
        ]
        return series


class NullSeries:
    """Do-nothing stand-in the :class:`~repro.obs.registry.NullRegistry`
    hands out — instrumented code appends unconditionally and pays one
    method call when collection is off."""

    __slots__ = ()

    def append(self, value: float, t: float | None = None) -> None:
        pass

    def due(self) -> bool:
        return False


NULL_SERIES = NullSeries()
