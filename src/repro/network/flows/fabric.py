"""Pluggable fabric stages for the event-driven flow simulator.

A fabric stage is the thing cells contend against once per cycle.  The
simulator offers at most one cell per ingress port, as two per-port
arrays: the flow id of the port's cell and its destination, both −1
for an idle port.  :meth:`FabricStage.step` answers with an ``int8``
fate per port —

* **DELIVERED** — the cell won a path and leaves the fabric;
* **REJECTED** — the cell lost the contention (a real loss: the
  congestion model decides whether to retransmit it);
* **FAULTED** — rejected because a flaky input pin garbled it: the
  same loss, charged to hardware rather than contention;
* **BLOCKED** — the fabric could not even consider the cell this cycle
  (a rotor waiting for its slot); blocked cells re-queue for a later
  cycle with no congestion penalty, because nothing was dropped;
* **ABSORBED** — the fabric holds the cell (the knockout model's output
  FIFOs) and delivers it in a later cycle;

and ``IDLE`` on ports that offered nothing.  An absorbed cell later
*surfaces*: ``step`` also returns the flow ids of the cells that left
the stage's buffers this cycle, and :meth:`FabricStage.in_flight`
counts the cells still held, so flow conservation can be checked at
any instant.

Four stages cover the head-to-head study:

* :class:`ConcentratorFabric` — the paper's subject: an n-to-m
  concentrator switch from the registry guards the uplinks.  Routing
  goes through the engine's batched setup path (one row per cycle, the
  compiled plan amortized across cycles), and a
  :class:`repro.faults.FaultScenario` applies through the hook the
  round-synchronous simulator uses,
  :func:`repro.faults.injector.apply_scenario`.
* :class:`KnockoutFabric` — a knockout-style output-buffered stage:
  cells bound for the same egress contend through an n-to-L
  concentrator (the knockout principle), winners enter a bounded FIFO
  drained one cell per cycle (:class:`repro.network.knockout.KnockoutSwitch`
  is its packet interface).
* :class:`FatTreeFabric` — the binary fat-tree up-path of
  :mod:`repro.network.fattree`, survivors per cycle via
  :meth:`~repro.network.fattree.FatTree.ascend`.
* :class:`RotorFabric` — a rotor/optical round-robin partition
  baseline: each cycle port i is wired to one destination; a cell
  whose destination is not currently wired waits (blocked), one whose
  slot is up always delivers.  No contention, no loss — the cost is
  latency.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.network.fattree import FatTree, universal_capacity
from repro.switches.base import ConcentratorSwitch
from repro.switches.perfect import PerfectConcentrator
from repro.switches.registry import build_switch

#: Per-port fates returned by :meth:`FabricStage.step`.
IDLE, DELIVERED, REJECTED, FAULTED, BLOCKED, ABSORBED = range(6)


def _fates(occupied: np.ndarray, won: np.ndarray, lost: int) -> np.ndarray:
    """``DELIVERED`` where an occupied port ``won``, ``lost`` where it
    did not, ``IDLE`` (0) elsewhere."""
    fate = occupied.view(np.int8) * np.int8(lost)
    fate[won & occupied] = DELIVERED
    return fate


class FabricStage(ABC):
    """Abstract fabric stage: ``n`` ingress ports, one cycle at a time."""

    #: Subclasses set these in ``__init__``.
    name: str
    n: int

    @abstractmethod
    def step(
        self, flow: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, list[int]]:
        """Advance one cycle.  ``flow[i]``/``dst[i]`` are the flow id
        and destination of port i's cell (−1 for an idle port).
        Returns the ``int8`` fate of every port and the flow ids of the
        cells that surfaced from the stage's buffers."""

    def in_flight(self) -> int:
        """Cells buffered inside the stage (0 for bufferless stages)."""
        return 0

    def wiring(self) -> list[int] | None:
        """The destination each port is wired to *this* cycle, or None
        when every destination at least contends.

        A VOQ-style scheduling hint: the ingress port skips flows the
        fabric would only block (a rotor whose slot is elsewhere) and
        gives the cycle to one it might serve.  A port may always send
        to itself.
        """
        return None

    def describe(self) -> dict:
        return {"name": self.name, "n": self.n}

    def _check(self, flow: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Validate one cycle's per-port arrays; return the mask of
        occupied ports."""
        if flow.shape != (self.n,) or dst.shape != (self.n,):
            raise ConfigurationError(
                f"{self.name}: expected {self.n} ingress slots, got "
                f"flow {flow.shape} and dst {dst.shape}"
            )
        occupied = flow >= 0
        bad = (occupied != (dst >= 0)) | (dst >= self.n)
        if bad.any():
            i = int(bad.argmax())
            raise ConfigurationError(
                f"{self.name}: slot {i} holds flow {int(flow[i])} with "
                f"bad destination {int(dst[i])}"
            )
        return occupied


class ConcentratorFabric(FabricStage):
    """An uplink stage guarded by one of the paper's concentrators.

    Cells contend for the switch's m output channels; winners exit the
    fabric (descent is modelled lossless, as in the fat-tree).  Routing
    uses :meth:`~repro.switches.base.ConcentratorSwitch.setup_batch`
    with one row per cycle so the compiled plan and the engine backend
    are exercised exactly as the benchmarks exercise them.
    """

    def __init__(self, switch: ConcentratorSwitch, *, scenario=None,
                 remap_outputs: bool = False):
        self.name = "concentrator"
        self.n = switch.n
        self.switch, self._flaky = switch, None
        if scenario is not None:
            # Imported lazily: repro.faults imports network modules for
            # its resilience measurements.
            from repro.faults.injector import apply_scenario

            self.switch, self._flaky = apply_scenario(switch, scenario, remap_outputs)

    def describe(self) -> dict:
        out = super().describe()
        out["m"] = self.switch.m
        out["switch"] = type(self.switch).__name__
        return out

    def step(
        self, flow: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, list[int]]:
        occupied = self._check(flow, dst)
        effective, garbled = occupied, []
        if self._flaky is not None:
            effective, garbled = self._flaky.flip(occupied)
        routing = self.switch.setup_batch(effective[None, :])
        fate = _fates(occupied, routing.input_to_output[0] >= 0, REJECTED)
        if garbled:
            fate[garbled] = FAULTED
        return fate, []


class KnockoutFabric(FabricStage):
    """A knockout-style output-buffered stage.

    Per cycle, the cells bound for egress ``o`` contend through an
    n-to-L concentrator (L = ``lanes``, the knockout ratio); winners
    enter egress ``o``'s FIFO of depth ``fifo_depth``, losers and FIFO
    overflow are rejected.  Every non-empty FIFO then transmits one
    cell — those are the cycle's deliveries, so a cell's fabric latency
    is its queueing delay.  ``knocked_out`` and ``overflowed`` count
    the two kinds of rejection since construction.
    """

    def __init__(self, n: int, *, lanes: int = 4, fifo_depth: int = 16,
                 concentrator_factory=None):
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        if lanes < 1:
            raise ConfigurationError(f"lanes must be >= 1, got {lanes}")
        if fifo_depth < 1:
            raise ConfigurationError(f"fifo_depth must be >= 1, got {fifo_depth}")
        self.name = "knockout"
        self.n = n
        self.lanes = min(lanes, n)
        self.fifo_depth = fifo_depth
        factory = concentrator_factory or PerfectConcentrator
        self._picker = factory(n, self.lanes)
        if (self._picker.n, self._picker.m) != (n, self.lanes):
            raise ConfigurationError(
                f"concentrator_factory must build an {n}-to-{self.lanes} "
                f"switch (got {self._picker.n}-to-{self._picker.m})"
            )
        # Up to this many contenders the picker routes every one.
        self._capacity = self._picker.spec.guaranteed_capacity
        # Per-egress FIFOs of flow ids, their total length and the
        # egresses whose FIFO is not empty.
        self._fifos: list[deque[int]] = [deque() for _ in range(n)]
        self._held = 0
        self._busy: set[int] = set()
        self.knocked_out = 0
        self.overflowed = 0
        # (registry, its flows.fifo_depth series): resolved once per
        # collecting registry, not by key on every cycle.
        self._fifo_depth: tuple = (None, None)

    def describe(self) -> dict:
        out = super().describe()
        out["lanes"] = self.lanes
        out["fifo_depth"] = self.fifo_depth
        return out

    def in_flight(self) -> int:
        return self._held

    def queue_lengths(self) -> list[int]:
        return [len(fifo) for fifo in self._fifos]

    def drain(self) -> list[int]:
        """Empty every FIFO (end of a run); returns the flow ids held,
        egress by egress in FIFO order."""
        held = [fid for fifo in self._fifos for fid in fifo]
        for fifo in self._fifos:
            fifo.clear()
        self._held = 0
        self._busy.clear()
        return held

    def step(
        self, flow: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, list[int]]:
        occupied = self._check(flow, dst)
        won = occupied
        # Knock out: one picker row per egress with more contenders
        # than the picker guarantees to route, all in one batched setup.
        hot = np.flatnonzero(
            np.bincount(dst[occupied], minlength=self.n) > self._capacity
        )
        if hot.size:
            rows = dst == hot[:, None]
            io = self._picker.setup_batch(rows).input_to_output
            lost = (rows & (io < 0)).any(axis=0)
            won = occupied & ~lost
            self.knocked_out += int(np.count_nonzero(lost))
        fate = occupied.view(np.int8) * np.int8(REJECTED)
        fate[won] = ABSORBED
        # Winners queue in port order; a full FIFO bounces the arrival
        # before this cycle's drain frees a slot.
        fresh: dict[int, int] = {}  # egress -> port whose cell opened its FIFO
        bounced: list[int] = []
        fifos, busy, depth = self._fifos, self._busy, self.fifo_depth
        flow_ids, dsts = flow.tolist(), dst.tolist()
        queued = 0
        for port in won.nonzero()[0].tolist():
            egress = dsts[port]
            fifo = fifos[egress]
            if len(fifo) >= depth:
                bounced.append(port)
                continue
            if not fifo:
                fresh[egress] = port
                busy.add(egress)
            fifo.append(flow_ids[port])
            queued += 1
        if bounced:
            fate[bounced] = REJECTED
            self.overflowed += len(bounced)
        # Every non-empty FIFO transmits one cell, in egress order: this
        # cycle's own cell if it opened the FIFO, else one that surfaces.
        surfaced: list[int] = []
        self._held += queued - len(busy)
        for egress in sorted(busy):
            fifo = fifos[egress]
            fid = fifo.popleft()
            if not fifo:
                busy.discard(egress)
            if egress not in fresh:
                surfaced.append(fid)
        if fresh:
            fate[list(fresh.values())] = DELIVERED
        # The occupancy curve is the knockout story (winners queue,
        # losers knock out) — one sample per fabric cycle.
        reg = obs.get_registry()
        if reg.enabled:
            if self._fifo_depth[0] is not reg:
                self._fifo_depth = (
                    reg, reg.series("flows.fifo_depth", fabric=self.name)
                )
            self._fifo_depth[1].append(self._held)
        return fate, surfaced


class FatTreeFabric(FabricStage):
    """The binary fat-tree up-path as a fabric stage.

    Each cycle is one fat-tree round: ascent hops concentrate, losers
    are rejected, survivors are delivered (descent lossless).  The
    destination array is the round itself — one cell per leaf per
    cycle — and the survivor mask comes back indexed by port.
    """

    def __init__(self, n: int, *, capacity_profile=None,
                 concentrator_factory=None):
        if n < 2 or n & (n - 1):
            raise ConfigurationError(
                f"fat-tree fabric needs a power-of-two port count, got {n}"
            )
        self.name = "fattree"
        self.n = n
        height = n.bit_length() - 1
        self.tree = FatTree(
            height,
            capacity_profile or universal_capacity(height),
            concentrator_factory,
        )

    def describe(self) -> dict:
        out = super().describe()
        out["height"] = self.tree.height
        out["capacity"] = dict(self.tree.capacity)
        return out

    def step(
        self, flow: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, list[int]]:
        occupied = self._check(flow, dst)
        # _check made every check route_round_detailed would repeat.
        survivors, _ = self.tree.ascend(dst)
        return _fates(occupied, survivors, REJECTED), []


class RotorFabric(FabricStage):
    """A rotor/optical round-robin partition baseline.

    In slot s, port i is wired to destination ``(i + 1 + s) mod n``
    (the +1 skips the useless self-slot when the rotation passes it);
    a slot lasts ``slot_cycles`` cycles and the n − 1 slots repeat.  A
    cell whose destination is wired delivers; every other cell is
    blocked — it waits, loss-free, for its slot.  This is the one-hop
    rotor model: full fairness, zero loss, worst-case n−1 slots of
    latency.
    """

    def __init__(self, n: int, *, slot_cycles: int = 1):
        if n < 2:
            raise ConfigurationError(f"rotor fabric needs n >= 2, got {n}")
        if slot_cycles < 1:
            raise ConfigurationError(
                f"slot_cycles must be >= 1, got {slot_cycles}"
            )
        self.name = "rotor"
        self.n = n
        self.slot_cycles = slot_cycles
        self._cycle = 0
        self._ports = np.arange(n)
        self._slot = -1
        self._wired: tuple[np.ndarray, list[int]] = (self._ports, [])

    def describe(self) -> dict:
        out = super().describe()
        out["slot_cycles"] = self.slot_cycles
        return out

    def _matching(self) -> tuple[np.ndarray, list[int]]:
        """The current slot's wiring, as an array for :meth:`step` and
        a list for :meth:`wiring`; built once per slot."""
        slot = (self._cycle // self.slot_cycles) % (self.n - 1)
        if slot != self._slot:
            wired = (self._ports + 1 + slot) % self.n
            self._slot, self._wired = slot, (wired, wired.tolist())
        return self._wired

    def wiring(self) -> list[int]:
        return self._matching()[1]

    def step(
        self, flow: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, list[int]]:
        occupied = self._check(flow, dst)
        wired = self._matching()[0]
        self._cycle += 1
        # A cell's own port (dst == src) never needs the fabric.
        won = (dst == wired) | (dst == self._ports)
        return _fates(occupied, won, BLOCKED), []


def fabric_names() -> list[str]:
    return ["concentrator", "fattree", "knockout", "rotor"]


def build_fabric(
    name: str,
    n: int,
    *,
    design: str = "revsort",
    m: int | None = None,
    scenario=None,
    remap_outputs: bool = False,
    lanes: int = 4,
    fifo_depth: int = 16,
    slot_cycles: int = 1,
    **params,
) -> FabricStage:
    """Build a fabric stage by name.

    ``design``/``m``/``params`` configure the concentrator stage's
    registry switch (m defaults to 3n/4, the registry's usual shape);
    ``lanes``/``fifo_depth`` configure the knockout stage;
    ``slot_cycles`` the rotor's matching hold time; ``scenario``
    applies a fault scenario to the concentrator stage.
    """
    if name == "concentrator":
        m = m if m is not None else max(1, (3 * n) // 4)
        switch = build_switch(design, n=n, m=m, **params)
        return ConcentratorFabric(
            switch, scenario=scenario, remap_outputs=remap_outputs
        )
    if name == "knockout":
        return KnockoutFabric(n, lanes=lanes, fifo_depth=fifo_depth)
    if name == "fattree":
        return FatTreeFabric(n)
    if name == "rotor":
        return RotorFabric(n, slot_cycles=slot_cycles)
    raise ConfigurationError(
        f"unknown fabric {name!r}; available: {', '.join(fabric_names())}"
    )
