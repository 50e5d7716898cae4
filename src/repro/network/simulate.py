"""Round-based network simulations built around concentrator switches.

:class:`SwitchSimulation` drives a single switch with a traffic
generator under a congestion policy and measures delivered/lost/retried
messages per round.  This is the intro's "concentrate few messages on
many lines onto fewer output lines" setting; multi-level funnels of
switches live in :mod:`repro.network.funnel`.

:func:`compare_partial_vs_perfect` reproduces the Section 1 claim that
an ``(n/α, m/α, α)`` partial concentrator can stand in for an n-by-m
perfect concentrator: under any k ≤ m offered messages both route
everything; past m, both saturate at m.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro._util.rng import default_rng
from repro.errors import ConfigurationError
from repro.messages.congestion import CongestionPolicy, DropPolicy, place_backlog
from repro.messages.message import Message
from repro.switches.base import ConcentratorSwitch

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RoundResult:
    """Outcome of one simulated round.

    ``unrouted`` counts the messages the switch failed to deliver this
    round (routing failures, fault kills, and flaky-pin drops at the
    inputs); the congestion policy then splits them into ``lost``
    (permanently dropped) and ``retried`` (queued for a later round),
    so ``unrouted == lost + retried`` always holds.  ``faulted`` is
    the subset of ``unrouted`` killed at a flaky input pin before
    reaching the switch; ``expired`` is the subset of ``lost`` the
    policy aged out via its TTL.
    """

    round_index: int
    offered: int
    injected: int
    delivered: int
    unrouted: int
    lost: int = 0
    retried: int = 0
    faulted: int = 0
    expired: int = 0


@dataclass
class SimulationSummary:
    """Aggregate statistics over a run.

    The totals are accumulated round by round from the same numbers
    recorded in ``per_round``, so the two views (and the metrics the
    :mod:`repro.obs` layer collects) cannot disagree:
    ``lost == sum(r.lost)`` and ``retried == sum(r.retried)``.
    ``faulted``/``expired`` carry the graceful-degradation accounting
    (see :class:`RoundResult`).
    """

    rounds: int = 0
    offered: int = 0
    delivered: int = 0
    lost: int = 0
    retried: int = 0
    faulted: int = 0
    expired: int = 0
    per_round: list[RoundResult] = field(default_factory=list)

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction of offered traffic; 0.0 when nothing was
        offered (rounds=0 or an empty workload — an empty run delivered
        nothing, it did not deliver everything)."""
        return self.delivered / self.offered if self.offered else 0.0

    @property
    def loss_rate(self) -> float:
        return self.lost / self.offered if self.offered else 0.0


class SwitchSimulation:
    """Drive one switch with a traffic generator and congestion policy.

    Passing ``scenario`` injects a :class:`repro.faults.FaultScenario`:
    structural faults (stuck pins, dead chips, severed wires, dead
    outputs) wrap the switch in a
    :class:`~repro.faults.injector.FaultySwitch`, while the scenario's
    flaky pins flip per round with their own Bernoulli draws.  The flip
    stream is seeded by the scenario — not the policy or simulator seed
    — so two simulations differing only in congestion policy see the
    *same* fault history and their delivery rates are comparable.
    ``remap_outputs=True`` additionally routes around dead output pads
    using the spare output positions (plan-based switches only).
    """

    def __init__(
        self,
        switch: ConcentratorSwitch,
        traffic,
        policy: CongestionPolicy | None = None,
        seed: int | None = None,
        scenario=None,
        remap_outputs: bool = False,
    ):
        if traffic.n != switch.n:
            raise ConfigurationError(
                f"traffic width {traffic.n} != switch inputs {switch.n}"
            )
        self.switch, self._flaky = switch, None
        if scenario is not None:
            # Imported lazily: repro.faults imports the simulator for
            # its resilience measurements.
            from repro.faults.injector import apply_scenario

            self.switch, self._flaky = apply_scenario(switch, scenario, remap_outputs)
        self.traffic = traffic
        self.policy = policy if policy is not None else DropPolicy()
        self.rng = default_rng(seed)

    def run(self, rounds: int) -> SimulationSummary:
        summary = SimulationSummary()
        reg = obs.get_registry()
        with reg.span("sim.run", rounds=rounds, switch=repr(self.switch)):
            for round_index in range(rounds):
                with reg.span("sim.round", round=round_index):
                    self._run_round(round_index, summary, reg)
        logger.debug(
            "simulated %d rounds: offered=%d delivered=%d lost=%d retried=%d "
            "faulted=%d expired=%d",
            summary.rounds, summary.offered, summary.delivered,
            summary.lost, summary.retried, summary.faulted, summary.expired,
        )
        return summary

    def _run_round(
        self, round_index: int, summary: SimulationSummary, reg
    ) -> None:
        active, values = self.traffic.draw()
        valid = np.zeros(self.traffic.n, dtype=bool)
        valid[active] = True
        offered = int(valid.sum())
        self.policy.on_offered(offered)

        # Merge the policy's due backlog into idle input slots; the
        # slot map keeps each backlog message's identity.
        due = self.policy.backlog_due(round_index)
        slots, overflow = place_backlog(valid, due, self.rng)
        backlog = dict(zip(slots.tolist(), due))
        valid[slots] = True
        effective, real, garbled, ghosts = valid, valid, [], 0
        if self._flaky is not None:
            effective, garbled = self._flaky.flip(valid)
            real = valid.copy()
            real[garbled] = False
            ghosts = int((effective & ~valid).sum())
        routed = self.switch.setup(effective).input_to_output >= 0
        # Only real messages count: ghosts raised by flaky pins consume
        # switch capacity but deliver nothing.
        delivered = int((real & routed).sum())
        # A message is built only when the policy must hold it; a
        # backlog message keeps its identity (and its tag).
        payload = np.zeros(self.traffic.n, dtype=np.int64)
        if values is not None:
            payload[active] = values
        bits = self.traffic.payload_bits
        unrouted = [
            backlog.get(slot) or Message.from_int(int(payload[slot]), bits)
            for slot in np.flatnonzero(real & ~routed).tolist() + garbled
        ] + overflow

        self.policy.on_delivered(delivered)
        # The policy decides each unrouted message's fate; the deltas in
        # its counters are this round's losses, retries, and expiries.
        dropped_before = self.policy.stats.dropped
        retried_before = self.policy.stats.retried
        expired_before = self.policy.stats.expired
        self.policy.on_unrouted(unrouted, round_index)
        lost = self.policy.stats.dropped - dropped_before
        retried = self.policy.stats.retried - retried_before
        expired = self.policy.stats.expired - expired_before

        faulted = len(garbled)
        summary.rounds += 1
        summary.offered += offered
        summary.delivered += delivered
        summary.lost += lost
        summary.retried += retried
        summary.faulted += faulted
        summary.expired += expired
        summary.per_round.append(
            RoundResult(
                round_index=round_index,
                offered=offered,
                injected=int(real.sum()) + ghosts,
                delivered=delivered,
                unrouted=len(unrouted),
                lost=lost,
                retried=retried,
                faulted=faulted,
                expired=expired,
            )
        )
        if reg.enabled:
            reg.counter("sim.rounds").inc()
            reg.counter("sim.offered").inc(offered)
            reg.counter("sim.injected").inc(int(real.sum()) + ghosts)
            reg.counter("sim.delivered").inc(delivered)
            reg.counter("sim.lost").inc(lost)
            reg.counter("sim.retried").inc(retried)
            if faulted:
                reg.counter("sim.faulted").inc(faulted)
            if expired:
                reg.counter("sim.expired").inc(expired)


def _random_k_subsets(
    n: int, k: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """``(trials, n)`` bool matrix, each row a uniform random k-subset
    (vectorised: argsort of a uniform matrix gives random permutations)."""
    k = min(k, n)
    order = np.argsort(rng.random((trials, n)), axis=1)
    valid = np.zeros((trials, n), dtype=bool)
    valid[np.arange(trials)[:, None], order[:, :k]] = True
    return valid


def _compare_job(job: dict) -> float:
    """Body of one (switch, k) comparison item (inline or in a pool
    worker): the mean routed count over ``trials`` random k-subsets."""
    switch = job["switch"]
    rng = np.random.default_rng(job["entropy"])
    valid = _random_k_subsets(switch.n, job["k"], job["trials"], rng)
    return float(np.mean(switch.setup_batch(valid).routed_counts))


def compare_partial_vs_perfect(
    perfect: ConcentratorSwitch,
    partial: ConcentratorSwitch,
    k_values: list[int],
    trials: int = 20,
    seed: int | None = None,
    workers: int = 0,
) -> dict[int, dict[str, float]]:
    """The Section 1 substitution experiment.

    For each offered k, draw ``trials`` random k-subsets and record the
    mean routed count for the n-by-m perfect concentrator and for the
    (n/α, m/α, α) partial concentrator standing in for it.  The paper's
    claim: for k ≤ m both route k; for k > m both route (at least) m.

    Each (switch, k) work item gets its own ``SeedSequence`` child
    keyed by its position and runs its trials through
    :meth:`setup_batch`.  ``workers <= 1`` runs the items inline;
    ``workers > 1`` fans them out over the supervised process pool
    (:func:`repro.engine.backends.supervisor.fan_out`), with each item's
    metrics merged back in work-list order under ``perfect-k<k>`` /
    ``partial-k<k>`` provenance.  The results are identical for any
    worker count.
    """
    items = [(sw, k) for k in k_values for sw in (perfect, partial)]
    children = np.random.SeedSequence(seed).spawn(len(items))
    jobs = [
        {"switch": sw, "k": k, "trials": trials, "entropy": child}
        for (sw, k), child in zip(items, children)
    ]
    if workers > 1:
        from repro.engine.backends.supervisor import fan_out
        from repro.engine.plan import plan_key

        means = list(
            fan_out(
                _compare_job,
                jobs,
                label="compare",
                workers=workers,
                plan_keys=[plan_key(sw) for sw in (perfect, partial)],
                names=[
                    f"{kind}-k{k}"
                    for k in k_values
                    for kind in ("perfect", "partial")
                ],
            )
        )
    else:
        means = [_compare_job(job) for job in jobs]
    return {
        k: {"perfect": means[2 * i], "partial": means[2 * i + 1]}
        for i, k in enumerate(k_values)
    }
