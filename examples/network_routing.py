#!/usr/bin/env python
"""Routing-network scenario: concentrators funneling parallel-computer
traffic (the use case from the paper's introduction).

Three experiments:

1. **Loss vs offered load** for a Revsort-based partial concentrator
   under the three congestion policies of Section 1 (drop, buffer,
   drop-and-resend).
2. **Partial-vs-perfect substitution** — the Section 1 claim that an
   (n/α, m/α, α) partial concentrator can stand in for an n-by-m
   perfect concentrator at a 1/α-factor wire cost.
3. **Two-level concentration tree** — four leaf switches feeding a
   root, a fan-in stage of a larger routing network.

Run:  python examples/network_routing.py
"""

from __future__ import annotations

from repro import ColumnsortSwitch, Message, PerfectConcentrator, RevsortSwitch
from repro._util.rng import default_rng
from repro.analysis import render_table
from repro.messages.congestion import BufferPolicy, DropPolicy, ResendPolicy
from repro.network import (
    BernoulliTraffic,
    FunnelNetwork,
    SwitchSimulation,
    compare_partial_vs_perfect,
)


def loss_vs_load() -> None:
    print("\n--- loss vs offered load (Revsort switch, n=256, m=192) ---")
    rows = []
    for p in (0.2, 0.5, 0.7, 0.8, 0.9, 1.0):
        row: dict[str, object] = {"offered p": p}
        for name, policy in (
            ("drop", DropPolicy()),
            ("buffer", BufferPolicy(capacity=256)),
            ("resend", ResendPolicy(ack_timeout=1, max_retries=16)),
        ):
            switch = RevsortSwitch(256, 192)
            traffic = BernoulliTraffic(256, p=p, seed=17)
            summary = SwitchSimulation(switch, traffic, policy, seed=18).run(rounds=40)
            row[f"{name} loss"] = f"{summary.loss_rate:.3f}"
        rows.append(row)
    print(render_table(rows))
    print(
        "Shape check: zero loss while offered load stays below the "
        "guaranteed capacity; buffering/resending soak up bursts until "
        "sustained overload."
    )


def substitution() -> None:
    print("\n--- partial-for-perfect substitution (Section 1) ---")
    n, m = 128, 96
    perfect = PerfectConcentrator(n, m)
    # A Columnsort switch with alpha*m' >= m stands in for it.
    partial = ColumnsortSwitch(64, 4, 105)  # n' = 256, m' = 105, eps = 9
    cap = partial.spec.guaranteed_capacity
    print(
        f"perfect: {n}-by-{m};  partial: ({partial.n}, {partial.m}, "
        f"{partial.spec.alpha:.3f}) with guaranteed capacity {cap} >= m = {m}"
    )
    results = compare_partial_vs_perfect(
        perfect, partial, k_values=[16, 48, 96, 120], trials=30, seed=19
    )
    rows = [
        {
            "k offered": k,
            "perfect routed": f"{row['perfect']:.1f}",
            "partial routed": f"{row['partial']:.1f}",
            "required": min(k, m),
        }
        for k, row in results.items()
    ]
    print(render_table(rows))


def concentration_tree() -> None:
    print("\n--- two-level concentration tree ---")
    rng = default_rng(20)
    leaves = [RevsortSwitch(64, 32) for _ in range(4)]
    root = ColumnsortSwitch(32, 4, 64)  # 128 leaf outputs -> 64 links
    tree = FunnelNetwork([leaves, [root]])
    print(f"tree: {tree.n} inputs -> {len(leaves)} leaves -> {tree.m} output links")
    rows = []
    for k in (16, 32, 64, 96, 128):
        lost_total, delivered_total = 0, 0
        for _ in range(20):
            messages: list[Message | None] = [None] * tree.n
            for i in rng.choice(tree.n, size=k, replace=False):
                messages[int(i)] = Message.from_int(int(i) % 256, 8)
            outputs, levels = tree.route(messages)
            lost_total += sum(level.lost for level in levels)
            delivered_total += sum(1 for msg in outputs if msg is not None)
        rows.append(
            {
                "k offered": k,
                "mean delivered": delivered_total / 20,
                "mean lost": lost_total / 20,
            }
        )
    print(render_table(rows))


def main() -> None:
    loss_vs_load()
    substitution()
    concentration_tree()


if __name__ == "__main__":
    main()
