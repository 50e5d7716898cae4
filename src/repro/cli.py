"""Command-line interface.

Six subcommands mirroring the paper's artifacts::

    python -m repro table1  --n 4096 --m 3072
    python -m repro design  --n 1024 --m 768 --pin-budget 150
    python -m repro simulate --switch revsort --n 256 --m 192 --load 0.5
    python -m repro verify  --switch columnsort --r 64 --s 8 --m 384 --backend batch
    python -m repro certify revsort --out certificates/
    python -m repro faults inject --switch revsort --n 64 --m 48 --fault chip:0:1
    python -m repro faults sweep --smoke --out fault-certificates/
    python -m repro faults report fault-certificates/
    python -m repro compare --switch revsort --n 256 --m 192 --workers 4
    python -m repro knockout --ports 16 --load 0.9
    python -m repro reproduce
    python -m repro bench run --suite smoke
    python -m repro bench compare --baseline BENCH_TRAJECTORY.jsonl
    python -m repro obs trace --switch columnsort --n 4096 --out trace.json
    python -m repro obs export --journal out.jsonl --format prometheus
    python -m repro obs report

* ``table1`` prints the Table 1 resource measures for a concrete size;
* ``design`` sweeps the design space under a pin budget (the
  `examples/design_explorer.py` workflow);
* ``simulate`` runs a traffic simulation and reports delivery/loss;
* ``verify`` randomly checks a switch's partial-concentration contract
  and measured ε against its theorem bound, exiting nonzero on any
  violation (``--backend batch`` runs the trials through the vectorised
  engine, ``--backend process`` through the sharded engine backend);
* ``certify`` *enumerates* valid-bit patterns (exhaustively for small
  n, stratified per load level above) through the batch engine, the
  scalar oracle, and the gate netlists, and emits certificate JSONs
  (see ``docs/verification.md``);
* ``faults`` drives the robustness suite (``docs/robustness.md``):
  ``inject`` measures one scenario, ``sweep`` runs the full degradation
  campaign (monotone boundary chains, cross-path parity, flaky-pin
  resilience) and ``report`` renders the resulting certificates;
  ``certify --faults`` appends a quick campaign per certified config;
* ``compare`` runs the Section 1 partial-vs-perfect substitution
  experiment, optionally parallel/batched via ``--workers``;
* ``knockout`` compares analytic and simulated knockout concentrator
  loss across L;
* ``reproduce`` runs the full end-to-end reproduction report (same
  checks as ``examples/reproduce_paper.py``);
* ``bench run``/``bench compare`` drive the performance observatory:
  registry-driven suites appended to ``BENCH_TRAJECTORY.jsonl`` and a
  noise-aware regression gate over it (``docs/performance.md``);
* ``obs trace`` exports a Chrome-trace/Perfetto span timeline (plus an
  optional cProfile) of any switch geometry; ``obs export`` renders a
  metrics snapshot or a replayed event journal as OpenMetrics text;
  ``obs report`` renders the trajectory dashboard.

Long-running commands (``simulate``, ``certify``, ``faults sweep``,
``compare``, ``bench run``, ``bench compare``) also take ``--journal``
(stream a ``repro.obs/journal@1`` JSONL event journal), ``--live``
(terminal progress with rates and ETA), and ``--crash-dir`` (flight-
recorder crash reports on failure) — see the "Live telemetry" section
of ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys

import numpy as np

from repro import obs
from repro._util.bits import ilg
from repro._util.rng import default_rng
from repro.analysis.tables import render_table
from repro.core.concentration import validate_partial_concentration
from repro.core.nearsort import nearsortedness
from repro.errors import ConcentrationError, ExecutionError, ReproError
from repro.hardware.costs import columnsort_measures, revsort_measures, table1


_LOG_LEVELS = ("debug", "info", "warning", "error")


def _setup_logging(level_name: str) -> None:
    """Attach one stream handler to the ``repro`` logger (the library
    itself only ever adds a NullHandler)."""
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level_name.upper()))
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)


class _NullTelemetry:
    """No-op stand-in when no telemetry flag was given: commands call
    ``tele.phase(...)`` etc. unconditionally."""

    registry = None
    journal = None
    recorder = None

    def phase(self, name: str, total=None) -> None:
        pass

    def advance(self, phase: str, done, total=None) -> None:
        pass

    def note(self, text: str) -> None:
        pass

    def flush(self) -> None:
        pass

    def crash(self, reason: str, *, exc=None, detail=None):
        return None


_NULL_TELEMETRY = _NullTelemetry()


class Telemetry:
    """The live-telemetry facade a command sees inside
    :func:`_telemetry_scope`: one registry, one journal, one flight
    recorder, an optional live view — plus the phase/progress helpers
    that emit journal events and flush metric deltas."""

    def __init__(
        self,
        *,
        registry,
        journal,
        sink,
        recorder,
        view=None,
        command: str | None = None,
        crash_path=None,
    ):
        self.registry = registry
        self.journal = journal
        self.sink = sink
        self.recorder = recorder
        self.view = view
        self.command = command
        self.crash_path = crash_path

    def phase(self, name: str, total=None) -> None:
        self.journal.emit("phase", name=name, total=total)
        self.flush()

    def advance(self, phase: str, done, total=None) -> None:
        self.journal.emit("progress", phase=phase, done=done, total=total)
        self.flush()

    def note(self, text: str) -> None:
        if self.view is not None:
            self.view.note(text)

    def flush(self) -> None:
        self.sink.flush()

    def crash(self, reason: str, *, exc=None, detail=None):
        """Dump the flight recorder; returns the report path or None."""
        if self.crash_path is None:
            return None
        self.flush()
        path = self.recorder.write(
            self.crash_path,
            reason=reason,
            command=self.command,
            exc=exc,
            registry=self.registry,
            detail=detail,
        )
        print(f"crash report written to {path}", file=sys.stderr)
        return path


def _command_name(args: argparse.Namespace) -> str:
    sub = (
        getattr(args, "faults_command", None)
        or getattr(args, "bench_command", None)
        or getattr(args, "obs_command", None)
        or getattr(args, "flows_command", None)
    )
    return f"{args.command} {sub}" if sub else str(args.command)


def _crash_path(args: argparse.Namespace, command: str):
    """Where a crash report would land: ``--crash-dir`` wins, else next
    to the ``--journal`` file, else nowhere (no dump target)."""
    from pathlib import Path

    crash_dir = getattr(args, "crash_dir", None)
    if crash_dir:
        return Path(crash_dir) / f"{command.replace(' ', '-')}-crash.json"
    journal_path = getattr(args, "journal", None)
    if journal_path:
        journal = Path(journal_path)
        return journal.with_name(f"{journal.stem}-crash.json")
    return None


def _install_sigusr1(tele: Telemetry):
    """SIGUSR1 → snapshot event in the journal + OpenMetrics text on
    stderr.  Returns the previous handler, or None when the platform
    has no SIGUSR1 or we are not on the main thread."""
    import signal
    import threading

    if not hasattr(signal, "SIGUSR1"):  # pragma: no cover - non-POSIX
        return None
    if threading.current_thread() is not threading.main_thread():
        return None

    from repro.obs.live import prometheus_text

    def handler(signum, frame):
        snapshot = tele.registry.snapshot()
        tele.journal.emit(
            "snapshot",
            signal="SIGUSR1",
            counters=snapshot["counters"],
            gauges=snapshot["gauges"],
        )
        sys.stderr.write(prometheus_text(snapshot))
        sys.stderr.flush()

    return signal.signal(signal.SIGUSR1, handler)


def _restore_sigusr1(previous) -> None:
    import signal

    if previous is not None and hasattr(signal, "SIGUSR1"):
        signal.signal(signal.SIGUSR1, previous)


@contextlib.contextmanager
def _telemetry_scope(args: argparse.Namespace):
    """Wire up collection around a command.

    ``--metrics-out`` alone behaves as before: collect, write one JSON
    snapshot on success.  Any of ``--journal`` / ``--live`` /
    ``--crash-dir`` additionally activates the live pipeline: an
    :class:`~repro.obs.live.EventJournal` fed by a delta-flush
    :class:`~repro.obs.live.JournalSink` and the tracer's span sink, a
    :class:`~repro.obs.live.FlightRecorder` ring buffer (dumped to a
    crash report on unhandled exceptions — including a mid-flight
    KeyboardInterrupt — and contract violations), a background
    :class:`~repro.obs.live.ResourceSampler`, an optional
    :class:`~repro.obs.live.LiveView`, and a SIGUSR1 snapshot handler.
    Without any flag the null registry stays installed and a no-op
    telemetry object is yielded.
    """
    from repro.errors import ConcentrationError as _Violation

    metrics_out = getattr(args, "metrics_out", None)
    live_on = bool(
        getattr(args, "journal", None)
        or getattr(args, "live", False)
        or getattr(args, "crash_dir", None)
    )
    if not live_on and not metrics_out:
        yield _NULL_TELEMETRY
        return

    from repro.obs.live import (
        EventJournal,
        FlightRecorder,
        JournalSink,
        LiveView,
        ResourceSampler,
    )

    command = _command_name(args)
    with contextlib.ExitStack() as stack:
        registry = stack.enter_context(obs.collecting())
        # Every collected command is one causal trace: the context
        # stamps span_id/parent_id on spans here and (shipped with each
        # shard job) in workers, so `repro obs analyze` can stitch one
        # tree back out of the journal.
        trace_id = getattr(args, "trace_id", None) or obs.new_trace_id(command)
        registry.tracer.context = obs.TraceContext(trace_id=trace_id)
        # --metrics-out alone: no journal, but the command still sees
        # the collecting registry (the reproduce report reads it).
        tele = _NullTelemetry()
        tele.registry = registry
        if live_on:
            journal = stack.enter_context(
                EventJournal(getattr(args, "journal", None), command=command)
            )
            journal.emit("env", pid=os.getpid(), trace_id=trace_id, **obs.environment())
            sink = JournalSink(registry, journal)
            stack.callback(sink.close)
            recorder = FlightRecorder()
            journal.subscribe(recorder.record)
            # Supervision events (worker_death / shard_timeout /
            # pool_respawn / degraded) become journal frames, with the
            # counter deltas they ticked flushed alongside, so retries
            # are visible live and in replay — and the flight recorder
            # (a journal subscriber) can name the fatal shard.
            from repro.engine.backends.supervisor import (
                add_event_sink,
                remove_event_sink,
            )

            def _supervision_frame(kind: str, **fields: object) -> None:
                journal.emit(kind, **fields)
                sink.flush()

            add_event_sink(_supervision_frame)
            stack.callback(remove_event_sink, _supervision_frame)
            view = None
            if getattr(args, "live", False):
                view = LiveView()
                journal.subscribe(view)
                stack.callback(view.close)
            tele = Telemetry(
                registry=registry,
                journal=journal,
                sink=sink,
                recorder=recorder,
                view=view,
                command=command,
                crash_path=_crash_path(args, command),
            )
            sampler = ResourceSampler(registry, journal)
            sampler.start()
            stack.callback(sampler.stop)
            previous_handler = _install_sigusr1(tele)
            stack.callback(_restore_sigusr1, previous_handler)
        try:
            yield tele
        except _Violation as exc:
            tele.crash("contract-violation", exc=exc)
            raise
        except ExecutionError as exc:
            # The execution stack failed (retry budget exhausted): dump
            # the ring buffer — its worker_death frames say which shard.
            tele.crash("execution-failure", exc=exc)
            raise
        except ReproError:
            raise
        except BrokenPipeError:
            raise
        except BaseException as exc:
            tele.crash("unhandled-exception", exc=exc)
            raise
    if metrics_out:
        try:
            path = obs.write_metrics_json(registry.snapshot(), metrics_out)
        except OSError as exc:
            raise ReproError(
                f"cannot write metrics to {metrics_out}: {exc}"
            ) from exc
        print(f"metrics written to {path}")


def _build_switch(args: argparse.Namespace):
    from repro.switches.registry import build_switch

    name = getattr(args, "switch_name", None) or args.switch
    return build_switch(
        name, n=args.n, m=args.m, r=args.r, s=args.s, beta=args.beta
    )


def cmd_table1(args: argparse.Namespace) -> int:
    rows = [r.as_row() for r in table1(args.n, args.m)]
    if args.format == "json":
        import json

        print(json.dumps(rows, indent=2))
    elif args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    else:
        print(render_table(rows, title=f"Table 1 at n={args.n}, m={args.m}"))
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    t = ilg(args.n)
    rows = []
    feasible = []
    designs = [("Revsort", revsort_measures(args.n, args.m))]
    for a in range((t + 1) // 2, t + 1):
        beta = a / t
        designs.append(
            (f"Columnsort r=2^{a}", columnsort_measures(args.n, args.m, beta))
        )
    for name, meas in designs:
        fits = meas.pins_per_chip <= args.pin_budget
        rows.append(
            {
                "design": name,
                "pins/chip": meas.pins_per_chip,
                "chips": meas.chip_count,
                "alpha": f"{meas.load_ratio:.4f}",
                "delays": meas.gate_delays,
                "volume": meas.volume,
                "fits": "yes" if fits else "NO",
            }
        )
        if fits:
            feasible.append((name, meas))
    print(render_table(rows, title=f"designs for (n={args.n}, m={args.m}), budget {args.pin_budget} pins"))
    if not feasible:
        print("no design fits the pin budget")
        return 1
    feasible.sort(key=lambda d: (-d[1].load_ratio, d[1].gate_delays, d[1].volume))
    print(f"best feasible design: {feasible[0][0]}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.messages.congestion import (
        BufferPolicy,
        DropPolicy,
        ResendPolicy,
        RetryPolicy,
    )
    from repro.network.simulate import SwitchSimulation
    from repro.network.traffic import BernoulliTraffic

    with _telemetry_scope(args) as tele:
        switch = _build_switch(args)
        policy = {
            "drop": DropPolicy,
            "buffer": BufferPolicy,
            "resend": ResendPolicy,
            "retry": RetryPolicy,
        }[args.policy]()
        traffic = BernoulliTraffic(switch.n, p=args.load, seed=args.seed)
        tele.phase("simulate", total=args.rounds)
        summary = SwitchSimulation(switch, traffic, policy, seed=args.seed).run(
            rounds=args.rounds
        )
        tele.advance("simulate", summary.rounds, args.rounds)
        print(
            render_table(
                [
                    {
                        "switch": repr(switch),
                        "rounds": summary.rounds,
                        "offered": summary.offered,
                        "delivered": summary.delivered,
                        "lost": summary.lost,
                        "retried": summary.retried,
                        "loss rate": f"{summary.loss_rate:.4f}",
                    }
                ],
                title="simulation summary",
            )
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    switch = _build_switch(args)
    rng = default_rng(args.seed)
    spec = switch.spec
    mode = args.backend
    tracks_eps = hasattr(switch, "final_positions")
    worst_eps: int | None = 0 if tracks_eps else None
    if mode == "process":
        # The sharded multiprocess backend: trials are generated per
        # SeedSequence-keyed shard, so the measured ε/α are identical
        # for any --workers count (but differ from the sequential
        # --backend batch draw order).
        from repro.engine import StreamSpec, get_backend, resolve_workers

        backend = get_backend("process", workers=resolve_workers(args.workers))
        summary = backend.run_stream(
            switch, StreamSpec(trials=args.trials, seed=args.seed)
        )
        worst_eps = summary.worst_epsilon
        if summary.violations:
            raise ConcentrationError(
                f"{summary.violations} trial(s) violated the contract: "
                + "; ".join(summary.messages)
            )
    elif mode == "batch":
        from repro.engine import (
            nearsortedness_batch,
            validate_batch_partial_concentration,
        )
        from repro.verify.differential import output_occupancy

        chunk = 256
        done = 0
        while done < args.trials:
            size = min(chunk, args.trials - done)
            thresholds = rng.random((size, 1))
            valid = rng.random((size, switch.n)) < thresholds
            batch = switch.setup_batch(valid)
            validate_batch_partial_concentration(spec, batch)
            if worst_eps is not None:
                occupancy = output_occupancy(switch, batch)
                if occupancy is None:
                    worst_eps = None
                else:
                    worst_eps = max(
                        worst_eps, int(nearsortedness_batch(occupancy).max(initial=0))
                    )
            done += size
    else:
        for _ in range(args.trials):
            valid = rng.random(switch.n) < rng.random()
            routing = switch.setup(valid)
            validate_partial_concentration(spec, valid, routing.input_to_output)
            if tracks_eps:
                final = switch.final_positions(valid)
                out = np.zeros(switch.n, dtype=np.int8)
                out[final] = valid.astype(np.int8)
                worst_eps = max(worst_eps, nearsortedness(out))
    bound = getattr(switch, "epsilon_bound", None)
    ok = bound is None or worst_eps is None or worst_eps <= bound
    if args.format == "json":
        import json

        print(
            json.dumps(
                {
                    "schema": "repro.cli/verify@1",
                    "switch": repr(switch),
                    "trials": args.trials,
                    "mode": mode,
                    "alpha": round(float(spec.alpha), 6),
                    "worst_epsilon": worst_eps,
                    "epsilon_bound": bound,
                    "ok": ok,
                },
                indent=2,
            )
        )
    else:
        print(
            render_table(
                [
                    {
                        "switch": repr(switch),
                        "trials": args.trials,
                        "mode": mode,
                        "alpha": f"{spec.alpha:.4f}",
                        "worst eps": worst_eps if worst_eps is not None else "-",
                        "eps bound": bound if bound is not None else "-",
                        "verdict": "OK" if ok else "FAIL",
                    }
                ],
                title="contract verification",
            )
        )
    if not ok:
        print("ERROR: measured epsilon exceeds the theorem bound", file=sys.stderr)
        return 1
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.switches.registry import certify_configs
    from repro.verify import CertifyOptions, certify_design, write_certificate

    from repro.engine import resolve_workers

    workers = resolve_workers(args.workers)
    opt_kwargs: dict[str, object] = {
        "max_total": args.max_total,
        "max_per_k": args.max_per_k,
    }
    if getattr(args, "chunk", 0):
        opt_kwargs["chunk"] = args.chunk
    options = CertifyOptions(**opt_kwargs)
    explicit: dict[str, object] = {}
    if args.n:
        explicit["n"] = args.n
    if args.m:
        explicit["m"] = args.m
    if args.r and args.s:
        explicit["r"] = args.r
        explicit["s"] = args.s
    if explicit and not args.switch_name:
        raise ReproError("size overrides need an explicit SWITCH argument")
    if args.switch_name and explicit:
        configs = [(args.switch_name, explicit)]
    else:
        configs = certify_configs([args.switch_name] if args.switch_name else None)
    if not configs:
        raise ReproError(
            f"design {args.switch_name!r} declares no certification configs; "
            "pass an explicit size (e.g. --n 16)"
        )

    with _telemetry_scope(args) as tele:
        certs = []
        tele.phase("certify", total=len(configs))
        certify_kwargs = {"options": options, "workers": workers}
        if getattr(args, "checkpoint", None):
            certify_kwargs["checkpoint_dir"] = args.checkpoint
        for index, (design, params) in enumerate(configs):
            try:
                certs.append(certify_design(design, params, **certify_kwargs))
            except TypeError as exc:  # e.g. a missing required override
                raise ReproError(f"bad parameters for {design!r}: {exc}") from exc
            tele.advance("certify", index + 1, len(configs))

        # --faults: a quick degradation campaign per config on top of
        # the healthy certification.
        sweeps = []
        if getattr(args, "faults", False):
            from repro.faults import sweep_switch
            from repro.switches.registry import build_switch

            tele.phase("certify-faults", total=len(configs))
            for index, (design, params) in enumerate(configs):
                switch = build_switch(design, **params)
                sweeps.append(
                    sweep_switch(
                        switch,
                        design=f"{design}-n{switch.n}-m{switch.m}",
                        chains=1,
                        chain_length=2,
                        parity_scenarios=1,
                        parity_faults=2,
                        flaky_scenarios=1,
                        trials=8,
                        rounds=20,
                        seed=0,
                    )
                )
                tele.advance("certify-faults", index + 1, len(configs))

        ok = all(cert.ok for cert in certs) and all(s.ok for s in sweeps)
        if not ok:
            tele.crash(
                "contract-violation",
                detail={
                    "failed_designs": [c.design for c in certs if not c.ok],
                    "failed_sweeps": [s.design for s in sweeps if not s.ok],
                },
            )

    written: list[Path] = []
    if args.out:
        out = Path(args.out)
        if out.suffix == ".json" and len(certs) == 1:
            written.append(write_certificate(certs[0], out))
        else:
            for cert in certs:
                written.append(
                    write_certificate(cert, out / f"{cert.design}-n{cert.n}-m{cert.m}.json")
                )
        if sweeps and out.suffix != ".json":
            from repro.faults import write_degradation_certificate

            for sweep in sweeps:
                for index, dcert in enumerate(sweep.certificates):
                    written.append(
                        write_degradation_certificate(
                            dcert,
                            out / f"{sweep.design}-degradation{index}.json",
                        )
                    )

    if args.format == "json":
        print(json.dumps([cert.as_dict() for cert in certs], indent=2))
    else:
        rows = []
        for cert in certs:
            eps = (
                f"{cert.worst_epsilon}/{cert.epsilon_bound}"
                if cert.epsilon_bound is not None
                else "-"
            )
            rows.append(
                {
                    "design": cert.design,
                    "params": ", ".join(f"{k}={v}" for k, v in cert.params.items()),
                    "tier": cert.tier,
                    "patterns": cert.total_patterns,
                    "paths": "+".join(cert.paths),
                    "eps/bound": eps,
                    "violations": len(cert.violations),
                    "verdict": "CERTIFIED" if cert.ok else "FAIL",
                }
            )
        print(render_table(rows, title="certification"))
        for cert in certs:
            for v in cert.violations:
                print(
                    f"VIOLATION {cert.design}: [{v.check}] k={v.k} "
                    f"pattern={v.pattern}: {v.message}",
                    file=sys.stderr,
                )
    for path in written:
        print(f"certificate written to {path}", file=sys.stderr)
    for sweep in sweeps:
        if sweep.ok:
            print(
                f"fault sweep {sweep.design}: OK "
                f"({len(sweep.certificates)} degradation certificates)",
                file=sys.stderr,
            )
        else:
            print(
                f"FAULT SWEEP FAIL {sweep.design}: "
                f"{sweep.parity_violations} parity violations",
                file=sys.stderr,
            )
    return 0 if ok else 1


def _parse_fault(spec: str):
    """One ``--fault`` spec → a fault object.

    Formats: ``stuck0:PIN``, ``stuck1:PIN``, ``chip:STAGE:CHIP``,
    ``wire:STAGE:POS``, ``output:OUT``, ``flaky:PIN:PROB``.
    """
    from repro.errors import FaultInjectionError
    from repro.faults import (
        DeadChipFault,
        DeadOutputFault,
        FlakyPinFault,
        SeveredWireFault,
        StuckAtFault,
    )

    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    try:
        if kind in ("stuck0", "stuck1"):
            (pos,) = parts
            return StuckAtFault(int(pos), 0 if kind == "stuck0" else 1)
        if kind == "chip":
            stage, chip = parts
            return DeadChipFault(int(stage), int(chip))
        if kind == "wire":
            stage, pos = parts
            return SeveredWireFault(int(stage), int(pos))
        if kind == "output":
            (out,) = parts
            return DeadOutputFault(int(out))
        if kind == "flaky":
            pos, p = parts
            return FlakyPinFault(int(pos), float(p))
    except ValueError as exc:
        raise FaultInjectionError(f"bad fault spec {spec!r}: {exc}") from None
    raise FaultInjectionError(
        f"unknown fault kind {kind!r} in {spec!r}; use stuck0:PIN, "
        "stuck1:PIN, chip:STAGE:CHIP, wire:STAGE:POS, output:OUT, "
        "or flaky:PIN:PROB"
    )


def cmd_faults_inject(args: argparse.Namespace) -> int:
    import json

    from repro.errors import FaultInjectionError
    from repro.faults import (
        FaultScenario,
        flaky_resilience,
        measure_scenario,
        sample_scenario,
    )

    switch = _build_switch(args)
    rng = default_rng(args.seed)
    if args.fault and args.sample:
        raise FaultInjectionError("give either --fault specs or --sample, not both")
    if args.fault:
        faults = tuple(_parse_fault(spec) for spec in args.fault)
        scenario = FaultScenario(name=args.name, faults=faults, seed=args.seed)
    elif args.sample:
        scenario = sample_scenario(
            switch,
            faults=args.sample,
            rng=rng,
            classes=args.classes,
            name=args.name,
            seed=args.seed,
        )
    else:
        raise FaultInjectionError(
            "nothing to inject: give --fault specs or --sample COUNT"
        )

    with _telemetry_scope(args):
        report = measure_scenario(
            switch,
            scenario,
            trials=args.trials,
            seed=args.seed,
            remap_outputs=args.remap_outputs,
        )
        resilience = None
        if scenario.flaky_pins():
            resilience = flaky_resilience(
                switch, scenario, rounds=args.rounds, seed=args.seed
            )

    doc = report.as_dict()
    if resilience is not None:
        doc["resilience"] = resilience
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(render_table([
            {
                "scenario": report.name,
                "faults": report.fault_count,
                "alpha": f"{report.empirical_alpha:.4f}",
                "min/mean routed": f"{report.min_routed}/{report.mean_routed:.1f}",
                "eps": report.worst_epsilon if report.worst_epsilon is not None else "-",
                "live outputs": report.live_outputs,
                "parity": "ok" if report.parity_ok else "FAIL",
            }
        ], title=f"fault injection: {switch!r}"))
        for line in report.faults:
            print(f"  - {line}")
        for failure in report.parity_failures:
            print(f"PARITY {failure}", file=sys.stderr)
        if resilience is not None:
            print(
                f"  flaky resilience: drop={resilience['drop_delivery_rate']:.4f} "
                f"retry={resilience['retry_delivery_rate']:.4f} "
                f"recovered={resilience['recovered']}"
            )
    ok = report.parity_ok and (resilience is None or resilience["recovered"])
    return 0 if ok else 1


def _sweep_targets(args: argparse.Namespace) -> list[tuple[str, object, bool]]:
    """``(design-label, switch, use_gates)`` targets for a fault sweep."""
    from repro.switches.columnsort_switch import ColumnsortSwitch
    from repro.switches.registry import build_switch
    from repro.switches.revsort_switch import RevsortSwitch

    if args.switch:
        sw = build_switch(
            args.switch, n=args.n, m=args.m, r=args.r, s=args.s, beta=args.beta
        )
        return [(f"{args.switch}-n{sw.n}-m{sw.m}", sw, True)]
    if args.smoke:
        # Small geometries so CI finishes fast; the n=16 revsort keeps
        # the gate netlist path live in every smoke run.
        return [
            ("revsort-n64-m48", RevsortSwitch(64, 48), True),
            ("columnsort-r16-s4-m48", ColumnsortSwitch(16, 4, 48), True),
            ("revsort-n16-m12", RevsortSwitch(16, 12), True),
        ]
    # The paper's flagship sizes: Thm-3 revsort and Thm-4 β=2/3
    # columnsort at n=4096.
    return [
        ("revsort-n4096-m3072", RevsortSwitch(4096, 3072), True),
        (
            "columnsort-beta23-n4096-m3072",
            ColumnsortSwitch.from_beta(4096, 2 / 3, 3072),
            True,
        ),
    ]


def cmd_faults_sweep(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.faults import sweep_switch, write_degradation_certificate

    trials = args.trials if args.trials else (12 if args.smoke else 32)
    rounds = args.rounds if args.rounds else (20 if args.smoke else 40)
    targets = _sweep_targets(args)

    with _telemetry_scope(args) as tele:
        results = []
        tele.phase("faults-sweep", total=len(targets))
        for index, (design, switch, use_gates) in enumerate(targets):
            results.append(
                sweep_switch(
                    switch,
                    design=design,
                    chains=args.chains,
                    chain_length=args.chain_length,
                    parity_scenarios=args.parity_scenarios,
                    parity_faults=args.parity_faults,
                    flaky_scenarios=args.flaky_scenarios,
                    trials=trials,
                    rounds=rounds,
                    seed=args.seed,
                    use_gates=use_gates,
                )
            )
            tele.advance("faults-sweep", index + 1, len(targets))
        if not all(r.ok for r in results):
            tele.crash(
                "contract-violation",
                detail={"failed_sweeps": [r.design for r in results if not r.ok]},
            )

    written = []
    if args.out:
        out = Path(args.out)
        for result in results:
            for index, cert in enumerate(result.certificates):
                written.append(
                    write_degradation_certificate(
                        cert, out / f"{result.design}-{cert.kind}{index}.json"
                    )
                )

    if args.format == "json":
        print(json.dumps(
            [
                {
                    "design": r.design,
                    "ok": r.ok,
                    "certificates": [c.as_dict() for c in r.certificates],
                }
                for r in results
            ],
            indent=2,
        ))
    else:
        rows = []
        for result in results:
            for cert in result.certificates:
                alphas = [s.empirical_alpha for s in cert.steps]
                rows.append(
                    {
                        "design": result.design,
                        "kind": cert.kind,
                        "steps": len(cert.steps),
                        "alpha": f"{min(alphas):.3f}..{max(alphas):.3f}"
                        if alphas
                        else "-",
                        "monotone": "-"
                        if cert.monotone_alpha is None
                        else str(cert.monotone_alpha),
                        "parity": "ok"
                        if all(s.parity_ok for s in cert.steps)
                        else "FAIL",
                        "flaky recovered": f"{sum(1 for r in cert.resilience if r['recovered'])}"
                        f"/{len(cert.resilience)}"
                        if cert.resilience
                        else "-",
                        "verdict": "OK" if cert.ok else "FAIL",
                    }
                )
        print(render_table(rows, title="fault sweep"))
    for result in results:
        if not result.ok:
            print(
                f"SWEEP FAIL {result.design}: "
                f"{result.parity_violations} parity violations, "
                f"{result.non_monotone_chains} non-monotone chains, "
                f"{result.unrecovered_flaky} unrecovered flaky scenarios",
                file=sys.stderr,
            )
    for path in written:
        print(f"degradation certificate written to {path}", file=sys.stderr)
    return 0 if all(r.ok for r in results) else 1


def cmd_faults_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.faults import read_degradation_certificate

    paths: list[Path] = []
    for entry in args.paths:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        else:
            paths.append(p)
    if not paths:
        raise ReproError("no certificate files found")

    rows = []
    all_ok = True
    for path in paths:
        try:
            doc = read_degradation_certificate(path)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        alphas = [s["empirical_alpha"] for s in doc["steps"]]
        all_ok = all_ok and doc["ok"]
        rows.append(
            {
                "file": path.name,
                "design": doc["design"],
                "kind": doc["kind"],
                "steps": len(doc["steps"]),
                "alpha": f"{min(alphas):.3f}..{max(alphas):.3f}" if alphas else "-",
                "monotone": "-"
                if doc["monotone_alpha"] is None
                else str(doc["monotone_alpha"]),
                "verdict": "OK" if doc["ok"] else "FAIL",
            }
        )
    print(render_table(rows, title="degradation certificates"))
    return 0 if all_ok else 1


def cmd_faults(args: argparse.Namespace) -> int:
    return args.faults_func(args)


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.engine import resolve_workers
    from repro.network.simulate import compare_partial_vs_perfect
    from repro.switches.perfect import PerfectConcentrator
    from repro.switches.registry import build_switch

    workers = resolve_workers(args.workers)
    with _telemetry_scope(args) as tele:
        partial = build_switch(
            args.switch, n=args.n, m=args.m, r=args.r, s=args.s, beta=args.beta
        )
        alpha = partial.spec.alpha
        perfect = PerfectConcentrator(
            n=max(1, int(partial.n * alpha)), m=max(1, int(partial.m * alpha))
        )
        k_values = sorted({max(1, perfect.m // 2), perfect.m, min(perfect.n, 2 * perfect.m)})
        tele.phase("compare", total=len(k_values))
        results = compare_partial_vs_perfect(
            perfect,
            partial,
            k_values,
            trials=args.trials,
            seed=args.seed,
            workers=workers,
        )
        tele.advance("compare", len(k_values), len(k_values))
        if args.format == "json":
            import json

            print(
                json.dumps(
                    {
                        "schema": "repro.cli/compare@1",
                        "partial": repr(partial),
                        "perfect": repr(perfect),
                        "alpha": round(float(alpha), 6),
                        "trials": args.trials,
                        "results": [
                            {
                                "k": int(k),
                                "perfect_mean_routed": round(res["perfect"], 4),
                                "partial_mean_routed": round(res["partial"], 4),
                            }
                            for k, res in sorted(results.items())
                        ],
                    },
                    indent=2,
                )
            )
        else:
            rows = [
                {
                    "k": k,
                    "perfect mean routed": f"{res['perfect']:.2f}",
                    "partial mean routed": f"{res['partial']:.2f}",
                }
                for k, res in sorted(results.items())
            ]
            print(
                render_table(
                    rows,
                    title=(
                        f"partial ({partial.n}x{partial.m}, alpha={alpha:.3f}) vs "
                        f"perfect ({perfect.n}x{perfect.m}), "
                        f"trials={args.trials}, workers={args.workers}"
                    ),
                )
            )
    return 0


def cmd_knockout(args: argparse.Namespace) -> int:
    from repro.network.analytic import knockout_loss_analytic
    from repro.network.knockout import knockout_loss_curve

    l_values = [1, 2, 4, 8]
    with _telemetry_scope(args):
        sim = knockout_loss_curve(
            args.ports,
            loads=[args.load],
            l_values=l_values,
            slots=args.slots,
            seed=args.seed,
        )
        rows = []
        for L in l_values:
            rows.append(
                {
                    "L": L,
                    "analytic loss": f"{knockout_loss_analytic(args.ports, args.load, L):.5f}",
                    "simulated loss": f"{sim[(args.load, L)]:.5f}",
                }
            )
        print(
            render_table(
                rows,
                title=f"knockout concentrator loss (N={args.ports}, load={args.load})",
            )
        )
    return 0


def _flows_workload(args: argparse.Namespace):
    from repro.network.flows import WorkloadSpec

    return WorkloadSpec(
        n=args.n,
        load=args.load,
        duration=args.duration,
        sizes=args.sizes,
        fixed_size=args.fixed_size,
        seed=args.seed,
    )


def _flows_fabric_params(args: argparse.Namespace) -> dict:
    return {
        "design": args.design,
        "m": args.m if args.m > 0 else None,
        "lanes": args.lanes,
        "fifo_depth": args.fifo_depth,
        "slot_cycles": args.slot_cycles,
    }


def _json_safe(obj, digits: int = 6):
    """Round floats and map NaN to None so the JSON output is both
    valid and byte-stable for golden snapshots."""
    import math

    if isinstance(obj, float):
        return None if math.isnan(obj) else round(obj, digits)
    if isinstance(obj, dict):
        return {k: _json_safe(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v, digits) for v in obj]
    return obj


def _flows_row(name: str, result) -> dict:
    pct = result.fct_percentiles()

    def fmt(v: float) -> str:
        import math

        return "-" if math.isnan(v) else f"{v:.1f}"

    return {
        "fabric": name,
        "flows": f"{result.completed}/{result.flows}",
        "loss": f"{result.loss_rate:.4f}",
        "fct p50": fmt(pct["p50"]),
        "fct p99": fmt(pct["p99"]),
        "cycles": result.cycles,
        "events": result.events,
    }


def cmd_flows(args: argparse.Namespace) -> int:
    return args.flows_func(args)


def cmd_flows_run(args: argparse.Namespace) -> int:
    import json

    from repro.network.flows import run_fabric

    spec = _flows_workload(args)
    with _telemetry_scope(args) as tele:
        tele.phase("flows", total=1)
        result = run_fabric(
            args.fabric,
            spec,
            backpressure=not args.no_backpressure,
            max_cycles=args.max_cycles or None,
            **_flows_fabric_params(args),
        )
        tele.advance("flows", 1, 1)
        if args.format == "json":
            print(
                json.dumps(
                    _json_safe(
                        {
                            "schema": "repro.cli/flows-run@1",
                            "workload": {
                                "n": spec.n,
                                "load": spec.load,
                                "duration": spec.duration,
                                "sizes": spec.sizes,
                                "seed": spec.seed,
                            },
                            "backpressure": not args.no_backpressure,
                            "result": result.as_dict(),
                        }
                    ),
                    indent=2,
                )
            )
        else:
            print(
                render_table(
                    [_flows_row(args.fabric, result)],
                    title=(
                        f"flows run: {args.fabric} fabric, n={spec.n}, "
                        f"load={spec.load}, sizes={spec.sizes}, seed={spec.seed}"
                    ),
                )
            )
    return 0


def cmd_flows_compare(args: argparse.Namespace) -> int:
    import json

    from repro.network.flows import fabric_names, head_to_head

    spec = _flows_workload(args)
    names = (
        [f.strip() for f in args.fabrics.split(",") if f.strip()]
        if args.fabrics
        else fabric_names()
    )
    with _telemetry_scope(args) as tele:
        tele.phase("flows-compare", total=len(names))
        report = head_to_head(
            spec,
            names,
            backpressure=not args.no_backpressure,
            max_cycles=args.max_cycles or None,
            **_flows_fabric_params(args),
        )
        tele.advance("flows-compare", len(names), len(names))
        if args.format == "json":
            payload = _json_safe(report.as_dict())
            payload = {"schema": "repro.cli/flows-compare@1", **payload}
            print(json.dumps(payload, indent=2))
        else:
            rows = [_flows_row(name, report.results[name]) for name in names]
            print(
                render_table(
                    rows,
                    title=(
                        f"flows head-to-head: n={spec.n}, load={spec.load}, "
                        f"sizes={spec.sizes}, seed={spec.seed}, "
                        f"{report.total_events:,} events"
                    ),
                )
            )
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "examples" / "reproduce_paper.py"
    if not script.exists():
        print("error: examples/reproduce_paper.py not found", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("reproduce_paper", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    output = getattr(args, "output", None)
    if output:
        import io

        with _telemetry_scope(args) as tele:
            buffer = io.StringIO()
            try:
                with contextlib.redirect_stdout(buffer):
                    module.main()
                code = 0
            except SystemExit as exc:
                code = int(exc.code) if exc.code else 1
            text = buffer.getvalue()
            print(text, end="")

            from repro.analysis.reporting import ReportBuilder

            builder = ReportBuilder(
                title="Reproduction report — Cormen 1987, multichip partial "
                "concentrator switches"
            )
            builder.add_text("Full run transcript", f"```\n{text.strip()}\n```")
            builder.add_text(
                "Verdict",
                "All checks passed." if code == 0 else "SOME CHECKS FAILED.",
            )
            if tele.registry is not None:
                builder.add_metrics(
                    "Metrics",
                    tele.registry.snapshot(),
                    note="Collected by `repro.obs`; see docs/observability.md.",
                )
            path = builder.write(output)
            print(f"report written to {path}")
        return code

    with _telemetry_scope(args):
        try:
            module.main()
        except SystemExit as exc:
            return int(exc.code) if exc.code else 1
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.engine import resolve_workers
    from repro.obs.perf.suite import run_bench, suite_specs
    from repro.obs.perf.trajectory import append_records

    workers_cap = resolve_workers(args.workers)
    specs = suite_specs(args.suite, contains=args.filter or None)
    if not specs:
        raise ReproError(
            f"no bench in suite {args.suite!r} matches {args.filter!r}"
        )
    records = []
    with _telemetry_scope(args) as tele:
        tele.phase("bench", total=len(specs))
        for index, spec in enumerate(specs):
            record = run_bench(
                spec,
                suite=args.suite,
                repeats=args.repeats,
                seed=args.seed,
                alloc=not args.no_alloc,
                merge_into=tele.registry,
                workers_cap=workers_cap,
            )
            records.append(record)
            tele.advance("bench", index + 1, len(specs))
            cache = record["plan_cache"]
            hit_rate = (
                f"{cache['hit_rate'] * 100:3.0f}%" if cache["hit_rate"] is not None
                else "  -"
            )
            print(
                f"{spec.id:>28}  median {record['median_wall_s'] * 1e3:9.3f}ms  "
                f"{record['throughput']:>12,.0f} {record['unit']}/s  "
                f"cache {hit_rate}  rss {record['rss_peak_kb'] or 0:>7}KiB"
            )
    path = append_records(args.out, records)
    sha = records[-1]["env"]["git_sha"] or "?"
    dirty = " (dirty)" if records[-1]["env"]["git_dirty"] else ""
    print(
        f"{len(records)} record(s) appended to {path} at {sha[:12]}{dirty}"
    )
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    import json

    from repro.obs.perf.regression import (
        DEFAULT_TOLERANCE,
        DEFAULT_WINDOW,
        compare_records,
        has_regressions,
    )
    from repro.obs.perf.trajectory import (
        latest_per_bench,
        read_trajectory,
        split_latest,
    )

    if args.tolerance is None:
        args.tolerance = DEFAULT_TOLERANCE
    if args.window is None:
        args.window = DEFAULT_WINDOW
    baseline_records = read_trajectory(args.baseline)
    if not baseline_records:
        raise ReproError(f"{args.baseline} holds no trajectory records")
    if args.candidate:
        candidates = latest_per_bench(read_trajectory(args.candidate))
        history = baseline_records
    else:
        candidates, history = split_latest(baseline_records)
    with _telemetry_scope(args) as tele:
        tele.phase("bench-compare", total=len(candidates))
        verdicts = compare_records(
            candidates, history, tolerance=args.tolerance, window=args.window
        )
        tele.advance("bench-compare", len(verdicts), len(candidates))
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "schema": "repro.cli/bench-compare@1",
                        "baseline": str(args.baseline),
                        "tolerance": args.tolerance,
                        "window": args.window,
                        "verdicts": [v.as_dict() for v in verdicts],
                    },
                    indent=2,
                )
            )
        else:
            rows = [
                {
                    "bench": v.bench,
                    "baseline": (
                        f"{v.baseline_wall_s * 1e3:.3f}ms (n={v.window})"
                        if v.baseline_wall_s is not None
                        else "-"
                    ),
                    "candidate": f"{v.candidate_wall_s * 1e3:.3f}ms",
                    "ratio": f"{v.ratio:.2f}" if v.ratio is not None else "-",
                    "delta": (
                        f"{v.delta_pct:+.1f}%" if v.delta_pct is not None else "-"
                    ),
                    "host": "normalised" if v.normalised else "raw",
                    "status": v.status.upper() if v.regressed else v.status,
                }
                for v in verdicts
            ]
            print(
                render_table(
                    rows,
                    title=(
                        f"bench compare vs {args.baseline} "
                        f"(tolerance {args.tolerance:.0%}, window {args.window})"
                    ),
                )
            )
        if has_regressions(verdicts):
            offenders = [v for v in verdicts if v.regressed]
            bad = ", ".join(v.bench for v in offenders)
            print(f"ERROR: performance regression in {bad}", file=sys.stderr)
            for v in offenders:
                baseline = (
                    f"{v.baseline_wall_s * 1e3:.3f}ms"
                    if v.baseline_wall_s is not None
                    else "no baseline"
                )
                delta = (
                    f"{v.delta_pct:+.1f}%" if v.delta_pct is not None else "n/a"
                )
                print(
                    f"  {v.bench}: baseline {baseline} -> candidate "
                    f"{v.candidate_wall_s * 1e3:.3f}ms (delta {delta})",
                    file=sys.stderr,
                )
            tele.crash(
                "regression-gate",
                detail={"verdicts": [v.as_dict() for v in offenders]},
            )
            if not args.warn_only:
                return 1
            print("(warn-only mode: exiting 0)", file=sys.stderr)
    return 0


def cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro._util.rng import default_rng as _rng
    from repro.obs.perf.chrometrace import write_chrome_trace
    from repro.obs.perf.profiler import profiled, write_profile

    switch = _build_switch(args)
    valid = _rng(args.seed).random((args.trials, switch.n)) < 0.5
    profile = None
    with obs.collecting(max_trace_events=args.max_spans) as registry:
        registry.detail_spans = True  # one engine.stage bar per layer
        with obs.span("trace.run", switch=repr(switch), trials=args.trials):
            if args.profile:
                with profiled() as profile:
                    switch.setup_batch(valid)
            else:
                switch.setup_batch(valid)
    spans = registry.snapshot()["spans"]
    path = write_chrome_trace(
        spans, args.out, metadata={"switch": repr(switch), "trials": args.trials}
    )
    print(
        f"chrome trace written to {path} ({len(spans['events'])} spans, "
        f"{spans['dropped']} dropped) — load at https://ui.perfetto.dev"
    )
    if args.profile and profile is not None:
        prof_path = write_profile(profile, args.profile, top=args.profile_top)
        print(f"profile written to {prof_path}")
    return 0


def cmd_obs_export(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs.live import prometheus_text, replay_journal

    if bool(args.metrics) == bool(args.journal):
        raise ReproError("give exactly one of --metrics or --journal")
    if args.metrics:
        if not Path(args.metrics).exists():
            raise ReproError(f"no metrics file at {args.metrics}")
        snapshot = obs.read_metrics_json(args.metrics)
    else:
        snapshot = replay_journal(args.journal)
    if args.format == "prometheus":
        text = prometheus_text(snapshot)
    else:
        text = json.dumps(snapshot, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"exported to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.perf.report import trajectory_report
    from repro.obs.perf.trajectory import read_trajectory

    records = read_trajectory(args.trajectory)
    text = trajectory_report(records, fmt=args.format)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def cmd_obs_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.perf.analyze import analysis_report, analyze_journal
    from repro.obs.perf.chrometrace import write_chrome_trace

    analysis = analyze_journal(args.journal)
    if args.format == "json":
        import json

        serializable = {
            k: v for k, v in analysis.items() if k not in ("tree", "replayed")
        }
        serializable["tree"] = {
            "roots": analysis["tree"]["roots"],
            "nodes": analysis["tree"]["nodes"],
        }
        text = json.dumps(_json_safe(serializable), indent=2)
    else:
        text = analysis_report(analysis, fmt=args.format)
    if args.trace_out:
        path = write_chrome_trace(
            analysis["replayed"]["spans"],
            args.trace_out,
            metadata={
                "command": analysis.get("command"),
                "trace_id": analysis.get("trace_id"),
            },
        )
        print(f"perfetto trace written to {path}")
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"analysis written to {args.out}")
    else:
        print(text)
    return 0


def cmd_obs_slo(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ConcentrationError
    from repro.obs.live import replay_journal
    from repro.obs.slo import evaluate_slo, load_slo_spec, slo_rows, violations

    if bool(args.journal) == bool(args.input):
        raise ReproError("give exactly one of --journal or --input")
    rules = load_slo_spec(args.spec)
    if args.journal:
        source = replay_journal(args.journal)
        against = args.journal
    else:
        from pathlib import Path

        if not Path(args.input).exists():
            raise ReproError(f"no input file at {args.input}")
        try:
            source = json.loads(Path(args.input).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ReproError(f"{args.input} is not JSON: {exc}") from None
        if not isinstance(source, dict):
            raise ReproError(f"{args.input} is not a JSON object")
        against = args.input
    verdicts = evaluate_slo(rules, source)
    failed = violations(verdicts)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schema": "repro.cli/slo-verdicts@1",
                    "spec": str(args.spec),
                    "against": str(against),
                    "ok": not failed,
                    "verdicts": [v.as_dict() for v in verdicts],
                },
                indent=2,
            )
        )
    else:
        print(
            render_table(
                slo_rows(verdicts),
                title=f"SLO gate: {args.spec} vs {against}",
            )
        )
    if failed:
        names = ", ".join(v.rule.name for v in failed)
        if args.warn_only:
            print(
                f"WARNING: {len(failed)} objective(s) violated: {names} "
                "(warn-only mode: exiting 0)",
                file=sys.stderr,
            )
            return 0
        raise ConcentrationError(
            f"{len(failed)} SLO objective(s) violated: {names}"
        )
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    rows = obs.catalog_rows()
    if args.demo:
        from repro.messages.congestion import DropPolicy
        from repro.network.simulate import SwitchSimulation
        from repro.network.traffic import BernoulliTraffic
        from repro.switches.registry import build_switch

        with obs.collecting() as registry:
            switch = build_switch("revsort", n=64, m=48, r=0, s=0, beta=0.75)
            traffic = BernoulliTraffic(switch.n, p=0.8, seed=0)
            SwitchSimulation(switch, traffic, DropPolicy(), seed=0).run(rounds=20)
        snapshot = registry.snapshot()
        if args.format == "json":
            import json

            print(json.dumps(snapshot, indent=2))
        else:
            print(obs.metrics_markdown(snapshot))
        return 0
    if args.format == "json":
        import json

        print(json.dumps(rows, indent=2))
    else:
        print(render_table(rows, title="repro.obs metric catalog"))
        print(
            "every span also fills a '<name>.seconds' histogram; "
            "collect with --metrics-out or --journal on simulate, certify, "
            "compare, knockout, reproduce, faults sweep, flows and bench"
        )
    return 0


class _LazyChoices:
    """An argparse ``choices`` list that ``module.function()`` returns,
    looked up only when an argument is checked or help is printed, so
    building the parser imports neither module.  Set it on the action
    after ``add_argument``, which would otherwise iterate it at once."""

    def __init__(self, module: str, function: str) -> None:
        self._source = (module, function)

    def _names(self) -> list[str]:
        import importlib

        module, function = self._source
        return getattr(importlib.import_module(module), function)()

    def __contains__(self, value: object) -> bool:
        return value in self._names()

    def __iter__(self):
        return iter(self._names())


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    """Live-telemetry flags shared by the long-running commands."""
    p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="stream a repro.obs/journal@1 JSONL event journal here "
        "(replayable with 'repro obs export --journal')",
    )
    p.add_argument(
        "--live",
        action="store_true",
        help="render live progress (phase, items/s, ETA) on stderr",
    )
    p.add_argument(
        "--crash-dir",
        default=None,
        metavar="DIR",
        help="write flight-recorder crash reports here on failure "
        "(default: next to --journal)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multichip partial concentrator switches (Cormen 1987)",
    )
    env_level = os.environ.get("REPRO_LOG", "warning").lower()
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default=env_level if env_level in _LOG_LEVELS else "warning",
        help="logging threshold for the 'repro' logger "
        "(default: $REPRO_LOG or warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="print Table 1 for a concrete size")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--m", type=int, default=3072)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("design", help="sweep designs under a pin budget")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--m", type=int, default=768)
    p.add_argument("--pin-budget", type=int, default=150)
    p.set_defaults(func=cmd_design)

    for name, func in (("simulate", cmd_simulate), ("verify", cmd_verify)):
        p = sub.add_parser(name)
        from repro.switches.registry import available

        p.add_argument(
            "switch_name",
            nargs="?",
            choices=available(),
            default=None,
            metavar="SWITCH",
            help="switch to use (same as --switch)",
        )
        p.add_argument("--switch", choices=available(), default="revsort")
        p.add_argument("--n", type=int, default=256)
        p.add_argument("--m", type=int, default=192)
        p.add_argument("--r", type=int, default=0)
        p.add_argument("--s", type=int, default=0)
        p.add_argument("--beta", type=float, default=0.75)
        p.add_argument("--seed", type=int, default=0)
        if name == "simulate":
            p.add_argument("--load", type=float, default=0.5)
            p.add_argument("--rounds", type=int, default=50)
            p.add_argument(
                "--policy",
                choices=["drop", "buffer", "resend", "retry"],
                default="drop",
            )
            p.add_argument(
                "--metrics-out",
                default=None,
                help="collect repro.obs metrics and write a JSON snapshot here",
            )
            _add_telemetry_flags(p)
        else:
            p.add_argument("--trials", type=int, default=100)
            p.add_argument(
                "--backend",
                choices=["scalar", "batch", "process"],
                default="scalar",
                help="verification path: scalar = per-trial setup, "
                "batch = setup_batch + vectorised contract checks, "
                "process = sharded engine backend (see --workers)",
            )
            p.add_argument(
                "--workers",
                type=int,
                default=1,
                help="worker processes for --backend process "
                "(0 = one per core); results are identical for any "
                "worker count",
            )
            p.add_argument(
                "--format", choices=["table", "json"], default="table"
            )
        p.set_defaults(func=func)

    p = sub.add_parser(
        "certify",
        help="exhaustively certify registered designs "
        "(all valid-bit patterns for small n, stratified per-load above)",
    )
    from repro.switches.registry import available as _cert_available

    p.add_argument(
        "switch_name",
        nargs="?",
        choices=_cert_available(),
        default=None,
        metavar="SWITCH",
        help="certify one design (default: every registered design)",
    )
    p.add_argument("--n", type=int, default=0, help="override: inputs")
    p.add_argument("--m", type=int, default=0, help="override: outputs")
    p.add_argument("--r", type=int, default=0, help="override: matrix rows")
    p.add_argument("--s", type=int, default=0, help="override: matrix columns")
    p.add_argument(
        "--max-total",
        type=int,
        default=1 << 16,
        help="enumerate all 2^n patterns when 2^n fits this budget",
    )
    p.add_argument(
        "--max-per-k",
        type=int,
        default=512,
        help="stratified tier: pattern budget per load level k",
    )
    p.add_argument(
        "--out",
        default=None,
        help="write certificate JSON artifacts (a directory, or a .json "
        "path when certifying a single config)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for chunk certification (0 = one per "
        "core); certificates are byte-identical for any worker count",
    )
    p.add_argument(
        "--chunk",
        type=int,
        default=0,
        help="patterns per chunk (default: the library's chunk size); "
        "smaller chunks mean finer checkpoint/retry granularity",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist completed chunk reports to per-config journals "
        "under DIR; a killed run resumed with the same arguments skips "
        "finished chunks and emits an identical certificate",
    )
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument(
        "--faults",
        action="store_true",
        help="additionally run a fault campaign per config and emit "
        "degradation certificates (see docs/robustness.md)",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        help="collect repro.obs metrics and write a JSON snapshot here",
    )
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "faults",
        help="fault injection and degraded-mode certification "
        "(docs/robustness.md)",
    )
    faults_sub = p.add_subparsers(dest="faults_command", required=True)
    p.set_defaults(func=cmd_faults)
    from repro.switches.registry import available as _faults_available

    pi = faults_sub.add_parser(
        "inject",
        help="inject one scenario into a switch and measure degradation",
    )
    pi.add_argument("--switch", choices=_faults_available(), default="revsort")
    pi.add_argument("--n", type=int, default=64)
    pi.add_argument("--m", type=int, default=48)
    pi.add_argument("--r", type=int, default=0)
    pi.add_argument("--s", type=int, default=0)
    pi.add_argument("--beta", type=float, default=0.75)
    pi.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="a fault to inject (repeatable): stuck0:PIN, stuck1:PIN, "
        "chip:STAGE:CHIP, wire:STAGE:POS, output:OUT, flaky:PIN:PROB",
    )
    pi.add_argument(
        "--sample",
        type=int,
        default=0,
        metavar="COUNT",
        help="instead of --fault specs: sample COUNT reliability-weighted "
        "faults",
    )
    pi.add_argument(
        "--classes",
        choices=["boundary", "structural", "all"],
        default="structural",
        help="fault classes for --sample",
    )
    pi.add_argument("--name", default="injected")
    pi.add_argument("--trials", type=int, default=32)
    pi.add_argument("--rounds", type=int, default=40,
                    help="simulation rounds for flaky-pin resilience")
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument(
        "--remap-outputs",
        action="store_true",
        help="route around dead output pads using spare positions",
    )
    pi.add_argument("--format", choices=["table", "json"], default="table")
    pi.add_argument("--metrics-out", default=None)
    pi.set_defaults(faults_func=cmd_faults_inject)

    ps = faults_sub.add_parser(
        "sweep",
        help="full fault campaign: monotone boundary chains, cross-path "
        "parity scenarios, flaky-pin resilience",
    )
    ps.add_argument(
        "--switch",
        choices=_faults_available(),
        default=None,
        help="sweep one geometry (default: the paper's n=4096 revsort "
        "and beta=2/3 columnsort)",
    )
    ps.add_argument("--n", type=int, default=256)
    ps.add_argument("--m", type=int, default=192)
    ps.add_argument("--r", type=int, default=0)
    ps.add_argument("--s", type=int, default=0)
    ps.add_argument("--beta", type=float, default=0.75)
    ps.add_argument(
        "--smoke",
        action="store_true",
        help="small geometries + live gate parity — the CI chaos job",
    )
    ps.add_argument("--chains", type=int, default=2)
    ps.add_argument("--chain-length", type=int, default=4)
    ps.add_argument("--parity-scenarios", type=int, default=3)
    ps.add_argument("--parity-faults", type=int, default=2)
    ps.add_argument("--flaky-scenarios", type=int, default=2)
    ps.add_argument("--trials", type=int, default=0,
                    help="capacity probes per scenario (default 32; 12 "
                    "with --smoke)")
    ps.add_argument("--rounds", type=int, default=0,
                    help="resilience simulation rounds (default 40; 20 "
                    "with --smoke)")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument(
        "--out",
        default=None,
        help="directory for degradation certificate JSONs",
    )
    ps.add_argument("--format", choices=["table", "json"], default="table")
    ps.add_argument("--metrics-out", default=None)
    _add_telemetry_flags(ps)
    ps.set_defaults(faults_func=cmd_faults_sweep)

    pr2 = faults_sub.add_parser(
        "report",
        help="render degradation certificates produced by sweep/certify",
    )
    pr2.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="certificate files or directories of them",
    )
    pr2.set_defaults(faults_func=cmd_faults_report)

    p = sub.add_parser(
        "compare",
        help="partial-vs-perfect substitution experiment (Section 1)",
    )
    from repro.switches.registry import available as _available

    p.add_argument("--switch", choices=_available(), default="revsort")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--m", type=int, default=192)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--beta", type=float, default=0.75)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="workers for the batched path (0 = one per core); more "
        "than one fans out over the supervised process pool; results "
        "are identical for any worker count",
    )
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument(
        "--metrics-out",
        default=None,
        help="collect repro.obs metrics and write a JSON snapshot here",
    )
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("knockout", help="analytic vs simulated knockout loss")
    p.add_argument("--ports", type=int, default=16)
    p.add_argument("--load", type=float, default=0.9)
    p.add_argument("--slots", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--metrics-out",
        default=None,
        help="collect repro.obs metrics and write a JSON snapshot here",
    )
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_knockout)

    p = sub.add_parser(
        "flows",
        help="event-driven flow-level fabric simulation: run one fabric "
        "or a head-to-head FCT study (see docs/flows.md)",
    )
    flows_sub = p.add_subparsers(dest="flows_command", required=True)
    p.set_defaults(func=cmd_flows)

    def _add_flows_workload_flags(fp: argparse.ArgumentParser) -> None:
        fp.add_argument(
            "--n", type=int, default=64,
            help="fabric ports (power of four fits every fabric)",
        )
        fp.add_argument(
            "--load", type=float, default=0.7,
            help="offered load per port in cells/cycle",
        )
        fp.add_argument(
            "--duration", type=float, default=200.0,
            help="arrival horizon in cycles (the run drains afterwards)",
        )
        fp.add_argument(
            "--sizes", default="websearch", help="flow size mix",
        ).choices = _LazyChoices("repro.network.flows", "size_distribution_names")
        fp.add_argument(
            "--fixed-size", type=int, default=4,
            help="cells per flow for --sizes fixed",
        )
        fp.add_argument("--seed", type=int, default=0)
        fp.add_argument(
            "--no-backpressure", action="store_true",
            help="drop rejected cells instead of retransmitting",
        )
        fp.add_argument(
            "--max-cycles", type=int, default=0,
            help="cap fabric cycles (0 = the default drain bound)",
        )
        fp.add_argument(
            "--design", default="revsort",
            help="registry design for the concentrator fabric",
        )
        fp.add_argument(
            "--m", type=int, default=0,
            help="concentrator outputs (0 = 3n/4)",
        )
        fp.add_argument(
            "--lanes", type=int, default=4,
            help="knockout concentration ratio L",
        )
        fp.add_argument(
            "--fifo-depth", type=int, default=16,
            help="knockout per-output FIFO depth",
        )
        fp.add_argument(
            "--slot-cycles", type=int, default=1,
            help="cycles the rotor holds each matching",
        )
        fp.add_argument("--format", choices=["table", "json"], default="table")
        fp.add_argument(
            "--metrics-out",
            default=None,
            help="collect repro.obs metrics and write a JSON snapshot here",
        )
        _add_telemetry_flags(fp)

    pf = flows_sub.add_parser(
        "run", help="simulate one fabric over a seeded workload"
    )
    pf.add_argument(
        "--fabric", default="concentrator"
    ).choices = _LazyChoices("repro.network.flows", "fabric_names")
    _add_flows_workload_flags(pf)
    pf.set_defaults(flows_func=cmd_flows_run)

    pfc = flows_sub.add_parser(
        "compare",
        help="head-to-head FCT study: every fabric over the same workload",
    )
    pfc.add_argument(
        "--fabrics", default=None,
        help="comma-separated fabric subset (default: all)",
    )
    _add_flows_workload_flags(pfc)
    pfc.set_defaults(flows_func=cmd_flows_compare)
    # The acceptance-sized default study: >=10^6 events at seed 0.
    pfc.set_defaults(n=256, duration=1500.0)

    p = sub.add_parser("reproduce", help="run the full reproduction report")
    p.add_argument("--output", default=None, help="also write a Markdown report here")
    p.add_argument(
        "--metrics-out",
        default=None,
        help="collect repro.obs metrics and write a JSON snapshot here "
        "(with --output, also adds a Metrics section to the report)",
    )
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "obs",
        help="observability: metric catalog, span-timeline traces, "
        "trajectory reports",
    )
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument(
        "--demo",
        action="store_true",
        help="run a small instrumented simulation and print its snapshot",
    )
    p.set_defaults(func=cmd_obs)
    obs_sub = p.add_subparsers(dest="obs_command")

    pt = obs_sub.add_parser(
        "trace",
        help="run a switch geometry through the batch engine and export "
        "the span timeline as Chrome-trace/Perfetto JSON",
    )
    from repro.switches.registry import available as _trace_available

    pt.add_argument(
        "switch_name",
        nargs="?",
        choices=_trace_available(),
        default=None,
        metavar="SWITCH",
        help="switch to trace (same as --switch)",
    )
    pt.add_argument("--switch", choices=_trace_available(), default="columnsort")
    pt.add_argument("--n", type=int, default=4096)
    pt.add_argument("--m", type=int, default=3072)
    pt.add_argument("--r", type=int, default=0)
    pt.add_argument("--s", type=int, default=0)
    pt.add_argument("--beta", type=float, default=0.75)
    pt.add_argument("--trials", type=int, default=128)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out", required=True, help="Chrome-trace JSON path")
    pt.add_argument(
        "--max-spans",
        type=int,
        default=50_000,
        help="span buffer size (further spans are counted, not stored)",
    )
    pt.add_argument(
        "--profile",
        default=None,
        help="also cProfile the traced run: binary stats for .prof/.pstats "
        "paths (flamegraph tools), a pstats table otherwise",
    )
    pt.add_argument(
        "--profile-top",
        type=int,
        default=30,
        help="rows in the pstats table (text profiles only)",
    )
    pt.set_defaults(func=cmd_obs_trace)

    pe = obs_sub.add_parser(
        "export",
        help="render a metrics snapshot or a replayed event journal as "
        "OpenMetrics/Prometheus text or JSON",
    )
    pe.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="a metrics.json written by --metrics-out",
    )
    pe.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="a repro.obs/journal@1 JSONL to replay into a snapshot",
    )
    pe.add_argument(
        "--format", choices=["prometheus", "json"], default="prometheus"
    )
    pe.add_argument("--out", default=None, help="write instead of printing")
    pe.set_defaults(func=cmd_obs_export)

    pr = obs_sub.add_parser(
        "report", help="render the bench trajectory dashboard"
    )
    pr.add_argument(
        "--trajectory",
        default="BENCH_TRAJECTORY.jsonl",
        help="trajectory file to render",
    )
    pr.add_argument("--format", choices=["table", "md"], default="table")
    pr.add_argument("--out", default=None, help="write instead of printing")
    pr.set_defaults(func=cmd_obs_report)

    pa = obs_sub.add_parser(
        "analyze",
        help="reconstruct the causal span tree from a journal: critical "
        "path, per-phase breakdown, worker utilization/stragglers",
    )
    pa.add_argument(
        "journal", metavar="JOURNAL",
        help="a repro.obs/journal@1 JSONL written with --journal",
    )
    pa.add_argument("--format", choices=["table", "md", "json"], default="table")
    pa.add_argument("--out", default=None, help="write instead of printing")
    pa.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also export the replayed spans as Chrome-trace/Perfetto "
        "JSON (one track per worker, flow arrows from the dispatch span)",
    )
    pa.set_defaults(func=cmd_obs_analyze)

    ps = obs_sub.add_parser(
        "slo",
        help="evaluate a declarative SLO spec against a journal or a "
        "flows run/compare JSON; exits 1 on violation",
    )
    ps.add_argument(
        "--spec", required=True, help="SLO spec (.toml on Python >=3.11, or .json)"
    )
    ps.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="evaluate against a replayed repro.obs/journal@1 journal",
    )
    ps.add_argument(
        "--input",
        default=None,
        metavar="PATH",
        help="evaluate against a flows run/compare JSON document",
    )
    ps.add_argument("--format", choices=["table", "json"], default="table")
    ps.add_argument(
        "--warn-only",
        action="store_true",
        help="report violations but exit 0 (CI soak mode)",
    )
    ps.set_defaults(func=cmd_obs_slo)

    p = sub.add_parser(
        "bench",
        help="performance observatory: run bench suites, gate on the "
        "trajectory (see docs/performance.md)",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    pb = bench_sub.add_parser(
        "run",
        help="run a registry-driven bench suite and append trajectory "
        "records",
    )
    pb.add_argument(
        "--suite", default="smoke",
        help="which suite to run (smoke: CI-sized, full: paper-scale)",
    ).choices = _LazyChoices("repro.obs.perf.suite", "suite_names")
    pb.add_argument("--repeats", type=int, default=3)
    pb.add_argument("--seed", type=int, default=0x1987)
    pb.add_argument(
        "--filter", default=None, help="only benches whose id contains this"
    )
    pb.add_argument(
        "--out",
        default="BENCH_TRAJECTORY.jsonl",
        help="append records to this trajectory file",
    )
    pb.add_argument(
        "--no-alloc",
        action="store_true",
        help="skip the (untimed) tracemalloc allocation pass",
    )
    pb.add_argument(
        "--workers",
        type=int,
        default=0,
        help="cap the process fan-out of scaling benches "
        "(0 = one per core; other suites are unaffected)",
    )
    _add_telemetry_flags(pb)
    pb.set_defaults(func=cmd_bench_run)

    pc = bench_sub.add_parser(
        "compare",
        help="diff the newest record per bench against its baseline "
        "window; exits 1 on regression",
    )
    pc.add_argument(
        "--baseline",
        default="BENCH_TRAJECTORY.jsonl",
        help="trajectory holding the baseline (and, without "
        "--candidate, the candidates too)",
    )
    pc.add_argument(
        "--candidate",
        default=None,
        help="separate trajectory whose newest records are the "
        "candidates (default: newest per bench in --baseline)",
    )
    pc.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative wall-time band treated as noise (default 0.5)",
    )
    pc.add_argument(
        "--window",
        type=int,
        default=None,
        help="trailing records per bench forming the baseline median "
        "(default 5)",
    )
    pc.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (CI smoke mode)",
    )
    pc.add_argument("--format", choices=["table", "json"], default="table")
    _add_telemetry_flags(pc)
    pc.set_defaults(func=cmd_bench_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.log_level)
    try:
        return args.func(args)
    except ConcentrationError as exc:
        # A violated concentration contract is a *finding* (exit 1, like
        # a failed verification), not a usage error.
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    except ExecutionError as exc:
        # The run infrastructure failed (exhausted shard retries), not
        # the switch under test: exit 3, so CI can tell "rerun me" from
        # both findings (1) and usage errors (2).
        print(f"execution failure: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        # Configuration and usage errors (FaultInjectionError included)
        # exit 2, matching argparse's bad-arguments convention.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader (e.g. `| head`) went away — exit quietly
        # instead of spewing a traceback.  Redirect stdout to devnull
        # so the interpreter's shutdown flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
