"""The repo's benchmark: end-to-end times of four ``repro`` commands,
and a traced run that splits one command's wall time by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; needs only the Python that runs the repo.
Workloads are defined in ``workloads.py``, layers in ``layers.py``;
``NOTES.md`` records the design and the measurements behind it.

``--trace 0`` measures, for ``--seconds`` seconds, rounds of three
commands run one at a time from this process: the set-up probe, the
command with telemetry off and the command with its ``--journal`` on
(written inside the checkout, deleted afterwards).  The order alternates
every round, and each round runs on its own input seed derived from
``--seed``.  A run of the host reference program (``hostref.py``) comes
before the first command and after every command.  It prints
``wall_s``, ``wall_journal_s``, ``setup_s`` and ``rss_peak_mb``, each
the median over the run's samples; the three times are host-normalised
seconds (``host_seconds``), and the raw medians are printed beside them.

``--trace 1`` runs journal off/on pairs (for the telemetry tax), then one
traced in-process run (``tracer.py``) and prints the per-layer metrics.

Every command's output is checked; a command that exits non-zero, fails
its check, or whose journal-on stdout differs from the journal-off
stdout counts as a failed operation.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import LAYERS, per_layer_units, share_metric  # noqa: E402
from workloads import VERIFY_WORKERS, WORKLOADS, Workload  # noqa: E402

#: One command may not take longer than this before it is killed.
COMMAND_TIMEOUT_S = 150.0
#: Threads of the BLAS/OpenMP pools, pinned so the two verify workers
#: do not oversubscribe the host's cores.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
#: Distance between the input seeds of successive rounds.
ROUND_SEED_STRIDE = 10007
#: Median time of one reference run (``hostref.py``) on the 2-vCPU host
#: the benchmark was built on.  Timed commands are reported in seconds
#: on a host where the reference takes this long (see ``Runner.rounds``).
REF_NOMINAL_S = 0.3


@contextmanager
def scratch_dir(name: str):
    """A scratch directory inside the checkout, removed on exit."""
    scratch = ROOT / ".perfbench_tmp" / name
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()


def round_seed(seed: int, round_index: int) -> int:
    """The input seed of a round.  Round 0 uses ``--seed`` itself; later
    rounds use other inputs derived from it, so a run's median spans
    several inputs and the spread between runs measures the host more
    than one flow list or fault draw."""
    return seed + ROUND_SEED_STRIDE * round_index


@dataclass
class Sample:
    kind: str  # "probe", "off", "on" or "traced"
    wall_s: float
    rss_mb: float
    stdout: bytes
    ok: bool
    #: Mean time of the reference runs just before and just after this
    #: command; 0 when it was not bracketed.
    host_s: float = 0.0
    journal_bytes: int = 0
    journal_frames: int = 0
    retries: int = 0
    #: The traced run's per-layer record (see tracer.py).
    record: dict | None = None


class Runner:
    """Runs one workload's commands and keeps the operation tally."""

    def __init__(self, workload: Workload, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self._serial = 0
        #: Times of every reference run, in order.
        self.refs: list[float] = []
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"

    # -- commands ------------------------------------------------------

    def _argv(self, kind: str, seed: int, journal: Path | None) -> tuple[list[str], list[str]]:
        """``(process argv, repro argv the check reads)`` for a variant."""
        python = [sys.executable]
        wl = self.workload
        if kind == "probe":
            args = wl.probe_argv(seed)
            if wl.probe_script:
                return python + [str(BENCH / wl.probe_script), *args], args
            return python + ["-m", "repro", *args], args
        args = wl.argv(seed)
        if kind == "on":
            return python + [str(BENCH / "journal_launch.py"), str(journal), *args], args
        if kind == "traced":
            return python + [str(BENCH / "tracer.py"), str(journal), *args], args
        return python + ["-m", "repro", *args], args

    def run(self, kind: str, round_index: int = 0, *, count: bool = True) -> Sample:
        """Run one variant as a child process, timed from launch to exit;
        peak RSS covers the child and every worker it reaped."""
        self._serial += 1
        stem = self.scratch / f"{self._serial}-{kind}"
        aux = stem.with_suffix(".jsonl" if kind == "on" else ".json")
        cmd, args = self._argv(kind, round_seed(self.seed, round_index), aux)
        with open(stem.with_suffix(".out"), "wb+") as out, \
                open(stem.with_suffix(".err"), "wb+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
            err.seek(0)
            stderr = err.read()
        sample = Sample(kind, wall_s, usage.ru_maxrss / 1024.0, stdout, ok=True)
        problem = None
        if proc.returncode != 0:
            problem = f"exit code {proc.returncode}: {stderr.decode(errors='replace')[-400:]}"
        else:
            check = self.workload.probe_check if kind == "probe" else self.workload.check
            try:
                problem = check(stdout.decode(), args)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        if kind == "on" and aux.exists():
            self._read_journal(sample, aux)
            if sample.retries:
                problem = problem or f"{sample.retries} shard retries"
        if kind == "traced":
            sample.record = json.loads(aux.read_text()) if aux.exists() else None
            if sample.record is None or sample.record["leftover_shims"]:
                problem = problem or "traced run left its shims installed"
        if problem:
            sample.ok = False
            print(f"FAILED {self.workload.name} {kind}: {problem}", file=sys.stderr)
        if count:
            self.attempted += 1
            self.failed += not sample.ok
        for path in (stem.with_suffix(".out"), stem.with_suffix(".err"), aux):
            path.unlink(missing_ok=True)
        return sample

    def reference(self) -> float:
        """Run the host reference program once; its wall time in s."""
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "hostref.py")],
            env=self.env, cwd=ROOT, check=True, timeout=COMMAND_TIMEOUT_S,
        )
        self.refs.append(time.perf_counter() - start)
        return self.refs[-1]

    @staticmethod
    def _read_journal(sample: Sample, path: Path) -> None:
        sample.journal_bytes = path.stat().st_size
        with open(path, "rb") as fh:
            for line in fh:
                sample.journal_frames += 1
                if b"engine.shard_retries" in line:
                    frame = json.loads(line)
                    if frame.get("type") == "counter":
                        sample.retries += int(frame.get("delta", 0))

    def compare(self, off: Sample, other: Sample) -> None:
        """A journal-on or traced run must print what the plain run did."""
        if off.ok and other.ok and off.stdout != other.stdout:
            other.ok = False
            self.failed += 1
            print(
                f"FAILED {self.workload.name} {other.kind}: stdout differs "
                "from the telemetry-off run",
                file=sys.stderr,
            )

    def rounds(self, kinds: tuple[str, ...], seconds: float) -> dict[str, list[Sample]]:
        """Round-robin the variants for ``seconds``, alternating order;
        a round starts only if it is expected to end in time.

        A reference run (``hostref.py``) comes before the first command
        and after every command, so each command is bracketed by two.
        A shared host's speed can drift by 15-30 % within minutes and
        move every command with it (NOTES.md); a command's time divided
        by its brackets' mean cancels most of that drift."""
        samples: dict[str, list[Sample]] = {kind: [] for kind in kinds}
        deadline = time.perf_counter() + seconds
        durations: list[float] = []
        self.reference()
        while not durations or time.perf_counter() + statistics.fmean(durations) <= deadline:
            start = time.perf_counter()
            order = kinds if len(durations) % 2 == 0 else tuple(reversed(kinds))
            for kind in order:
                samples[kind].append(self._bracketed(kind, len(durations)))
            self.compare(samples["off"][-1], samples["on"][-1])
            durations.append(time.perf_counter() - start)
        return samples

    def _bracketed(self, kind: str, round_index: int) -> Sample:
        """Run a variant once, then a reference run; the command's
        ``host_s`` is the mean of the reference runs on either side."""
        sample = self.run(kind, round_index)
        before = self.refs[-1]
        sample.host_s = (before + self.reference()) / 2
        return sample


# -- statistics and reporting --------------------------------------------


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; quartiles need two values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report_line(name: str, unit: str, values: list[float]) -> float:
    q1, median, q3 = summary(values)
    print(
        f"{name:>16} median {median:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
        f"n={len(values)}"
    )
    return median


def host_seconds(sample: Sample) -> float:
    """A command's time scaled to a host whose reference run takes
    REF_NOMINAL_S: its wall time over its brackets' mean reference."""
    return sample.wall_s / sample.host_s * REF_NOMINAL_S


def timed_metrics(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    samples = runner.rounds(("probe", "off", "on"), seconds)
    for kind, got in samples.items():
        report_line(f"raw {kind}", "s", [s.wall_s for s in got])
    report_line("raw reference", "s", runner.refs)
    walls = {kind: [host_seconds(s) for s in got] for kind, got in samples.items()}
    return {
        "wall_s": (report_line("wall_s", "s", walls["off"]), "s"),
        "wall_journal_s": (report_line("wall_journal_s", "s", walls["on"]), "s"),
        "setup_s": (report_line("setup_s", "s", walls["probe"]), "s"),
        "rss_peak_mb": (
            report_line("rss_peak_mb", "MB", [s.rss_mb for s in samples["off"]]),
            "MB",
        ),
    }


def coverage_gaps(record: dict, workload: str) -> list[str]:
    """What the traced run failed to measure: layer targets the program
    no longer has, and layers or counts that read 0 on a workload the
    table says uses them.  Either makes the traced run a failed
    operation, so a vanished layer cannot pass for a faster one."""
    gaps = [f"layer target not in the program: {t}" for t in record.get("missing_targets", ())]
    for layer in LAYERS:
        if workload not in layer.on:
            continue
        if not record["calls"].get(layer.name):
            gaps.append(f"layer {layer.name} not reached")
        gaps.extend(
            f"count {count.name} is 0"
            for count in layer.counts
            if not record["counts"].get(count.name)
        )
    return gaps


def traced_metrics(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    pairs = runner.rounds(("off", "on"), seconds / 2)
    wall_off = statistics.median(s.wall_s for s in pairs["off"])
    tax = statistics.median(host_seconds(s) for s in pairs["on"]) / statistics.median(
        host_seconds(s) for s in pairs["off"]
    )
    traced = runner.run("traced")
    runner.compare(pairs["off"][0], traced)
    record = traced.record or {
        "wall_s": traced.wall_s, "self_s": {}, "total_s": {}, "calls": {},
        "counts": {}, "worker_cpu_s": 0.0,
    }
    wall_s = record["wall_s"]
    self_s = record["self_s"]
    values: dict[str, float] = {}
    gaps = coverage_gaps(record, runner.workload.name)
    if gaps and traced.ok:
        traced.ok = False
        runner.failed += 1
    for gap in gaps:
        print(f"FAILED {runner.workload.name} traced: {gap}")
    print(f"traced wall {wall_s:.4f} s (untraced {wall_off:.4f} s)")
    print(f"{'layer':>34} {'self s':>9} {'share %':>8}  should move")
    for layer in LAYERS:
        seconds_in = self_s.get(layer.name, 0.0)
        values[share_metric(layer.name)] = 100.0 * seconds_in / wall_s
        print(
            f"{layer.name:>34} {seconds_in:9.4f} "
            f"{values[share_metric(layer.name)]:8.2f}  {layer.moves}"
        )
        for count in layer.counts:
            values[count.name] = record["counts"].get(count.name, 0)
    unattributed_s = wall_s - sum(self_s.values())
    print(f"{'unattributed':>34} {unattributed_s:9.4f} {100.0 * unattributed_s / wall_s:8.2f}")
    dispatch_s = record["total_s"].get("engine.backends.dispatch", 0.0)
    worker_cpu_s = record["worker_cpu_s"]
    journal = pairs["on"]
    values.update({
        "unattributed_pct": 100.0 * unattributed_s / wall_s,
        "engine.backends.worker_cpu_pct": 100.0 * worker_cpu_s / wall_s,
        "engine.backends.worker_idle_pct": (
            100.0 * (1.0 - worker_cpu_s / (VERIFY_WORKERS * dispatch_s)) if dispatch_s else 0.0
        ),
        "engine.backends.retries": sum(s.retries for s in journal),
        "obs.tax_pct": 100.0 * (tax - 1.0),
        "obs.journal_bytes": statistics.median(s.journal_bytes for s in journal),
        "obs.journal_frames": statistics.median(s.journal_frames for s in journal),
        "trace.wall_s": wall_s,
        "trace.overhead_pct": 100.0 * (traced.wall_s - wall_off) / wall_off,
    })
    units = per_layer_units()
    return {name: (values[name], unit) for name, unit in units.items() if name in values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile once per checkout, so no timed run pays for it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    with scratch_dir(str(os.getpid())) as scratch:
        runner = Runner(WORKLOADS[args.workload], args.seed, scratch)
        runner.run("probe", count=False)  # warm-up, discarded
        if args.trace:
            metrics = traced_metrics(runner, args.seconds)
        else:
            metrics = timed_metrics(runner, args.seconds)
    host_ref_s = statistics.median(runner.refs)
    if args.trace:
        metrics["host.ref_s"] = (host_ref_s, "s")
    print(
        f"host: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
        f"numpy {numpy.__version__}; host.ref_s {host_ref_s:.4f} "
        f"(median of {len(runner.refs)} reference runs)"
    )
    print(f"operations: {runner.attempted - runner.failed}/{runner.attempted} ok")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
