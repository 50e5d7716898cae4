"""Every reader of a persisted format turns corrupt input into a
:class:`~repro.errors.ConfigurationError` (CLI exit 2) that names the
file — and, for JSONL, the line — never a decoder traceback."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, exit_code_for
from repro.obs.live.flight import CRASH_SCHEMA, read_crash_report
from repro.obs.live.journal import JOURNAL_SCHEMA, read_journal
from repro.obs.perf.trajectory import TRAJECTORY_SCHEMA, read_trajectory
from repro.obs.slo import SLO_SCHEMA, load_slo_spec

_JOURNAL_HEAD = json.dumps({"type": "start", "schema": JOURNAL_SCHEMA, "seq": 0})
_TRAJECTORY_HEAD = json.dumps({"schema": TRAJECTORY_SCHEMA, "bench": "b", "median_wall_s": 0.5})

#: reader, file name, {case: (content, message fragment)}; the JSONL
#: cases break line 2 after a valid first line.
READERS = [
    (read_journal, "j.jsonl", {
        "garbage": (f"{_JOURNAL_HEAD}\nnot json\n", ":2 is not valid JSON"),
        "truncated": (f'{_JOURNAL_HEAD}\n{{"type": "counter", "ke', ":2 is not valid JSON"),
        "non-object": (f"{_JOURNAL_HEAD}\n[1, 2]\n", ":2 is not a journal record"),
        "missing-field": (
            f'{_JOURNAL_HEAD}\n{{"type": "counter", "key": "k"}}\n', "mistyped 'delta'"
        ),
    }),
    (read_trajectory, "t.jsonl", {
        "garbage": (f"{_TRAJECTORY_HEAD}\n}}{{\n", ":2 is not valid JSON"),
        "truncated": (f'{_TRAJECTORY_HEAD}\n{{"schema": "repro.o', ":2 is not valid JSON"),
        "non-object": (f"{_TRAJECTORY_HEAD}\n42\n", ":2 is not a trajectory record"),
        "missing-field": (
            f'{_TRAJECTORY_HEAD}\n{{"schema": "{TRAJECTORY_SCHEMA}", "bench": "b"}}\n',
            ":2 is not a trajectory record (missing or mistyped 'median_wall_s')",
        ),
    }),
    (read_crash_report, "crash.json", {
        "garbage": ("\x00garbage", "is not a valid crash report"),
        "truncated": (json.dumps({"schema": CRASH_SCHEMA})[:-4], "is not a valid crash report"),
        "non-object": ("[1, 2]", "expected an object, got list"),
    }),
    (load_slo_spec, "spec.json", {
        "garbage": ("garbage", "is not a valid SLO spec"),
        "truncated": (json.dumps({"schema": SLO_SCHEMA, "rules": []})[:-3], "is not a valid SLO spec"),
        "non-object": ('["rules"]', "expected an object, got list"),
    }),
    (load_slo_spec, "spec.toml", {
        "garbage": ("= = =", "is not a valid SLO spec"),
        "truncated": (f'schema = "{SLO_SCHEMA}"\n[[rules]]\nmetric = "x', "is not a valid SLO spec"),
        "bad-encoding": ("\xff\xfe", "is not a valid SLO spec"),
    }),
]


@pytest.mark.parametrize(
    "reader, name, cases", READERS, ids=[f"{r.__name__}-{n}" for r, n, _ in READERS]
)
def test_corrupt_input_is_a_configuration_error(tmp_path, reader, name, cases):
    path = tmp_path / name
    for case, (content, fragment) in cases.items():
        path.write_bytes(content.encode("latin-1"))
        with pytest.raises(ConfigurationError) as excinfo:
            reader(path)
        message = str(excinfo.value)
        assert str(path) in message, case
        assert fragment in message, case
        assert exit_code_for(excinfo.value) == 2


def test_obs_analyze_on_a_truncated_journal_exits_2(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "j.jsonl"
    path.write_text(f'{_JOURNAL_HEAD}\n{{"type": "counter", "ke', encoding="utf-8")
    assert main(["obs", "analyze", str(path)]) == 2
    assert f"{path}:2" in capsys.readouterr().err


#: case -> (whether a valid header comes first, the lines after it,
#: the line number the error must name).  A torn tail is skipped, not
#: an error (``test_supervision::TestCheckpoint``).
CHECKPOINT_CASES = {
    "non-object-header": (False, ["[1]"], 1),
    "non-object-record": (True, ["[1]"], 2),
    "record-without-fields": (True, ['{"report": {}}'], 2),
    "report-without-fields": (True, ['{"index": 0, "report": {}}'], 2),
    "report-not-an-object": (True, ['{"index": 0, "report": 3}'], 2),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_CASES))
def test_corrupt_checkpoint_is_a_configuration_error(tmp_path, case):
    from repro.verify.checkpoint import SCHEMA, CertifyCheckpoint

    header, lines, lineno = CHECKPOINT_CASES[case]
    head = [json.dumps({"schema": SCHEMA, "fingerprint": "f"})] if header else []
    path = tmp_path / "ck.jsonl"
    path.write_text("\n".join(head + lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError) as excinfo:
        CertifyCheckpoint(path, "f")
    assert f"{path}:{lineno}" in str(excinfo.value)
    assert exit_code_for(excinfo.value) == 2


def test_certify_on_a_corrupt_checkpoint_exits_2(tmp_path, capsys):
    from repro.cli import main

    argv = [
        "certify", "hyper", "--n", "8", "--max-total", "64",
        "--checkpoint", str(tmp_path),
    ]
    assert main(argv) == 0
    (path,) = tmp_path.glob("*.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("[1]\n")
    capsys.readouterr()
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().err


def _certify_argv(checkpoint_dir) -> list[str]:
    return [
        "certify", "revsort", "--n", "16", "--m", "12", "--max-total", "1024",
        "--format", "json", "--checkpoint", str(checkpoint_dir),
    ]


def test_certify_on_an_older_checkpoint_schema_exits_2(tmp_path, capsys):
    """``@2`` chunks fill across load levels, so an ``@1`` journal's
    chunk indices name other chunks: it is refused, not folded."""
    from repro.cli import main
    from repro.verify.checkpoint import SCHEMA

    argv = _certify_argv(tmp_path)
    assert main(argv) == 0
    (path,) = tmp_path.glob("*.jsonl")
    header, *records = path.read_text(encoding="utf-8").splitlines()
    old = dict(json.loads(header), schema="repro.verify/checkpoint@1")
    path.write_text("\n".join([json.dumps(old), *records]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "repro.verify/checkpoint@1" in err
    assert SCHEMA in err


def test_non_utf8_checkpoint_bytes_are_a_torn_line(tmp_path, capsys):
    from repro.cli import main

    argv = _certify_argv(tmp_path)
    assert main(argv) == 0
    clean = capsys.readouterr().out
    (path,) = tmp_path.glob("*.jsonl")
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    assert main(argv) == 0
    assert capsys.readouterr().out == clean


@functools.lru_cache(maxsize=None)
def _clean_checkpoint():
    """Options, a valid 8-chunk journal, and the certificate of its run."""
    import tempfile
    from pathlib import Path

    from repro.switches.hyperconcentrator import Hyperconcentrator
    from repro.verify import CertifyOptions, certify_switch

    options = CertifyOptions(
        max_total=256, chunk=32, scalar_rows=8, metamorphic_rows=4
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.jsonl"
        cert = certify_switch(
            Hyperconcentrator(8), design="hyper", options=options,
            checkpoint=str(path),
        )
        return options, path.read_bytes(), cert.to_json()


@st.composite
def _damaged(draw, source) -> bytes:
    """The bytes ``source()`` returns truncated, overwritten or spliced
    with junk, or with one digit changed (the line still parses, its
    values lie)."""
    data = source()
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert", "digit"]))
    if kind == "truncate":
        return data[:at]
    if kind == "digit":
        at = draw(st.sampled_from([i for i, b in enumerate(data) if chr(b).isdigit()]))
        digit = draw(st.sampled_from([d for d in b"0123456789" if d != data[at]]))
        return data[:at] + bytes([digit]) + data[at + 1:]
    junk = draw(st.binary(min_size=1, max_size=16))
    if kind == "overwrite":
        return data[:at] + junk + data[at + len(junk):]
    return data[:at] + junk + data[at:]


@given(_damaged(lambda: _clean_checkpoint()[1]))
def test_damaged_checkpoint_resumes_identically_or_is_refused(damaged):
    """Any truncation or byte garbage of a valid journal resumes to the
    clean certificate (damaged records re-run) or is refused with a
    ConfigurationError; it never raises anything else."""
    import tempfile
    from pathlib import Path

    from repro.switches.hyperconcentrator import Hyperconcentrator
    from repro.verify import certify_switch

    options, _, clean = _clean_checkpoint()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.jsonl"
        path.write_bytes(damaged)
        try:
            cert = certify_switch(
                Hyperconcentrator(8), design="hyper", options=options,
                checkpoint=str(path),
            )
        except ConfigurationError:
            return
    assert cert.to_json() == clean


_GOLDEN = Path(__file__).parent / "golden"
_CLEAN_JOURNAL = _GOLDEN / "journal_deterministic.jsonl"


def _clean_trajectory() -> bytes:
    from repro.obs.perf import trajectory

    def record(median: float) -> dict:
        return trajectory.new_record(
            bench="b", suite="smoke", unit="trials", repeats=1,
            wall_s=[median], median_wall_s=median, best_wall_s=median, work=64,
            throughput=64 / median, rss_peak_kb=1000, alloc_peak_kb=10,
            alloc_blocks=5, plan_cache={"hits": 3, "misses": 0, "hit_rate": 1.0},
            span_seconds={}, meta={},
            env={"git_sha": "a" * 40, "git_dirty": False, "python": "3.11",
                 "numpy": "2", "platform": "test"},
            seed=7, started_at="2026-01-01T00:00:00+0000",
        )

    return "".join(json.dumps(record(m)) + "\n" for m in (0.01, 0.012, 0.011)).encode()


def _clean_slo_spec() -> bytes:
    rules = [
        {"name": "rounds ran", "metric": "counter:sim.rounds", "op": ">=", "threshold": 1.0},
        {"name": "no retries", "metric": "counter:engine.shard_retries", "op": "<=",
         "threshold": 0.0, "default": 0.0},
    ]
    return json.dumps({"schema": SLO_SCHEMA, "rules": rules}, indent=2).encode()


#: case -> (clean file bytes, file name, ``repro`` arguments for a path).
CLI_READERS = {
    "journal-analyze": (
        _CLEAN_JOURNAL.read_bytes, "j.jsonl",
        lambda path: ["obs", "analyze", path, "--format", "json"],
    ),
    "journal-export": (
        _CLEAN_JOURNAL.read_bytes, "j.jsonl",
        lambda path: ["obs", "export", "--journal", path],
    ),
    "trajectory-compare": (
        _clean_trajectory, "t.jsonl",
        lambda path: ["bench", "compare", "--baseline", path, "--format", "json"],
    ),
    "trajectory-report": (
        _clean_trajectory, "t.jsonl",
        lambda path: ["obs", "report", "--trajectory", path],
    ),
    "slo-spec": (
        _clean_slo_spec, "spec.json",
        lambda path: ["obs", "slo", "--spec", path, "--journal", str(_CLEAN_JOURNAL)],
    ),
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    import contextlib
    import io

    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(CLI_READERS))
def test_clean_persisted_files_read_through_the_cli(tmp_path, case):
    source, name, argv = CLI_READERS[case]
    path = tmp_path / name
    path.write_bytes(source())
    code, out, err = _run(argv(str(path)))
    assert (code, err) == (0, ""), err
    assert out


@pytest.mark.parametrize("case", sorted(CLI_READERS))
@settings(max_examples=25)
@given(data=st.data())
def test_damaged_persisted_files_never_raise_through_the_cli(case, data):
    """Whatever the damage, the command either runs to a verdict (exit
    0 or 1: a changed digit or a cut at a line end leaves a valid file,
    and these formats carry no checksum) or exits 2 naming the damaged
    file; it never raises."""
    import tempfile

    source, name, argv = CLI_READERS[case]
    damaged = data.draw(_damaged(source))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(damaged)
        code, _, err = _run(argv(str(path)))
    assert code in (0, 1, 2), err
    if code == 2:
        assert str(path) in err


@settings(max_examples=25)
@given(data=st.data())
def test_damaged_crash_report_is_read_or_refused(tmp_path_factory, data):
    """Crash reports have no reading command: the reader itself either
    returns the report or raises a ConfigurationError naming the file."""
    from repro.obs.live.flight import FlightRecorder

    directory = tmp_path_factory.mktemp("crash")
    clean = FlightRecorder().write(
        directory / "clean.json", reason="unhandled-exception", command="golden"
    ).read_bytes()
    path = directory / "crash.json"
    path.write_bytes(data.draw(_damaged(lambda: clean)))
    try:
        report = read_crash_report(path)
    except ConfigurationError as exc:
        assert str(path) in str(exc)
        assert exit_code_for(exc) == 2
    else:
        assert report["schema"] == CRASH_SCHEMA
