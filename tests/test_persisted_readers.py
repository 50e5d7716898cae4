"""Every reader of a persisted format turns corrupt input into a
:class:`~repro.errors.ConfigurationError` (CLI exit 2) that names the
file — and, for JSONL, the line — never a decoder traceback."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, exit_code_for
from repro.obs.live.flight import CRASH_SCHEMA, read_crash_report
from repro.obs.live.journal import JOURNAL_SCHEMA, read_journal
from repro.obs.perf.trajectory import TRAJECTORY_SCHEMA, read_trajectory
from repro.obs.slo import SLO_SCHEMA, load_slo_spec

_JOURNAL_HEAD = json.dumps({"type": "start", "schema": JOURNAL_SCHEMA, "seq": 0})
_TRAJECTORY_HEAD = json.dumps({"schema": TRAJECTORY_SCHEMA, "bench": "b"})

#: reader, file name, {case: (content, message fragment)}; the JSONL
#: cases break line 2 after a valid first line.
READERS = [
    (read_journal, "j.jsonl", {
        "garbage": (f"{_JOURNAL_HEAD}\nnot json\n", ":2 is not valid JSON"),
        "truncated": (f'{_JOURNAL_HEAD}\n{{"type": "counter", "ke', ":2 is not valid JSON"),
        "non-object": (f"{_JOURNAL_HEAD}\n[1, 2]\n", ":2 is not a journal record"),
    }),
    (read_trajectory, "t.jsonl", {
        "garbage": (f"{_TRAJECTORY_HEAD}\n}}{{\n", ":2 is not valid JSON"),
        "truncated": (f'{_TRAJECTORY_HEAD}\n{{"schema": "repro.o', ":2 is not valid JSON"),
        "non-object": (f"{_TRAJECTORY_HEAD}\n42\n", ":2 is not a trajectory record"),
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
