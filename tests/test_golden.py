"""Golden reports: the CLI must keep producing byte-identical JSON for the
corpus.  Each case runs in-process through `cli.main` from the repository
root, so inputs are named by the same relative path every time.

To record the reports again after an intended change of output, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from dghom.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = (("hh",), ("hc",), ("hp",), ("saturate", "--bound", "4"), ("euler", "--bound", "4"))


def _cases():
    cases = {}
    for name in sorted(os.listdir(ROOT / "corpus")):
        for cmd in COMMANDS:
            cases[f"{name}.{cmd[0]}.json"] = [cmd[0], f"corpus/{name}", *cmd[1:]]
    cases["check.json"] = ["check", "--corpus", "corpus", "--bound", "4"]
    return cases


CASES = _cases()


def _run(argv, out):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([*argv, "--out", str(out)])
    assert rc == 0, argv
    return out.read_bytes()


@pytest.mark.parametrize("golden", sorted(CASES))
def test_report_byte_identical(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    got = _run(CASES[golden], tmp_path / golden)
    assert got == (GOLDEN / golden).read_bytes()


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for golden, argv in sorted(CASES.items()):
        _run(argv, GOLDEN / golden)
        print("recorded", golden)
