"""Golden reports: the CLI must keep producing byte-identical JSON for the
corpus, and a byte-identical `tensor` file.  Each case runs in-process
through `cli.main` from the repository root, so inputs are named by the
same relative path every time.

To record the reports again after an intended change of output, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dghom
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
    # the checks on graded and dg inputs, where the Koszul signs of the
    # roundtrip's module map are not all +1; every .dg/.quiver file in
    # tests/golden is an input, so adding one there changes this report
    cases["check.tests-golden.json"] = ["check", "--corpus", "tests/golden", "--bound", "4"]
    # the serialized tensor category: hom labels, structure constants and order
    cases["tensor.path12.quiver.kx2.quiver.dg"] = ["tensor", "corpus/path12.quiver", "corpus/kx2.quiver"]
    # realization: cell attachments, a binomial relation and a graded path
    cases["cell.sphere.1.dg"] = ["cell", "sphere", "1"]
    cases["cell.disk.2.dg"] = ["cell", "disk", "2"]
    for name in ("binomial.quiver", "graded_path.quiver"):
        cases[f"op.{name}.dg"] = ["op", f"tests/golden/{name}"]
    # a saturate input that is not monomial: Tor from the one-sided bar
    cases["binomial.quiver.saturate.json"] = ["saturate", "tests/golden/binomial.quiver", "--bound", "4"]
    # graded inputs: a negative chain-support floor, and (ext_minus1, a
    # loop of degree -1) a non-unit cycle with no bar-degree cap
    for name in ("graded_path.quiver", "cell.sphere.1.dg", "cell.disk.2.dg", "ext_minus1.quiver"):
        for cmd in COMMANDS:
            if cmd[0] != "saturate":
                cases[f"{name}.{cmd[0]}.json"] = [cmd[0], f"tests/golden/{name}", *cmd[1:]]
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


# the source directory of the package this process imported
SRC = os.path.dirname(os.path.dirname(dghom.__file__))


@pytest.mark.parametrize("golden", [f"{name}.{cmd}.json" for name in ("kx2.quiver", "path12.quiver")
                                    for cmd in ("hh", "hp", "saturate")])
def test_report_independent_of_hash_seed(golden, tmp_path):
    # chains are listed in enumeration order, never in hash order, so a
    # fresh process gives the same report under any PYTHONHASHSEED
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / seed / golden
        out.parent.mkdir()
        proc = subprocess.run([sys.executable, "-m", "dghom.cli", *CASES[golden], "--out", str(out)],
                              cwd=ROOT, capture_output=True, env=dict(env, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][1] == (GOLDEN / golden).read_bytes()


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for golden, argv in sorted(CASES.items()):
        _run(argv, GOLDEN / golden)
        print("recorded", golden)
