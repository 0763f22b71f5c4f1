"""What each command loads, measured in a fresh interpreter: this test
process has already imported every dghom module.

`cli` imports the layers every command needs; each command imports the
rest of its stack itself, and no library module pulls in `dataclasses`
(with its `inspect`), so a run compiles only the modules it executes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dghom

KX3_QUIVER = """\
quiver
field q
wordlength 4
vertex v
arrow x v v
relation 1 x.x.x
"""

# k<x, y>/(x^2, y^2, 2xy - yx): not monomial, so Tor comes from the bar
BINOMIAL_QUIVER = Path(__file__).resolve().parent / "golden" / "binomial.quiver"

LAZY = ["dghom.cyclic", "dghom.dgmod", "dghom.saturation", "dghom.corpus"]


def run_cli(argv):
    return ("from dghom import cli\n"
            f"assert cli.main({argv!r} + ['--out', 'report.json']) == 0\n")


# scenario -> (child code, modules it must leave unloaded)
SCENARIOS = {
    "import-cli": ("import dghom.cli\n", LAZY + ["dghom.smoothness", "dataclasses"]),
    "hh": (run_cli(["hh", "kx3.quiver", "--n-max", "2"]),
           ["dghom.cyclic", "dghom.dgmod", "dghom.saturation", "dataclasses"]),
    "hc": (run_cli(["hc", "kx3.quiver", "--n-max", "2"]),
           ["dghom.dgmod", "dghom.saturation", "dataclasses"]),
    "hp": (run_cli(["hp", "kx3.quiver", "--levels", "2"]),
           ["dghom.dgmod", "dghom.saturation", "dataclasses"]),
    # smoothness on a monomial input counts AP(n): no bar, no dgmod
    "saturate": (run_cli(["saturate", "kx3.quiver", "--bound", "4"]), LAZY + ["dataclasses"]),
    # only the bar branch of smoothness_certify imports dgmod
    "saturate-bar": (run_cli(["saturate", "binomial.quiver", "--bound", "2"]),
                     ["dghom.cyclic", "dghom.saturation", "dghom.corpus", "dataclasses"]),
    "setup": ("from dghom import grammar, validate\n"
              "cat, cert = grammar.load_path('kx3.quiver')\n"
              "assert validate(cat).ok and cert.is_closed\n", ["dataclasses"]),
    "every-module": ("from dghom import (cli, corpus, cyclic, dgcore, dgmod, exactfield, grammar,\n"
                     "                   hochschild, monomial, presentation, saturation, smoothness)\n",
                     ["dataclasses"]),
}


def loaded_by(code, cwd):
    """The modules that running code adds to sys.modules, in a fresh child."""
    src = os.path.dirname(os.path.dirname(dghom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    child = ("import json, sys\n"
             "before = set(sys.modules)\n"
             + code +
             "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", child], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_command_loads_only_its_layers(scenario, tmp_path):
    (tmp_path / "kx3.quiver").write_text(KX3_QUIVER)
    shutil.copy(BINOMIAL_QUIVER, tmp_path / "binomial.quiver")
    code, absent = SCENARIOS[scenario]
    loaded = loaded_by(code, tmp_path)
    assert "dghom.exactfield" in loaded
    assert sorted(loaded & set(absent)) == []
    if scenario == "saturate-bar":
        assert {"dghom.smoothness", "dghom.dgmod"} <= loaded

