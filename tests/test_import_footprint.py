"""What each command loads, measured in a fresh interpreter: this test
process has already imported every dghom module.

`cli` imports the layers every command needs; each command imports the
rest of its stack itself, and no library module pulls in `dataclasses`
(with its `inspect`), so a run compiles only the modules it executes.
`hh` and `hc` enter through `monomial`, which imports the bar engines
(`hochschild`, `cyclic`) only when an input falls back to them; so does
the HH route of `euler`, which is `hh_dims`.  The package exports the
cells (`dghom.cells`) but loads them on first use, which only `check`
makes.
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

KX3_F3_QUIVER = KX3_QUIVER.replace("field q", "field fp 3")

# k<x, y>/(x^2, y^2, 2xy - yx): not monomial, so HH, HC and Tor come from the bar
BINOMIAL_QUIVER = Path(__file__).resolve().parent / "golden" / "binomial.quiver"

# arrows in degrees 1 and -1: the chain-support floor is -1, so HH comes from the bar
GRADED_PATH_QUIVER = Path(__file__).resolve().parent / "golden" / "graded_path.quiver"

A3_QUIVER = """\
quiver
field q
wordlength 3
vertex 1
vertex 2
vertex 3
arrow a 1 2
arrow b 2 3
"""

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LAZY = ["dghom.cyclic", "dghom.dgmod", "dghom.saturation", "dghom.corpus", "dghom.cells"]
BARS = ["dghom.hochschild", "dghom.cyclic"]


def run_cli(argv):
    return ("from dghom import cli\n"
            f"assert cli.main({argv!r} + ['--out', 'report.json']) == 0\n")


# the benchmark's triangle op, on A3 and on A3/(ab)
TRIANGLE = (f"import sys\nsys.path.insert(0, {str(PERFBENCH)!r})\nimport child\n"
            "for name in ('a3.quiver', 'a3_ab.quiver'):\n"
            "    assert child.run('triangle', [name], 'report.json') == 0\n")

# the dghom modules the triangle op loaded when this test was written: a
# change that moves code between modules must not make it compile more
TRIANGLE_MODULES = {"dghom", "dghom.dgcore", "dghom.dgmod", "dghom.exactfield", "dghom.grammar",
                    "dghom.monomial", "dghom.presentation", "dghom.saturation",
                    "dghom.smoothness"}

# scenario -> (child code, modules it must leave unloaded, modules it must load)
SCENARIOS = {
    "import-cli": ("import dghom.cli\n", LAZY + BARS + ["dghom.smoothness", "dataclasses"], []),
    # a monomial input takes Bardzell's complex: no bar engine
    "hh": (run_cli(["hh", "kx3.quiver", "--n-max", "2"]),
           LAZY + BARS + ["dataclasses"], ["dghom.monomial"]),
    "hc": (run_cli(["hc", "kx3.quiver", "--n-max", "2"]),
           LAZY + BARS + ["dataclasses"], ["dghom.monomial"]),
    # the fallbacks import their engines when they run
    "hh-bar": (run_cli(["hh", "binomial.quiver", "--n-max", "3"]),
               ["dghom.cyclic", "dghom.dgmod", "dghom.saturation", "dataclasses"],
               ["dghom.hochschild"]),
    "hc-bar": (run_cli(["hc", "binomial.quiver", "--n-max", "2"]),
               ["dghom.dgmod", "dghom.saturation", "dataclasses"], BARS),
    # the weight route to HC needs characteristic 0
    "hc-fp3": (run_cli(["hc", "kx3f3.quiver", "--n-max", "2"]),
               ["dghom.dgmod", "dghom.saturation", "dataclasses"], BARS),
    "hp": (run_cli(["hp", "kx3.quiver", "--levels", "2"]),
           ["dghom.dgmod", "dghom.saturation", "dataclasses"], BARS),
    # smoothness on a monomial input counts AP(n): no bar, no dgmod
    "saturate": (run_cli(["saturate", "kx3.quiver", "--bound", "4"]),
                 LAZY + ["dghom.hochschild", "dataclasses"], ["dghom.smoothness"]),
    # only the bar branch of smoothness_certify imports dgmod
    "saturate-bar": (run_cli(["saturate", "binomial.quiver", "--bound", "2"]),
                     BARS + ["dghom.saturation", "dghom.corpus", "dataclasses"],
                     ["dghom.smoothness", "dghom.dgmod"]),
    # A3 and A3/(ab) are monomial: the Euler HH route takes Bardzell's complex
    "triangle": (TRIANGLE, BARS + ["dataclasses"], sorted(TRIANGLE_MODULES)),
    "euler": (run_cli(["euler", "a3.quiver"]),
              BARS + ["dghom.corpus", "dataclasses"], ["dghom.monomial", "dghom.saturation"]),
    "euler-bar": (run_cli(["euler", "graded_path.quiver"]),
                  ["dghom.cyclic", "dghom.corpus", "dataclasses"], ["dghom.hochschild"]),
    "setup": ("from dghom import grammar, validate\n"
              "cat, cert = grammar.load_path('kx3.quiver')\n"
              "assert validate(cat).ok and cert.is_closed\n", ["dghom.cells", "dataclasses"], []),
    # the package's cell names load the cells module when first read
    "package-cells": ("import dghom\nfrom dghom import disk_cell, sphere_cell, unit_category\n"
                      "assert sphere_cell is dghom.cells.sphere_cell\n"
                      "assert not hasattr(dghom, 'no_such_name')\n",
                      ["dataclasses"], ["dghom.cells"]),
    "every-module": ("from dghom import (cli, corpus, cyclic, dgcore, dgmod, exactfield, grammar,\n"
                     "                   hochschild, monomial, presentation, saturation, smoothness)\n",
                     ["dataclasses"], []),
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
    (tmp_path / "kx3f3.quiver").write_text(KX3_F3_QUIVER)
    (tmp_path / "a3.quiver").write_text(A3_QUIVER)
    (tmp_path / "a3_ab.quiver").write_text(A3_QUIVER + "relation 1 a.b\n")
    shutil.copy(BINOMIAL_QUIVER, tmp_path / "binomial.quiver")
    shutil.copy(GRADED_PATH_QUIVER, tmp_path / "graded_path.quiver")
    code, absent, present = SCENARIOS[scenario]
    loaded = loaded_by(code, tmp_path)
    assert "dghom.exactfield" in loaded
    assert sorted(loaded & set(absent)) == []
    assert sorted(set(present) - loaded) == []
    if scenario == "triangle":
        assert {m for m in loaded if m.startswith("dghom")} == TRIANGLE_MODULES
