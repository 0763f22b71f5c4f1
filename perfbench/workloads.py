"""Workloads of the dghom benchmark: seeded inputs, ops and the
correctness gate applied to every op's report.

Every input is a quiver presentation.  The seed relabels vertices and
arrows and permutes the order of the declarations, so the generated
inputs are isomorphic to the named categories and the closed forms
below hold for every seed.  The seed does move the running time (the
chain order and hence the elimination order follow the labels), so two
measurements are comparable only at the same seed.
"""

from __future__ import annotations

import json
import os
import random
import string

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (field line, wordlength, vertices, arrows (name, src, tgt), relations)
# A relation is a list of (coefficient, path) with the path in diagram order.
QUIVERS = {
    "kx2": ("q", 3, ["v"], [("x", "v", "v")], [[(1, ["x", "x"])]]),
    "path12": ("q", 2, ["1", "2"], [("a", "1", "2")], []),
    "kx3_q": ("q", 4, ["v"], [("x", "v", "v")], [[(1, ["x", "x", "x"])]]),
    "kx3_f3": ("fp 3", 4, ["v"], [("x", "v", "v")], [[(1, ["x", "x", "x"])]]),
    "kx3_f5": ("fp 5", 4, ["v"], [("x", "v", "v")], [[(1, ["x", "x", "x"])]]),
    "a3": ("q", 3, ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], []),
    "a3_ab": ("q", 3, ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")],
              [[(1, ["a", "b"])]]),
}

# An op is (label, kind, arguments); "{name}" stands for the generated
# file of input `name`.  "cli" ops run `dghom <arguments> --out <report>`;
# "triangle" runs triangle_identity_check(a, (-2, 2)) and euler_report(a).
WORKLOADS = {
    "saturate": [
        ("saturate_kx2", "cli", ["saturate", "{kx2}", "--bound", "6"]),
        ("saturate_path12", "cli", ["saturate", "{path12}", "--bound", "6"]),
    ],
    "cyclic": [
        ("hp_kx2", "cli", ["hp", "{kx2}", "--window", "0..1", "--levels", "6"]),
        ("hc_kx3_q", "cli", ["hc", "{kx3_q}", "--n-max", "6"]),
    ],
    "triangle": [
        ("triangle_a3", "triangle", ["{a3}"]),
        ("triangle_a3_ab", "triangle", ["{a3_ab}"]),
    ],
    "hochschild": [
        ("hh_kx3_q", "cli", ["hh", "{kx3_q}", "--n-max", "8"]),
        ("hh_kx3_f3", "cli", ["hh", "{kx3_f3}", "--n-max", "9"]),
        ("hh_kx3_f5", "cli", ["hh", "{kx3_f5}", "--n-max", "9"]),
    ],
}


def inputs_of(workload):
    names = []
    for _label, _kind, args in WORKLOADS[workload]:
        for a in args:
            if a.startswith("{") and a[1:-1] not in names:
                names.append(a[1:-1])
    return names


def _fresh_names(rng, count, taken):
    """`count` distinct three-letter names plus a digit, none in `taken`."""
    out = []
    while len(out) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(3)) + rng.choice(string.digits)
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def quiver_text(name, rng):
    field, wordlength, vertices, arrows, relations = QUIVERS[name]
    taken = set()
    vmap = dict(zip(vertices, _fresh_names(rng, len(vertices), taken)))
    amap = dict(zip((a[0] for a in arrows), _fresh_names(rng, len(arrows), taken)))
    lines = [f"vertex {vmap[v]}" for v in vertices]
    lines += [f"arrow {amap[a]} {vmap[s]} {vmap[t]}" for a, s, t in arrows]
    lines += ["relation " + " ".join(f"{c} {'.'.join(amap[g] for g in path)}" for c, path in rel)
              for rel in relations]
    rng.shuffle(lines)
    return "\n".join(["quiver", f"field {field}", f"wordlength {wordlength}"] + lines) + "\n"


def write_inputs(workload, seed, directory):
    """Write the workload's inputs for `seed`; returns name -> path."""
    rng = random.Random(f"{workload}:{seed}")
    paths = {}
    for name in inputs_of(workload):
        path = os.path.join(directory, f"{name}.quiver")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(quiver_text(name, rng))
        paths[name] = path
    return paths


def op_argv(args, paths):
    return [paths[a[1:-1]] if a.startswith("{") else a for a in args]


# ---------------------------------------------------------------------------
# correctness gate

def summary(report):
    """The label-free part of a report: input names and the vertex
    labels inside properness details change with the seed."""
    out = {k: v for k, v in report.items() if k != "input"}
    if "proper_detail" in out:
        out["proper_detail"] = sorted(out["proper_detail"].values())
    return out


def _hh_closed_form(n, p, degree):
    """dim HH_degree of k[x]/(x^n) over a field of characteristic p."""
    if degree == 0 or (p and n % p == 0):
        return n
    return n - 1


_LIM1 = "lim^1"


def _closed_form_errors(label, rep):
    errs = []

    def want(cond, what):
        if not cond:
            errs.append(what)

    if label.startswith("hh_kx3"):
        p = 0 if rep["field"] == "q" else int(rep["field"].removeprefix("fp:"))
        for n in range(rep["n_max"] + 1):
            got = rep["dims"].get(str(n), {})
            want(got.get("dim") == _hh_closed_form(3, p, n) and got.get("status") == "exact",
                 f"HH_{n} = {got} (closed form {_hh_closed_form(3, p, n)}, exact)")
    elif label == "saturate_kx2":
        s = rep["smooth"]
        want(s["status"] == "inconclusive" and s["level"] == 6 and rep["saturated"] is False,
             "kx2 must be inconclusive(6) and not saturated")
    elif label == "saturate_path12":
        s = rep["smooth"]
        want(s["status"] == "certified" and s["level"] == 1 and rep["saturated"] is True,
             "path12 must be certified(1) and saturated")
    elif label == "hp_kx2":
        towers = list(rep["hp"].values()) + list(rep["hc_minus"].values())
        want(towers and all(t["status"] == "bound_limited" and _LIM1 in t.get("lim1_caveat", "")
                            for t in towers),
             "every kx2 tower must be bound_limited with the lim^1 caveat")
    elif label.startswith("triangle"):
        tri, eul = rep["triangle"], rep["euler"]
        want(tri["status"] == "pass" and tri["evidence"] == "quasi-isomorphism",
             f"triangle {tri['status']}/{tri['evidence']} (want pass/quasi-isomorphism)")
        want(eul["agree"] is True and eul["chi_hh"] == 3 and eul["chi_dual"] == 3,
             f"euler {eul['chi_hh']}/{eul['chi_dual']} agree={eul['agree']} (want 3/3 agree)")
    return errs


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def gate(label, report, expected):
    """Errors in one op's report: closed forms where they exist, and the
    whole label-free report against the values recorded from the seed
    commit.  An empty list means the answer is correct."""
    errs = _closed_form_errors(label, report)
    if summary(report) != expected[label]:
        errs.append("report differs from the recorded answer")
    return errs
