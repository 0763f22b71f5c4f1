"""Command-line front end: load categories, run computations, emit
machine-readable reports.

Reports are JSON (sorted keys, fixed indentation) so identical inputs
and parameters give byte-identical files; every report embeds the bounds
used and the exact/truncated status of each number.  Exit codes: 0
success or all checks pass, 1 check failure or out of memory, 2 input
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .exactfield import FieldError, FieldSpec
from .dgcore import opposite, tensor, unit_category, validate
from .presentation import PathElement, Presentation, pushout_attach, realize
from . import grammar
from .corpus import builtin_corpus
from .hochschild import hh_dims, shuffle_map, HochschildError
from .cyclic import hc_dims, hcminus_hp_dims
from .saturation import euler_report, saturation_report, triangle_identity_check
from .dgmod import module_map_space, shift_module, sn_pack, sn_unpack, validate_module, yoneda_module


class InputError(Exception):
    pass


def _parse_field(text) -> FieldSpec:
    if text in ("q", "Q"):
        return FieldSpec.rationals()
    if text.startswith("fp:") and text[3:].isdecimal():
        try:
            return FieldSpec.prime(int(text[3:]))
        except FieldError as exc:
            raise InputError(f"bad field {text!r}: {exc}")
    raise InputError(f"bad field {text!r} (expected q or fp:<p>)")


def _parse_window(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except Exception:
        raise InputError(f"bad window {text!r} (expected a..b)")
    if lo > hi:
        raise InputError(f"empty window {text!r} (expected a..b with a <= b)")
    return lo, hi


def _require_at_least(args, **least):
    """Refuse a numeric argument below the least value it is defined for,
    before any computation could crash on it or report on no data."""
    for name, low in least.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise InputError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


def _load(path):
    try:
        cat, cert = grammar.load_path(path)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except grammar.GrammarError as exc:
        raise InputError(f"{path}: {exc}")
    return cat, cert


def _require_closed(cat, cert, path):
    """Refuse a truncated realization, and a dg category file (no
    realization certificate) that breaks an axiom, before any homology."""
    if cert is not None and not cert.is_closed:
        raise InputError(f"{path}: realization is truncated ({cert.reason}); "
                         "homology commands refuse it")
    if cert is None:
        rep = validate(cat)
        if not rep.ok:
            axiom, loc, detail = rep.violations[0]
            raise InputError(f"{path}: not a dg category: {axiom} at {loc}"
                             + (f" ({detail})" if detail else ""))


def _emit(report, args, human_lines=()):
    for line in human_lines:
        print(line)
    if getattr(args, "format", "json") == "tsv":
        text = _to_tsv(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not human_lines:
        sys.stdout.write(text)


def _to_tsv(report, prefix=""):
    lines = []

    def walk(node, path):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], path + [str(k)])
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, path + [str(i)])
        else:
            lines.append("\t".join([".".join(path), str(node)]))

    walk(report, [])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args):
    cat, cert = _load(args.input)
    rep = validate(cat)
    for axiom, loc, detail in rep.violations:
        print(f"violation: {axiom} at {loc}" + (f" ({detail})" if detail else ""))
    if rep.ok:
        print(f"valid: {len(cat.objects)} objects, total dim {cat.total_dim()}"
              + (f", realization {cert.status}" if cert else ""))
        return 0
    return 1


def cmd_homology(args):
    """`hh` or `hc`, as ``args.command`` names: the dimensions up to
    --n-max, each with its status."""
    dims_of, least_bar_bound = {"hh": (hh_dims, 1), "hc": (hc_dims, 2)}[args.command]
    _require_at_least(args, n_max=0, bar_bound=least_bar_bound)
    cat, cert = _load(args.input)
    _require_closed(cat, cert, args.input)
    dims = dims_of(cat, args.n_max, args.bar_bound)
    report = {
        "invariant": args.command,
        "input": os.path.basename(args.input),
        "field": cat.field.describe(),
        "n_max": args.n_max,
        "bar_bound": args.bar_bound if args.bar_bound is not None else "auto",
        "dims": {str(n): {"dim": d, "status": s} for n, (d, s) in dims.items()},
    }
    lines = [f"{args.command.upper()}_{n} = {d} [{s}]" for n, (d, s) in sorted(dims.items())]
    _emit(report, args, lines)
    return 0


def cmd_hp(args):
    _require_at_least(args, levels=2, bar_bound=2)
    window = _parse_window(args.window)
    cat, cert = _load(args.input)
    _require_closed(cat, cert, args.input)
    rep = hcminus_hp_dims(cat, window, args.levels, args.bar_bound)
    report = {"invariant": "hp+hcminus", "input": os.path.basename(args.input),
              "field": cat.field.describe()}
    report.update(rep.as_dict())
    lines = []
    for n, t in sorted(rep.hp.items()):
        tag = f"stabilized(r={t.stabilized_at})" if t.status == "stabilized" else "bound_limited"
        lines.append(f"HP_{n} = {t.dim} [{tag}]")
    for n, t in sorted(rep.hcminus.items()):
        tag = f"stabilized(r={t.stabilized_at})" if t.status == "stabilized" else "bound_limited"
        lines.append(f"HC-_{n} = {t.dim} [{tag}]")
    _emit(report, args, lines)
    return 0


def _write_category(cat, args, summary="", header=""):
    """Write the category file to --out, with the header lines first and
    a one-line summary on stdout, or else the bare file to stdout."""
    text = grammar.dumps(cat)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(header + text)
        print(f"wrote {args.out}{summary}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_tensor(args):
    a, cert_a = _load(args.inputs[0])
    b, cert_b = _load(args.inputs[1])
    if a.field != b.field:
        raise InputError(f"field mismatch: {args.inputs[0]} is over {a.field.describe()}, "
                         f"{args.inputs[1]} over {b.field.describe()}")
    out = tensor(a, b)
    out.closed = all(c is None or c.is_closed for c in (cert_a, cert_b))
    return _write_category(out, args, f" ({len(out.objects)} objects, dim {out.total_dim()})",
                           "" if out.closed else "# WARNING: built from a truncated realization\n")


def cmd_op(args):
    return _write_category(opposite(_load(args.input)[0]), args)


def cmd_cell(args):
    field = _parse_field(args.field)
    n = args.n
    pres = Presentation(field, ["1", "2"], {"s": ("1", "2", n - 1 if args.kind == "disk" else n)})
    if args.kind == "disk":
        pres = pushout_attach(pres, n, PathElement("1", "2", {("s",): field.one()}))
    cat, cert = realize(pres, max(abs(n) + 2, 2), 3)
    cat.name = f"{'D' if args.kind == 'disk' else 'S'}({n})"
    return _write_category(cat, args, f" [{cert.status}]")


def cmd_saturate(args):
    _require_at_least(args, bound=0)
    cat, cert = _load(args.input)
    _require_closed(cat, cert, args.input)
    rep = saturation_report(cat, args.bound)
    report = {"invariant": "saturation", "input": os.path.basename(args.input),
              "bound": args.bound}
    report.update(rep.as_dict())
    smooth = rep.smooth
    tag = (f"certified({smooth.level})" if smooth.certified
           else f"inconclusive({smooth.level})")
    lines = [f"proper: {rep.proper}", f"smooth: {tag}" + (f" ({smooth.reason})" if smooth.reason else ""),
             f"saturated: {rep.saturated}"]
    _emit(report, args, lines)
    return 0


def cmd_euler(args):
    _require_at_least(args, bound=0, bar_bound=1)
    cat, cert = _load(args.input)
    _require_closed(cat, cert, args.input)
    sat = saturation_report(cat, args.bound)
    rep = euler_report(cat, sat.smooth, args.bar_bound)
    report = {"invariant": "euler", "input": os.path.basename(args.input)}
    report.update(rep.as_dict())
    lines = [f"chi_hh = {rep.chi_hh} [{rep.hh_status}]",
             f"chi_dual = {rep.chi_dual} [{rep.dual_status}]",
             f"agree: {rep.agree}"]
    _emit(report, args, lines)
    return 0


# ---------------------------------------------------------------------------
# the proposition checker

def _random_module_map(maps, rng, field):
    from .dgmod import ModuleMap
    coeffs = [field.of_int(rng.randrange(-2, 3)) for _ in maps]
    if not any(coeffs):
        coeffs[0] = field.one()
    combined = {}
    for c, mp in zip(coeffs, maps):
        if not c:
            continue
        for x, tab in mp.maps.items():
            dst = combined.setdefault(x, {})
            for km, e in tab.items():
                cell = dst.setdefault(km, {})
                for j, v in e.items():
                    field.accumulate(cell, j, field.mul(c, v))
    return ModuleMap(maps[0].src, maps[0].dst, maps[0].degree, combined)


def _check_prop31(cat, rng):
    trials = 0
    for n in (0, 1):
        for x in cat.objects:
            m = yoneda_module(cat, x)
            m2 = shift_module(m, -n)
            maps = module_map_space(m, m2, n)
            if not maps:
                continue
            fmap = _random_module_map(maps, rng, cat.field)
            packed = sn_pack(m, m2, fmap)
            if not validate_module(packed).ok:
                return "FAIL", "packed module failed validation"
            m_back, m2_back, f_back = sn_unpack(packed)
            if not (m_back == m and m2_back == m2 and f_back.maps == fmap.maps):
                return "FAIL", "roundtrip differs"
            trials += 1
    return "PASS", f"{trials} roundtrips"


def _check_triangle(cat, sat):
    res = triangle_identity_check(cat, (-3, 3), saturation=sat)
    if res.status == "pass":
        return "PASS", f"evidence: {res.evidence}"
    if res.status == "inconclusive":
        return "INCONCLUSIVE", str(res.details.get("reason", ""))
    return "FAIL", json.dumps(res.details, sort_keys=True)


def _check_chi(cat, sat):
    if not sat.saturated:
        return "SKIPPED", "not certified saturated; chi equality undefined here"
    rep = euler_report(cat, sat.smooth)
    if rep.agree:
        return "PASS", f"chi = {rep.chi_hh} by both routes"
    return "FAIL", json.dumps(rep.as_dict(), sort_keys=True)


def _check_kunneth(cat):
    field = cat.field
    one = unit_category(field)
    try:
        shuffle_map(one, cat, (-3, 0))
    except HochschildError as exc:
        return "FAIL", str(exc)
    dims_a = hh_dims(cat, 2)
    dims_t = hh_dims(tensor(one, cat), 2)
    for n in range(3):
        if dims_a[n][1] != "exact" or dims_t[n][1] != "exact":
            return "INCONCLUSIVE", f"degree {n} not exact"
        if dims_a[n][0] != dims_t[n][0]:
            return "FAIL", f"Kunneth with the unit fails at degree {n}"
    return "PASS", "shuffle certificate + unit Kunneth"


def cmd_check(args):
    _require_at_least(args, bound=0)
    rng = random.Random(20260811)
    if args.corpus:
        if not os.path.isdir(args.corpus):
            raise InputError(f"no such corpus directory: {args.corpus}")
        items = []
        for name in sorted(os.listdir(args.corpus)):
            if name.endswith((".dg", ".quiver", ".txt")):
                path = os.path.join(args.corpus, name)
                cat, cert = _load(path)
                _require_closed(cat, cert, path)
                if not cat.unit_is_basis():
                    raise InputError(f"{path}: the checks need every unit to be a basis "
                                     "element with coefficient 1")
                items.append((name, cat))
        if not items:
            print("no inputs: corpus directory has no .dg/.quiver/.txt files")
    else:
        field = _parse_field(args.field)
        items = sorted(builtin_corpus(field).items())
    summary = {}
    failures = 0
    checks = 0
    for name, cat in items:
        sat = saturation_report(cat, args.bound)
        results = {
            "prop31_roundtrip": _check_prop31(cat, rng),
            "triangle_identities": _check_triangle(cat, sat),
            "chi_equality": _check_chi(cat, sat),
            "kunneth_shuffle": _check_kunneth(cat),
        }
        summary[name] = {k: {"status": s, "detail": d} for k, (s, d) in results.items()}
        for k, (s, d) in sorted(results.items()):
            print(f"{name}: {k}: {s}" + (f" ({d})" if d else ""))
            checks += 1
            if s == "FAIL":
                failures += 1
    report = {"invariant": "check", "items": summary, "failures": failures, "checks": checks}
    if args.out:
        _emit(report, args)
    return 1 if failures else 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once."""
    p = argparse.ArgumentParser(prog="dghom",
                                description="exact homological computations with finite dg categories")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="write the JSON report here")
        sp.add_argument("--format", choices=("json", "tsv"), default="json")

    sp = sub.add_parser("validate", help="check the dg category axioms of an input file")
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_validate)

    for name, what in (("hh", "Hochschild"), ("hc", "cyclic")):
        sp = sub.add_parser(name, help=f"{what} homology dimensions")
        sp.add_argument("input")
        sp.add_argument("--n-max", type=int, default=4)
        sp.add_argument("--bar-bound", type=int, default=None)
        add_common(sp)
        sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("hp", help="negative/periodic cyclic homology towers")
    sp.add_argument("input")
    sp.add_argument("--window", default="0..1")
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--bar-bound", type=int, default=None)
    add_common(sp)
    sp.set_defaults(fn=cmd_hp)

    sp = sub.add_parser("tensor", help="tensor product of two category files")
    sp.add_argument("inputs", nargs=2)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_tensor)

    sp = sub.add_parser("op", help="opposite category")
    sp.add_argument("input")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_op)

    sp = sub.add_parser("cell", help="build a sphere or disk cell by attachment")
    sp.add_argument("kind", choices=("sphere", "disk"))
    sp.add_argument("n", type=int)
    sp.add_argument("--field", default="q")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_cell)

    sp = sub.add_parser("saturate", help="properness/smoothness certificates")
    sp.add_argument("input")
    sp.add_argument("--bound", type=int, default=6)
    add_common(sp)
    sp.set_defaults(fn=cmd_saturate)

    sp = sub.add_parser("euler", help="Euler characteristic by two routes")
    sp.add_argument("input")
    sp.add_argument("--bound", type=int, default=6)
    sp.add_argument("--bar-bound", type=int, default=None)
    add_common(sp)
    sp.set_defaults(fn=cmd_euler)

    sp = sub.add_parser("check", help="run the proposition suites over a corpus")
    sp.add_argument("--corpus", help="directory of .dg/.quiver files (default: built-in corpus)")
    sp.add_argument("--field", default="q")
    sp.add_argument("--bound", type=int, default=6)
    add_common(sp)
    sp.set_defaults(fn=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, HochschildError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except grammar.GrammarError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # print after the handler: in it the traceback still holds every
        # frame of the failed computation, so the print can fail too
        pass
    print("out of memory: the input is too large for these bounds", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
