"""Text formats for categories and quiver presentations.

Full category format (one declaration per line, '#' comments):

    dgcat
    field q            | field fp <p>
    object <name>
    basis <x> <y> <label> <degree>
    unit <x> <label> [<scalar>]          # additive; default scalar 1
    diff <x> <y> <from> <to> <scalar>    # d(from) += scalar * to
    compose <x> <y> <z> <g> <f> <h> <scalar>   # g.f += scalar * h

Quiver shorthand:

    quiver
    field q
    wordlength <L>
    degreebound <D>                      # optional, default 2L
    vertex <name>
    arrow <name> <src> <tgt> [<degree>]  # default degree 0
    relation <coeff> <path> [<coeff> <path> ...]
    # a path is dot-separated arrow names in diagram order; '@v' is the
    # empty path at vertex v

The loader compiles quivers through realization and reports the
finiteness certificate; serialization is canonical, so emit-load-emit
round trips are byte-identical.
"""

from __future__ import annotations

import itertools

from .exactfield import ChainComplex, FieldError, FieldSpec, Matrix
from .dgcore import DgCategory
from .presentation import PathElement, Presentation, PresentationError, realize


class GrammarError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _tokens(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _parse_field(parts, ln):
    if parts == ["q"]:
        return FieldSpec.rationals()
    if len(parts) == 2 and parts[0] == "fp":
        text = parts[1]
    elif len(parts) == 1 and parts[0].startswith("fp:"):
        text = parts[0][3:]
    else:
        raise GrammarError(f"bad field declaration {' '.join(parts)!r}", ln)
    p = _integer(text, "field", ln)
    try:
        return FieldSpec.prime(p)
    except FieldError as exc:
        raise GrammarError(str(exc), ln)


def _integer(text, what, ln):
    try:
        return int(text)
    except ValueError:
        raise GrammarError(f"bad integer {text!r} for {what}", ln)


def _one_integer(parts, ln):
    """The value of a `keyword <integer>` line."""
    if len(parts) != 2:
        raise GrammarError(f"{parts[0]} takes one integer", ln)
    return _integer(parts[1], parts[0], ln)


def _scalar(field, text, ln):
    try:
        return field.parse(text)
    except (ValueError, ZeroDivisionError):
        raise GrammarError(f"bad scalar {text!r} for field {field.describe()}", ln)


def loads(text: str):
    """Parse a category or quiver file.  Returns (DgCategory, certificate)
    where the certificate is the realization certificate for quivers and
    None for full category files."""
    lines = list(_tokens(text))
    if not lines:
        raise GrammarError("empty input")
    ln0, head = lines[0]
    if head == ["dgcat"]:
        return _load_dgcat(lines[1:]), None
    if head == ["quiver"]:
        return _load_quiver(lines[1:])
    raise GrammarError(f"unknown header {' '.join(head)!r} (expected 'dgcat' or 'quiver')", ln0)


def load_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _load_dgcat(lines) -> DgCategory:
    field = None
    objects = []
    bases = {}      # (x, y) -> list of (label, degree)
    label_at = {}   # (x, y, label) -> (degree, index-within-degree)
    units = {}
    diff_entries = []
    comp_entries = []
    for ln, parts in lines:
        kw = parts[0]
        if kw == "field":
            field = _parse_field(parts[1:], ln)
        elif kw == "object":
            if len(parts) != 2:
                raise GrammarError("object takes one name", ln)
            if parts[1] in objects:
                raise GrammarError(f"duplicate object {parts[1]!r}", ln)
            objects.append(parts[1])
        elif kw == "basis":
            if len(parts) != 5:
                raise GrammarError("basis takes: x y label degree", ln)
            x, y, label = parts[1], parts[2], parts[3]
            deg = _integer(parts[4], "basis degree", ln)
            if (x, y, label) in label_at:
                raise GrammarError(f"duplicate basis label {label!r} for {x}->{y}", ln)
            bases.setdefault((x, y), []).append((label, deg))
            label_at[(x, y, label)] = None
        elif kw == "unit":
            if len(parts) not in (3, 4):
                raise GrammarError("unit takes: x label [scalar]", ln)
            units.setdefault(parts[1], []).append((parts[2], parts[3] if len(parts) == 4 else "1", ln))
        elif kw == "diff":
            if len(parts) != 6:
                raise GrammarError("diff takes: x y from to scalar", ln)
            diff_entries.append((parts[1], parts[2], parts[3], parts[4], parts[5], ln))
        elif kw == "compose":
            if len(parts) != 8:
                raise GrammarError("compose takes: x y z g f h scalar", ln)
            comp_entries.append((tuple(parts[1:8]), ln))
        else:
            raise GrammarError(f"unknown keyword {kw!r}", ln)
    if field is None:
        raise GrammarError("missing field declaration")
    if not objects:
        raise GrammarError("no objects declared")

    homs = {}
    key_of = {}
    for (x, y), items in bases.items():
        if x not in objects or y not in objects:
            raise GrammarError(f"basis for unknown objects {x!r}, {y!r}")
        by_degree = {}
        for label, deg in items:
            by_degree.setdefault(deg, []).append(label)
        spaces = {d: tuple(lbls) for d, lbls in by_degree.items()}
        for d, lbls in by_degree.items():
            for i, label in enumerate(lbls):
                key_of[(x, y, label)] = (d, i)
        homs[(x, y)] = (spaces, {})
    # differentials
    for (x, y, src, tgt, scalar, ln) in diff_entries:
        if (x, y, src) not in key_of or (x, y, tgt) not in key_of:
            raise GrammarError(f"diff references unknown basis in {x}->{y}", ln)
        ds, isrc = key_of[(x, y, src)]
        dt, itgt = key_of[(x, y, tgt)]
        if dt != ds + 1:
            raise GrammarError(f"diff must raise degree by 1 ({src}: {ds} -> {tgt}: {dt})", ln)
        spaces, diffs = homs[(x, y)]
        diffs.setdefault(ds, {})[(itgt, isrc)] = _scalar(field, scalar, ln)
    hom_complexes = {}
    for (x, y), (spaces, diffs) in homs.items():
        mats = {}
        for d, entries in diffs.items():
            mats[d] = Matrix(field, len(spaces.get(d + 1, ())), len(spaces.get(d, ())), entries)
        try:
            hom_complexes[(x, y)] = ChainComplex(field, spaces, mats).verify()
        except ValueError as exc:
            raise GrammarError(f"hom({x},{y}): {exc}")
    comp = {}
    for ((x, y, z, g, f_lbl, h, scalar), ln) in comp_entries:
        for (pair, lbl) in (((y, z), g), ((x, y), f_lbl), ((x, z), h)):
            if (pair[0], pair[1], lbl) not in key_of:
                raise GrammarError(f"compose references unknown basis {lbl!r} in {pair[0]}->{pair[1]}", ln)
        kg = key_of[(y, z, g)]
        kf = key_of[(x, y, f_lbl)]
        kh = key_of[(x, z, h)]
        if kh[0] != kg[0] + kf[0]:
            raise GrammarError("composition must preserve total degree", ln)
        table = comp.setdefault((x, y, z), {})
        field.accumulate(table.setdefault((kg, kf), {}), kh[1], _scalar(field, scalar, ln))
    # a zero scalar, or lines that cancel, leave an empty product: the
    # input that can break the no-zero rule of DgCategory.comp
    for table in comp.values():
        for pk in [pk for pk, e in table.items() if not e]:
            del table[pk]
    comp = {t: table for t, table in comp.items() if table}
    unit_elems = {}
    for x in objects:
        if x not in units:
            raise GrammarError(f"missing unit for object {x!r}")
        elem = {}
        for label, scalar, ln in units[x]:
            if (x, x, label) not in key_of:
                raise GrammarError(f"unit references unknown basis {label!r}", ln)
            field.accumulate(elem, key_of[(x, x, label)], _scalar(field, scalar, ln))
        unit_elems[x] = elem
    return DgCategory(field, objects, hom_complexes, comp, unit_elems)


def _parse_path(token, ln):
    if token.startswith("@"):
        return (), token[1:]
    return tuple(token.split(".")), None


def _load_quiver(lines):
    field = None
    wordlength = None
    degreebound = None
    vertices = []
    arrows = []
    relations_raw = []
    for ln, parts in lines:
        kw = parts[0]
        if kw == "field":
            field = _parse_field(parts[1:], ln)
        elif kw == "wordlength":
            wordlength = _one_integer(parts, ln)
        elif kw == "degreebound":
            degreebound = _one_integer(parts, ln)
        elif kw == "vertex":
            if len(parts) != 2:
                raise GrammarError("vertex takes one name", ln)
            if parts[1] in vertices:
                raise GrammarError(f"duplicate vertex {parts[1]!r}", ln)
            vertices.append(parts[1])
        elif kw == "arrow":
            if len(parts) not in (4, 5):
                raise GrammarError("arrow takes: name src tgt [degree]", ln)
            if any(name == parts[1] for name, *_ in arrows):
                raise GrammarError(f"duplicate arrow {parts[1]!r}", ln)
            deg = _integer(parts[4], "arrow degree", ln) if len(parts) == 5 else 0
            arrows.append((parts[1], parts[2], parts[3], deg, ln))
        elif kw == "relation":
            if len(parts) < 3 or len(parts) % 2 == 0:
                raise GrammarError("relation takes coeff/path pairs", ln)
            relations_raw.append((parts[1:], ln))
        else:
            raise GrammarError(f"unknown keyword {kw!r}", ln)
    if field is None:
        raise GrammarError("missing field declaration")
    if wordlength is None:
        raise GrammarError("quiver input requires a wordlength bound")
    if degreebound is None:
        degreebound = max(1, 2 * wordlength)
    for name, src, tgt, _deg, ln in arrows:
        if src not in vertices or tgt not in vertices:
            raise GrammarError(f"arrow {name!r} has an unknown endpoint", ln)
    gens = {name: (src, tgt, deg) for (name, src, tgt, deg, _ln) in arrows}
    pres = Presentation(field, vertices, gens)
    relations = []
    for raw, ln in relations_raw:
        terms = {}
        endpoints = None
        for coeff, token in zip(raw[0::2], raw[1::2]):
            word, at_vertex = _parse_path(token, ln)
            if word:
                for gname in word:
                    if gname not in gens:
                        raise GrammarError(f"relation uses unknown arrow {gname!r}", ln)
                try:
                    s, t = pres.word_endpoints(word)
                except PresentationError:
                    raise GrammarError(f"relation path {token!r} does not compose", ln) from None
            else:
                if at_vertex not in vertices:
                    raise GrammarError(f"empty path at unknown vertex {at_vertex!r}", ln)
                s = t = at_vertex
            if endpoints is None:
                endpoints = (s, t)
            elif endpoints != (s, t):
                raise GrammarError("relation terms have mismatched endpoints", ln)
            field.accumulate(terms, word, _scalar(field, coeff, ln))
        degrees = sorted({pres.word_degree(word) for word in terms})
        if len(degrees) > 1:
            raise GrammarError(f"inhomogeneous relation: degrees {degrees}", ln)
        try:
            relations.append(PathElement(endpoints[0], endpoints[1], terms))
        except Exception as exc:
            raise GrammarError(str(exc), ln)
    pres = Presentation(field, vertices, gens, {}, relations)
    try:
        return realize(pres, degreebound, wordlength)
    except Exception as exc:
        raise GrammarError(f"realization failed: {exc}")


# ---------------------------------------------------------------------------
# serialization

def dumps(a: DgCategory) -> str:
    """Canonical full-format serialization; objects and labels are
    stringified, orderings are deterministic."""
    out = ["dgcat", f"field {a.field.describe().replace(':', ' ') if a.field.kind else 'q'}"]
    names = {x: _obj_name(x) for x in a.objects}
    if len(set(names.values())) != len(names):
        names = {x: f"o{i}" for i, x in enumerate(a.objects)}
    for x in a.objects:
        out.append(f"object {names[x]}")
    label_names = {}
    for (x, y) in itertools.product(a.objects, repeat=2):
        c = a.hom(x, y)
        taken = set()
        for d in sorted(c.support()):
            for i, lbl in enumerate(c.labels(d)):
                name = _label_name(lbl)
                while name in taken:
                    name += "'"
                taken.add(name)
                label_names[(x, y, d, i)] = name
                out.append(f"basis {names[x]} {names[y]} {name} {d}")
    for x in a.objects:
        for (d, i), v in sorted(a.unit(x).items()):
            out.append(f"unit {names[x]} {label_names[(x, x, d, i)]} {a.field.fmt(v)}")
    for (x, y) in itertools.product(a.objects, repeat=2):
        c = a.hom(x, y)
        for d in sorted(c.diffs):
            for (i, j), v in sorted(c.diffs[d].entries.items()):
                out.append(f"diff {names[x]} {names[y]} {label_names[(x, y, d, j)]} "
                           f"{label_names[(x, y, d + 1, i)]} {a.field.fmt(v)}")
    for (x, y, z) in itertools.product(a.objects, repeat=3):
        table = a.products(x, y, z)
        if not table:
            continue
        for (kg, kf) in sorted(table):
            prod = table[(kg, kf)]
            dh = kg[0] + kf[0]
            for ih in sorted(prod):
                out.append(
                    f"compose {names[x]} {names[y]} {names[z]} "
                    f"{label_names[(y, z, kg[0], kg[1])]} {label_names[(x, y, kf[0], kf[1])]} "
                    f"{label_names[(x, z, dh, ih)]} {a.field.fmt(prod[ih])}")
    return "\n".join(out) + "\n"


def _obj_name(x) -> str:
    s = str(x)
    return "".join(ch if (ch.isalnum() or ch in "_-.:()") else "_" for ch in s) or "o"


def _label_name(lbl) -> str:
    s = str(lbl)
    s = "".join(ch if (ch.isalnum() or ch in "_-.:()|") else "_" for ch in s)
    return s or "b"

