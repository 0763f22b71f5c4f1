"""Finite dg categories: construction, validation, opposite, tensor, cells.

Conventions, fixed once and pinned by ``validate``:

* internal grading is cohomological (d raises degree by 1);
* Leibniz: d(g.f) = (dg).f + (-1)^{|g|} g.(df), g the left factor;
* opposite: g .op f = (-1)^{|f||g|} f.g;
* tensor: (g1 x .. x gk).(f1 x .. x fk)
          = (-1)^{sum_{i<j} |g_j||f_i|} (g1.f1) x .. x (gk.fk).

Hom elements are sparse dicts {(degree, basis index): scalar} inside a
fixed hom pair; all structure constants are stored over explicit bases.
"""

from __future__ import annotations

import itertools

from .exactfield import ChainComplex, FieldSpec, Matrix


# ---------------------------------------------------------------------------
# elements: sparse {(deg, idx): scalar} within one hom pair

def elem_scale(field, c, a):
    if not c:
        return {}
    return {k: field.mul(c, v) for k, v in a.items()}

def elem_eq(a, b):
    return {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}

def elem_degree(a):
    degs = {k[0] for k, v in a.items() if v}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous element across degrees {sorted(degs)}")
    return degs.pop()


class DgCategory:
    """A finite dg category over an exact field.

    Data: ordered objects, a bounded finite-dimensional hom complex per
    ordered pair, composition structure constants and a chosen closed
    degree-0 unit per object.

    ``comp[(x, y, z)]`` maps a pair of basis keys ((dg, ig), (df, if))
    with g in hom(y, z) and f in hom(x, y) to the element g.f of
    hom(x, z); missing entries are zero products.
    """

    def __init__(self, field: FieldSpec, objects, homs, comp, units,
                 name: str = "", closed: bool = True):
        self.field = field
        self.objects = tuple(objects)
        self.homs = dict(homs)
        self.comp = {k: {pk: {kk: vv for kk, vv in e.items() if vv}
                         for pk, e in table.items() if any(e.values())}
                     for k, table in comp.items()}
        self.comp = {k: t for k, t in self.comp.items() if t}
        self.units = dict(units)
        self.name = name
        self.closed = closed
        for pair in itertools.product(self.objects, repeat=2):
            if pair not in self.homs:
                self.homs[pair] = ChainComplex(field, {}, {})
        for x in self.objects:
            if x not in self.units:
                raise ValueError(f"missing unit for object {x!r}")

    # -- basic access -------------------------------------------------------

    def hom(self, x, y) -> ChainComplex:
        return self.homs[(x, y)]

    def hom_dims(self, x, y) -> dict:
        c = self.hom(x, y)
        return {d: c.dim(d) for d in c.support()}

    def unit(self, x) -> dict:
        return self.units[x]

    def total_dim(self) -> int:
        return sum(c.total_dim() for c in self.homs.values())

    def d_elem(self, x, y, elem: dict) -> dict:
        f = self.field
        c = self.hom(x, y)
        out = {}
        for (deg, idx), v in elem.items():
            m = c.diffs.get(deg)
            if m is None:
                continue
            for (i, j), w in m.entries.items():
                if j != idx:
                    continue
                f.accumulate(out, (deg + 1, i), f.mul(w, v))
        return out

    def compose_elems(self, x, y, z, g: dict, f_elem: dict) -> dict:
        """g.f for g in hom(y,z), f in hom(x,y); bilinear in both."""
        f = self.field
        table = self.comp.get((x, y, z), {})
        out = {}
        for kg, vg in g.items():
            for kf, vf in f_elem.items():
                prod = table.get((kg, kf))
                if not prod:
                    continue
                c = f.mul(vg, vf)
                deg = kg[0] + kf[0]
                for ih, w in prod.items():
                    f.accumulate(out, (deg, ih), f.mul(c, w))
        return out

    def basis_keys(self, x, y):
        c = self.hom(x, y)
        for d in c.support():
            for i in range(c.dim(d)):
                yield (d, i)

    def unit_key(self, x):
        """The (deg, idx) key when the unit is a single basis element of
        coefficient 1, else None."""
        u = {k: v for k, v in self.unit(x).items() if v}
        if len(u) != 1:
            return None
        (key, v), = u.items()
        if key[0] != 0 or v != self.field.one():
            return None
        return key

    def unit_is_basis(self) -> bool:
        return all(self.unit_key(x) is not None for x in self.objects)

    def hom_degree_bounds(self):
        """(min, max) cohomological degree over all nonzero hom spaces;
        None for the empty category."""
        degs = [d for c in self.homs.values() for d in c.support()]
        if not degs:
            return None
        return min(degs), max(degs)

    # -- equality on stored data --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DgCategory):
            return NotImplemented
        return (self.field == other.field and self.objects == other.objects
                and {k: (v.spaces, v.diffs) for k, v in self.homs.items()}
                    == {k: (v.spaces, v.diffs) for k, v in other.homs.items()}
                and self.comp == other.comp and self.units == other.units)

    def __repr__(self):
        tag = self.name or f"{len(self.objects)} objects, dim {self.total_dim()}"
        return f"DgCategory({tag})"


class DgFunctor:
    """A dg functor: object map plus a degree-0 chain map per hom pair.

    ``hom_maps[(x, y)][deg]`` is the matrix hom_src(x,y)^deg ->
    hom_tgt(Fx,Fy)^deg; missing degrees are zero maps.
    """

    def __init__(self, source: DgCategory, target: DgCategory, object_map, hom_maps, name=""):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.hom_maps = dict(hom_maps)
        self.name = name

    def on_object(self, x):
        return self.object_map[x]

    def apply_elem(self, x, y, elem: dict) -> dict:
        f = self.source.field
        maps = self.hom_maps.get((x, y), {})
        out = {}
        for (deg, idx), v in elem.items():
            m = maps.get(deg)
            if m is None:
                continue
            for (i, j), w in m.entries.items():
                if j != idx:
                    continue
                f.accumulate(out, (deg, i), f.mul(w, v))
        return out


# ---------------------------------------------------------------------------
# validation

class ValidationReport:
    def __init__(self):
        self.violations = []

    def add(self, axiom, location, detail=""):
        self.violations.append((axiom, location, detail))

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        lines = [f"{a} at {loc}: {d}" for a, loc, d in self.violations[:12]]
        more = len(self.violations) - len(lines)
        if more > 0:
            lines.append(f"... and {more} more")
        return "ValidationReport(\n  " + "\n  ".join(lines) + "\n)"


def validate(a: DgCategory) -> ValidationReport:
    """Exhaustive axiom check over basis tuples: d^2, Leibniz,
    associativity, units.  Violations are reported, not raised."""
    rep = ValidationReport()
    f = a.field
    for (x, y), c in a.homs.items():
        for d in c.support():
            if c.dim(d) and c.dim(d + 1) and c.dim(d + 2):
                m = c.diff(d + 1).mul(c.diff(d))
                if not m.is_zero():
                    rep.add("d^2=0", (x, y, d), f"{len(m.entries)} nonzero entries")
    for x in a.objects:
        u = a.unit(x)
        if elem_degree(u) not in (0, None):
            rep.add("unit degree", (x,), "unit not concentrated in degree 0")
        if a.d_elem(x, x, u):
            rep.add("unit closed", (x,), "d(unit) != 0")
    # Leibniz: d(g.f) = (dg).f + (-1)^{|g|} g.(df)
    for (x, y, z) in itertools.product(a.objects, repeat=3):
        for kg in a.basis_keys(y, z):
            g = {kg: f.one()}
            dg = a.d_elem(y, z, g)
            sign = f.of_int((-1) ** (kg[0] % 2))
            for kf in a.basis_keys(x, y):
                fe = {kf: f.one()}
                lhs = a.d_elem(x, z, a.compose_elems(x, y, z, g, fe))
                rhs = a.compose_elems(x, y, z, dg, fe)
                for k, v in a.compose_elems(x, y, z, g, a.d_elem(x, y, fe)).items():
                    f.accumulate(rhs, k, f.mul(sign, v))
                if not elem_eq(lhs, rhs):
                    rep.add("Leibniz", (x, y, z, kg, kf))
    # associativity on basis triples
    for (w, x, y, z) in itertools.product(a.objects, repeat=4):
        for kh in a.basis_keys(y, z):
            h = {kh: f.one()}
            for kg in a.basis_keys(x, y):
                g = {kg: f.one()}
                hg = a.compose_elems(x, y, z, h, g)
                for kf in a.basis_keys(w, x):
                    fe = {kf: f.one()}
                    lhs = a.compose_elems(w, x, z, hg, fe)
                    rhs = a.compose_elems(w, y, z, h, a.compose_elems(w, x, y, g, fe))
                    if not elem_eq(lhs, rhs):
                        rep.add("associativity", (w, x, y, z, kh, kg, kf))
    # unit law
    for (x, y) in itertools.product(a.objects, repeat=2):
        uy, ux = a.unit(y), a.unit(x)
        for kf in a.basis_keys(x, y):
            fe = {kf: f.one()}
            if not elem_eq(a.compose_elems(x, y, y, uy, fe), fe):
                rep.add("unit axiom", (x, y, kf), "left unit")
            if not elem_eq(a.compose_elems(x, x, y, fe, ux), fe):
                rep.add("unit axiom", (x, y, kf), "right unit")
    return rep


def validate_functor(F: DgFunctor) -> ValidationReport:
    rep = ValidationReport()
    a, b = F.source, F.target
    f = a.field
    for x in a.objects:
        if not elem_eq(F.apply_elem(x, x, a.unit(x)), b.unit(F.on_object(x))):
            rep.add("functor unit", (x,))
    for (x, y) in itertools.product(a.objects, repeat=2):
        Fx, Fy = F.on_object(x), F.on_object(y)
        for k in a.basis_keys(x, y):
            e = {k: f.one()}
            lhs = F.apply_elem(x, y, a.d_elem(x, y, e))
            rhs = b.d_elem(Fx, Fy, F.apply_elem(x, y, e))
            if not elem_eq(lhs, rhs):
                rep.add("functor chain map", (x, y, k))
    for (x, y, z) in itertools.product(a.objects, repeat=3):
        Fx, Fy, Fz = F.on_object(x), F.on_object(y), F.on_object(z)
        for kg in a.basis_keys(y, z):
            g = {kg: f.one()}
            Fg = F.apply_elem(y, z, g)
            for kf in a.basis_keys(x, y):
                fe = {kf: f.one()}
                lhs = F.apply_elem(x, z, a.compose_elems(x, y, z, g, fe))
                rhs = b.compose_elems(Fx, Fy, Fz, Fg, F.apply_elem(x, y, fe))
                if not elem_eq(lhs, rhs):
                    rep.add("functor composition", (x, y, z, kg, kf))
    return rep


# ---------------------------------------------------------------------------
# constructors

def _one_dim_hom(field, label, degree):
    return ChainComplex(field, {degree: (label,)}, {})


def unit_category(field: FieldSpec) -> DgCategory:
    """One object, hom = the field in degree 0."""
    one = field.one()
    homs = {("*", "*"): _one_dim_hom(field, "1", 0)}
    comp = {("*", "*", "*"): {(((0, 0), (0, 0))): {0: one}}}
    units = {"*": {(0, 0): one}}
    return DgCategory(field, ("*",), homs, comp, units, name="unit")


def _two_object_cell(field, obj_a, obj_b, arrow_complex, arrow_units_action):
    """Shared shape of the sphere and disk cells: two objects, scalar
    endomorphisms, all morphisms from the first to the second."""
    one = field.one()
    homs = {
        (obj_a, obj_a): _one_dim_hom(field, "1", 0),
        (obj_b, obj_b): _one_dim_hom(field, "1", 0),
        (obj_a, obj_b): arrow_complex,
        (obj_b, obj_a): ChainComplex(field, {}, {}),
    }
    comp = {
        (obj_a, obj_a, obj_a): {((0, 0), (0, 0)): {0: one}},
        (obj_b, obj_b, obj_b): {((0, 0), (0, 0)): {0: one}},
    }
    comp[(obj_a, obj_a, obj_b)] = {((d, i), (0, 0)): {i: one} for (d, i) in arrow_units_action}
    comp[(obj_a, obj_b, obj_b)] = {((0, 0), (d, i)): {i: one} for (d, i) in arrow_units_action}
    units = {obj_a: {(0, 0): one}, obj_b: {(0, 0): one}}
    return DgCategory(field, (obj_a, obj_b), homs, comp, units)


def sphere_cell(n: int, field: FieldSpec) -> DgCategory:
    """Two objects 1, 2; hom(1,2) is the field in degree n; no morphisms
    back; scalar endomorphisms."""
    arrow = _one_dim_hom(field, "s", n)
    cat = _two_object_cell(field, "1", "2", arrow, [(n, 0)])
    cat.name = f"S({n})"
    return cat


def disk_cell(n: int, field: FieldSpec) -> DgCategory:
    """Two objects 3, 4; hom(3,4) is the acyclic two-term complex
    k --id--> k in degrees n-2, n-1 (the cone direction places the new
    generator one degree below its boundary)."""
    arrow = ChainComplex(
        field,
        {n - 2: ("h",), n - 1: ("c",)},
        {n - 2: Matrix(field, 1, 1, {(0, 0): field.one()})},
    )
    cat = _two_object_cell(field, "3", "4", arrow, [(n - 2, 0), (n - 1, 0)])
    cat.name = f"D({n})"
    return cat


def cell_inclusion(n: int, field: FieldSpec) -> DgFunctor:
    """The generating inclusion S(n-1) -> D(n): 1 -> 3, 2 -> 4, sending the
    sphere generator identically onto the degree n-1 part of the disk."""
    src = sphere_cell(n - 1, field)
    tgt = disk_cell(n, field)
    one = field.one()
    ident = Matrix(field, 1, 1, {(0, 0): one})
    hom_maps = {
        ("1", "1"): {0: ident},
        ("2", "2"): {0: ident},
        ("1", "2"): {n - 1: ident},
        ("2", "1"): {},
    }
    return DgFunctor(src, tgt, {"1": "3", "2": "4"}, hom_maps, name=f"iota({n})")


def opposite(a: DgCategory) -> DgCategory:
    """Same objects, hom(x,y) := a.hom(y,x), composition transposed with
    the Koszul sign (-1)^{|f||g|}."""
    f = a.field
    homs = {(x, y): a.hom(y, x) for (x, y) in itertools.product(a.objects, repeat=2)}
    comp = {}
    for (x, y, z) in itertools.product(a.objects, repeat=3):
        # g in op-hom(y,z) = a.hom(z,y); f in op-hom(x,y) = a.hom(y,x);
        # g .op f := (-1)^{|f||g|} f .a g  in a.hom(z,x) = op-hom(x,z)
        table = a.comp.get((z, y, x), {})
        out = {}
        for ((kf, kg), prod) in table.items():
            # kf in a.hom(y,x) composed after kg in a.hom(z,y)
            sign = f.of_int((-1) ** ((kf[0] * kg[0]) % 2))
            out[(kg, kf)] = {ih: f.mul(sign, v) for ih, v in prod.items()}
        if out:
            comp[(x, y, z)] = out
    return DgCategory(f, a.objects, homs, comp, dict(a.units),
                      name=f"op({a.name})" if a.name else "", closed=a.closed)


class TensorInfo:
    """Basis bookkeeping for tensor categories: per hom pair and degree,
    the ordered list of per-factor key tuples and its index lookup."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.keys = {}       # (x, y) -> {degree: [keytuple, ...]}
        self.index = {}      # (x, y) -> {keytuple: (degree, idx)}

    def enumerate_pair(self, x, y):
        if (x, y) in self.keys:
            return self.keys[(x, y)]
        per_factor = []
        for cat, xi, yi in zip(self.factors, x, y):
            c = cat.hom(xi, yi)
            per_factor.append([(d, i) for d in c.support() for i in range(c.dim(d))])
        by_degree = {}
        for combo in itertools.product(*per_factor):
            deg = sum(k[0] for k in combo)
            by_degree.setdefault(deg, []).append(combo)
        for lst in by_degree.values():
            lst.sort()
        self.keys[(x, y)] = by_degree
        self.index[(x, y)] = {combo: (d, i)
                              for d, lst in by_degree.items()
                              for i, combo in enumerate(lst)}
        return by_degree


def tensor(*cats: DgCategory) -> DgCategory:
    """Tensor product of dg categories: objects are tuples, hom complexes
    are degreewise convolutions, with Koszul signs in differential and
    composition.  Carries basis bookkeeping for module builders."""
    if not cats:
        raise ValueError("tensor of no categories")
    field = cats[0].field
    for c in cats[1:]:
        if c.field != field:
            raise ValueError("field mismatch in tensor")
    info = TensorInfo(cats)
    objects = list(itertools.product(*(c.objects for c in cats)))
    homs = {}
    neg_one = field.of_int(-1)
    for x in objects:
        for y in objects:
            by_degree = info.enumerate_pair(x, y)
            spaces = {}
            for d, combos in by_degree.items():
                labels = []
                for combo in combos:
                    labels.append(tuple(cats[i].hom(x[i], y[i]).labels(k[0])[k[1]]
                                        for i, k in enumerate(combo)))
                spaces[d] = tuple(labels)
            diffs = {}
            index = info.index[(x, y)]
            for d, combos in by_degree.items():
                entries = {}
                for col, combo in enumerate(combos):
                    sign_exp = 0
                    for i, k in enumerate(combo):
                        cat = cats[i]
                        m = cat.hom(x[i], y[i]).diffs.get(k[0])
                        if m is not None:
                            for (r, cc), v in m.entries.items():
                                if cc != k[1]:
                                    continue
                                newcombo = combo[:i] + ((k[0] + 1, r),) + combo[i + 1:]
                                dd, row = index[newcombo]
                                sgn = field.of_int((-1) ** (sign_exp % 2))
                                field.accumulate(entries, (row, col), field.mul(sgn, v))
                        sign_exp += k[0]
                if entries:
                    diffs[d] = Matrix(field, len(by_degree.get(d + 1, ())), len(combos), entries)
            homs[(x, y)] = ChainComplex(field, spaces, diffs)
    comp = {}
    for x, y, z in walks(objects, hom_graph(homs, {}), 2):
        xy = info.enumerate_pair(x, y)
        yz = info.enumerate_pair(y, z)
        idx_xz = info.index[(x, z)]
        table = {}
        for dg, gcombos in yz.items():
            for ig, gcombo in enumerate(gcombos):
                for df, fcombos in xy.items():
                    for if_, fcombo in enumerate(fcombos):
                        # per-factor products; Koszul sign from g_j crossing f_i, i<j
                        coeff = field.one()
                        parts = []
                        ok = True
                        for i, (kg, kf) in enumerate(zip(gcombo, fcombo)):
                            prod = cats[i].comp.get((x[i], y[i], z[i]), {}).get((kg, kf))
                            if not prod:
                                ok = False
                                break
                            parts.append((kg[0] + kf[0], prod))
                        if not ok:
                            continue
                        sign_exp = sum(gcombo[j][0] * fcombo[i][0]
                                       for i in range(len(cats))
                                       for j in range(i + 1, len(cats)))
                        if sign_exp % 2:
                            coeff = neg_one
                        out = {}
                        for combo in itertools.product(*[[(deg, ih, v) for ih, v in prod.items()]
                                                         for deg, prod in parts]):
                            keytuple = tuple((deg, ih) for deg, ih, _ in combo)
                            val = coeff
                            for _, _, v in combo:
                                val = field.mul(val, v)
                            dd, ih_flat = idx_xz[keytuple]
                            field.accumulate(out, ih_flat, val)
                        if out:
                            table[((dg, ig), (df, if_))] = out
        if table:
            comp[(x, y, z)] = table
    units = {}
    for x in objects:
        index = info.index[(x, x)]
        expansion = {}
        for combo in itertools.product(*[[(k, v) for k, v in cats[i].unit(x[i]).items()]
                                         for i in range(len(cats))]):
            keytuple = tuple(k for k, _ in combo)
            val = field.one()
            for _, v in combo:
                val = field.mul(val, v)
            field.accumulate(expansion, index[keytuple], val)
        units[x] = expansion
    name = " (x) ".join(c.name or "?" for c in cats)
    out = DgCategory(field, objects, homs, comp, units, name=name,
                     closed=all(c.closed for c in cats))
    out._tensor = info
    return out


def tensor_info(cat: DgCategory) -> TensorInfo:
    info = getattr(cat, "_tensor", None)
    if info is None:
        raise ValueError("category does not carry tensor bookkeeping")
    return info


def swap_functor(a: DgCategory, b: DgCategory) -> DgFunctor:
    """The symmetry tensor(a,b) -> tensor(b,a): (x,y) -> (y,x) with the
    Koszul sign (-1)^{|f||g|} on f (x) g."""
    field = a.field
    src = tensor(a, b)
    tgt = tensor(b, a)
    info_s = tensor_info(src)
    info_t = tensor_info(tgt)
    object_map = {x: (x[1], x[0]) for x in src.objects}
    hom_maps = {}
    for x in src.objects:
        for y in src.objects:
            sx, sy = object_map[x], object_map[y]
            by_degree = info_s.enumerate_pair(x, y)
            info_t.enumerate_pair(sx, sy)
            idx_t = info_t.index[(sx, sy)]
            maps = {}
            for d, combos in by_degree.items():
                entries = {}
                for col, (ka, kb) in enumerate(combos):
                    dd, row = idx_t[(kb, ka)]
                    sgn = field.of_int((-1) ** ((ka[0] * kb[0]) % 2))
                    entries[(row, col)] = sgn
                n_rows = len(info_t.keys[(sx, sy)].get(d, ()))
                if entries:
                    maps[d] = Matrix(field, n_rows, len(combos), entries)
            hom_maps[(x, y)] = maps
    return DgFunctor(src, tgt, object_map, hom_maps, name="swap")


def hom_graph(homs, unit_keys):
    """Digraph on objects with an edge x -> y when hom(x, y) has a basis
    element other than the unit key ``unit_keys.get(x)`` of a loop.  With
    no unit keys it is the nonempty-hom digraph."""
    edges = {}
    for (x, y), c in homs.items():
        keys = {(d, i) for d in c.support() for i in range(c.dim(d))}
        if x == y:
            keys.discard(unit_keys.get(x))
        if keys:
            edges.setdefault(x, set()).add(y)
    return edges


def nonunit_graph(a: DgCategory):
    """Digraph on objects with an edge x -> y when hom(x, y) has a
    non-unit basis element; drives chain-vanishing certificates."""
    return hom_graph(a.homs, {x: a.unit_key(x) for x in a.objects})


def walks(objects, edges, m):
    """Object tuples (x_0, ..., x_m) with an edge x_i -> x_{i+1} for every
    i, listed in the lexicographic order of ``objects`` (the order of
    itertools.product over objects, restricted to walks)."""
    succ = {x: [y for y in objects if y in edges.get(x, ())] for x in objects}
    layer = [(x,) for x in objects]
    for _ in range(m):
        layer = [w + (y,) for w in layer for y in succ[w[-1]]]
    return layer


def longest_path_bound(a: DgCategory):
    """Max length of a path in the non-unit digraph, or None if it has a
    cycle (no finite bound)."""
    edges = nonunit_graph(a)
    memo = {}
    onstack = set()

    def depth(x):
        if x in onstack:
            raise ValueError("cycle")
        if x in memo:
            return memo[x]
        onstack.add(x)
        best = 0
        for y in edges.get(x, ()):
            best = max(best, 1 + depth(y))
        onstack.discard(x)
        memo[x] = best
        return best

    try:
        return max((depth(x) for x in a.objects), default=0)
    except ValueError:
        return None


def rep_saturated(b: DgCategory, a: DgCategory, certificate) -> DgCategory:
    """Internal-hom model rep(b, a) = opposite(b) (x) a, available once b
    carries a saturation certificate."""
    if not getattr(certificate, "saturated", False):
        raise ValueError("rep_saturated requires a saturation certificate with saturated=True")
    out = tensor(opposite(b), a)
    out.name = f"rep({b.name or '?'}, {a.name or '?'})"
    return out
