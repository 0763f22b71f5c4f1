"""Right dg modules, bimodules, and the two-sided bar construction.

A right module over A is a graded value complex per object with action
structure constants hom(x,y) (x) value(y) -> value(x), written m.f, and
axioms

    m.1 = m,   (m.g).f = m.(g.f),   d(m.f) = (dm).f + (-1)^{|m|} m.(df).

Left modules are right modules over the opposite category, related by
g.n := (-1)^{|g||n|} n .op g; one stored representation, two views.

Tor is computed by the two-sided bar construction with per-window
truncation: the "exact"/"truncated" soundness flag records whether the
grading bounds prove that no higher bar degree can contribute inside the
requested window.

A degree-n module map out of a representable h(x) is fixed by the image
of 1_x, a cycle (dg Yoneda lemma), so ``yoneda_map`` builds the maps that
``sn_pack`` packs with their ends over opposite(S(n)) (x) A.
"""

from __future__ import annotations

import itertools

from .exactfield import ChainComplex, operator_complex
from .dgcore import (_NO_TABLE, DgCategory, ValidationReport, elem_scale, elem_eq, opposite,
                     tensor, tensor_info)


class DgModule:
    """Right dg module over a finite dg category.

    ``actions(x, y)`` is the action table of one pair: it maps
    ((df, i_f), (dm, i_m)) with f in hom(x,y) and m in value(y) to the
    element m.f of value(x) as {index: scalar} in degree df + dm;
    missing entries are zero.  Like ``DgCategory.comp``, ``action`` is
    given as the stored dict of the nonempty tables by pair, or as a
    function of one pair (``tensor_action``) computed on its first read;
    the ``action`` property is the full view.  Tables are clean and
    read-only.
    """

    def __init__(self, base: DgCategory, values, action, name=""):
        self.base = base
        self.values = dict(values)
        # the stored tables, or the cache of a function of one pair
        self._tables, self._compute = ({}, action) if callable(action) else (action, None)
        self.name = name
        for x in base.objects:
            if x not in self.values:
                self.values[x] = ChainComplex(base.field, {}, {})

    def actions(self, x, y) -> dict:
        """The action table of (x, y), computed on its first read; one dict
        lookup on stored tables."""
        table = self._tables.get((x, y))
        if table is None:
            if self._compute is None:
                return _NO_TABLE
            table = self._tables[(x, y)] = self._compute(x, y)
        return table

    @property
    def action(self) -> dict:
        """Every nonempty action table by pair, in object order when
        computed: the first call computes them all and stores them."""
        if self._compute is not None:
            self._tables = {p: table for p in itertools.product(self.base.objects, repeat=2)
                            if (table := self.actions(*p))}
            self._compute = None
        return self._tables

    def value(self, x) -> ChainComplex:
        return self.values[x]

    def dims(self, x) -> dict:
        c = self.value(x)
        return {d: c.dim(d) for d in c.support()}

    def total_dim(self) -> int:
        return sum(c.total_dim() for c in self.values.values())

    def basis_keys(self, x):
        c = self.value(x)
        for d in c.support():
            for i in range(c.dim(d)):
                yield (d, i)

    def d_value(self, x, elem: dict) -> dict:
        f = self.base.field
        c = self.value(x)
        out = {}
        for key, v in elem.items():
            for k2, w in c.d_of(key):
                f.accumulate(out, k2, f.mul(w, v))
        return out

    def act(self, x, y, m_elem: dict, f_elem: dict) -> dict:
        """m.f for m in value(y), f in hom(x,y); bilinear."""
        f = self.base.field
        tab = self.actions(x, y)
        out = {}
        for km, vm in m_elem.items():
            for kf, vf in f_elem.items():
                prod = tab.get((kf, km))
                if not prod:
                    continue
                c = f.mul(vm, vf)
                deg = kf[0] + km[0]
                for i, w in prod.items():
                    f.accumulate(out, (deg, i), f.mul(c, w))
        return out

    def support_bounds(self):
        degs = [d for c in self.values.values() for d in c.support()]
        if not degs:
            return None
        return min(degs), max(degs)

    def __eq__(self, other):
        if not isinstance(other, DgModule):
            return NotImplemented
        return (self.base == other.base
                and {k: (v.spaces, v.diffs) for k, v in self.values.items()}
                    == {k: (v.spaces, v.diffs) for k, v in other.values.items()}
                and self.action == other.action)

    def __repr__(self):
        return f"DgModule({self.name or 'dim %d' % self.total_dim()} over {self.base!r})"


def validate_module(m: DgModule) -> ValidationReport:
    """Exhaustive check of the right-module axioms on basis tuples."""
    rep = ValidationReport()
    a = m.base
    f = a.field
    for x in a.objects:
        try:
            m.value(x).verify()
        except ValueError as exc:
            rep.add("module d^2", (x,), str(exc))
        for km in m.basis_keys(x):
            e = {km: f.one()}
            if not elem_eq(m.act(x, x, e, a.unit(x)), e):
                rep.add("module unit", (x, km))
    for (x, y) in itertools.product(a.objects, repeat=2):
        for kf in a.basis_keys(x, y):
            fe = {kf: f.one()}
            dfe = a.d_elem(x, y, fe)
            for km in m.basis_keys(y):
                me = {km: f.one()}
                lhs = m.d_value(x, m.act(x, y, me, fe))
                sign = f.sign(km[0])
                rhs = m.act(x, y, m.d_value(y, me), fe)
                for k, v in m.act(x, y, me, dfe).items():
                    f.accumulate(rhs, k, f.mul(sign, v))
                if not elem_eq(lhs, rhs):
                    rep.add("module chain map", (x, y, kf, km))
    for (x, y, z) in itertools.product(a.objects, repeat=3):
        for kg in a.basis_keys(y, z):
            g = {kg: f.one()}
            for kf in a.basis_keys(x, y):
                fe = {kf: f.one()}
                gf = a.compose_elems(x, y, z, g, fe)
                for km in m.basis_keys(z):
                    me = {km: f.one()}
                    lhs = m.act(x, y, m.act(y, z, me, g), fe)
                    rhs = m.act(x, z, me, gf)
                    if not elem_eq(lhs, rhs):
                        rep.add("module associativity", (x, y, z, kg, kf, km))
    return rep


# ---------------------------------------------------------------------------
# constructions

def yoneda_module(a: DgCategory, x) -> DgModule:
    """The representable module y -> hom(y, x) with action by composition."""
    if x not in a.objects:
        raise ValueError(f"unknown object {x!r}")
    f = a.field
    values = {y: a.hom(y, x) for y in a.objects}
    action = {}
    for (z, y) in itertools.product(a.objects, repeat=2):
        tab = {}
        for kf in a.basis_keys(z, y):
            fe = {kf: f.one()}
            for km in a.basis_keys(y, x):
                me = {km: f.one()}
                prod = a.compose_elems(z, y, x, me, fe)
                if prod:
                    tab[(kf, km)] = {i: v for (d, i), v in prod.items()}
        if tab:
            action[(z, y)] = tab
    return DgModule(a, values, action, name=f"h({x})")


def shift_module(m: DgModule, j: int) -> DgModule:
    """Degree shift: value^d := old value^{d+j}, same differential entries,
    action scaled by (-1)^{j|f|}.  With this convention the relabelling
    identity is a degree-(-j) module map commuting with d on the nose."""
    f = m.base.field
    values = {}
    for x, c in m.values.items():
        values[x] = ChainComplex(f, {d - j: labels for d, labels in c.spaces.items()},
                                 {d - j: mat for d, mat in c.diffs.items()})
    action = {}
    for pair, tab in m.action.items():
        out = {}
        for ((df, i_f), (dm, i_m)), prod in tab.items():
            sgn = f.sign(j * df)
            out[((df, i_f), (dm - j, i_m))] = {i: f.mul(sgn, v) for i, v in prod.items()}
        action[pair] = out
    return DgModule(m.base, values, action, name=f"{m.name}[{j}]" if m.name else "")


def tensor_action(base: DgCategory, values, act):
    """The action of a right module over the tensor category ``base``
    with value complexes ``values``, as a function of one pair (xo, yo)
    giving its action table, for ``DgModule`` to compute on the first
    read of the pair: act(xo, yo, hk, vk) is the product of the basis
    key vk = (degree, index) of values[yo] with the basis element of
    base.hom(xo, yo) whose key tuple over the factors is hk, as a sparse
    element {(degree, index): scalar} of values[xo]."""
    info = tensor_info(base)
    # a pair whose source or target value is zero has nothing to act on
    # or into; each value's keys are listed once
    val_keys = {obj: [(d, i) for d in c.support() for i in range(c.dim(d))]
                for obj, c in values.items() if c.spaces}

    def table(xo, yo):
        tab = {}
        if xo not in val_keys or yo not in val_keys:
            return tab
        for dh, hlist in info.pair(xo, yo)[1].items():
            for ih, hk in enumerate(hlist):
                for vk in val_keys[yo]:
                    res = act(xo, yo, hk, vk)
                    if res:
                        tab[((dh, ih), vk)] = {i: v for (_, i), v in res.items()}
        return tab

    return table


# ---------------------------------------------------------------------------
# bimodules

def diagonal_bimodule(a: DgCategory) -> DgModule:
    """The identity bimodule, a right module over tensor(opposite(a), a):
    value((x, y)) = a.hom(y, x), m.(f (x) g) = (-1)^{|f||m|} f.m.g."""
    return _diagonal_over(a, tensor(opposite(a), a))


def _diagonal_over(a: DgCategory, base: DgCategory) -> DgModule:
    """The diagonal of a over ``base``, any category with the objects, key
    tuples and products of tensor(opposite(a), a): the opposite of
    tensor(opposite(a), a) serves for the diagonal of opposite(a)."""
    f = a.field
    one = f.one()
    values = {(x, y): a.hom(y, x) for (x, y) in base.objects}

    def act(xo, yo, hk, km):
        # kf in op(a).hom(x, xp) = a.hom(xp, x), kg in a.hom(y, yp),
        # m in value(yo) = a.hom(yp, xp)
        (x, y), (xp, yp) = xo, yo
        kf, kg = hk
        mg = a.compose_elems(y, yp, xp, {km: one}, {kg: one})
        if not mg:
            return {}
        sgn = f.sign(kf[0] * km[0])
        return {k: f.mul(sgn, v) for k, v in a.compose_elems(y, xp, x, {kf: one}, mg).items()}

    return DgModule(base, values, tensor_action(base, values, act), name=f"diag({a.name or '?'})")


# ---------------------------------------------------------------------------
# two-sided bar construction

class BarWindowError(ValueError):
    pass


class BarResult:
    """Windowed total complex of a two-sided bar construction.

    ``complexes[()]`` is the cohomological ChainComplex carrying
    ``specified`` metadata; ``chain_keys[()]`` records its chain basis
    per degree for comparison maps.  ``flag`` is "exact" when no bar
    degree above the bound can contribute inside the window, else
    "truncated".
    """

    def __init__(self, complexes, chain_keys, flag, bar_bound):
        self.complexes = complexes
        self.chain_keys = chain_keys
        self.flag = flag
        self.bar_bound = bar_bound


def bar_composite(X: DgModule, Y: DgModule, mid: DgCategory,
                  window_coh, bar_bound=None) -> BarResult:
    """Normalized two-sided bar complex of X (x)^L_mid Y, windowed in
    total cohomological degree: X is a right module over mid, Y a right
    module over opposite(mid).

    Middle factors range over non-unit basis elements, and face and
    differential outputs with a unit in a middle slot are degenerate,
    hence dropped; a middle category whose units are not basis vectors
    is refused.  The middle factors, their digraph and the chain
    vanishing cap come from ``mid.bar_plan()``, so bars over one middle
    category share one set-up.  Chains are listed by bar degree, then
    along ``BarPlan.walks`` from the support of Y into the support of X
    (no other walk carries a chain), then by the module and middle
    factor bases; each degree keeps that order.
    """
    if not mid.unit_is_basis():
        raise ValueError("the normalized two-sided bar needs every unit of the middle "
                         "category to be a basis element with coefficient 1")
    f = mid.field
    plan = mid.bar_plan()
    w0, w1 = window_coh
    x_bounds, y_bounds = X.support_bounds(), Y.support_bounds()
    # bar degrees above cap cannot reach the window closure
    cap = plan.two_sided_bound(x_bounds, y_bounds, w0, w1)
    if x_bounds is None or y_bounds is None:
        P, flag = 0, "exact"    # no chains at all
    elif bar_bound is None:
        if cap is None:
            raise BarWindowError(
                "window not provably computable: hom degrees span both sides of the "
                "grading bound; pass an explicit bar_bound for a truncated answer")
        P, flag = cap, "exact"
    else:
        P, flag = bar_bound, "exact" if cap is not None and bar_bound >= cap else "truncated"
    lo, hi = w0 - 1, w1 + 1

    # chain enumeration: key = (objs tuple (b_0..b_p), km, betas (a_p..a_1), kn),
    # each degree in enumeration order
    starts = {b for b in mid.objects if Y.value(b).spaces}
    ends = {b for b in mid.objects if X.value(b).spaces}
    chains = {}   # total degree -> list of keys
    for p in range(P + 1):
        for objs in plan.walks(p, starts, ends):
            # objs = (b_0, ..., b_p); betas a_i in hom(b_{i-1}, b_i)
            beta_lists = [plan.nonunit[(objs[i - 1], objs[i])] for i in range(1, p + 1)]
            xv = X.value(objs[p])
            yv = Y.value(objs[0])
            for km in [(d, i) for d in xv.support() for i in range(xv.dim(d))]:
                for kn in [(d, i) for d in yv.support() for i in range(yv.dim(d))]:
                    base_deg = km[0] + kn[0]
                    # product yields (a_1, ..., a_p); chains store (a_p, ..., a_1)
                    for betas in itertools.product(*beta_lists):
                        bt = betas[::-1]
                        q = base_deg + sum(k[0] for k in bt)
                        t = q - p
                        if lo <= t <= hi:
                            chains.setdefault(t, []).append((objs, km, bt, kn))
    cx = operator_complex(f, chains, _bar_differential(X, Y, mid),
                          specified=(lo, hi))
    return BarResult({(): cx}, {(): chains}, flag, P)


def _bar_differential(X: DgModule, Y: DgModule, mid: DgCategory):
    """The total differential of the normalized two-sided bar chains of
    ``bar_composite``, as a function diff(key) -> {chain key: scalar}:
    simplicial faces with alternating signs plus (-1)^p times the
    internal Koszul-left differential.

    A term with a unit (the unit keys of ``mid.bar_plan()``) in the
    composed or the differentiated middle slot is degenerate and
    dropped; the other middle factors keep their objects and were
    non-unit already.

    Actions, products and differentials are read from the structure
    tables; the internal differential is skipped when neither the middle
    category nor a module value has one."""
    f = mid.field
    products, hom = mid.products, mid.hom
    x_actions, y_actions = X.actions, Y.actions
    plan = mid.bar_plan()
    unit_keys = plan.unit_keys
    internal = plan.differential or any(
        c.diffs for m in (X, Y) for c in m.values.values())

    def diff(key):
        objs, km, betas, kn = key
        p = len(betas)
        out = {}
        if p:
            # face 0: X-action by a_p
            a_p = betas[0]
            prod = x_actions(objs[p - 1], objs[p]).get((a_p, km))
            if prod:
                head, rest, deg = objs[:p], betas[1:], a_p[0] + km[0]
                for i, v in prod.items():
                    f.accumulate(out, (head, (deg, i), rest, kn), v)
            # middle faces i = 1..p-1: compose a_{p-i+1} . a_{p-i}, where
            # betas[i-1] is in hom(objs[p-i], objs[p-i+1]) and betas[i] in
            # hom(objs[p-i-1], objs[p-i])
            for i in range(1, p):
                kg, kf = betas[i - 1], betas[i]
                src, tgt = objs[p - i - 1], objs[p - i + 1]
                prod = products(src, objs[p - i], tgt).get((kg, kf))
                if prod:
                    deg = kg[0] + kf[0]
                    unit = unit_keys[src] if src == tgt else None
                    nobjs = objs[:p - i] + objs[p - i + 1:]
                    before, after = betas[:i - 1], betas[i + 1:]
                    for ih, v in prod.items():
                        if (deg, ih) != unit:
                            f.accumulate(out, (nobjs, km, before + ((deg, ih),) + after, kn),
                                         f.neg(v) if i & 1 else v)
            # face p: left action of a_1 on the Y side, with the Koszul sign
            # of the left-module dictionary g.n = (-1)^{|g||n|} n .op g;
            # a_1 in mid.hom(b_0, b_1) = opposite(mid).hom(b_1, b_0)
            a1 = betas[-1]
            prod = y_actions(objs[1], objs[0]).get((a1, kn))
            if prod:
                sgn = f.sign(p + a1[0] * kn[0])
                tail, rest, deg = objs[1:], betas[:-1], a1[0] + kn[0]
                for i, v in prod.items():
                    f.accumulate(out, (tail, km, rest, (deg, i)), f.mul(sgn, v))

        if not internal:
            return out
        # internal differential with Koszul signs from the left; global (-1)^p
        sign_accum = p
        for km2, v in X.value(objs[p]).d_of(km):
            f.accumulate(out, (objs, km2, betas, kn), f.neg(v) if sign_accum & 1 else v)
        sign_accum += km[0]
        for i, bk in enumerate(betas):
            # beta_i spans hom(objs[p-i-1], objs[p-i])
            src, tgt = objs[p - i - 1], objs[p - i]
            unit = unit_keys[src] if src == tgt else None
            for bk2, v in hom(src, tgt).d_of(bk):
                if bk2 != unit:
                    f.accumulate(out, (objs, km, betas[:i] + (bk2,) + betas[i + 1:], kn),
                                 f.neg(v) if sign_accum & 1 else v)
            sign_accum += bk[0]
        for kn2, v in Y.value(objs[0]).d_of(kn):
            f.accumulate(out, (objs, km, betas, kn2), f.neg(v) if sign_accum & 1 else v)
        return out

    return diff


def top_module(a: DgCategory) -> DgModule:
    """A0 = a/rad as a right a-module: a 1-dim value at each object, units
    acting by 1 and non-units by 0 (a module when the non-unit span is
    an ideal)."""
    f = a.field
    unit_keys = a.bar_plan().unit_keys
    values = {x: ChainComplex(f, {0: (f"s:{x}",)}, {}) for x in a.objects}
    action = {(x, x): {(unit_keys[x], (0, 0)): {0: f.one()}} for x in a.objects}
    return DgModule(a, values, action, name=f"A0({a.name or '?'})")


def tor_dims(m: DgModule, n: DgModule, window, bar_bound=None) -> dict:
    """Tor of a right module m over A against a left module n (stored as
    a right module over opposite(A)) in the homological window, read
    from the windowed bar construction: {i: (dim, flag)}, equal to Tor
    where flag == "exact"."""
    from .exactfield import homology_dims
    a = m.base
    # an opposite(a) equals opposite(a): only another base is compared,
    # which computes every product table of both sides
    if n.base.op_source is not a and n.base != opposite(a):
        raise ValueError("second argument must be a module over the opposite category")
    h_lo, h_hi = window
    if h_lo > h_hi:
        raise ValueError("empty window")
    res = bar_composite(m, n, a, (-h_hi, -h_lo), bar_bound)
    hd = homology_dims(res.complexes[()], (-h_hi, -h_lo))
    return {i: (hd[-i], res.flag) for i in range(h_lo, h_hi + 1)}


# ---------------------------------------------------------------------------
# module maps and the sphere-module packing; a map out of h(x) is a
# cycle of the target at x (yoneda_map)

class ModuleMap:
    """A degree-n map of right modules f: m -> m2 satisfying the
    untwisted chain condition d.f = f.d and the Koszul linearity
    f(m.a) = (-1)^{n|a|} f(m).a."""

    def __init__(self, src: DgModule, dst: DgModule, degree: int, maps):
        self.src = src
        self.dst = dst
        self.degree = degree
        # maps: obj -> {(d, i) -> {j: scalar}} sending basis (d,i) to dst degree d+n
        self.maps = {}
        for x, tab in maps.items():
            cleaned = {k: {j: v for j, v in e.items() if v}
                       for k, e in tab.items() if any(e.values())}
            if cleaned:
                self.maps[x] = cleaned

    def apply(self, x, elem: dict) -> dict:
        f = self.src.base.field
        tab = self.maps.get(x, {})
        out = {}
        for km, c in elem.items():
            for j, v in tab.get(km, {}).items():
                f.accumulate(out, (km[0] + self.degree, j), f.mul(c, v))
        return out

    def check(self):
        """Verify the chain condition and Koszul linearity; raises on failure."""
        a = self.src.base
        f = a.field
        n = self.degree
        for x in a.objects:
            for km in self.src.basis_keys(x):
                e = {km: f.one()}
                if not elem_eq(self.dst.d_value(x, self.apply(x, e)),
                               self.apply(x, self.src.d_value(x, e))):
                    raise ValueError(f"module map fails d.f = f.d at {x}, {km}")
        for (x, y) in itertools.product(a.objects, repeat=2):
            for kf in a.basis_keys(x, y):
                fe = {kf: f.one()}
                sgn = f.sign(n * kf[0])
                for km in self.src.basis_keys(y):
                    me = {km: f.one()}
                    lhs = self.apply(x, self.src.act(x, y, me, fe))
                    rhs = elem_scale(f, sgn, self.dst.act(x, y, self.apply(y, me), fe))
                    if not elem_eq(lhs, rhs):
                        raise ValueError(f"module map fails linearity at {(x, y)}, {kf}, {km}")
        return self


def yoneda_map(a: DgCategory, x, dst: DgModule, n: int, e: dict) -> ModuleMap:
    """The degree-n map yoneda_module(a, x) -> dst sending 1_x to e, a
    closed element {(n, i): scalar} of dst.value(x): u -> (-1)^{n|u|} e.u.

    By the dg Yoneda lemma every degree-n map f is one of these:
    f(u) = f(1_x.u) = (-1)^{n|u|} f(1_x).u, and d.f = f.d at 1_x forces
    d f(1_x) = 0.  So the degree-n maps are the cycles of dst.value(x)
    in degree n."""
    f = a.field
    src = yoneda_module(a, x)
    maps = {}
    for y in a.objects:
        tab = maps[y] = {}
        for km in src.basis_keys(y):
            img = dst.act(y, x, e, {km: f.sign(n * km[0])})
            tab[km] = {j: v for (_, j), v in img.items()}
    return ModuleMap(src, dst, n, maps)


def sn_pack(m: DgModule, m2: DgModule, fmap: ModuleMap):
    """Package (m, m2, f) as a right module over opposite(S(n)) (x) A,
    where n = fmap.degree.  Inverse to sn_unpack on the nose."""
    from .cells import sphere_cell
    if fmap.src is not m and fmap.src != m:
        raise ValueError("map source mismatch")
    if fmap.dst is not m2 and fmap.dst != m2:
        raise ValueError("map target mismatch")
    fmap.check()
    a = m.base
    if m2.base != a:
        raise ValueError("modules over different bases")
    f = a.field
    n = fmap.degree
    sph = sphere_cell(n, f)
    e_cat = tensor(opposite(sph), a)
    which = {"1": m, "2": m2}
    values = {(i_obj, y): which[i_obj].value(y) for (i_obj, y) in e_cat.objects}
    one = f.one()
    s_key = (n, 0)  # the sphere generator in opposite(S(n)).hom("2","1") = S(n).hom("1","2")

    def act(xo, yo, hk, km):
        (i_x, x), (i_y, y) = xo, yo
        ks, ka = hk
        if i_x == i_y:
            # unit (x) a
            return which[i_y].act(x, y, {km: one}, {ka: one})
        # s (x) a: first f, then the a-action on m2
        assert (i_x, i_y) == ("2", "1") and ks == s_key
        return m2.act(x, y, fmap.apply(y, {km: one}), {ka: one})

    return DgModule(e_cat, values, tensor_action(e_cat, values, act), name="sn_pack")


def sn_unpack(X: DgModule):
    """Recover (m, m2, f) from a module over opposite(S(n)) (x) A, read off
    X's action tables: each eye keeps the entries at its unit (x) a, and
    f the entries at s (x) 1_y."""
    info = tensor_info(X.base)
    sph_op, a = info.factors[0], info.factors[1]
    s_support = sph_op.hom("2", "1").support()
    if len(s_support) != 1:
        raise ValueError("base is not a sphere tensor category")
    n = s_support[0]
    s_key = (n, 0)

    def entries(xo, yo):
        # the table of (xo, yo) as (sphere key, a key, value key, product)
        keys = info.pair(xo, yo)[1]
        for ((dh, ih), km), prod in X.actions(xo, yo).items():
            ks, ka = keys[dh][ih]
            yield ks, ka, km, prod

    def slice_module(i_obj):
        unit_key = sph_op.unit_key(i_obj)
        action = {}
        for (x, y) in itertools.product(a.objects, repeat=2):
            tab = {(ka, km): prod for ks, ka, km, prod in entries((i_obj, x), (i_obj, y))
                   if ks == unit_key}
            if tab:
                action[(x, y)] = tab
        return DgModule(a, {y: X.value((i_obj, y)) for y in a.objects}, action)

    m = slice_module("1")
    m2 = slice_module("2")
    maps = {}
    for y in a.objects:
        unit_key = a.unit_key(y)
        if unit_key is None:
            raise ValueError("sn_unpack needs unit-basis coefficients")
        maps[y] = {km: prod for ks, ka, km, prod in entries(("2", y), ("1", y))
                   if (ks, ka) == (s_key, unit_key)}
    return m, m2, ModuleMap(m, m2, n, maps)
