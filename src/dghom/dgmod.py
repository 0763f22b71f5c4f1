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
"""

from __future__ import annotations

import itertools

from .exactfield import ChainComplex, Matrix, kernel_basis, operator_complex, tensor_complex
from .dgcore import (DgCategory, ValidationReport, bar_degree_cap, elem_scale,
                     elem_eq, opposite, tensor, tensor_info, walks)


class DgModule:
    """Right dg module over a finite dg category.

    ``action[(x, y)]`` maps ((df, i_f), (dm, i_m)) with f in hom(x,y) and
    m in value(y) to the element m.f of value(x) as {index: scalar} in
    degree df + dm; missing entries are zero.
    """

    def __init__(self, base: DgCategory, values, action, name=""):
        self.base = base
        self.values = dict(values)
        self.action = {k: {pk: {i: v for i, v in e.items() if v}
                           for pk, e in tab.items() if any(e.values())}
                       for k, tab in action.items()}
        self.action = {k: t for k, t in self.action.items() if t}
        self.name = name
        for x in base.objects:
            if x not in self.values:
                self.values[x] = ChainComplex(base.field, {}, {})

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
        tab = self.action.get((x, y), {})
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


def tensor_action(base: DgCategory, values, act) -> dict:
    """The action table of a right module over the tensor category
    ``base`` with value complexes ``values``: act(xo, yo, hk, vk) is the
    product of the basis key vk = (degree, index) of values[yo] with the
    basis element of base.hom(xo, yo) whose key tuple over the factors is
    hk, as a sparse element {(degree, index): scalar} of values[xo]."""
    info = tensor_info(base)
    action = {}
    for (xo, yo), hom_keys in info.keys.items():
        c = values[yo]
        val_keys = [(d, i) for d in c.support() for i in range(c.dim(d))]
        tab = {}
        for dh, hlist in hom_keys.items():
            for ih, hk in enumerate(hlist):
                for vk in val_keys:
                    res = act(xo, yo, hk, vk)
                    if res:
                        tab[((dh, ih), vk)] = {i: v for (_, i), v in res.items()}
        if tab:
            action[(xo, yo)] = tab
    return action


def external_tensor_module(m: DgModule, n: DgModule) -> DgModule:
    """m (x) n over tensor(m.base, n.base):
    (u (x) v).(f (x) g) = (-1)^{|f||v|} (u.f) (x) (v.g).
    The basis labels of a value are the key pairs of tensor_complex."""
    f = m.base.field
    one = f.one()
    base = tensor(m.base, n.base)
    values = {(x, y): tensor_complex(f, (m.value(x), n.value(y))) for (x, y) in base.objects}
    index = {obj: {k: (d, i) for d, lst in c.spaces.items() for i, k in enumerate(lst)}
             for obj, c in values.items()}

    def act(xo, yo, hk, vk):
        kf, kg = hk
        km, kn = values[yo].labels(vk[0])[vk[1]]
        u = m.act(xo[0], yo[0], {km: one}, {kf: one})
        if not u:
            return {}
        v = n.act(xo[1], yo[1], {kn: one}, {kg: one})
        sgn = f.sign(kf[0] * kn[0])
        out = {}
        for ku, cu in u.items():
            for kv, cv in v.items():
                f.accumulate(out, index[xo][(ku, kv)], f.mul(sgn, f.mul(cu, cv)))
        return out

    return DgModule(base, values, tensor_action(base, values, act),
                    name=f"{m.name} (x) {n.name}" if (m.name and n.name) else "")


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

    def __init__(self, complexes, chain_keys, flag, bar_bound, window_coh):
        self.complexes = complexes
        self.chain_keys = chain_keys
        self.flag = flag
        self.bar_bound = bar_bound
        self.window_coh = window_coh


def _plan_bar_bound(x_bounds, y_bounds, hom_bounds, window_coh, bar_bound, chain_cap):
    """Smallest bar bound P such that bar degrees > P cannot reach the
    window closure, or None when neither the grading nor the chain
    vanishing cap gives such a bound.  Every middle factor is bounded by
    ``hom_bounds``, the degrees of all keys of the middle category."""
    if x_bounds is None or y_bounds is None:
        return 0, "exact"
    p_exact = bar_degree_cap((x_bounds[0] + y_bounds[0], x_bounds[1] + y_bounds[1]),
                             hom_bounds, chain_cap, *window_coh)
    if bar_bound is None:
        if p_exact is None:
            raise BarWindowError(
                "window not provably computable: hom degrees span both sides of the "
                "grading bound; pass an explicit bar_bound for a truncated answer")
        return p_exact, "exact"
    flag = "exact" if (p_exact is not None and bar_bound >= p_exact) else "truncated"
    return bar_bound, flag


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
    category share one set-up.
    """
    if not mid.unit_is_basis():
        raise ValueError("the normalized two-sided bar needs every unit of the middle "
                         "category to be a basis element with coefficient 1")
    f = mid.field
    plan = mid.bar_plan()
    # with non-unit middle factors, bar chains vanish beyond the longest
    # path in the non-unit digraph of the middle category
    P, flag = _plan_bar_bound(X.support_bounds(), Y.support_bounds(), plan.outer,
                              window_coh, bar_bound, plan.max_bar)
    w0, w1 = window_coh
    lo, hi = w0 - 1, w1 + 1

    # chain enumeration: key = (objs tuple (b_0..b_p), km, betas (a_p..a_1), kn),
    # each degree in enumeration order
    chains = {}   # total degree -> list of keys
    for p in range(P + 1):
        for objs in walks(mid.objects, plan.edges, p):
            # objs = (b_0, ..., b_p); betas a_i in hom(b_{i-1}, b_i)
            beta_lists = [plan.nonunit[(objs[i - 1], objs[i])] for i in range(1, p + 1)]
            xv = X.value(objs[p])
            yv = Y.value(objs[0])
            if not xv.spaces or not yv.spaces:
                continue
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
    return BarResult({(): cx}, {(): chains}, flag, P, window_coh)


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
    comp, homs = mid.comp, mid.homs
    x_action, y_action = X.action, Y.action
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
            prod = x_action.get((objs[p - 1], objs[p]), {}).get((a_p, km))
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
                prod = comp.get((src, objs[p - i], tgt), {}).get((kg, kf))
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
            prod = y_action.get((objs[1], objs[0]), {}).get((a1, kn))
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
            for bk2, v in homs[(src, tgt)].d_of(bk):
                if bk2 != unit:
                    f.accumulate(out, (objs, km, betas[:i] + (bk2,) + betas[i + 1:], kn),
                                 f.neg(v) if sign_accum & 1 else v)
            sign_accum += bk[0]
        for kn2, v in Y.value(objs[0]).d_of(kn):
            f.accumulate(out, (objs, km, betas, kn2), f.neg(v) if sign_accum & 1 else v)
        return out

    return diff


def bar_tor(m: DgModule, n: DgModule, window, bar_bound=None):
    """Tor of a right module m over A against a left module n (stored as
    a right module over opposite(A)), windowed in homological degrees.

    Returns (ChainComplex, flag): the cohomological windowed total
    complex of the bar construction and the soundness flag; homology of
    the output inside the window equals Tor there when flag == "exact".
    """
    a = m.base
    if n.base != opposite(a):
        raise ValueError("second argument must be a module over the opposite category")
    h_lo, h_hi = window
    if h_lo > h_hi:
        raise ValueError("empty window")
    window_coh = (-h_hi, -h_lo)
    res = bar_composite(m, n, a, window_coh, bar_bound)
    return res.complexes[()], res.flag


def tor_dims(m: DgModule, n: DgModule, window, bar_bound=None) -> dict:
    """Homological Tor dimensions with per-degree status."""
    from .exactfield import homology_dims
    cx, flag = bar_tor(m, n, window, bar_bound)
    h_lo, h_hi = window
    hd = homology_dims(cx, (-h_hi, -h_lo))
    return {i: (hd[-i], flag) for i in range(h_lo, h_hi + 1)}


# ---------------------------------------------------------------------------
# module maps and the sphere-module packing

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


def module_map_space(src: DgModule, dst: DgModule, n: int):
    """Basis of the space of valid degree-n module maps src -> dst, found
    by exact kernel computation on the chain + linearity constraints."""
    a = src.base
    f = a.field
    unknowns = []
    index = {}
    for x in a.objects:
        for km in src.basis_keys(x):
            tgt = dst.value(x)
            d_out = km[0] + n
            for j in range(tgt.dim(d_out)):
                index[(x, km, j)] = len(unknowns)
                unknowns.append((x, km, j))
    rows = []

    def add_row(coeffs: dict):
        if coeffs:
            rows.append(coeffs)

    # chain condition: for each x, km: d(f(km)) - f(d(km)) = 0
    for x in a.objects:
        tgt = dst.value(x)
        for km in src.basis_keys(x):
            d_out = km[0] + n
            # components indexed by dst basis at degree d_out + 1
            comps = {}
            mat = tgt.diffs.get(d_out)
            if mat is not None:
                for (i, j), v in mat.entries.items():
                    comps.setdefault(i, {})[index[(x, km, j)]] = v
            for km2, v in src.d_value(x, {km: f.one()}).items():
                for j in range(tgt.dim(km2[0] + n)):
                    f.accumulate(comps.setdefault(j, {}), index[(x, km2, j)], f.neg(v))
            for comp in comps.values():
                add_row(comp)
    # linearity: f(m.a) - (-1)^{n|a|} f(m).a = 0
    for (x, y) in itertools.product(a.objects, repeat=2):
        for kf in a.basis_keys(x, y):
            fe = {kf: f.one()}
            sgn = f.sign(n * kf[0])
            for km in src.basis_keys(y):
                acted = src.act(x, y, {km: f.one()}, fe)
                comps = {}
                for km2, v in acted.items():
                    for j in range(dst.value(x).dim(km2[0] + n)):
                        f.accumulate(comps.setdefault((km2[0] + n, j), {}), index[(x, km2, j)], v)
                for j in range(dst.value(y).dim(km[0] + n)):
                    out = dst.act(x, y, {(km[0] + n, j): f.one()}, fe)
                    for kk, v in out.items():
                        f.accumulate(comps.setdefault(kk, {}), index[(y, km, j)], f.neg(f.mul(sgn, v)))
                for comp in comps.values():
                    add_row(comp)

    mat_entries = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            mat_entries[(r, c)] = v
    mat = Matrix(f, len(rows), len(unknowns), mat_entries)
    ker = kernel_basis(mat)
    out = []
    for col in range(ker.cols):
        maps = {}
        for (i, jj), v in ker.entries.items():
            if jj != col:
                continue
            x, km, j = unknowns[i]
            maps.setdefault(x, {}).setdefault(km, {})[j] = v
        out.append(ModuleMap(src, dst, n, maps))
    return out


def sn_pack(m: DgModule, m2: DgModule, fmap: ModuleMap):
    """Package (m, m2, f) as a right module over opposite(S(n)) (x) A,
    where n = fmap.degree.  Inverse to sn_unpack on the nose."""
    from .dgcore import sphere_cell
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
    """Recover (m, m2, f) from a module over opposite(S(n)) (x) A."""
    e_cat = X.base
    info = tensor_info(e_cat)
    sph_op = info.factors[0]
    a = info.factors[1]
    f = a.field
    s_support = sph_op.hom("2", "1").support()
    if len(s_support) != 1:
        raise ValueError("base is not a sphere tensor category")
    n = s_support[0]
    s_key = (n, 0)

    def slice_module(i_obj):
        values = {y: X.value((i_obj, y)) for y in a.objects}
        action = {}
        for (x, y) in itertools.product(a.objects, repeat=2):
            index = info.index[((i_obj, x), (i_obj, y))]
            tab = {}
            unit_key = sph_op.unit_key(i_obj)
            for ka in a.basis_keys(x, y):
                d, i = index[(unit_key, ka)]
                fe = {(d, i): f.one()}
                for km in X.basis_keys((i_obj, y)):
                    res = X.act((i_obj, x), (i_obj, y), {km: f.one()}, fe)
                    if res:
                        tab[(ka, km)] = {ii: v for (dd, ii), v in res.items()}
            if tab:
                action[(x, y)] = tab
        return DgModule(a, values, action)

    m = slice_module("1")
    m2 = slice_module("2")
    maps = {}
    for y in a.objects:
        index = info.index[(("2", y), ("1", y))]
        unit_key = a.unit_key(y)
        if unit_key is None:
            raise ValueError("sn_unpack needs unit-basis coefficients")
        d, i = index[(s_key, unit_key)]
        fe = {(d, i): f.one()}
        tab = {}
        for km in X.basis_keys(("1", y)):
            res = X.act(("2", y), ("1", y), {km: f.one()}, fe)
            if res:
                tab[km] = {ii: v for (dd, ii), v in res.items()}
        maps[y] = tab
    fmap = ModuleMap(m, m2, n, maps)
    return m, m2, fmap
