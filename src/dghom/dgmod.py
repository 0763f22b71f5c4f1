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

from .exactfield import ChainComplex, Matrix, kernel_basis
from .dgcore import (DgCategory, DgFunctor, ValidationReport, elem_scale, elem_eq,
                     hom_graph, longest_path_bound, opposite, tensor, tensor_info, walks)


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
        for (deg, idx), v in elem.items():
            m = c.diffs.get(deg)
            if m is None:
                continue
            for (i, j), w in m.entries.items():
                if j != idx:
                    continue
                f.accumulate(out, (deg + 1, i), f.mul(w, v))
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
                sign = f.of_int((-1) ** (km[0] % 2))
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
            sgn = f.of_int((-1) ** ((j * df) % 2))
            out[((df, i_f), (dm - j, i_m))] = {i: f.mul(sgn, v) for i, v in prod.items()}
        action[pair] = out
    return DgModule(m.base, values, action, name=f"{m.name}[{j}]" if m.name else "")


def pullback_module(F: DgFunctor, m: DgModule) -> DgModule:
    """Restriction along a dg functor: value(x) = m.value(Fx), action
    through F; module axioms are inherited."""
    if m.base is not F.target and m.base != F.target:
        raise ValueError("module is not over the functor's target")
    a = F.source
    f = a.field
    values = {x: m.value(F.on_object(x)) for x in a.objects}
    action = {}
    for (x, y) in itertools.product(a.objects, repeat=2):
        Fx, Fy = F.on_object(x), F.on_object(y)
        tab = {}
        for kf in a.basis_keys(x, y):
            fe = F.apply_elem(x, y, {kf: f.one()})
            if not fe:
                continue
            for km in m.basis_keys(Fy):
                out = m.act(Fx, Fy, {km: f.one()}, fe)
                if out:
                    tab[(kf, km)] = {i: v for (d, i), v in out.items()}
        if tab:
            action[(x, y)] = tab
    return DgModule(a, values, action, name=m.name)


def external_tensor_module(m: DgModule, n: DgModule) -> DgModule:
    """m (x) n over tensor(m.base, n.base):
    (u (x) v).(f (x) g) = (-1)^{|f||v|} (u.f) (x) (v.g)."""
    f = m.base.field
    base = tensor(m.base, n.base)
    info = tensor_info(base)
    # value bases: pairs of keys, ordered deterministically
    pair_keys = {}
    values = {}
    for obj in base.objects:
        x, y = obj
        cm, cn = m.value(x), n.value(y)
        combos = [((dm, im), (dn, i_n))
                  for dm in cm.support() for im in range(cm.dim(dm))
                  for dn in cn.support() for i_n in range(cn.dim(dn))]
        by_degree = {}
        for km, kn in combos:
            by_degree.setdefault(km[0] + kn[0], []).append((km, kn))
        for lst in by_degree.values():
            lst.sort()
        pair_keys[obj] = by_degree
        index = {ck: (d, i) for d, lst in by_degree.items() for i, ck in enumerate(lst)}
        spaces = {d: tuple((cm.labels(km[0])[km[1]], cn.labels(kn[0])[kn[1]])
                           for (km, kn) in lst)
                  for d, lst in by_degree.items()}
        diffs = {}
        for d, lst in by_degree.items():
            entries = {}
            for col, (km, kn) in enumerate(lst):
                for k2, v in m.d_value(x, {km: f.one()}).items():
                    dd, row = index[(k2, kn)]
                    f.accumulate(entries, (row, col), v)
                sgn = f.of_int((-1) ** (km[0] % 2))
                for k2, v in n.d_value(y, {kn: f.one()}).items():
                    dd, row = index[(km, k2)]
                    f.accumulate(entries, (row, col), f.mul(sgn, v))
            if entries:
                diffs[d] = Matrix(f, len(by_degree.get(d + 1, ())), len(lst), entries)
        values[obj] = ChainComplex(f, spaces, diffs)

    action = {}
    for xo in base.objects:
        for yo in base.objects:
            hom_keys = info.enumerate_pair(xo, yo)
            val_index = {ck: (d, i) for d, lst in pair_keys[yo].items() for i, ck in enumerate(lst)}
            out_index = {ck: (d, i) for d, lst in pair_keys[xo].items() for i, ck in enumerate(lst)}
            tab = {}
            for dh, hlist in hom_keys.items():
                for ih, (kf, kg) in enumerate(hlist):
                    for (km, kn), (dv, iv) in val_index.items():
                        u = m.act(xo[0], yo[0], {km: f.one()}, {kf: f.one()})
                        if not u:
                            continue
                        v = n.act(xo[1], yo[1], {kn: f.one()}, {kg: f.one()})
                        if not v:
                            continue
                        sgn = f.of_int((-1) ** ((kf[0] * kn[0]) % 2))
                        outs = {}
                        for ku, cu in u.items():
                            for kv, cv in v.items():
                                dd, i_out = out_index[(ku, kv)]
                                f.accumulate(outs, i_out, f.mul(sgn, f.mul(cu, cv)))
                        if outs:
                            tab[((dh, ih), (dv, iv))] = outs
            if tab:
                action[(xo, yo)] = tab
    out = DgModule(base, values, action,
                   name=f"{m.name} (x) {n.name}" if (m.name and n.name) else "")
    out._pair_keys = pair_keys
    return out


# ---------------------------------------------------------------------------
# bimodules

class Bimodule:
    """A right module over tensor(opposite(b), a), the model of a morphism
    b -> a; value((x, y)) is a complex for x in b, y in a."""

    def __init__(self, b_cat: DgCategory, a_cat: DgCategory, module: DgModule, name=""):
        self.b_cat = b_cat
        self.a_cat = a_cat
        self.module = module
        self.name = name or module.name

    @property
    def base(self):
        return self.module.base

    def value(self, pair) -> ChainComplex:
        return self.module.value(pair)

    def dims(self, pair) -> dict:
        return self.module.dims(pair)


def diagonal_bimodule(a: DgCategory) -> Bimodule:
    """The identity bimodule: value((x, y)) = a.hom(y, x),
    m.(f (x) g) = (-1)^{|f||m|} f.m.g."""
    f = a.field
    base = tensor(opposite(a), a)
    info = tensor_info(base)
    values = {}
    for (x, y) in base.objects:
        values[(x, y)] = a.hom(y, x)
    action = {}
    for xo in base.objects:
        for yo in base.objects:
            x, y = xo          # target pair of the action
            xp, yp = yo        # source pair: value(yo) = hom(yp, xp)
            hom_keys = info.enumerate_pair(xo, yo)
            tab = {}
            for dh, hlist in hom_keys.items():
                for ih, (kf, kg) in enumerate(hlist):
                    # kf in op(a).hom(x, xp) = a.hom(xp, x); kg in a.hom(y, yp)
                    fe = {kf: f.one()}
                    ge = {kg: f.one()}
                    for km in a.basis_keys(yp, xp):
                        me = {km: f.one()}
                        mg = a.compose_elems(y, yp, xp, me, ge)
                        if not mg:
                            continue
                        fmg = a.compose_elems(y, xp, x, fe, mg)
                        if not fmg:
                            continue
                        sgn = f.of_int((-1) ** ((kf[0] * km[0]) % 2))
                        tab[((dh, ih), km)] = {i: f.mul(sgn, v) for (d, i), v in fmg.items()}
            if tab:
                action[(xo, yo)] = tab
    mod = DgModule(base, values, action, name=f"diag({a.name or '?'})")
    return Bimodule(a, a, mod, name=mod.name)


def restrict(x, bim: Bimodule) -> DgModule:
    """Fix the first coordinate of a bimodule: the a-module
    y -> value((x, y)) with the a-action only."""
    if x not in bim.b_cat.objects:
        raise ValueError(f"unknown object {x!r}")
    a = bim.a_cat
    f = a.field
    base = bim.base
    info = tensor_info(base)
    opp_unit = opposite(bim.b_cat).unit(x)
    values = {y: bim.value((x, y)) for y in a.objects}
    action = {}
    for (y, yp) in itertools.product(a.objects, repeat=2):
        idx = info.enumerate_pair((x, y), (x, yp))
        index = info.index[((x, y), (x, yp))]
        tab = {}
        for kg in a.basis_keys(y, yp):
            # element 1_x (x) g of base.hom((x,y),(x,yp))
            fe = {}
            for ku, cu in opp_unit.items():
                d, i = index[(ku, kg)]
                fe[(d, i)] = cu
            for km in bim.module.basis_keys((x, yp)):
                out = bim.module.act((x, y), (x, yp), {km: f.one()}, fe)
                if out:
                    tab[(kg, km)] = {i: v for (d, i), v in out.items()}
        if tab:
            action[(y, yp)] = tab
    return DgModule(a, values, action, name=f"{bim.name}|{x}")


# ---------------------------------------------------------------------------
# two-sided bar construction

class BarWindowError(ValueError):
    pass


class BarResult:
    """Windowed total complex of a two-sided bar construction.

    ``complexes`` maps a spectator pair (or () when there are none) to a
    cohomological ChainComplex carrying ``specified`` metadata;
    ``chain_keys`` records the chain basis per degree for comparison
    maps.  ``flag`` is "exact" when no bar degree above the bound can
    contribute inside the window, else "truncated".
    """

    def __init__(self, complexes, chain_keys, flag, bar_bound, window_coh):
        self.complexes = complexes
        self.chain_keys = chain_keys
        self.flag = flag
        self.bar_bound = bar_bound
        self.window_coh = window_coh

    def pairs(self):
        return sorted(self.complexes, key=repr)


def _plan_bar_bound(x_bounds, y_bounds, hom_bounds, window_coh, bar_bound,
                    chain_cap=None):
    """Smallest bar bound P such that bar degrees > P cannot reach the
    window closure, or None when neither the grading nor the chain
    vanishing cap gives such a bound."""
    w0, w1 = window_coh
    if x_bounds is None or y_bounds is None:
        return 0, "exact"
    m_hi = x_bounds[1] + y_bounds[1]
    m_lo = x_bounds[0] + y_bounds[0]
    p_exact = None
    if hom_bounds is None:
        p_exact = 0
    else:
        a_lo, a_hi = hom_bounds
        if a_hi <= 0:
            p = 0
            while m_hi + (p + 1) * (a_hi - 1) >= w0 - 1:
                p += 1
            p_exact = p
        elif a_lo >= 2:
            p = 0
            while m_lo + (p + 1) * (a_lo - 1) <= w1 + 1:
                p += 1
            p_exact = p
    if chain_cap is not None:
        p_exact = chain_cap if p_exact is None else min(p_exact, chain_cap)
    if bar_bound is None:
        if p_exact is None:
            raise BarWindowError(
                "window not provably computable: hom degrees span both sides of the "
                "grading bound; pass an explicit bar_bound for a truncated answer")
        return p_exact, "exact"
    flag = "exact" if (p_exact is not None and bar_bound >= p_exact) else "truncated"
    return bar_bound, flag


def bar_composite(X: DgModule, Y: DgModule, mid: DgCategory,
                  window_coh, bar_bound=None,
                  left_spect: DgCategory | None = None,
                  right_spect: DgCategory | None = None,
                  normalized: bool | None = None) -> BarResult:
    """Two-sided bar complex of X (x)^L_mid Y, windowed in total
    cohomological degree.

    X is a right module over mid (or over tensor(left_spect, mid));
    Y is a right module over opposite(mid) (or over
    tensor(opposite(mid), right_spect)).  Spectator slots survive into
    the result: one complex per (left object, right object) pair.

    When the middle category has unit basis vectors the normalized bar
    is used: middle factors range over non-unit basis elements, and
    face/differential outputs with a unit in a middle slot are
    degenerate hence dropped.
    """
    f = mid.field
    hom_bounds = mid.hom_degree_bounds()
    if normalized is None:
        normalized = mid.unit_is_basis()
    # with non-unit middle factors, bar chains vanish beyond the longest
    # path in the non-unit digraph of the middle category
    chain_cap = longest_path_bound(mid) if normalized else None
    P, flag = _plan_bar_bound(X.support_bounds(), Y.support_bounds(), hom_bounds,
                              window_coh, bar_bound, chain_cap)
    w0, w1 = window_coh
    lo, hi = w0 - 1, w1 + 1
    unit_keys = {u: mid.unit_key(u) for u in mid.objects} if normalized else {}

    x_info = tensor_info(X.base) if left_spect is not None else None
    y_info = tensor_info(Y.base) if right_spect is not None else None
    left_objs = left_spect.objects if left_spect is not None else (None,)
    right_objs = right_spect.objects if right_spect is not None else (None,)

    def xobj(la, b):
        return (la, b) if left_spect is not None else b

    def yobj(b, rc):
        return (b, rc) if right_spect is not None else b

    # decompose/act helpers
    def x_act(la, b_new, b_old, xelem, beta_key):
        """Action of 1_la (x) beta on the X side."""
        if left_spect is None:
            return X.act(b_new, b_old, xelem, {beta_key: f.one()})
        src, dst = (la, b_new), (la, b_old)
        x_info.enumerate_pair(src, dst)
        index = x_info.index[(src, dst)]
        fe = {}
        for ku, cu in left_spect.unit(la).items():
            d, i = index[(ku, beta_key)]
            fe[(d, i)] = cu
        return X.act(src, dst, xelem, fe)

    def y_act(rc, b_new, b_old, yelem, beta_key):
        """Right action of beta-as-opposite (x) 1_rc on the Y side:
        beta in mid.hom(b_old, b_new) = opposite(mid).hom(b_new, b_old)."""
        if right_spect is None:
            return Y.act(b_new, b_old, yelem, {beta_key: f.one()})
        src, dst = (b_new, rc), (b_old, rc)
        y_info.enumerate_pair(src, dst)
        index = y_info.index[(src, dst)]
        fe = {}
        for ku, cu in right_spect.unit(rc).items():
            d, i = index[(beta_key, ku)]
            fe[(d, i)] = cu
        return Y.act(src, dst, yelem, fe)

    # chain enumeration: key = (objs tuple (b_0..b_p), km, betas (a_p..a_1), kn)
    hom_keys = {}
    for (u, v) in itertools.product(mid.objects, repeat=2):
        keys = list(mid.basis_keys(u, v))
        if normalized and u == v and unit_keys[u] is not None:
            keys = [k for k in keys if k != unit_keys[u]]
        hom_keys[(u, v)] = keys
    edges = hom_graph(mid.homs, unit_keys)

    def drop_degenerate(okey):
        if not normalized:
            return False
        objs, _km, betas, _kn = okey
        p = len(betas)
        for i, bk in enumerate(betas):
            u = objs[p - i - 1]
            if u == objs[p - i] and bk == unit_keys[u]:
                return True
        return False

    results = {}
    all_keys = {}
    for la in left_objs:
        for rc in right_objs:
            pair = ()
            if left_spect is not None or right_spect is not None:
                pair = (la, rc)
            chains = {}   # total degree -> list of keys
            for p in range(P + 1):
                for objs in walks(mid.objects, edges, p):
                    # objs = (b_0, ..., b_p); betas a_i in hom(b_{i-1}, b_i)
                    beta_lists = [hom_keys[(objs[i - 1], objs[i])] for i in range(1, p + 1)]
                    xv = X.value(xobj(la, objs[p]))
                    yv = Y.value(yobj(objs[0], rc))
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
            for t in chains:
                chains[t].sort(key=repr)
            index = {t: {key: i for i, key in enumerate(lst)} for t, lst in chains.items()}

            # differential matrices
            diffs = {}
            for t in sorted(chains):
                entries = {}
                tgt = index.get(t + 1, {})
                n_rows = len(chains.get(t + 1, ()))
                for col, key in enumerate(chains[t]):
                    out = _bar_diff(X, Y, mid, f, key, la, rc, x_act, y_act, xobj, yobj)
                    for okey, v in out.items():
                        row = tgt.get(okey)
                        if row is None:
                            if drop_degenerate(okey):
                                continue
                            oq = okey[1][0] + okey[3][0] + sum(k[0] for k in okey[2])
                            ot = oq - len(okey[2])
                            if lo <= ot <= hi:
                                raise AssertionError("bar chain missing from index")
                            continue
                        f.accumulate(entries, (row, col), v)
                if entries:
                    diffs[t] = Matrix(f, n_rows, len(chains[t]), entries)
            spaces = {t: tuple(repr(k) for k in lst) for t, lst in chains.items()}
            cx = ChainComplex(f, spaces, diffs, specified=(lo, hi))
            results[pair] = cx
            all_keys[pair] = chains
    return BarResult(results, all_keys, flag, P, window_coh)


def _bar_diff(X, Y, mid, f, key, la, rc, x_act, y_act, xobj, yobj):
    """Total differential of one bar chain: simplicial faces with
    alternating signs plus (-1)^p times the internal Koszul-left
    differential."""
    objs, km, betas, kn = key
    p = len(betas)
    out = {}

    # face 0: X-action by a_p
    if p:
        res = x_act(la, objs[p - 1], objs[p], {km: f.one()}, betas[0])
        for km2, v in res.items():
            f.accumulate(out, (objs[:p], km2, betas[1:], kn), v)
    # middle faces i = 1..p-1: compose a_{p-i+1} . a_{p-i}
    for i in range(1, p):
        g_key, f_key = betas[i - 1], betas[i]
        # betas[i-1] in hom(objs[p-i], objs[p-i+1]), betas[i] in hom(objs[p-i-1], objs[p-i])
        comp = mid.compose_elems(objs[p - i - 1], objs[p - i], objs[p - i + 1],
                                 {g_key: f.one()}, {f_key: f.one()})
        sgn = f.of_int((-1) ** (i % 2))
        for kc, v in comp.items():
            nobjs = objs[:p - i] + objs[p - i + 1:]
            nbetas = betas[:i - 1] + (kc,) + betas[i + 1:]
            f.accumulate(out, (nobjs, km, nbetas, kn), f.mul(sgn, v))
    # face p: left action of a_1 on the Y side, with the Koszul sign of
    # the left-module dictionary g.n = (-1)^{|g||n|} n .op g
    if p:
        a1 = betas[-1]
        sgn = f.of_int((-1) ** ((p + a1[0] * kn[0]) % 2))
        res = y_act(rc, objs[1], objs[0], {kn: f.one()}, a1)
        for kn2, v in res.items():
            f.accumulate(out, (objs[1:], km, betas[:-1], kn2), f.mul(sgn, v))

    # internal differential with Koszul signs from the left; global (-1)^p
    sign_accum = p % 2
    dx = X.d_value(xobj(la, objs[p]), {km: f.one()})
    for km2, v in dx.items():
        f.accumulate(out, (objs, km2, betas, kn), f.mul(f.of_int((-1) ** sign_accum), v))
    sign_accum += km[0]
    for i, bk in enumerate(betas):
        # beta_i spans hom(objs[p-i-1], objs[p-i])
        u, v_obj = objs[p - i - 1], objs[p - i]
        de = mid.d_elem(u, v_obj, {bk: f.one()})
        sgn = f.of_int((-1) ** (sign_accum % 2))
        for bk2, v in de.items():
            f.accumulate(out, (objs, km, betas[:i] + (bk2,) + betas[i + 1:], kn), f.mul(sgn, v))
        sign_accum += bk[0]
    dy = Y.d_value(yobj(objs[0], rc), {kn: f.one()})
    sgn = f.of_int((-1) ** (sign_accum % 2))
    for kn2, v in dy.items():
        f.accumulate(out, (objs, km, betas, kn2), f.mul(sgn, v))
    return out


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
                sgn = f.of_int((-1) ** ((n * kf[0]) % 2))
                for km in self.src.basis_keys(y):
                    me = {km: f.one()}
                    lhs = self.apply(x, self.src.act(x, y, me, fe))
                    rhs = elem_scale(f, sgn, self.dst.act(x, y, self.apply(y, me), fe))
                    if not elem_eq(lhs, rhs):
                        raise ValueError(f"module map fails linearity at {(x, y)}, {kf}, {km}")
        return self

def identity_shift_map(m: DgModule, n: int) -> ModuleMap:
    """The relabelling identity m -> shift_module(m, -n) as a degree-n map."""
    dst = shift_module(m, -n)
    maps = {}
    for x in m.base.objects:
        maps[x] = {km: {km[1]: m.base.field.one()} for km in m.basis_keys(x)}
    return ModuleMap(m, dst, n, maps)


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
            sgn = f.of_int((-1) ** ((n * kf[0]) % 2))
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
    info = tensor_info(e_cat)
    which = {"1": m, "2": m2}
    values = {}
    for (i_obj, y) in e_cat.objects:
        values[(i_obj, y)] = which[i_obj].value(y)
    action = {}
    s_key = (n, 0)  # the sphere generator in opposite(S(n)).hom("2","1") = S(n).hom("1","2")
    for xo in e_cat.objects:
        for yo in e_cat.objects:
            i_x, x = xo
            i_y, y = yo
            hom_by_deg = info.enumerate_pair(xo, yo)
            tab = {}
            for dh, hlist in hom_by_deg.items():
                for ih, (ks, ka) in enumerate(hlist):
                    for km in which[i_y].basis_keys(y):
                        me = {km: f.one()}
                        if i_x == i_y:
                            # unit (x) a
                            res = which[i_y].act(x, y, me, {ka: f.one()})
                        else:
                            # s (x) a: first f, then the a-action on m2
                            assert (i_x, i_y) == ("2", "1") and ks == s_key
                            res = m2.act(x, y, fmap.apply(y, me), {ka: f.one()})
                        if res:
                            tab[((dh, ih), km)] = {i: v for (d, i), v in res.items()}
            if tab:
                action[(xo, yo)] = tab
    return DgModule(e_cat, values, action, name="sn_pack")


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
            info.enumerate_pair((i_obj, x), (i_obj, y))
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
        info.enumerate_pair(("2", y), ("1", y))
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
