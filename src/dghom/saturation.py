"""Properness and smoothness certificates, dualizability data, and Euler
characteristics computed by two independent routes.

Smoothness is certified through the minimal-resolution criterion over
the enveloping category: for a degree-0 basic category whose non-unit
span is a nilpotent ideal, the semisimple quotient is read off the
units, and a single vanishing Tor degree against it pins the projective
dimension of the diagonal bimodule.  Inputs outside that class get an
honest "inconclusive", never a guess.

The triangle-identity check computes the derived composite
(ev (x) id) . (id (x) delta) as a windowed bar bimodule and compares it
to the diagonal: dimensionwise and through an explicitly constructed
comparison chain map verified to be a quasi-isomorphism.  A "pass"
additionally requires the smoothness certificate (the coevaluation is a
legitimate Morita morphism only for a perfect diagonal), so non-smooth
inputs are reported inconclusive rather than falsely certified.
"""

from __future__ import annotations

import itertools

from .exactfield import ChainComplex, Matrix, Subspace, homology_dims, homology_quotient
from .dgcore import DgCategory, opposite, swap_functor, tensor, tensor_info
from .dgmod import (Bimodule, DgModule, bar_composite, diagonal_bimodule,
                    pullback_module)
from .hochschild import chain_support_bound, hh_dims, _ContributionPlan


# ---------------------------------------------------------------------------
# reports

class SmoothnessResult:
    def __init__(self, status, level, reason="", tor_dims=None):
        self.status = status        # "certified" | "inconclusive"
        self.level = level          # resolution length L, or the bound N tried
        self.reason = reason
        self.tor_dims = tor_dims or {}

    @property
    def certified(self):
        return self.status == "certified"

    def as_dict(self):
        return {"status": self.status, "level": self.level, "reason": self.reason,
                "tor_dims": {str(k): v for k, v in sorted(self.tor_dims.items())}}

    def __repr__(self):
        return f"SmoothnessResult({self.status}({self.level}){': ' + self.reason if self.reason else ''})"


class SaturationReport:
    def __init__(self, proper, proper_detail, smooth: SmoothnessResult):
        self.proper = proper
        self.proper_detail = proper_detail
        self.smooth = smooth

    @property
    def saturated(self):
        return self.proper and self.smooth.certified

    def as_dict(self):
        return {"proper": self.proper, "proper_detail": self.proper_detail,
                "smooth": self.smooth.as_dict(), "saturated": self.saturated}


class EulerReport:
    def __init__(self, chi_hh, hh_window, hh_status, chi_dual, dual_window, dual_status):
        self.chi_hh = chi_hh
        self.hh_window = hh_window
        self.hh_status = hh_status
        self.chi_dual = chi_dual
        self.dual_window = dual_window
        self.dual_status = dual_status

    @property
    def agree(self):
        if self.hh_status != "exact" or self.dual_status != "exact":
            return None
        return self.chi_hh == self.chi_dual

    def as_dict(self):
        return {"chi_hh": self.chi_hh, "hh_window": list(self.hh_window), "hh_status": self.hh_status,
                "chi_dual": self.chi_dual, "dual_window": list(self.dual_window),
                "dual_status": self.dual_status, "agree": self.agree}


# ---------------------------------------------------------------------------
# properness

def properness_check(a: DgCategory):
    """Every hom complex bounded with finite total dimension; automatic
    for closed realizations, refused for truncated ones."""
    detail = {}
    for (x, y), c in a.homs.items():
        detail[f"{x}->{y}"] = c.total_dim()
    proper = bool(getattr(a, "closed", True))
    return proper, detail


# ---------------------------------------------------------------------------
# smoothness via the minimal-resolution criterion

def _degree_zero_hypotheses(a: DgCategory):
    """Reasons the minimal-resolution criterion does not apply, or None."""
    for (x, y), c in a.homs.items():
        if any(d != 0 for d in c.support()):
            return "hom complexes not concentrated in degree 0"
        if c.diffs:
            return "nonzero differentials"
    if not a.unit_is_basis():
        return "units are not basis vectors (non-basic presentation)"
    f = a.field
    unit_keys = {x: a.unit_key(x) for x in a.objects}
    # the span of non-unit basis vectors must be an ideal ...
    for (x, y, z) in itertools.product(a.objects, repeat=3):
        table = a.comp.get((x, y, z), {})
        for (kg, kf), prod in table.items():
            g_unit = (y == z and kg == unit_keys[y])
            f_unit = (x == y and kf == unit_keys[x])
            if g_unit and f_unit:
                continue
            if x == z and prod.get(unit_keys[x][1]):
                return "non-unit span is not an ideal (a product hits a unit)"
    # ... and nilpotent (admissibility)
    spans = {}
    for (x, y) in itertools.product(a.objects, repeat=2):
        keys = [k for k in a.basis_keys(x, y) if not (x == y and k == unit_keys[x])]
        if keys:
            spans[(x, y)] = [{k: f.one()} for k in keys]
    current = spans
    for _ in range(a.total_dim() + 1):
        if not current:
            return None  # nilpotent
        nxt = {}
        for (y, z), gs in current.items():
            for (x, _y) in list(spans):
                if _y != y:
                    continue
                for g in gs:
                    for fe in spans[(x, y)]:
                        prod = a.compose_elems(x, y, z, g, fe)
                        if prod:
                            nxt.setdefault((x, z), []).append(prod)
        # prune to a basis to guarantee termination
        pruned = {}
        for pair, vecs in nxt.items():
            sp = Subspace(f)
            kept = []
            for v in vecs:
                if sp.insert({k: c for k, c in v.items()}):
                    kept.append(v)
            if kept:
                pruned[pair] = kept
        if pruned == current:
            return "non-unit ideal is not nilpotent"
        current = pruned
    return "non-unit ideal is not nilpotent"


def semisimple_quotient_left_module(a: DgCategory) -> DgModule:
    """The semisimple quotient of the enveloping category (one simple per
    object pair), as a left module over it (stored as a right module over
    tensor(a, opposite(a)) = opposite(tensor(opposite(a), a)))."""
    f = a.field
    base = tensor(a, opposite(a))
    info = tensor_info(base)
    unit_keys = {x: a.unit_key(x) for x in a.objects}
    values = {}
    for (x, y) in base.objects:
        values[(x, y)] = ChainComplex(f, {0: (f"s:{x},{y}",)}, {})
    action = {}
    for obj in base.objects:
        x, y = obj
        info.enumerate_pair(obj, obj)
        index = info.index[(obj, obj)]
        key = index[(unit_keys[x], unit_keys[y])]
        action[(obj, obj)] = {(key, (0, 0)): {0: f.one()}}
    return DgModule(base, values, action, name=f"S({a.name or '?'})")


def smoothness_certify(a: DgCategory, bound: int) -> SmoothnessResult:
    """certified(L) when Tor over the enveloping category of the diagonal
    against the semisimple quotient first vanishes at degree L+1 <= bound+1;
    inconclusive otherwise (with the Tor table computed so far)."""
    if not getattr(a, "closed", True):
        return SmoothnessResult("inconclusive", bound, "input realization is not closed")
    reason = _degree_zero_hypotheses(a)
    if reason is not None:
        return SmoothnessResult("inconclusive", bound, reason)
    diag = diagonal_bimodule(a)
    s_mod = semisimple_quotient_left_module(a)
    e_cat = diag.base
    res = bar_composite(diag.module, s_mod, e_cat, (-(bound + 1), 0))
    cx = res.complexes[()]
    dims = homology_dims(cx, (-(bound + 1), 0))
    tor = {n: dims[-n] for n in range(bound + 2)}
    level = None
    for n in range(bound + 2):
        if tor[n] == 0:
            level = n - 1
            break
    if level is None:
        return SmoothnessResult("inconclusive", bound,
                                f"Tor against the semisimple quotient nonzero through degree {bound + 1}",
                                tor)
    if level < 0:
        return SmoothnessResult("inconclusive", bound, "Tor_0 vanished; degenerate input", tor)
    return SmoothnessResult("certified", level, "", tor)


def saturation_report(a: DgCategory, bound: int = 6) -> SaturationReport:
    proper, detail = properness_check(a)
    smooth = smoothness_certify(a, bound)
    return SaturationReport(proper, detail, smooth)


# ---------------------------------------------------------------------------
# dualizability data

class DualData:
    """The dual (= the opposite category) together with evaluation and
    coevaluation, both carried by the diagonal bimodule in its two
    orientation roles."""

    def __init__(self, a: DgCategory):
        self.source = a
        self.dual = opposite(a)
        diag = diagonal_bimodule(a)
        self.ev = Bimodule(a, a, diag.module, name=f"ev({a.name or '?'})")
        self.coev = Bimodule(a, a, diag.module, name=f"coev({a.name or '?'})")

    def role_swap(self):
        """The dual data viewed from the opposite side: the pullback of
        the diagonal along the tensor swap; equals dual_data(opposite)."""
        a = self.source
        sw = swap_functor(a, opposite(a))
        return pullback_module(sw, self.ev.module)


def dual_data(a: DgCategory) -> DualData:
    return DualData(a)


# ---------------------------------------------------------------------------
# triangle identities

class TriangleResult:
    def __init__(self, status, evidence=None, details=None, required_bound=None):
        self.status = status          # "pass" | "fail" | "inconclusive"
        self.evidence = evidence      # "quasi-isomorphism" | "dims-match" | None
        self.details = details or {}
        self.required_bound = required_bound

    def as_dict(self):
        d = {"status": self.status, "evidence": self.evidence, "details": self.details}
        if self.required_bound is not None:
            d["required_bound"] = self.required_bound
        return d

    def __repr__(self):
        return f"TriangleResult({self.status}, evidence={self.evidence})"


def _triangle_modules(a: DgCategory):
    """The two composable bimodules whose derived tensor over
    B' = a (x) a^op (x) a is the triangle composite: X = id (x) coev and
    Y = ev (x) id, both built from two diagonal blocks.

    Action of a flat 4-slot element: (m (x) n).(f1 (x) f2 (x) f3 (x) f4)
    = (-1)^{(|f1|+|f2|)|n| + |f1||m| + |f3||n|} (f1.m.f2) (x) (f3.n.f4).
    """
    f = a.field
    op_a = opposite(a)
    mid = tensor(a, op_a, a)
    mid_info = tensor_info(mid)
    x_base = tensor(op_a, mid)
    y_base = tensor(opposite(mid), a)

    def build(base, role):
        info = tensor_info(base)
        values = {}
        pair_keys = {}
        for obj in base.objects:
            if role == "X":
                x, (a1, u, v) = obj
                c1, c2 = a.hom(a1, x), a.hom(v, u)
            else:
                (a1, u, v), w = obj
                c1, c2 = a.hom(u, a1), a.hom(w, v)
            combos = [((d1, i1), (d2, i2))
                      for d1 in c1.support() for i1 in range(c1.dim(d1))
                      for d2 in c2.support() for i2 in range(c2.dim(d2))]
            by_degree = {}
            for km, kn in combos:
                by_degree.setdefault(km[0] + kn[0], []).append((km, kn))
            for lst in by_degree.values():
                lst.sort()
            pair_keys[obj] = by_degree
            index = {ck: (d, i) for d, lst in by_degree.items() for i, ck in enumerate(lst)}
            spaces = {d: tuple((c1.labels(km[0])[km[1]], c2.labels(kn[0])[kn[1]])
                               for (km, kn) in lst) for d, lst in by_degree.items()}
            diffs = {}
            for d, lst in by_degree.items():
                entries = {}
                pair_of = _value_pair(role, obj)
                for col, (km, kn) in enumerate(lst):
                    for k2, vv in a.d_elem(pair_of[0][0], pair_of[0][1], {km: f.one()}).items():
                        dd, row = index[(k2, kn)]
                        f.accumulate(entries, (row, col), vv)
                    sgn = f.of_int((-1) ** (km[0] % 2))
                    for k2, vv in a.d_elem(pair_of[1][0], pair_of[1][1], {kn: f.one()}).items():
                        dd, row = index[(km, k2)]
                        f.accumulate(entries, (row, col), f.mul(sgn, vv))
                if entries:
                    diffs[d] = Matrix(f, len(by_degree.get(d + 1, ())), len(lst), entries)
            values[obj] = ChainComplex(f, spaces, diffs)

        action = {}
        for xo in base.objects:
            for yo in base.objects:
                hom_keys = info.enumerate_pair(xo, yo)
                if not hom_keys:
                    continue
                val_index = {ck: (d, i) for d, lst in pair_keys[yo].items() for i, ck in enumerate(lst)}
                out_index = {ck: (d, i) for d, lst in pair_keys[xo].items() for i, ck in enumerate(lst)}
                tab = {}
                for dh, hlist in hom_keys.items():
                    for ih, flat in enumerate(hlist):
                        f1, f2, f3, f4 = _flat_components(role, flat, mid_info, xo, yo)
                        for (km, kn), (dv, iv) in val_index.items():
                            res = _dd_act(a, f, role, xo, yo, f1, f2, f3, f4, km, kn)
                            if not res:
                                continue
                            outs = {}
                            for (ku, kv), cc in res.items():
                                dd, i_out = out_index[(ku, kv)]
                                f.accumulate(outs, i_out, cc)
                            if outs:
                                tab[((dh, ih), (dv, iv))] = outs
                if tab:
                    action[(xo, yo)] = tab
        mod = DgModule(base, values, action, name=f"triangle-{role}({a.name or '?'})")
        mod._pair_keys = pair_keys
        return mod

    def _value_pair(role, obj):
        if role == "X":
            x, (a1, u, v) = obj
            return ((a1, x), (v, u))
        (a1, u, v), w = obj
        return ((u, a1), (w, v))

    def _flat_components(role, flat, mid_info_, xo, yo):
        if role == "X":
            k1, kmid = flat
            x, bx = xo
            y, by = yo
            mid_info_.enumerate_pair(bx, by)
            k2, k3, k4 = mid_info_.keys[(bx, by)][kmid[0]][kmid[1]]
            return k1, k2, k3, k4
        kmid, k4 = flat
        bx, w1 = xo
        by, w2 = yo
        # hom of opposite(mid) decomposes with the same flat keys as mid
        mid_info_.enumerate_pair(by, bx)
        k1, k2, k3 = mid_info_.keys[(by, bx)][kmid[0]][kmid[1]]
        return k1, k2, k3, k4

    def _dd_act(cat, f, role, xo, yo, k1, k2, k3, k4, km, kn):
        """(m (x) n).(f1..f4) with the double-diagonal sign."""
        sign_exp = (k1[0] + k2[0]) * kn[0] + k1[0] * km[0] + k3[0] * kn[0]
        if role == "X":
            x, (a1, u, v) = xo
            xp, (a1p, up, vp) = yo
            # m in hom(a1p, xp): f1 in hom(xp, x)?? orientation below
            first = _sandwich(cat, f, (a1, x), k1, (a1p, xp), km, k2,
                              hom_f=( xp, x), hom_g=(a1, a1p))
            if not first:
                return {}
            second = _sandwich(cat, f, (v, u), k3, (vp, up), kn, k4,
                               hom_f=(up, u), hom_g=(v, vp))
        else:
            (a1, u, v), w = xo
            (a1p, up, vp), wp = yo
            first = _sandwich(cat, f, (u, a1), k1, (up, a1p), km, k2,
                              hom_f=(a1p, a1), hom_g=(u, up))
            if not first:
                return {}
            second = _sandwich(cat, f, (w, v), k3, (wp, vp), kn, k4,
                               hom_f=(vp, v), hom_g=(w, wp))
        if not second:
            return {}
        out = {}
        sgn = f.of_int((-1) ** (sign_exp % 2))
        for ku, cu in first.items():
            for kv, cv in second.items():
                out[(ku, kv)] = f.mul(sgn, f.mul(cu, cv))
        return out

    def _sandwich(cat, f, tgt_pair, kf, src_pair, km, kg, hom_f, hom_g):
        """f.m.g inside the category: m in hom(src_pair), f in hom(hom_f),
        g in hom(hom_g); result in hom(tgt_pair)."""
        sm, tm = src_pair
        mg = cat.compose_elems(hom_g[0], sm, tm, {km: f.one()}, {kg: f.one()})
        if not mg:
            return {}
        fmg = cat.compose_elems(hom_g[0], tm, hom_f[1], {kf: f.one()}, mg)
        return fmg

    X = build(x_base, "X")
    Y = build(y_base, "Y")
    return X, Y, mid


def triangle_identity_check(a: DgCategory, window, bar_bound: int | None = None,
                            saturation: SaturationReport | None = None,
                            smooth_bound: int = 6) -> TriangleResult:
    """Verify the first triangle composite against the diagonal in the
    window; "pass" needs the smoothness certificate, window-exact bar
    homology matching the diagonal dimensionwise, and the explicit
    comparison map to be a quasi-isomorphism."""
    proper, detail = properness_check(a)
    if not proper:
        return TriangleResult("inconclusive", details={"reason": "not proper (truncated realization)"})
    if saturation is None:
        saturation = saturation_report(a, smooth_bound)
    if not saturation.smooth.certified:
        return TriangleResult(
            "inconclusive",
            details={"reason": "smoothness not certified: the coevaluation is not a "
                               "verified Morita morphism, so the triangle composite "
                               "cannot be certified as an identity",
                     "smooth": saturation.smooth.as_dict()})
    X, Y, mid = _triangle_modules(a)
    op_a = opposite(a)
    try:
        res = bar_composite(X, Y, mid, window, bar_bound,
                            left_spect=op_a, right_spect=a)
    except Exception as exc:
        return TriangleResult("inconclusive", details={"reason": str(exc)},
                              required_bound=_required_bound_estimate(a, window))
    if res.flag != "exact":
        return TriangleResult("inconclusive",
                              details={"reason": "bar truncation not window-exact"},
                              required_bound=_required_bound_estimate(a, window))
    w0, w1 = window
    dims_ok = True
    mismatches = []
    for (x, w) in res.pairs():
        cx = res.complexes[(x, w)]
        hd = homology_dims(cx, window)
        target = a.hom(w, x)
        for t in range(w0, w1 + 1):
            want = homology_dims(target, (t, t))[t] if target.spaces else 0
            if hd[t] != want:
                dims_ok = False
                mismatches.append({"pair": [str(x), str(w)], "degree": t,
                                   "got": hd[t], "want": want})
    if not dims_ok:
        return TriangleResult("fail", evidence="dims-match",
                              details={"mismatches": mismatches})
    qi_ok, qi_detail = _comparison_quasi_iso(a, res, X, Y, window)
    if not qi_ok:
        return TriangleResult("fail", evidence="dims-match", details=qi_detail)
    return TriangleResult("pass", evidence="quasi-isomorphism",
                          details={"pairs": len(res.pairs()), "bar_bound": res.bar_bound})


def _required_bound_estimate(a, window):
    plan = _ContributionPlan(a)
    cap = plan.bound_for_window(window[0], window[1])
    return None if cap is None else cap + 2


def _comparison_quasi_iso(a: DgCategory, res, X, Y, window):
    """The bar-0 multiplication map to the diagonal: chain-map property
    checked on every assembled chain, then bijectivity on homology."""
    f = a.field
    w0, w1 = window

    # decompose via the modules' pair bookkeeping
    def comparison(pair, key):
        objs, km, betas, kn = key
        if betas:
            return {}
        x, w = pair
        b = objs[0]
        a1, u, v = b
        kp, kq = X._pair_keys[(x, b)][km[0]][km[1]]
        kr, ks = Y._pair_keys[(b, w)][kn[0]][kn[1]]
        # p in hom(a1, x), q in hom(v, u), r in hom(u, a1), s in hom(w, v)
        sgn = f.of_int((-1) ** ((kq[0] * kr[0]) % 2))
        qs = a.compose_elems(w, v, u, {kq: f.one()}, {ks: f.one()})
        if not qs:
            return {}
        rqs = a.compose_elems(w, u, a1, {kr: f.one()}, qs)
        if not rqs:
            return {}
        prqs = a.compose_elems(w, a1, x, {kp: f.one()}, rqs)
        return {k: f.mul(sgn, v2) for k, v2 in prqs.items() if v2}

    for pair in res.pairs():
        x, w = pair
        target = a.hom(w, x)
        keys = res.chain_keys[pair]
        cx = res.complexes[pair]
        # verify via matrices: build c per degree, check c . D = d . c
        c_mats = {}
        for t, lst in keys.items():
            entries = {}
            for col, key in enumerate(lst):
                img = comparison(pair, key)
                for (d, i), v in img.items():
                    if d != t:
                        return False, {"reason": f"comparison map not degree preserving at {pair}"}
                    entries[(i, col)] = v
            c_mats[t] = Matrix(f, target.dim(t), len(lst), entries)
        for t in sorted(keys):
            if t + 1 not in c_mats and not target.dim(t + 1):
                continue
            lhs = c_mats.get(t + 1, Matrix(f, target.dim(t + 1), cx.dim(t + 1))).mul(cx.diff(t))
            rhs = target.diff(t).mul(c_mats[t])
            if not lhs.sub(rhs).is_zero():
                return False, {"reason": f"comparison map is not a chain map at {pair}, degree {t}"}
        # induced map on homology bijective in the window
        for t in range(w0, w1 + 1):
            h_dim = homology_dims(cx, (t, t))[t]
            target_h = homology_dims(target, (t, t))[t] if target.spaces else 0
            if h_dim != target_h:
                return False, {"reason": "homology dims changed between checks"}
            if h_dim == 0:
                continue
            dim_t, reps, project = homology_quotient(target.diff(t - 1), target.diff(t))
            dim_c, reps_c, _ = homology_quotient(cx.diff(t - 1), cx.diff(t))
            image = Subspace(f)
            img_rank = 0
            for vec in reps_c:
                img = c_mats[t].apply(vec)
                coords = project(img)
                if image.insert({i: c for i, c in enumerate(coords) if c}):
                    img_rank += 1
            if img_rank != h_dim:
                return False, {"reason": f"comparison map not surjective on homology at {pair}, degree {t}"}
    return True, {}


def triangle_identity_check_both(a: DgCategory, window, bar_bound=None,
                                 saturation=None, smooth_bound: int = 6):
    """Both triangle composites; the second is the first composite of the
    opposite category, justified by the role-swap symmetry of the dual
    data."""
    first = triangle_identity_check(a, window, bar_bound, saturation, smooth_bound)
    op = opposite(a)
    op_sat = None
    if saturation is not None:
        op_sat = saturation_report(op, smooth_bound)
    second = triangle_identity_check(op, window, bar_bound, op_sat, smooth_bound)
    return first, second


# ---------------------------------------------------------------------------
# Euler characteristics, two routes

def euler_via_hh(a: DgCategory, smooth: SmoothnessResult | None = None,
                 fallback_n_max: int = 4):
    """chi = alternating sum of HH dims; exact when the chain support is
    certified finite or a smoothness certificate bounds the resolution."""
    vanish = chain_support_bound(a)
    if vanish is not None:
        n_hi = max(vanish, 0)
        status = "exact"
    elif smooth is not None and smooth.certified:
        n_hi = smooth.level
        status = "exact"
    else:
        n_hi = fallback_n_max
        status = "bound_limited"
    dims = hh_dims(a, n_hi)
    if status == "exact" and any(s != "exact" for (_, s) in dims.values()):
        status = "bound_limited"
    lo = _negative_hh_floor(a)
    if lo < 0:
        extra = {n: _hh_negative(a, n) for n in range(lo, 0)}
    else:
        extra = {}
    chi = sum((-1) ** (n % 2) * d for n, (d, _s) in dims.items())
    chi += sum((-1) ** (n % 2) * d for n, d in extra.items())
    return chi, (lo, n_hi), status


def _negative_hh_floor(a: DgCategory) -> int:
    """Smallest homological degree with possibly-nonzero chains (negative
    for positively graded homs)."""
    plan = _ContributionPlan(a)
    if plan.outer is None:
        return 0
    lo = -plan.outer[1]
    if plan.inner is not None and plan.max_bar is not None:
        for m in range(1, plan.max_bar + 1):
            lo = min(lo, m * (1 - plan.inner[1]) - plan.outer[1])
    return min(lo, 0)


def _hh_negative(a: DgCategory, n: int) -> int:
    from .hochschild import hochschild_complex, auto_bar_bound
    hc = hochschild_complex(a, max(2, auto_bar_bound(a, abs(n) + 1)))
    dims = homology_dims(hc.total, (-n, -n))
    return dims[-n]


def euler_via_duality(a: DgCategory, window=None, bar_bound=None,
                      smooth: SmoothnessResult | None = None):
    """chi of the duality composite ev . tau . delta, computed as the
    two-sided bar of the diagonal against its swap-pulled-back twin over
    the enveloping category."""
    vanish = chain_support_bound(a)
    if window is None:
        if vanish is not None:
            window = (min(_negative_hh_floor(a), 0), max(vanish, 0))
            status = "exact"
        elif smooth is not None and smooth.certified:
            window = (0, smooth.level)
            status = "exact"
        else:
            window = (0, 4)
            status = "bound_limited"
    else:
        status = "bound_limited" if vanish is None else "exact"
    diag = diagonal_bimodule(a)
    e_cat = diag.base
    sw = swap_functor(a, opposite(a))
    twisted = pullback_module(sw, diag.module)
    lo, hi = window
    res = bar_composite(diag.module, twisted, e_cat, (-hi, -lo), bar_bound)
    if res.flag != "exact":
        status = "bound_limited"
    cx = res.complexes[()]
    dims = homology_dims(cx, (-hi, -lo))
    chi = sum((-1) ** (t % 2) * d for t, d in dims.items())
    return chi, window, status


def euler_report(a: DgCategory, smooth: SmoothnessResult | None = None,
                 bar_bound=None) -> EulerReport:
    chi_hh, w_hh, s_hh = euler_via_hh(a, smooth)
    chi_dual, w_dual, s_dual = euler_via_duality(a, smooth=smooth, bar_bound=bar_bound)
    return EulerReport(chi_hh, w_hh, s_hh, chi_dual, w_dual, s_dual)
