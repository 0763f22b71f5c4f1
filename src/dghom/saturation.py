"""The triangle identities of dualizability, and Euler characteristics
computed by two independent routes.  The dual of a is opposite(a), and
evaluation and coevaluation are both carried by the diagonal bimodule,
so no separate record of the dual data is kept: the triangle check and
the duality route of the Euler characteristic build the modules they
need directly.  The HH route of the Euler characteristic is
``monomial.hh_dims``; the bar-degree bounds of both routes come from the
category's ``BarPlan``.

The triangle-identity check computes the derived composite
(ev (x) id) . (id (x) delta) at each object pair (x, w) as one windowed
two-sided bar complex over a (x) a^op (x) a, whose two modules carry x
and w in a slot fixed at its unit, and compares it to the diagonal:
dimensionwise and through an explicitly constructed comparison chain map
verified to be a quasi-isomorphism.  A "pass"
additionally requires the smoothness certificate of ``smoothness`` (the
coevaluation is a legitimate Morita morphism only for a perfect
diagonal), so non-smooth inputs are reported inconclusive rather than
falsely certified.
"""

from __future__ import annotations

import itertools

from .exactfield import Matrix, homology_dims, homology_quotient, rank, tensor_complex
from .dgcore import DgCategory, opposite, tensor
from .dgmod import (BarWindowError, DgModule, _diagonal_over, bar_composite, diagonal_bimodule,
                    tensor_action)
from .monomial import hh_dims
from .smoothness import (SaturationReport, SmoothnessResult, properness_check, saturation_report,
                         smoothness_certify)

# perfbench/tracer.py wraps smoothness_certify under this module's name
__all__ = ["smoothness_certify"]


# ---------------------------------------------------------------------------
# reports

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
# triangle identities

class TriangleResult:
    def __init__(self, status, evidence=None, details=None):
        self.status = status          # "pass" | "fail" | "inconclusive"
        self.evidence = evidence      # "quasi-isomorphism" | "dims-match" | None
        self.details = details or {}

    def as_dict(self):
        return {"status": self.status, "evidence": self.evidence, "details": self.details}

    def __repr__(self):
        return f"TriangleResult({self.status}, evidence={self.evidence})"


def _triangle_modules(a: DgCategory):
    """The module families whose derived tensor over
    B' = a (x) a^op (x) a is the triangle composite
    (ev (x) id) . (id (x) coev) at each object pair (x, w), returned as
    (X, Y, B'):

    - X[x], for x an object of a^op, is the right B'-module
      (a1, u, v) -> hom(a1, x) (x) hom(v, u): id (x) coev with its a^op
      slot fixed at x;
    - Y[w], for w an object of a, is the right module over
      opposite(B') = a^op (x) a (x) a^op, built once per call,
      (a1, u, v) -> hom(u, a1) (x) hom(w, v): ev (x) id with its a slot
      fixed at w.

    Both act by the double-diagonal rule on a flat 4-slot element, whose
    spectator slot is the unit (f1 = 1_x for X, f4 = 1_w for Y):
    (m (x) n).(f1 (x) f2 (x) f3 (x) f4)
    = (-1)^{(|f1|+|f2|)|n| + |f1||m| + |f3||n|} (f1.m.f2) (x) (f3.n.f4).
    """
    f = a.field
    one = f.one()
    op_a = opposite(a)
    mid = tensor(a, op_a, a)

    def sandwich(kf, km, kg, src, tgt):
        """kf.km.kg in hom(tgt) for km in hom(src); None stands for a unit."""
        (s, t), (s2, t2) = src, tgt
        out = {km: one}
        if kg is not None:
            out = a.compose_elems(s2, s, t, out, {kg: one})
        if out and kf is not None:
            out = a.compose_elems(s2, t, t2, {kf: one}, out)
        return out

    def module(base, value_pairs, spect_first, name):
        """value_pairs(obj) = the hom pairs of the two value factors; the
        unit fills slot f1 (spect_first) or f4 of the flat element."""
        pairs = {obj: value_pairs(*obj) for obj in base.objects}
        values = {obj: tensor_complex(f, [a.hom(*p) for p in pr]) for obj, pr in pairs.items()}
        index = {obj: {k: (d, i) for d, lst in c.spaces.items() for i, k in enumerate(lst)}
                 for obj, c in values.items()}

        def act(xo, yo, hk, vk):
            k1, k2, k3, k4 = (None,) + hk if spect_first else hk + (None,)
            km, kn = values[yo].labels(vk[0])[vk[1]]
            (pm, pn), (qm, qn) = pairs[yo], pairs[xo]
            first = sandwich(k1, km, k2, pm, qm)
            second = first and sandwich(k3, kn, k4, pn, qn)
            if not second:
                return {}
            d1 = k1[0] if k1 else 0
            sgn = f.sign((d1 + k2[0]) * kn[0] + d1 * km[0] + k3[0] * kn[0])
            out = {}
            for ku, cu in first.items():
                for kv, cv in second.items():
                    f.accumulate(out, index[xo][(ku, kv)], f.mul(sgn, f.mul(cu, cv)))
            return out

        return DgModule(base, values, tensor_action(base, values, act),
                        name=f"{name}({a.name or '?'})")

    op_mid = opposite(mid)
    X = {x: module(mid, lambda a1, u, v: ((a1, x), (v, u)), True, f"triangle-X[{x}]")
         for x in op_a.objects}
    Y = {w: module(op_mid, lambda a1, u, v: ((u, a1), (w, v)), False, f"triangle-Y[{w}]")
         for w in a.objects}
    return X, Y, mid


def triangle_identity_check(a: DgCategory, window,
                            saturation: SaturationReport | None = None) -> TriangleResult:
    """Verify the first triangle composite against the diagonal in the
    window; "pass" needs the smoothness certificate (from
    ``saturation_report(a, 6)`` unless given), window-exact bar homology
    matching the diagonal dimensionwise, and the explicit comparison map
    to be a quasi-isomorphism."""
    proper, detail = properness_check(a)
    if not proper:
        return TriangleResult("inconclusive", details={"reason": "not proper (truncated realization)"})
    if saturation is None:
        saturation = saturation_report(a, 6)
    if not saturation.smooth.certified:
        return TriangleResult(
            "inconclusive",
            details={"reason": "smoothness not certified: the coevaluation is not a "
                               "verified Morita morphism, so the triangle composite "
                               "cannot be certified as an identity",
                     "smooth": saturation.smooth.as_dict()})
    X, Y, mid = _triangle_modules(a)
    try:
        bars = {(x, w): bar_composite(X[x], Y[w], mid, window)
                for (x, w) in sorted(itertools.product(X, Y), key=repr)}
    except BarWindowError as exc:
        return TriangleResult("inconclusive", details={"reason": str(exc)})
    w0, w1 = window
    mismatches = []
    for (x, w), res in bars.items():
        hd = homology_dims(res.complexes[()], window)
        want = homology_dims(a.hom(w, x), window)
        for t in range(w0, w1 + 1):
            if hd[t] != want[t]:
                mismatches.append({"pair": [str(x), str(w)], "degree": t,
                                   "got": hd[t], "want": want[t]})
    if mismatches:
        return TriangleResult("fail", evidence="dims-match",
                              details={"mismatches": mismatches})
    qi_ok, qi_detail = _comparison_quasi_iso(a, bars, X, Y, window)
    if not qi_ok:
        return TriangleResult("fail", evidence="dims-match", details=qi_detail)
    return TriangleResult("pass", evidence="quasi-isomorphism",
                          details={"pairs": len(bars),
                                   "bar_bound": max(res.bar_bound for res in bars.values())})


def _comparison_quasi_iso(a: DgCategory, bars, X, Y, window):
    """The bar-0 multiplication map to the diagonal, per object pair
    (x, w) of ``bars``: chain-map property checked on every assembled
    chain, then bijectivity on homology."""
    f = a.field
    w0, w1 = window

    # decompose via the key-pair labels of the module values
    def comparison(pair, key):
        objs, km, betas, kn = key
        if betas:
            return {}
        x, w = pair
        b = objs[0]
        a1, u, v = b
        kp, kq = X[x].value(b).labels(km[0])[km[1]]
        kr, ks = Y[w].value(b).labels(kn[0])[kn[1]]
        # p in hom(a1, x), q in hom(v, u), r in hom(u, a1), s in hom(w, v)
        sgn = f.sign(kq[0] * kr[0])
        qs = a.compose_elems(w, v, u, {kq: f.one()}, {ks: f.one()})
        if not qs:
            return {}
        rqs = a.compose_elems(w, u, a1, {kr: f.one()}, qs)
        if not rqs:
            return {}
        prqs = a.compose_elems(w, a1, x, {kp: f.one()}, rqs)
        return {k: f.mul(sgn, v2) for k, v2 in prqs.items() if v2}

    for pair, res in bars.items():
        x, w = pair
        target = a.hom(w, x)
        keys = res.chain_keys[()]
        cx = res.complexes[()]
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
            if lhs != rhs:
                return False, {"reason": f"comparison map is not a chain map at {pair}, degree {t}"}
        # induced map on homology bijective in the window; the caller has
        # matched the homology dimensions of cx and target already
        for t in range(w0, w1 + 1):
            h_dim = homology_dims(cx, (t, t))[t]
            if h_dim == 0:
                continue
            dim_t, _, project = homology_quotient(target.diff(t - 1), target.diff(t))
            _, reps_c, _ = homology_quotient(cx.diff(t - 1), cx.diff(t))
            # images of all representatives in one product, indexed once
            reps_mat = Matrix(f, cx.dim(t), len(reps_c),
                              {(i, k): v for k, vec in enumerate(reps_c) for i, v in vec.items()})
            imgs = c_mats[t].mul(reps_mat).columns()
            coords = {(i, k): c for k in range(len(reps_c))
                      for i, c in enumerate(project(imgs.get(k, {})))}
            if rank(Matrix(f, dim_t, len(reps_c), coords)) != h_dim:
                return False, {"reason": f"comparison map not surjective on homology at {pair}, degree {t}"}
    return True, {}


# ---------------------------------------------------------------------------
# Euler characteristics, two routes

def euler_via_hh(a: DgCategory, smooth: SmoothnessResult | None = None):
    """chi = alternating sum of the HH dims (``hh_dims``) from the floor
    (negative for positively graded homs) to the top degree; exact when
    the chain support is certified finite or a smoothness certificate
    bounds the resolution, and every degree of the range is exact.
    Otherwise the top degree is 4 and chi is bound_limited."""
    lo, top = a.bar_plan().chain_support()
    if top is not None:
        n_hi = max(top, 0)
        status = "exact"
    elif smooth is not None and smooth.certified:
        n_hi = smooth.level
        status = "exact"
    else:
        n_hi = 4
        status = "bound_limited"
    dims = hh_dims(a, n_hi, n_min=lo)
    if any(s != "exact" for _d, s in dims.values()):
        status = "bound_limited"
    chi = sum((-1) ** (n % 2) * d for n, (d, _s) in dims.items())
    return chi, (lo, n_hi), status


def euler_via_duality(a: DgCategory, bar_bound=None,
                      smooth: SmoothnessResult | None = None):
    """chi of the duality composite ev . tau . delta, computed as the
    two-sided bar over the enveloping category a^op (x) a of the diagonal
    against the diagonal of opposite(a), a right module over
    a (x) a^op = opposite(a^op (x) a)."""
    floor, top = a.bar_plan().chain_support()
    if top is not None:
        window = (floor, max(top, 0))
        status = "exact"
    elif smooth is not None and smooth.certified:
        window = (0, smooth.level)
        status = "exact"
    else:
        window = (0, 4)
        status = "bound_limited"
    diag = diagonal_bimodule(a)
    twisted = _diagonal_over(opposite(a), opposite(diag.base))
    lo, hi = window
    res = bar_composite(diag, twisted, diag.base, (-hi, -lo), bar_bound)
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
