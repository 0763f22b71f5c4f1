"""Properness and smoothness certificates: the two halves of saturation.

Smoothness is certified through the minimal-resolution criterion: for
a degree-0 basic category a whose non-unit span is a nilpotent ideal,
A0 = a/rad is spanned by the units, and Tor^a_n(A0, A0) counts the
degree-n generators of the minimal projective resolution of the
diagonal bimodule (Happel, Hochschild cohomology of finite-dimensional
algebras, LNM 1404, 1989).  That is Tor over the enveloping category
a (x) a^op of the diagonal against A0 (x) A0^op (Cartan-Eilenberg,
Homological Algebra, IX.4), computed by the one-sided bar over a; a
single vanishing Tor degree pins the projective dimension of the
diagonal.  Inputs outside that class get an
honest "inconclusive", never a guess.  The unit and non-unit keys that
criterion reads come from the category's ``BarPlan``.

A monomial input counts Tor without a matrix, so only the bar branch
of ``smoothness_certify`` loads ``dgmod``.
"""

from __future__ import annotations

import itertools

from .exactfield import Subspace
from .dgcore import DgCategory, opposite
from .monomial import monomial_algebra


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


# ---------------------------------------------------------------------------
# properness

def properness_check(a: DgCategory):
    """Every hom complex bounded with finite total dimension; automatic
    for closed realizations, refused for truncated ones."""
    detail = {}
    for (x, y), c in a.homs.items():
        detail[f"{x}->{y}"] = c.total_dim()
    return a.closed, detail


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
    plan = a.bar_plan()
    unit_keys = plan.unit_keys
    # the span of non-unit basis vectors must be an ideal ...
    for (x, y, z) in itertools.product(a.objects, repeat=3):
        table = a.products(x, y, z)
        for (kg, kf), prod in table.items():
            g_unit = (y == z and kg == unit_keys[y])
            f_unit = (x == y and kf == unit_keys[x])
            if g_unit and f_unit:
                continue
            if x == z and prod.get(unit_keys[x][1]):
                return "non-unit span is not an ideal (a product hits a unit)"
    # ... and nilpotent (admissibility)
    spans = {(x, y): [{k: f.one()} for k in plan.nonunit[(x, y)]]
             for x, ys in plan.succ.items() for y in ys}
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


def smoothness_certify(a: DgCategory, bound: int) -> SmoothnessResult:
    """certified(L) when Tor^a_n(A0, A0), A0 = a/rad spanned by the units,
    first vanishes at n = L+1 <= bound+1; inconclusive otherwise (with the
    Tor table computed so far).

    For a basic category Tor^a_n(A0, A0) counts the generators in degree
    n of the minimal projective resolution of the diagonal bimodule
    (Happel, LNM 1404, 1989), since Tor over a (x) a^op of the diagonal
    against A0 (x) A0^op is Tor^a(A0, A0) (Cartan-Eilenberg IX.4).  On a
    monomial input (``monomial_algebra``) Tor_n is |AP(n)|, the number of
    Anick chains, counted without any matrix (Green-Happel-Zacharia,
    Illinois J. Math. 29, 1985); on every other input it is read from
    the normalized one-sided bar over a, one chain per walk of non-unit
    basis elements."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if not a.closed:
        return SmoothnessResult("inconclusive", bound, "input realization is not closed")
    reason = _degree_zero_hypotheses(a)
    if reason is not None:
        return SmoothnessResult("inconclusive", bound, reason)
    mono = monomial_algebra(a)
    if mono is not None:
        tor = {n: len(ap) for n, ap in enumerate(mono.chains(bound + 1))}
    else:
        from .dgmod import top_module, tor_dims
        dims = tor_dims(top_module(a), top_module(opposite(a)), (0, bound + 1))
        tor = {n: dim for n, (dim, _) in dims.items()}
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
