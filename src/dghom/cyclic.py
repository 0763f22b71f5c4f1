"""Cyclic machinery: the cyclic operator, mixed complexes over k[eps]/eps^2,
cyclic homology via the (b, B)-bicomplex, and certified towers for
negative and periodic cyclic homology.

This module reports in homological indexing (b lowers the degree by 1,
B raises it); the conversion from the cohomological core is
n = (bar degree) - (internal degree).

Sign conventions (pinned by the machine-checked identities b^2 = 0,
B^2 = 0, bB + Bb = 0 and (1 - t) b' = b (1 - t); the test suite runs
them exhaustively on the realized ranges):

* cyclic operator on bar degree m chains:
      t(f_m, ..., f_0) = (-1)^{m + |f_0|(|f_1|+...+|f_m|)} (f_0, f_m, ..., f_1)
* extra degeneracy  s(chain) = (id, chain)  prepended at the loop start;
* norm N = 1 + t + ... + t^m;
* Connes operator on bar degree m:  B = (-1)^{m+1} (1 - t) s N,
  projected to the normalized complex.
"""

from __future__ import annotations

from .exactfield import Matrix, operator_matrix, rank
from .dgcore import DgCategory
from .hochschild import CyclicBar
from .monomial import CyclicError


# ---------------------------------------------------------------------------
# chain-level operators on single cyclic bar chain keys of a category
# (pure key manipulations; no bar is assembled)

def t_of_key(a: DgCategory, key):
    """Cyclic rotation of one chain: (new key, sign scalar)."""
    f = a.field
    objs, keys = key
    m = len(keys) - 1
    deg_last = keys[m][0]
    others = sum(k[0] for k in keys[:m])
    sign = f.sign(m + deg_last * others)
    new_objs = objs[1:] + (objs[0],)
    new_keys = (keys[m],) + keys[:m]
    return (new_objs, new_keys), sign


def s_of_key(unit_keys: dict, key):
    """Extra degeneracy: prepend the identity at the loop start, given
    the unit key of each object (``CyclicBar.unit_keys``)."""
    objs, keys = key
    return (objs + (objs[0],), (unit_keys[objs[0]],) + keys)


class MixedComplex:
    """A normalized mixed complex in homological indexing: graded pieces
    with b of degree -1 and B of degree +1, all three identities
    machine-verified on the realized range at construction."""

    def __init__(self, base: DgCategory, bar_bound: int):
        if bar_bound < 2:
            raise CyclicError("bar_bound must be >= 2")
        self.base = base
        self.bar_bound = bar_bound
        f = base.field
        self.field = f
        self.norm = CyclicBar(base, bar_bound)
        self.plan = base.bar_plan()

        # chains per homological degree n = bar - internal = -(total degree);
        # b is the total differential, so its matrices are the total complex's
        total, by_t = self.norm.total_complex()
        self.keys = {-t: keys for t, keys in by_t.items()}
        self.index = {n: {k: i for i, k in enumerate(keys)} for n, keys in self.keys.items()}
        self.b_mats = {n: total.diff(-n) for n in self.keys}
        self.B_mats = {n: operator_matrix(f, keys, self.index.get(n + 1, {}), self._B_elem)
                       for n, keys in self.keys.items()}
        # (n, first, last nonempty column) -> rank; see _column_rank
        self.column_ranks = {}
        self._verify_identities()

    # -- assembly -------------------------------------------------------

    def _B_complete(self, n: int) -> bool:
        """B on this degree stays inside the assembly: either no chain
        sits at the top bar degree, or nothing exists above it anyway."""
        if self.plan.max_bar is not None and self.plan.max_bar <= self.bar_bound:
            return True
        return all(self.norm.bar_degree(k) + 1 <= self.bar_bound for k in self.keys.get(n, ()))

    def dim(self, n: int) -> int:
        return len(self.keys.get(n, ()))

    def support(self):
        return sorted(self.keys)

    def _B_elem(self, key):
        a, f = self.base, self.field
        unit_keys = self.norm.unit_keys
        m = self.norm.bar_degree(key)
        # B keeps the internal degree and raises the bar degree by one
        norm_index = self.index.get(m - self.norm.internal_degree(key) + 1, {})
        # (-1)^{m+1} s N, projected to the normalized complex: t permutes
        # chain keys up to sign.  The -t s N half of (1 - t) s N is dropped
        # by the projection, since t s puts the unit of x_0 at inner slot 1
        out = {}
        k, c = key, f.sign(m + 1)
        for _ in range(m + 1):
            k2 = s_of_key(unit_keys, k)
            if k2 in norm_index:
                f.accumulate(out, k2, c)
            k, sign = t_of_key(a, k)
            c = f.mul(c, sign)
        return out

    # -- identities ------------------------------------------------------

    def _verify_identities(self):
        """Hard gate on the realized range: checks run wherever every
        composite stays inside the assembly."""
        for n in self.support():
            b_n = self.b_mats.get(n)
            b_dn = self.b_mats.get(n - 1)
            if b_n is not None and b_dn is not None and not b_dn.mul(b_n).is_zero():
                raise CyclicError(f"b^2 != 0 at degree {n}")
            B_n = self.B_mats.get(n)
            B_up = self.B_mats.get(n + 1)
            if (B_n is not None and B_up is not None
                    and self._B_complete(n) and self._B_complete(n + 1)
                    and not B_up.mul(B_n).is_zero()):
                raise CyclicError(f"B^2 != 0 at degree {n}")
            if B_n is not None and self.b_mats.get(n + 1) is not None and self._B_complete(n):
                first = self.b_mats[n + 1].mul(B_n)
                B_dn = self.B_mats.get(n - 1)
                if b_n is not None and B_dn is not None and self._B_complete(n - 1):
                    second = B_dn.mul(b_n)
                    if not first.add(second).is_zero():
                        raise CyclicError(f"bB + Bb != 0 at degree {n}")


# ---------------------------------------------------------------------------
# (b, B)-bicomplex totals over a column interval

def _column_total_dims(mx: MixedComplex, n: int, q_lo: int, q_hi: int):
    return [(q, n + 2 * q) for q in range(q_lo, q_hi + 1) if mx.dim(n + 2 * q)]


def _column_total_matrix(mx: MixedComplex, n: int, q_lo: int, q_hi: int) -> Matrix:
    """Differential from the degree-n to the degree-(n-1) part of the
    total complex over columns q_lo..q_hi (offset q holds M_{n+2q};
    b preserves q, B raises it; the leak at q_hi is quotiented away)."""
    f = mx.field
    src = _column_total_dims(mx, n, q_lo, q_hi)
    tgt = _column_total_dims(mx, n - 1, q_lo, q_hi)
    src_off, pos = {}, 0
    for q, k in src:
        src_off[q] = pos
        pos += mx.dim(k)
    n_src = pos
    tgt_off, pos = {}, 0
    for q, k in tgt:
        tgt_off[q] = pos
        pos += mx.dim(k)
    n_tgt = pos
    entries = {}
    for q, k in src:
        b = mx.b_mats.get(k)
        if b is not None and q in tgt_off:
            for (i, j), v in b.entries.items():
                entries[(tgt_off[q] + i, src_off[q] + j)] = v
        B = mx.B_mats.get(k)
        if B is not None and q + 1 in tgt_off:
            for (i, j), v in B.entries.items():
                f.accumulate(entries, (tgt_off[q + 1] + i, src_off[q] + j), v)
    return Matrix(f, n_tgt, n_src, entries)


def _column_rank(mx: MixedComplex, n: int, q_lo: int, q_hi: int) -> int:
    """rank of _column_total_matrix(mx, n, q_lo, q_hi), ranked once per
    mixed complex: the interval is clamped to the columns nonempty in
    degree n or n-1, so equal clamped intervals give equal matrices."""
    qs = [q for q in range(q_lo, q_hi + 1) if mx.dim(n + 2 * q) or mx.dim(n - 1 + 2 * q)]
    if not qs:
        return 0
    key = (n, qs[0], qs[-1])
    if key not in mx.column_ranks:
        mx.column_ranks[key] = rank(_column_total_matrix(mx, n, q_lo, q_hi))
    return mx.column_ranks[key]


def _column_homology(mx: MixedComplex, n: int, q_lo: int, q_hi: int) -> int:
    total = sum(mx.dim(k) for _, k in _column_total_dims(mx, n, q_lo, q_hi))
    return total - _column_rank(mx, n, q_lo, q_hi) - _column_rank(mx, n + 1, q_lo, q_hi)


def _min_offset(mx: MixedComplex, n: int) -> int:
    sup = mx.support()
    if not sup:
        return 0
    return -((n - sup[0]) // 2) if n >= sup[0] else 0


def _first_column(mx: MixedComplex, n: int) -> int:
    """The lowest column offset that degrees n - 1 .. n + 1 reach, at most 0."""
    return min(_min_offset(mx, n - 1), _min_offset(mx, n), _min_offset(mx, n + 1), 0)


def hc_bar_dims(a: DgCategory, n_max: int, bar_bound: int) -> dict:
    """HC_n, 0 <= n <= n_max, with exact/truncated status, from the
    first-quadrant (b, B)-bicomplex of the normalized cyclic bar cut at
    ``bar_bound``: the bar route of ``monomial.hc_dims``.  Degree n uses
    columns 0..floor(n/2)."""
    mx = MixedComplex(a, bar_bound)
    out = {}
    for n in range(n_max + 1):
        # columns j >= 0 hold M_{n-2j}: offsets q = -j <= 0
        q_lo = _first_column(mx, n)
        dim = _column_homology(mx, n, q_lo, 0)
        pieces = {nn + 2 * q for q in range(q_lo, 1) for nn in (n - 1, n, n + 1)}
        exact = all(mx.plan.status(-k, bar_bound) == "exact" for k in pieces)
        out[n] = (dim, "exact" if exact else "truncated")
    return out


# ---------------------------------------------------------------------------
# towers for negative and periodic cyclic homology

class DegreeTower:
    def __init__(self, n, levels, status, stabilized_at=None, lim1_caveat=None):
        self.n = n
        self.levels = levels            # list of (r, dim)
        self.status = status            # "stabilized" | "bound_limited"
        self.stabilized_at = stabilized_at
        self.lim1_caveat = lim1_caveat

    @property
    def dim(self):
        return self.levels[-1][1] if self.levels else 0

    def as_dict(self):
        d = {"degree": self.n, "dim": self.dim, "status": self.status,
             "levels": [{"r": r, "dim": v} for r, v in self.levels]}
        if self.stabilized_at is not None:
            d["stabilized_at"] = self.stabilized_at
        if self.lim1_caveat:
            d["lim1_caveat"] = self.lim1_caveat
        return d


class TowerReport:
    """Per-degree tower data for HC^- and HP with stabilization
    certificates; serialization includes every computed level so the
    claims can be audited."""

    def __init__(self, base_name, window, max_levels, bar_bound, hp, hcminus):
        self.base_name = base_name
        self.window = window
        self.max_levels = max_levels
        self.bar_bound = bar_bound
        self.hp = hp                    # degree -> DegreeTower
        self.hcminus = hcminus

    def as_dict(self):
        return {
            "window": list(self.window),
            "max_levels": self.max_levels,
            "bar_bound": self.bar_bound,
            "hp": {str(n): t.as_dict() for n, t in sorted(self.hp.items())},
            "hc_minus": {str(n): t.as_dict() for n, t in sorted(self.hcminus.items())},
        }


_LIM1_CAVEAT = ("tower not certified Mittag-Leffler: the reported value is the "
                "top truncation level only; the limit may differ by a lim^1 term")


def _tower_for_degree(mx: MixedComplex, n: int, max_levels: int, vanish_bound,
                      kind: str) -> DegreeTower:
    levels = []
    q_lo = _first_column(mx, n)
    for r in range(1, max_levels + 1):
        if kind == "hp":
            dim = _column_homology(mx, n, q_lo, r)
        else:
            dim = _column_homology(mx, n, 0, r - 1)
        levels.append((r, dim))
    # stabilization: two consecutive agreeing levels plus chain-level
    # vanishing of every column beyond them
    if vanish_bound is not None:
        for idx in range(1, len(levels)):
            r_prev, d_prev = levels[idx - 1]
            r_cur, d_cur = levels[idx]
            if d_prev != d_cur:
                continue
            # columns q > r_cur contribute M_{n'+2q} for n' in {n-1,n,n+1}
            if n - 1 + 2 * (r_cur + 1) > vanish_bound:
                return DegreeTower(n, levels[:idx + 1], "stabilized", stabilized_at=r_cur)
    return DegreeTower(n, levels, "bound_limited", lim1_caveat=_LIM1_CAVEAT)


def hcminus_hp_dims(a: DgCategory, n_window, max_levels: int,
                    bar_bound: int | None = None) -> TowerReport:
    """Tower levels for negative cyclic (columns [0, r-1]) and periodic
    cyclic homology (columns (-inf, r]); "stabilized" is issued only with
    two agreeing consecutive levels and a chain-level vanishing
    certificate for everything beyond, otherwise "bound_limited" with
    the lim^1 caveat attached.  The default bar bound is
    ``BarPlan.bar_bound`` of the mixed complex over the pieces the
    towers read, homological degrees n_lo - 1 .. n_hi + 1 + 2 max_levels."""
    n_lo, n_hi = n_window
    if max_levels < 2:
        raise CyclicError("max_levels must be >= 2")
    vanish = a.bar_plan().chain_support()[1]
    if bar_bound is None:
        bar_bound = a.bar_plan().bar_bound(-(n_hi + 1 + 2 * max_levels), 1 - n_lo, mixed=True)
    mx = MixedComplex(a, bar_bound)
    hp = {}
    hcm = {}
    for n in range(n_lo, n_hi + 1):
        hp[n] = _tower_for_degree(mx, n, max_levels, vanish, "hp")
        hcm[n] = _tower_for_degree(mx, n, max_levels, vanish, "hcminus")
    return TowerReport(a.name or "?", n_window, max_levels, bar_bound, hp, hcm)
