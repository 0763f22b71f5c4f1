"""Monomial inputs: categories that are a path algebra kQ/I with I
spanned by paths, read off the composition table, and the small
complexes their Anick chains give.

For such an input the minimal projective resolution of the diagonal
bimodule is Bardzell's (J. Algebra 188, 1997).  Its degree-n generators
are the associated sequences of paths AP(n) of Green-Happel-Zacharia
(Illinois J. Math. 29, 1985), which are Anick's chains (Trans. AMS 296,
1986).  So Tor_n(A0, A0) = |AP(n)|, and Hochschild homology is the
homology of one complex with |AP(n)| x (dim of a hom) basis vectors in
degree n, exact in every degree.  Its differential keeps the path-length
weight, so it splits into one summand per weight; HH is their sum, and
over Q cyclic homology follows weight by weight from Goodwillie's
theorem (``MonomialAlgebra.hc_dims``).  The bar routes stay the
references.

``hh_dims`` and ``hc_dims``, the entry points for HH and HC of any
input, try this route first and import a bar engine only to fall back,
so an answer read off AP(n) loads neither ``hochschild`` nor ``cyclic``.

Paths are words of arrow indices in diagram order: (a_1, ..., a_l)
traverses a_1 first and is the morphism a_l ... a_1.  Chains of AP(n)
are (source, target, word, last), where ``last`` is the final piece of
the word:

* AP(0) holds the empty word at each object, AP(1) the arrows, each its
  own last piece;
* AP(n+1) holds p.v for p in AP(n) and v nonempty such that some
  relation equals (a nonempty suffix of last(p)).v and is the only
  relation in last(p).v; then last(p.v) = v, and AP(2) is the set of
  relations.
"""

from __future__ import annotations

from .exactfield import homology_dims, operator_complex
from .dgcore import DgCategory


class HochschildError(ValueError):
    pass


class CyclicError(ValueError):
    pass


class MonomialAlgebra:
    """A category recognized as kQ/I with I monomial (``monomial_algebra``).

    ``arrows[i]`` is the (source, target, basis key) of arrow i;
    ``words`` maps each nonzero nonempty word to its (source, target,
    basis key), one to one onto the non-unit keys; ``relations`` are the
    minimal zero words, indexed by their first arrow in ``starting``."""

    def __init__(self, a: DgCategory, arrows, words, relations):
        self.a = a
        self.arrows = arrows
        self.words = words
        self.unit_keys = a.bar_plan().unit_keys
        self.word_of = {(s, t, k): w for w, (s, t, k) in words.items()}
        self.word_of.update(((x, x, k), ()) for x, k in self.unit_keys.items())
        self.starting = {}
        for r in relations:
            self.starting.setdefault(r[0], []).append(r)
        self._pieces = {}

    def _key(self, x, word):
        """The basis key of the path ``word`` starting at x, None when it is zero."""
        if not word:
            return self.unit_keys[x]
        node = self.words.get(word)
        return node and node[2]

    def _next_pieces(self, last):
        """The pieces v with last.v closing exactly one relation, which
        starts inside ``last`` and ends with v."""
        out = self._pieces.get(last)
        if out is None:
            out = []
            for i in range(len(last)):
                tail = last[i:]
                for r in self.starting.get(last[i], ()):
                    if len(r) > len(tail) and r[:len(tail)] == tail:
                        v = r[len(tail):]
                        # a path is zero iff it contains a relation, so r is the
                        # only relation in last.v iff last.v minus its end is nonzero
                        if (last + v)[:-1] in self.words:
                            out.append(v)
            self._pieces[last] = out
        return out

    def chains(self, n_top: int) -> list:
        """AP(0), ..., AP(n_top), each a list of (source, target, word, last)."""
        out = [[(x, x, (), ()) for x in self.a.objects],
               [(s, t, (i,), (i,)) for i, (s, t, _k) in enumerate(self.arrows)]]
        while len(out) <= n_top:
            out.append([(s, self.arrows[v[-1]][1], w + v, v)
                        for s, _t, w, last in out[-1] for v in self._next_pieces(last)])
        return out[:n_top + 1]

    def hochschild_complex(self, n_top: int) -> dict:
        """A (x)_{A^e} P for Bardzell's resolution P, through degree n_top,
        split by weight: {w: the weight-w summand, a ChainComplex}.

        Degree n sits in cohomological degree -n with basis (n, i, b): the
        i-th chain p of AP(n) and a basis key b of hom(t(p), s(p)), of
        weight len(p) + len(word of b).  With q1, q2 the unique prefix and
        suffix of p in AP(n-1) (the empty words at s(p) and t(p) when p is
        an arrow), d(p, b) = (q1, R.b) - (q2, b.L) for n odd,
        p = q1.R = L.q2, and d(p, b) = sum (q, R.b.L) for n even, over
        every occurrence p = L.q.R of a chain q of AP(n-1).  So d keeps the
        weight, and an image outside its summand is an assembly error.
        Terms with a zero product are dropped; the input sits in degree 0,
        so no Koszul signs enter."""
        f = self.a.field
        one, minus = f.one(), f.neg(f.one())
        aps = self.chains(n_top)
        basis = {}
        for n, ps in enumerate(aps):
            for i, (s, t, w, _l) in enumerate(ps):
                for b in self.a.basis_keys(t, s):
                    weight = len(w) + len(self.word_of[(t, s, b)])
                    basis.setdefault(weight, {}).setdefault(-n, []).append((n, i, b))
        # per chain: (index of q in AP(n-1), R, L, sign) with image (q, R.b.L)
        terms = [[]]
        for n in range(1, n_top + 1):
            if n == 1:
                index = {x: j for j, x in enumerate(self.a.objects)}
                terms.append([[(index[s], w, (), one), (index[t], (), w, minus)]
                              for s, t, w, _l in aps[1]])
                continue
            index = {w: j for j, (_s, _t, w, _l) in enumerate(aps[n - 1])}
            lengths = sorted({len(w) for w in index})
            per = []
            for _s, _t, w, _l in aps[n]:
                m = len(w)
                if n % 2:
                    pre = next(ln for ln in lengths if w[:ln] in index)
                    suf = next(ln for ln in lengths if w[m - ln:] in index)
                    per.append([(index[w[:pre]], w[pre:], (), one),
                                (index[w[m - suf:]], (), w[:m - suf], minus)])
                else:
                    per.append([(index[w[j:j + ln]], w[j + ln:], w[:j], one)
                                for ln in lengths for j in range(m - ln + 1)
                                if w[j:j + ln] in index])
            terms.append(per)

        def diff(key):
            n, i, b = key
            if not n:
                return {}
            s, t, _w, _l = aps[n][i]
            bw = self.word_of[(t, s, b)]
            out = {}
            for j, right, left, sign in terms[n][i]:
                # R.b.L starts at the target of q
                k = self._key(aps[n - 1][j][1], right + bw + left)
                if k is not None:
                    f.accumulate(out, (n - 1, j, k), sign)
            return out

        return {w: operator_complex(f, by_degree, diff) for w, by_degree in sorted(basis.items())}

    def hh_by_weight(self, n_max: int) -> dict:
        """{w: [dim HH_n^(w) for 0 <= n <= n_max]} over the weights w whose
        summand is nonzero in some degree <= n_max + 1."""
        out = {}
        for w, c in self.hochschild_complex(n_max + 1).items():
            hh = out[w] = [0] * (n_max + 1)
            # a summand spans a few degrees: rank only inside them
            degrees = [d for d in c.support() if d >= -n_max]
            if degrees:
                for d, dim in homology_dims(c, (degrees[0], degrees[-1])).items():
                    hh[-d] = dim
        return out

    def hc_dims(self, n_max: int) -> list:
        """dim HC_n for 0 <= n <= n_max, over a field of characteristic 0.

        The weight grading splits Connes' SBI sequence.  Weight 0 is
        spanned by the units, so it is HC of k^{#objects}: #objects in
        even degrees, 0 in odd ones.  On weight w >= 1 the Euler
        derivation acts as w, and a derivation acts as zero on HC after
        S (Goodwillie, Topology 24, 1985; Loday, Cyclic Homology, 4.1),
        so w.S = 0 and S = 0 when w is invertible.  Then
        0 -> HC_{n-1}^(w) -> HH_n^(w) -> HC_n^(w) -> 0 is exact, and
        dim HC_n^(w) = dim HH_n^(w) - dim HC_{n-1}^(w) from HC_{-1} = 0."""
        if self.a.field.kind:
            raise ValueError("the weight route to HC needs characteristic 0")
        units = len(self.a.objects)
        out = [0 if n % 2 else units for n in range(n_max + 1)]
        for w, hh in self.hh_by_weight(n_max).items():
            if not w:
                continue
            hc = 0
            for n, h in enumerate(hh):
                hc = h - hc
                if hc < 0:
                    raise AssertionError(f"HC_{n} of weight {w} would be {hc}")
                out[n] += hc
        return out


def monomial_algebra(a: DgCategory):
    """``a`` as a MonomialAlgebra, or None when it is not recognizably
    kQ/I with I monomial.

    The input must be a closed realization in degree 0 with no
    differential and unit basis keys.  Then it is kQ/I with I monomial
    when every product of two basis keys is zero or one basis key with
    coefficient 1, the arrows are the non-unit keys that are not a
    product of two non-unit keys, and the nonzero words in the arrows
    correspond one to one with the non-unit keys.  The relations are the
    minimal zero words."""
    if not a.closed:
        return None
    if any(c.diffs or c.support() not in ([], [0]) for c in a.homs.values()):
        return None
    plan = a.bar_plan()
    unit_keys = plan.unit_keys
    if None in unit_keys.values():
        return None
    one = a.field.one()
    products = set()
    for (x, y, z), table in a.comp.items():
        for (kg, kf), prod in table.items():
            if len(prod) != 1 or next(iter(prod.values())) != one:
                return None
            g_unit = y == z and kg == unit_keys[y]
            f_unit = x == y and kf == unit_keys[x]
            if not (g_unit or f_unit):
                products.add((x, z, (0, next(iter(prod)))))
    arrows = [(x, y, k) for x, ys in plan.succ.items() for y in ys for k in plan.nonunit[(x, y)]
              if (x, y, k) not in products]
    out_arrows = {}
    for i, (x, _y, _k) in enumerate(arrows):
        out_arrows.setdefault(x, []).append(i)
    # nonzero words by length, each with its (source, target, key)
    words = {(i,): arrow for i, arrow in enumerate(arrows)}
    seen = set(arrows)
    relations = []
    layer = list(words)
    while layer:
        nxt = []
        for w in layer:
            x, y, k = words[w]
            for b in out_arrows.get(y, ()):
                _y, z, kb = arrows[b]
                wb = w + (b,)
                prod = a.products(x, y, z).get((kb, k))
                if not prod:
                    if wb[1:] in words:
                        relations.append(wb)
                    continue
                node = (x, z, (0, next(iter(prod))))
                if node in seen or (x == z and node[2] == unit_keys[x]):
                    return None
                seen.add(node)
                words[wb] = node
                nxt.append(wb)
        layer = nxt
    if len(words) != sum(len(plan.nonunit[(x, y)]) for x, ys in plan.succ.items() for y in ys):
        return None
    return MonomialAlgebra(a, arrows, words, relations)


def hh_dims(a: DgCategory, n_max: int, bar_bound: int | None = None, n_min: int = 0) -> dict:
    """HH_n dimensions for n_min <= n <= n_max with exact/truncated status.

    With the automatic bar bound and n_min = 0, a monomial input
    (``monomial_algebra``: a closed degree-0 kQ/I with I spanned by
    paths) takes Bardzell's complex, |AP(n)| x (dim of a hom) chains in
    degree n, exact in every degree because it comes from a projective
    resolution of the diagonal; HH is the sum of its weight summands.
    Every other input, a negative n_min (the floor of a graded input's
    chain support), and an explicit ``bar_bound`` take the normalized
    cyclic bar, by default cut at ``BarPlan.bar_bound`` of total degrees
    -n_max .. -n_min."""
    if n_max < max(n_min, 0):
        raise HochschildError("n_max must be >= max(n_min, 0)")
    if bar_bound is None:
        mono = monomial_algebra(a) if n_min == 0 else None
        if mono is not None:
            by_weight = mono.hh_by_weight(n_max).values()
            return {n: (sum(hh[n] for hh in by_weight), "exact") for n in range(n_max + 1)}
        bar_bound = a.bar_plan().bar_bound(-n_max, -n_min)
    elif bar_bound < 1:
        raise HochschildError("bar_bound must be >= 1")
    from .hochschild import CyclicBar
    total, _ = CyclicBar(a, bar_bound).total_complex()
    plan = a.bar_plan()
    dims = homology_dims(total, (-n_max, -n_min))
    return {n: (dims[-n], plan.status(-n, bar_bound)) for n in range(n_min, n_max + 1)}


def hc_dims(a: DgCategory, n_max: int, bar_bound: int | None = None) -> dict:
    """Cyclic homology dimensions HC_n, 0 <= n <= n_max, with
    exact/truncated status.

    Over Q with the automatic bar bound, a monomial input
    (``monomial_algebra``) takes the weight pieces of Bardzell's complex:
    there Goodwillie's theorem splits Connes' SBI sequence weight by
    weight (``MonomialAlgebra.hc_dims``), and every degree is exact.
    Every other input, F_p, and an explicit ``bar_bound`` take the
    first-quadrant (b, B)-bicomplex of the normalized cyclic bar; degree
    n uses columns 0..floor(n/2).  Its default bar bound is
    ``BarPlan.bar_bound`` of the mixed complex over total degrees
    -(n_max + 1) .. 1, the pieces those columns read."""
    if n_max < 0:
        raise CyclicError("n_max must be >= 0")
    if bar_bound is None:
        mono = monomial_algebra(a) if a.field.kind == 0 else None
        if mono is not None:
            return {n: (d, "exact") for n, d in enumerate(mono.hc_dims(n_max))}
        bar_bound = a.bar_plan().bar_bound(-(n_max + 1), 1, mixed=True)
    from .cyclic import MixedComplex, _column_homology, _min_offset
    mx = MixedComplex(a, bar_bound)
    out = {}
    for n in range(n_max + 1):
        # columns j >= 0 hold M_{n-2j}: offsets q = -j <= 0
        q_lo = min(_min_offset(mx, n - 1), _min_offset(mx, n), _min_offset(mx, n + 1), 0)
        dim = _column_homology(mx, n, q_lo, 0)
        pieces = {nn + 2 * q for q in range(q_lo, 1) for nn in (n - 1, n, n + 1)}
        exact = all(mx.plan.status(-k, bar_bound) == "exact" for k in pieces)
        out[n] = (dim, "exact" if exact else "truncated")
    return out
