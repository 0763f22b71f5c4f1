"""Presentations of dg categories by generators, differentials, relations.

A presentation is the workhorse behind quiver input and cell attachments:
free pushouts can generate infinitely many composite words, so a
presentation is realized into a finite dg category only together with a
finiteness certificate.  Downstream homology code accepts realizations
whose certificate is "closed"; "truncated" realizations are inspection
artifacts only.

Words are stored in diagram order: (w1, ..., wk) is the path that
traverses w1 first, i.e. the morphism wk . wk-1 . ... . w1.

Realization and cell attachment share one word enumerator, which
carries each word's signature (source, target, degree), and one reducer
per signature, which reduces a word combination modulo the relation
ideal spanned within the listed words.  ``realize`` reduces basis
words, differentials and products with it; ``pushout_attach`` reduces
d(f), whose one signature it lists up to the longer of d(f)'s longest
word and the longest relation term.
"""

from __future__ import annotations

import itertools

from .exactfield import ChainComplex, FieldSpec, Matrix, Subspace
from .dgcore import DgCategory


class PresentationError(ValueError):
    pass


class PathElement:
    """A homogeneous linear combination of parallel paths."""

    def __init__(self, src: str, tgt: str, terms: dict):
        self.src = src
        self.tgt = tgt
        self.terms = {tuple(w): v for w, v in terms.items() if v}  # word tuple -> scalar

    def is_zero(self):
        return not self.terms


class Presentation:
    """Objects plus graded generators, their differentials and relations.

    generators: name -> (src, tgt, degree).  Differentials and relations
    are PathElements; relations must be degree-homogeneous.
    """

    def __init__(self, field: FieldSpec, objects=(), generators=None,
                 differentials=None, relations=None):
        self.field = field
        self.objects = list(objects)
        self.generators = dict(generators or {})
        self.differentials = dict(differentials or {})
        self.relations = list(relations or [])
        self._counter = 0
        for name, (src, tgt, deg) in self.generators.items():
            if src not in self.objects or tgt not in self.objects:
                raise PresentationError(f"generator {name}: unknown endpoint")
        for name, de in self.differentials.items():
            src, tgt, deg = self.generators[name]
            if (de.src, de.tgt) != (src, tgt):
                raise PresentationError(f"d({name}) has wrong endpoints")
            self._check_homogeneous(de, deg + 1)
        for r in self.relations:
            self._check_homogeneous(r, None)

    def copy(self) -> "Presentation":
        p = Presentation(self.field, self.objects, self.generators,
                         {k: PathElement(v.src, v.tgt, dict(v.terms))
                          for k, v in self.differentials.items()},
                         [PathElement(r.src, r.tgt, dict(r.terms)) for r in self.relations])
        p._counter = self._counter
        return p

    def word_endpoints(self, word, src_hint=None):
        if not word:
            if src_hint is None:
                raise PresentationError("empty word needs an object hint")
            return src_hint, src_hint
        src = self.generators[word[0]][0]
        cur = src
        for g in word:
            gs, gt, _ = self.generators[g]
            if gs != cur:
                raise PresentationError(f"word {word} not composable at {g}")
            cur = gt
        return src, cur

    def word_degree(self, word) -> int:
        return sum(self.generators[g][2] for g in word)

    def _check_homogeneous(self, e: PathElement, expect_deg):
        degs = set()
        for w in e.terms:
            s, t = self.word_endpoints(w, src_hint=e.src)
            if (s, t) != (e.src, e.tgt):
                raise PresentationError(f"term {w} has endpoints {(s, t)}, element claims {(e.src, e.tgt)}")
            degs.add(self.word_degree(w))
        if len(degs) > 1:
            raise PresentationError(f"inhomogeneous element: degrees {sorted(degs)}")
        if expect_deg is not None and degs and degs != {expect_deg}:
            raise PresentationError(f"element degree {degs.pop()}, expected {expect_deg}")

    def element_degree(self, e: PathElement):
        for w in e.terms:
            return self.word_degree(w)
        return None

    def fresh_name(self, stem="h") -> str:
        while True:
            self._counter += 1
            name = f"{stem}{self._counter}"
            if name not in self.generators:
                return name

    def d_of_word(self, word) -> dict:
        """Leibniz differential of a word as {word: scalar}; the sign on
        factor i is (-1)^(sum of degrees of later factors)."""
        f = self.field
        out = {}
        degs = [self.generators[g][2] for g in word]
        for i, g in enumerate(word):
            dg = self.differentials.get(g)
            if dg is None or dg.is_zero():
                continue
            sgn = f.sign(sum(degs[i + 1:]))
            for w2, c in dg.terms.items():
                f.accumulate(out, word[:i] + w2 + word[i + 1:], f.mul(sgn, c))
        return out

    def relations_length_homogeneous(self) -> bool:
        """Every relation's terms have one word length (monomial relations
        included), so the relation ideal is spanned length by length."""
        return all(len({len(w) for w in r.terms}) <= 1 for r in self.relations)


def pushout_attach(p: Presentation, n: int, f: PathElement,
                   name: str | None = None) -> Presentation:
    """Attach a cell of dimension n along the closed degree-(n-1) element
    f: the new presentation has one extra generator h with d(h) = f in
    degree n-2 (the attached generator sits one degree below its
    boundary).  f is closed when d(f), homogeneous of degree n, reduces
    to zero modulo the relations among the words up to the longer of its
    longest word and the longest relation term: a reduction to zero
    among any listed words proves d(f) lies in the ideal, and relations
    not homogeneous in word length may need their longer terms."""
    deg = p.element_degree(f)
    if deg is None:
        deg = n - 1
    if deg != n - 1:
        raise PresentationError(f"attaching element has degree {deg}, expected {n - 1}")
    out = p.copy()
    out._check_homogeneous(f, n - 1)
    df = _d_of_element(out, f)
    if df:
        longest = max(map(len, itertools.chain(df, *(r.terms for r in out.relations))))
        if _Reducer(out, _words(out, longest)[1][(f.src, f.tgt, n)]).reduce(df):
            raise PresentationError("attaching element is not closed")
    gname = name or out.fresh_name()
    out.generators[gname] = (f.src, f.tgt, n - 2)
    out.differentials[gname] = PathElement(f.src, f.tgt, dict(f.terms))
    return out


def pushout_attach_object(p: Presentation, name: str) -> Presentation:
    """Pushout along the generating functor from the empty dg category:
    a fresh object with no new morphisms."""
    if name in p.objects:
        raise PresentationError(f"object {name} already present")
    out = p.copy()
    out.objects.append(name)
    return out


def _d_of_element(p: Presentation, e: PathElement) -> dict:
    f = p.field
    out = {}
    for w, c in e.terms.items():
        for w2, v in p.d_of_word(w).items():
            f.accumulate(out, w2, f.mul(c, v))
    return out


def _words(p: Presentation, max_len: int):
    """Every composable word up to max_len, extended layer by layer with
    its signature (source, target, degree).  Returns the layers, lists of
    (word, signature), and the words of each signature in (length, word)
    order: words of one source extend in order by generators in name
    order, so each layer of a signature is already sorted."""
    outgoing = {}
    for name, (src, tgt, deg) in sorted(p.generators.items()):
        outgoing.setdefault(src, []).append((name, tgt, deg))
    by_len = [[((), (x, x, 0)) for x in p.objects]]
    for _ in range(max_len):
        by_len.append([(w + (g,), (s, t, d + dg)) for w, (s, y, d) in by_len[-1]
                       for g, t, dg in outgoing.get(y, ())])
    by_sig = {}
    for layer in by_len:
        for w, sig in layer:
            by_sig.setdefault(sig, []).append(w)
    return by_len, by_sig


def _ideal_vectors(p: Presentation, words, index):
    """Spanning vectors of the relation ideal within the word list: the
    vector of u.r.v for each occurrence u + (first term of r) + v in a
    listed word whose terms u + r_i + v are all listed.  Every other term
    of r names the same vectors."""
    vectors = []
    for r in p.relations:
        if r.is_zero():
            continue
        lead = next(iter(r.terms))
        for w in words:
            for i in range(len(w) - len(lead) + 1):
                if w[i:i + len(lead)] == lead:
                    u, v = w[:i], w[i + len(lead):]
                    vec = {index.get(u + t + v): c for t, c in r.terms.items()}
                    if None not in vec:
                        vectors.append(vec)
    return vectors


class _Reducer:
    """Reduction modulo the relation ideal among the words of one
    signature, given in (length, word) order.  Index 0 is the longest
    word: the echelon basis of the ideal vectors pivots on the smallest
    index, so the pivots are leading words and the others, ``kept``, are
    a basis of the quotient."""

    def __init__(self, p: Presentation, words):
        self.words = words[::-1]
        self.index = {w: i for i, w in enumerate(self.words)}
        self.ideal = Subspace(p.field)
        for vec in _ideal_vectors(p, words, self.index):
            self.ideal.insert(vec)
        self.kept = [w for w in words if self.index[w] not in self.ideal.pivot_rows]

    def reduce(self, terms: dict):
        """Normal form of a word combination in the kept words, or None
        when one of its words is not in the list."""
        index = self.index
        if any(w not in index for w in terms):
            return None
        res = self.ideal.residual({index[w]: c for w, c in terms.items()})
        return {self.words[i]: c for i, c in res.items()}


class RealizeCertificate:
    def __init__(self, status: str, reason: str, basis_count: int,
                 saturation_length: int | None = None, truncated_products: int = 0):
        self.status = status  # "closed" | "truncated"
        self.reason = reason
        self.basis_count = basis_count
        self.saturation_length = saturation_length
        self.truncated_products = truncated_products

    @property
    def is_closed(self) -> bool:
        return self.status == "closed"


def realize(p: Presentation, degree_bound: int, wordlength_bound: int):
    """Enumerate reduced basis words up to the bounds and assemble the dg
    category.  Returns (category, certificate); the certificate is
    "closed" only when saturation below the bound is provably final
    (no composable words at some length, or relations homogeneous in
    word length with all words of some length reducing to zero: the
    ideal vectors span each length of the ideal exactly, so every longer
    word, a product through that length, lies in the ideal too) and no
    product or differential of basis words falls past the bounds."""
    if degree_bound <= 0 or wordlength_bound <= 0:
        raise PresentationError("bounds must be positive")
    f = p.field
    by_len, by_sig = _words(p, wordlength_bound)
    degree_overflow = any(abs(d) > degree_bound for (_, _, d) in by_sig)

    # reduced basis per (src, tgt, degree): words not in the ideal span
    reducers = {sig: _Reducer(p, words) for sig, words in by_sig.items()
                if abs(sig[2]) <= degree_bound}
    basis = {sig: r.kept for sig, r in reducers.items()}
    for x in p.objects:
        if () not in basis.get((x, x, 0), ()):
            raise PresentationError(f"relations kill the unit at {x}")
    truncated_products = 0

    def reduce_words(terms: dict, sig):
        nonlocal truncated_products
        red = reducers[sig].reduce(terms) if sig in reducers else None
        if red is None:
            truncated_products += 1
        return red

    # saturation analysis
    reduced_lengths = {len(w) for kept in basis.values() for w in kept}
    homogeneous = p.relations_length_homogeneous()
    sat, reason = None, f"new basis words at the final length {wordlength_bound}"
    for m in range(1, wordlength_bound + 1):
        if not by_len[m]:
            sat, reason = m, f"no composable words at length {m}"
            break
        if homogeneous and m not in reduced_lengths:
            sat, reason = m, f"relations homogeneous in word length; all words of length {m} reduce to zero"
            break
    if degree_overflow:
        sat, reason = None, "words exceeded the degree bound"

    # assemble the category: hom spaces and differentials
    objects = list(p.objects)
    spaces_map = {pair: {} for pair in itertools.product(objects, repeat=2)}
    word_index = {}
    for (x, y, d), kept in basis.items():
        if kept:
            spaces_map[(x, y)][d] = tuple(".".join(w) if w else f"id:{x}" for w in kept)
            word_index.update(((x, y, d, w), i) for i, w in enumerate(kept))
    hom_complexes = {}
    for (x, y), spaces in spaces_map.items():
        diffs = {}
        for d in spaces:
            kept = basis[(x, y, d)]
            entries = {}
            for col, w in enumerate(kept):
                dw = p.d_of_word(w)
                if dw:
                    for w2, c in (reduce_words(dw, (x, y, d + 1)) or {}).items():
                        entries[(word_index[(x, y, d + 1, w2)], col)] = c
            if entries:
                diffs[d] = Matrix(f, len(basis[(x, y, d + 1)]), len(kept), entries)
        hom_complexes[(x, y)] = ChainComplex(f, spaces, diffs)

    # compositions, over pairs of signatures that meet at the middle object
    starting = {}
    for sig in basis:
        starting.setdefault(sig[0], []).append(sig)
    comp = {}
    for (x, y, df), fwords in basis.items():
        for (_, z, dg) in starting.get(y, ()):
            table = comp.setdefault((x, y, z), {})
            for ig, gw in enumerate(basis[(y, z, dg)]):
                for if_, fw in enumerate(fwords):
                    # diagram order: f first, then g
                    red = reduce_words({fw + gw: f.one()}, (x, z, dg + df))
                    if red:
                        table[((dg, ig), (df, if_))] = {
                            word_index[(x, z, dg + df, w)]: c for w, c in red.items()}
    # a triple whose products all reduce to zero keeps no table
    comp = {t: table for t, table in comp.items() if table}

    if truncated_products and not degree_overflow:
        n = truncated_products
        past = (f"{n} product{'s' * (n > 1)} of basis words fall{'s' * (n == 1)} "
                f"past wordlength {wordlength_bound}")
        reason = past if sat is not None else f"{reason}; {past}"
    units = {x: {(0, word_index[(x, x, 0, ())]): f.one()} for x in objects}
    status = "closed" if (sat is not None and truncated_products == 0) else "truncated"
    cert = RealizeCertificate(status=status, reason=reason,
                              basis_count=sum(len(v) for v in basis.values()),
                              saturation_length=sat,
                              truncated_products=truncated_products)
    cat = DgCategory(f, objects, hom_complexes, comp, units, closed=cert.is_closed)

    # d^2 = 0 on the realized category; an inconsistent differential is an error
    for c in hom_complexes.values():
        try:
            c.verify()
        except ValueError as exc:
            raise PresentationError(f"inconsistent differential in realization: {exc}")
    return cat, cert


def from_quiver(field: FieldSpec, vertices, arrows, relations=None) -> Presentation:
    """Quiver shorthand: vertices, arrows (name, src, tgt, degree) and
    relation PathElements."""
    gens = {name: (src, tgt, deg) for (name, src, tgt, deg) in arrows}
    return Presentation(field, list(vertices), gens, {}, relations or [])
