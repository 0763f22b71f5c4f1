"""Presentations of dg categories by generators, differentials, relations.

A presentation is the workhorse behind quiver input and cell attachments:
free pushouts can generate infinitely many composite words, so a
presentation is realized into a finite dg category only together with a
finiteness certificate.  Downstream homology code accepts realizations
whose certificate is "closed"; "truncated" realizations are inspection
artifacts only.

Words are stored in diagram order: (w1, ..., wk) is the path that
traverses w1 first, i.e. the morphism wk . wk-1 . ... . w1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .exactfield import ChainComplex, FieldSpec, Matrix, Subspace
from .dgcore import DgCategory


class PresentationError(ValueError):
    pass


@dataclass
class PathElement:
    """A homogeneous linear combination of parallel paths."""

    src: str
    tgt: str
    terms: dict  # word tuple -> scalar

    def __post_init__(self):
        self.terms = {tuple(w): v for w, v in self.terms.items() if v}

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
    boundary)."""
    deg = p.element_degree(f)
    if deg is None:
        deg = n - 1
    if deg != n - 1:
        raise PresentationError(f"attaching element has degree {deg}, expected {n - 1}")
    out = p.copy()
    out._check_homogeneous(f, n - 1)
    df = _reduce_formal(out, _d_of_element(out, f))
    if df:
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


def _reduce_formal(p: Presentation, terms: dict) -> dict:
    """Reduce a word combination modulo the relation ideal, enumerating
    ideal elements only up to the lengths present in the combination.
    Sound for monomial relations and for finite word sets."""
    if not terms:
        return {}
    max_len = max(len(w) for w in terms)
    words_by_sig = {}
    for w in terms:
        s, t = p.word_endpoints(w)
        words_by_sig.setdefault((s, t, p.word_degree(w)), set()).add(w)
    out = {}
    for sig, wordset in words_by_sig.items():
        sub = {w: terms[w] for w in wordset}
        red = _reduce_in_signature(p, sig, sub, max_len)
        out.update(red)
    return {w: v for w, v in out.items() if v}


def _all_words(p: Presentation, max_len: int):
    """All composable words up to max_len, grouped by length."""
    by_len = [[((), x) for x in p.objects]]
    outgoing = {}
    for name, (src, tgt, deg) in p.generators.items():
        outgoing.setdefault(src, []).append(name)
    for x in outgoing:
        outgoing[x].sort()
    for ell in range(1, max_len + 1):
        layer = []
        for word, end in by_len[ell - 1]:
            for g in outgoing.get(end, ()):
                layer.append((word + (g,), p.generators[g][1]))
        by_len.append(layer)
    return by_len


def _ideal_vectors(p: Presentation, words, index):
    """Spanning vectors of the relation ideal within the given word set."""
    vectors = []
    for r in p.relations:
        rwords = list(r.terms)
        for w in words:
            # occurrences u + rw + v inside tracked words: substitute each term
            for u_len in range(len(w) + 1):
                u = w[:u_len]
                rest = w[u_len:]
                for rw in rwords:
                    if rest[:len(rw)] != rw:
                        continue
                    v = rest[len(rw):]
                    vec = {}
                    ok = True
                    for rw2, c in r.terms.items():
                        cand = u + rw2 + v
                        if cand not in index:
                            ok = False
                            break
                        vec[index[cand]] = c
                    if ok and vec:
                        vectors.append(vec)
    return vectors


def _reduce_in_signature(p: Presentation, sig, sub: dict, max_len: int) -> dict:
    src, tgt, deg = sig
    words = []
    for ell, layer in enumerate(_all_words(p, max_len)):
        for word, end in layer:
            s, t = p.word_endpoints(word, src_hint=end)
            if (s, t) == (src, tgt) and p.word_degree(word) == deg:
                words.append(word)
    words.sort(key=lambda w: (len(w), w))
    n = len(words)
    index = {w: n - 1 - i for i, w in enumerate(words)}  # longest word = smallest index
    back = {v: k for k, v in index.items()}
    sp = Subspace(p.field)
    for vec in _ideal_vectors(p, words, index):
        sp.insert(vec)
    query = {}
    for w, c in sub.items():
        if w not in index:
            raise PresentationError(f"word {w} outside reduction window")
        query[index[w]] = c
    res = sp.residual(query)
    return {back[i]: v for i, v in res.items()}


@dataclass
class RealizeCertificate:
    status: str                # "closed" | "truncated"
    reason: str
    basis_count: int
    saturation_length: int | None = None
    truncated_products: int = 0

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
    word, a product through that length, lies in the ideal too)."""
    if degree_bound <= 0 or wordlength_bound <= 0:
        raise PresentationError("bounds must be positive")
    f = p.field
    by_len = _all_words(p, wordlength_bound)
    degree_overflow = False

    # reduced basis per (src, tgt, degree): words not in the ideal span
    signature_words = {}
    for layer in by_len:
        for word, end in layer:
            s, t = p.word_endpoints(word, src_hint=end)
            d = p.word_degree(word)
            if abs(d) > degree_bound:
                degree_overflow = True
                continue
            signature_words.setdefault((s, t, d), []).append(word)

    reducers = {}
    basis = {}
    for sig, words in signature_words.items():
        words = sorted(set(words), key=lambda w: (len(w), w))
        n = len(words)
        index = {w: n - 1 - i for i, w in enumerate(words)}
        sp = Subspace(f)
        for vec in _ideal_vectors(p, words, index):
            sp.insert(vec)
        kept = [w for w in words if index[w] not in sp.pivot_rows]
        reducers[sig] = (sp, index, {v: k for k, v in index.items()})
        basis[sig] = kept
    for x in p.objects:
        sig = (x, x, 0)
        if sig not in basis or () not in basis[sig]:
            raise PresentationError(f"relations kill the unit at {x}")

    def reduce_words(terms: dict, sig):
        if sig not in reducers:
            return None  # outside realized window
        sp, index, back = reducers[sig]
        query = {}
        for w, c in terms.items():
            if w not in index:
                return None
            query[index[w]] = c
        res = sp.residual(query)
        return {back[i]: v for i, v in res.items()}

    # saturation analysis
    reduced_lengths = {len(w) for sig in basis for w in basis[sig]}
    composable_lengths = {ell for ell, layer in enumerate(by_len) if layer}
    sat = None
    reason = ""
    for m in range(1, wordlength_bound + 1):
        if m not in composable_lengths:
            sat = m
            reason = f"no composable words at length {m}"
            break
        if p.relations_length_homogeneous() and m not in reduced_lengths:
            sat = m
            reason = f"relations homogeneous in word length; all words of length {m} reduce to zero"
            break
    if degree_overflow:
        sat = None
        reason = "words exceeded the degree bound"
    if sat is None and not reason:
        reason = f"new basis words at the final length {wordlength_bound}"

    # assemble the category
    objects = list(p.objects)
    spaces_map = {}
    word_index = {}
    for (x, y) in itertools.product(objects, repeat=2):
        spaces = {}
        for (s, t, d), kept in basis.items():
            if (s, t) != (x, y) or not kept:
                continue
            spaces[d] = tuple(".".join(w) if w else f"id:{x}" for w in kept)
            for i, w in enumerate(kept):
                word_index[(x, y, d, w)] = i
        spaces_map[(x, y)] = spaces

    truncated_products = 0

    # differentials
    hom_complexes = {}
    for (x, y) in itertools.product(objects, repeat=2):
        spaces = spaces_map[(x, y)]
        diffs = {}
        for d, labels in spaces.items():
            kept = basis.get((x, y, d), [])
            entries = {}
            for col, w in enumerate(kept):
                dw = p.d_of_word(w)
                if not dw:
                    continue
                red = reduce_words(dw, (x, y, d + 1))
                if red is None:
                    truncated_products += 1
                    continue
                for w2, c in red.items():
                    row = word_index[(x, y, d + 1, w2)]
                    entries[(row, col)] = c
            if entries:
                diffs[d] = Matrix(f, len(basis.get((x, y, d + 1), [])), len(kept), entries)
        hom_complexes[(x, y)] = ChainComplex(f, spaces, diffs)

    comp = {}
    for (x, y, z) in itertools.product(objects, repeat=3):
        table = {}
        for (sy, ty, dg), gwords in basis.items():
            if (sy, ty) != (y, z):
                continue
            for ig, gw in enumerate(gwords):
                for (sx, tx, df), fwords in basis.items():
                    if (sx, tx) != (x, y):
                        continue
                    for if_, fw in enumerate(fwords):
                        concat = fw + gw  # diagram order: f first, then g
                        red = reduce_words({concat: f.one()}, (x, z, dg + df))
                        if red is None:
                            truncated_products += 1
                            continue
                        if red:
                            table[((dg, ig), (df, if_))] = {
                                word_index[(x, z, dg + df, w)]: c for w, c in red.items()}
        if table:
            comp[(x, y, z)] = table

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
