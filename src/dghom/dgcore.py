"""Finite dg categories: construction, validation, opposite, tensor.

Conventions, fixed once and pinned by ``validate``:

* internal grading is cohomological (d raises degree by 1);
* Leibniz: d(g.f) = (dg).f + (-1)^{|g|} g.(df), g the left factor;
* opposite: g .op f = (-1)^{|f||g|} f.g;
* tensor: (g1 x .. x gk).(f1 x .. x fk)
          = (-1)^{sum_{i<j} |g_j||f_i|} (g1.f1) x .. x (gk.fk).

Hom elements are sparse dicts {(degree, basis index): scalar} inside a
fixed hom pair; all structure constants are stored over explicit bases.
"""

from __future__ import annotations

import itertools

from .exactfield import ChainComplex, FieldSpec, tensor_complex


# ---------------------------------------------------------------------------
# elements: sparse {(deg, idx): scalar} within one hom pair

def elem_scale(field, c, a):
    if not c:
        return {}
    return {k: field.mul(c, v) for k, v in a.items()}

def elem_eq(a, b):
    return {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}

def elem_degree(a):
    degs = {k[0] for k, v in a.items() if v}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous element across degrees {sorted(degs)}")
    return degs.pop()


def elem_product(field, table, left: dict, right: dict) -> dict:
    """The bilinear product of two elements through ``table``, which maps
    a pair of basis keys (kl, kr) to their product {index: scalar} in
    degree |kl| + |kr|; a missing pair is a zero product."""
    out = {}
    for kl, vl in left.items():
        for kr, vr in right.items():
            prod = table.get((kl, kr))
            if not prod:
                continue
            c = field.mul(vl, vr)
            deg = kl[0] + kr[0]
            for i, w in prod.items():
                field.accumulate(out, (deg, i), field.mul(c, w))
    return out


# the stored table of a triple or pair with no nonzero entry; never written
_NO_TABLE = {}


class Table:
    """Structure data by key, read as ``table(*key)``.

    Given a dict, the table stores it as it is: a missing key reads as
    ``empty`` and is never written.  Given a function, it computes a
    key's value as ``fill(*key)`` on the key's first read and keeps it
    in ``stored``."""

    __slots__ = ("stored", "fill", "empty")

    def __init__(self, given, empty=_NO_TABLE):
        self.stored, self.fill = ({}, given) if callable(given) else (given, None)
        self.empty = empty

    def __call__(self, *key):
        value = self.stored.get(key)
        if value is None:
            if self.fill is None:
                return self.empty
            value = self.stored[key] = self.fill(*key)
        return value

    def full(self, keys) -> dict:
        """The full view: the given dict; or else the value of every key
        in ``keys``, in that order, leaving out empty tables.  The first
        call on a function computes them all and stores them."""
        if self.fill is not None:
            self.stored = {key: value for key in keys if (value := self(*key))}
            self.fill = None
        return self.stored


class DgCategory:
    """A finite dg category over an exact field.

    Data: ordered objects, a bounded finite-dimensional hom complex per
    ordered pair, composition structure constants and a chosen closed
    degree-0 unit per object.

    ``hom(x, y)`` is the hom complex of one pair, a ``Table`` of
    ``homs``: the dict of the complexes by pair (a missing pair is zero)
    or a function of one pair (``opposite``, ``tensor``).  The ``homs``
    property is the full view.

    ``products(x, y, z)`` is the product table of one triple, a
    ``Table`` of ``comp``: the dict of the nonempty tables by triple
    (the ``.dg`` loader, ``realize``) or a function of one triple
    (``opposite``, ``tensor``).  A product table maps a pair of basis
    keys ((dg, ig), (df, if)) with g in hom(y, z) and f in hom(x, y) to
    the element g.f of hom(x, z) as {index: scalar}; missing entries are
    zero products.  The ``comp`` property is the full view.  Tables are
    clean (no empty table or product, no zero scalar; the loader and
    ``realize`` drop what would be empty) and read-only: ``opposite``
    and ``tensor`` share products with their inputs.
    """

    # not a field: the BarPlan, made on the first bar_plan call
    _bar_plan = None
    # not a field: the category this one is the ``opposite`` of
    op_source = None

    def __init__(self, field: FieldSpec, objects, homs, comp, units,
                 name: str = "", closed: bool = True):
        self.field = field
        self.objects = tuple(objects)
        self.hom = Table(homs, ChainComplex(field, {}, {}))
        self.products = Table(comp)
        self.units = dict(units)
        self.name = name
        self.closed = closed
        for x in self.objects:
            if x not in self.units:
                raise ValueError(f"missing unit for object {x!r}")

    @property
    def comp(self) -> dict:
        """Every nonempty product table by triple."""
        return self.products.full(itertools.product(self.objects, repeat=3))

    @property
    def homs(self) -> dict:
        """The hom complexes by pair."""
        return self.hom.full(itertools.product(self.objects, repeat=2))

    def unit(self, x) -> dict:
        return self.units[x]

    def total_dim(self) -> int:
        return sum(c.total_dim() for c in self.homs.values())

    def compose_elems(self, x, y, z, g: dict, f_elem: dict) -> dict:
        """g.f for g in hom(y,z), f in hom(x,y); bilinear in both."""
        return elem_product(self.field, self.products(x, y, z), g, f_elem)

    def unit_key(self, x):
        """The (deg, idx) key when the unit is a single basis element of
        coefficient 1, else None."""
        u = {k: v for k, v in self.unit(x).items() if v}
        if len(u) != 1:
            return None
        (key, v), = u.items()
        if key[0] != 0 or v != self.field.one():
            return None
        return key

    def unit_is_basis(self) -> bool:
        return None not in self.bar_plan().unit_keys.values()

    def bar_plan(self) -> BarPlan:
        """The category's BarPlan, built on the first call."""
        if self._bar_plan is None:
            self._bar_plan = BarPlan(self)
        return self._bar_plan

    # -- equality on stored data --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DgCategory):
            return NotImplemented
        pairs = list(itertools.product(self.objects, repeat=2))
        return (self.field == other.field and self.objects == other.objects
                and [(self.hom(*p).spaces, self.hom(*p).diffs) for p in pairs]
                    == [(other.hom(*p).spaces, other.hom(*p).diffs) for p in pairs]
                and self.comp == other.comp and self.units == other.units)

    def __repr__(self):
        tag = self.name or f"{len(self.objects)} objects, dim {self.total_dim()}"
        return f"DgCategory({tag})"


def _bounds(degrees):
    """(min, max) of the degrees, None when there are none."""
    degs = list(degrees)
    return (min(degs), max(degs)) if degs else None


def _longest_path(edges):
    """Max length of a path in the digraph, or None if it has a cycle."""
    memo = {}
    onstack = set()

    def depth(x):
        if x in onstack:
            raise ValueError("cycle")
        if x not in memo:
            onstack.add(x)
            memo[x] = max((1 + depth(y) for y in edges.get(x, ())), default=0)
            onstack.discard(x)
        return memo[x]

    try:
        return max((depth(x) for x in edges), default=0)
    except ValueError:
        return None


def bar_degree_cap(outer, inner, max_bar, t_lo, t_hi):
    """Largest bar degree m whose chains can reach a total degree in
    t_lo - 1 .. t_hi + 1, or None when nothing bounds it.

    A bar-m chain has outer factors of total degree in ``outer`` and m
    middle factors of degree in ``inner``, each middle factor lowering
    the total degree by one; ``max_bar`` caps m when chains vanish beyond
    it (None: no cap).  With no outer factors there are no chains."""
    if outer is None:
        return 0
    if inner is None:
        cap = 0
    elif inner[1] <= 0:
        # the total degree falls by at least 1 - inner[1] per bar degree
        cap = max(0, (outer[1] - t_lo + 1) // (1 - inner[1]))
    elif inner[0] >= 2:
        # ... or rises by at least inner[0] - 1
        cap = max(0, (t_hi + 1 - outer[0]) // (inner[0] - 1))
    else:
        cap = None
    if max_bar is None:
        return cap
    return max_bar if cap is None else min(cap, max_bar)


class BarPlan:
    """What the normalized bars over a category need, computed once per
    category (``DgCategory.bar_plan``): both bar engines and every
    bar-degree certificate read it.

    ``shapes[(x, y)]`` is the dimension by degree of hom(x, y), for the
    nonzero pairs in object order; ``unit_keys[x]`` the unit key of x
    (None when the unit is not a basis element); ``nonunit(x, y)``, a
    ``Table`` listed on its first read, the basis keys of hom(x, y) in
    order, minus the unit key of a loop: the middle factors of a
    normalized bar; ``succ[x]`` the objects y with a non-unit key in hom(x, y), in
    object order: the non-unit digraph; ``max_bar`` its longest path
    (normalized chains vanish beyond it), None when it has a cycle;
    ``inner`` and ``outer`` the (min, max) degrees of the non-unit keys
    and of all keys; ``differential`` whether any hom complex has a
    nonzero differential (the bars skip their internal differential
    when none has).

    A tensor category is planned from its factors' plans: its nonzero
    pairs are the choices of a nonzero pair in every factor, with the
    convolution of their shapes, and it has a differential when a factor
    has one.  So its plan builds no hom complex but the loops its unit
    keys read."""

    def __init__(self, a: DgCategory):
        self.unit_keys = {x: a.unit_key(x) for x in a.objects}
        info = getattr(a, "_tensor", None)
        if info is None:
            self.shapes = {p: {d: len(labels) for d, labels in c.spaces.items()}
                           for p in itertools.product(a.objects, repeat=2)
                           if (c := a.hom(*p)).spaces}
            self.differential = any(a.hom(*p).diffs for p in self.shapes)
        else:
            plans = [c.bar_plan() for c in info.factors]
            # per factor, the objects y with hom(x, y) nonzero, by x
            nonzero = [{} for _ in plans]
            for targets, plan in zip(nonzero, plans):
                for x, y in plan.shapes:
                    targets.setdefault(x, []).append(y)
            self.shapes = {}
            for x in a.objects:
                for y in itertools.product(*[t.get(xi, ()) for t, xi in zip(nonzero, x)]):
                    shape = {0: 1}
                    for plan, xi, yi in zip(plans, x, y):
                        conv = {}
                        for d, n in shape.items():
                            for e, m in plan.shapes[(xi, yi)].items():
                                conv[d + e] = conv.get(d + e, 0) + n * m
                        shape = conv
                    self.shapes[(x, y)] = shape
            self.differential = bool(self.shapes) and any(p.differential for p in plans)
        self.nonunit = Table(self._nonunit)
        self.succ = {x: [] for x in a.objects}
        inner = []
        for (x, y), shape in self.shapes.items():
            # the unit key is one key of degree 0
            degrees = [d for d, n in shape.items()
                       if x != y or d or n > 1 or self.unit_keys[x] is None]
            if degrees:
                self.succ[x].append(y)
                inner += degrees
        self.max_bar = _longest_path(self.succ)
        self.inner = _bounds(inner)
        self.outer = _bounds(d for shape in self.shapes.values() for d in shape)

    def _nonunit(self, x, y):
        shape = self.shapes.get((x, y), {})
        unit = self.unit_keys[x] if x == y else None
        return [(d, i) for d in sorted(shape) for i in range(shape[d]) if (d, i) != unit]

    def walks(self, m: int, starts, ends):
        """The walks (x_0, ..., x_m) of the non-unit digraph from
        ``starts`` into ``ends``, in the lexicographic order of the
        objects.  A walk grows only towards objects that reach ``ends``
        in the steps left, so the cost follows the walks listed."""
        # reach[k]: the objects with a walk of k steps into ends
        reach = [set(ends)]
        for _ in range(m):
            reach.append({x for x, ys in self.succ.items() if not reach[-1].isdisjoint(ys)})
        layer = [(x,) for x in self.succ if x in starts and x in reach[m]]
        for k in range(m - 1, -1, -1):
            live = reach[k]
            layer = [w + (y,) for w in layer for y in self.succ[w[-1]] if y in live]
        return layer

    def bound_for_window(self, t_lo: int, t_hi: int):
        """Largest bar degree of a normalized cyclic bar chain that can
        reach total degrees t_lo - 1 .. t_hi + 1, or None if unbounded."""
        return bar_degree_cap(self.outer, self.inner, self.max_bar, t_lo, t_hi)

    def bar_bound(self, t_lo: int, t_hi: int, mixed: bool = False) -> int:
        """The automatic bar bound: where a normalized cyclic bar is cut
        for homology in total degrees t_lo .. t_hi.  ``bound_for_window``,
        plus one for the mixed complex (``mixed``: B raises the bar
        degree by one), at least 1, or 2 for the mixed complex.  With no
        provable bound it is 1 - t_lo, and every degree the window reads
        is then ``truncated``."""
        cap = self.bound_for_window(t_lo, t_hi)
        if cap is None:
            return max(1 + mixed, 1 - t_lo)
        return max(1 + mixed, cap + mixed)

    def two_sided_bound(self, x_bounds, y_bounds, t_lo: int, t_hi: int):
        """Largest bar degree of a two-sided bar chain over this category
        that can reach total degrees t_lo - 1 .. t_hi + 1, between modules
        whose values have degree bounds ``x_bounds`` and ``y_bounds``
        (None: no value), or None if unbounded.  Every middle factor is a
        non-unit key, so ``inner`` bounds its degree."""
        if x_bounds is None or y_bounds is None:
            return 0
        return bar_degree_cap((x_bounds[0] + y_bounds[0], x_bounds[1] + y_bounds[1]),
                              self.inner, self.max_bar, t_lo, t_hi)

    def status(self, t: int, bar_bound: int) -> str:
        """"exact" when homology at total degree t is unaffected by
        truncating the normalized cyclic bar at bar_bound, else
        "truncated"."""
        cap = self.bound_for_window(t, t)
        return "exact" if cap is not None and cap <= bar_bound else "truncated"

    def chain_support(self):
        """(floor, top): normalized cyclic bar chains, hence HH_n, vanish
        in homological degrees n < floor and n > top; top is None when no
        finite bound is provable.  A bar-m chain sits in degree m minus
        its internal degree (outer plus m inner key degrees), linear in
        m, so both ends are taken at m = 0 or m = max_bar.  With a
        non-unit cycle (max_bar None) floor counts bar degree 0 only:
        any chi computed over that window is bound_limited already."""
        if self.outer is None:
            return 0, 0
        o_lo, o_hi = self.outer
        # no inner key means no non-unit edge, so max_bar is 0 there
        i_lo, i_hi = self.inner or (1, 1)
        m = self.max_bar or 0
        floor = min(0, -o_hi + m * min(0, 1 - i_hi))
        top = None if self.max_bar is None else -o_lo + m * max(0, 1 - i_lo)
        return floor, top


# ---------------------------------------------------------------------------
# validation

class ValidationReport:
    def __init__(self):
        self.violations = []

    def add(self, axiom, location, detail=""):
        self.violations.append((axiom, location, detail))

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        lines = [f"{a} at {loc}: {d}" for a, loc, d in self.violations[:12]]
        more = len(self.violations) - len(lines)
        if more > 0:
            lines.append(f"... and {more} more")
        return "ValidationReport(\n  " + "\n  ".join(lines) + "\n)"


def validate(a: DgCategory) -> ValidationReport:
    """Exhaustive axiom check over basis tuples: d^2, Leibniz,
    associativity, units.  Violations are reported, not raised."""
    rep = ValidationReport()
    f = a.field
    for (x, y), c in a.homs.items():
        for d in c.support():
            if c.dim(d) and c.dim(d + 1) and c.dim(d + 2):
                m = c.diff(d + 1).mul(c.diff(d))
                if not m.is_zero():
                    rep.add("d^2=0", (x, y, d), f"{len(m.entries)} nonzero entries")
    for x in a.objects:
        u = a.unit(x)
        if elem_degree(u) not in (0, None):
            rep.add("unit degree", (x,), "unit not concentrated in degree 0")
        if a.hom(x, x).d_elem(u):
            rep.add("unit closed", (x,), "d(unit) != 0")
    # Leibniz: d(g.f) = (dg).f + (-1)^{|g|} g.(df)
    for (x, y, z) in itertools.product(a.objects, repeat=3):
        for kg in a.hom(y, z).basis_keys():
            g = {kg: f.one()}
            dg = a.hom(y, z).d_elem(g)
            sign = f.sign(kg[0])
            for kf in a.hom(x, y).basis_keys():
                fe = {kf: f.one()}
                lhs = a.hom(x, z).d_elem(a.compose_elems(x, y, z, g, fe))
                rhs = a.compose_elems(x, y, z, dg, fe)
                for k, v in a.compose_elems(x, y, z, g, a.hom(x, y).d_elem(fe)).items():
                    f.accumulate(rhs, k, f.mul(sign, v))
                if not elem_eq(lhs, rhs):
                    rep.add("Leibniz", (x, y, z, kg, kf))
    # associativity on basis triples
    for (w, x, y, z) in itertools.product(a.objects, repeat=4):
        for kh in a.hom(y, z).basis_keys():
            h = {kh: f.one()}
            for kg in a.hom(x, y).basis_keys():
                g = {kg: f.one()}
                hg = a.compose_elems(x, y, z, h, g)
                for kf in a.hom(w, x).basis_keys():
                    fe = {kf: f.one()}
                    lhs = a.compose_elems(w, x, z, hg, fe)
                    rhs = a.compose_elems(w, y, z, h, a.compose_elems(w, x, y, g, fe))
                    if not elem_eq(lhs, rhs):
                        rep.add("associativity", (w, x, y, z, kh, kg, kf))
    # unit law
    for (x, y) in itertools.product(a.objects, repeat=2):
        uy, ux = a.unit(y), a.unit(x)
        for kf in a.hom(x, y).basis_keys():
            fe = {kf: f.one()}
            if not elem_eq(a.compose_elems(x, y, y, uy, fe), fe):
                rep.add("unit axiom", (x, y, kf), "left unit")
            if not elem_eq(a.compose_elems(x, x, y, fe, ux), fe):
                rep.add("unit axiom", (x, y, kf), "right unit")
    return rep


# ---------------------------------------------------------------------------
# opposite and tensor

def opposite(a: DgCategory) -> DgCategory:
    """Same objects, hom(x,y) := a.hom(y,x), composition transposed with
    the Koszul sign (-1)^{|f||g|}: the table of (x, y, z) is computed
    from ``a.products(z, y, x)`` on its first read, and the hom pair on
    its first read too.

    The opposite of a tensor category A_1 (x) .. (x) A_n is
    A_1^op (x) .. (x) A_n^op key tuple for key tuple and sign for sign,
    so it keeps the tensor bookkeeping: every hom pair reversed and each
    factor replaced by its opposite.  ``op_source`` of the result is a,
    so a reader can tell an opposite(a) without comparing tables."""
    f = a.field
    minus = f.sign(1)

    def products(x, y, z):
        # kf in a.hom(y,x) composed after kg in a.hom(z,y) gives, for g in
        # op-hom(y,z) and f in op-hom(x,y), g .op f := (-1)^{|f||g|} f .a g;
        # a product with sign +1 is shared with a
        return {(kg, kf): elem_scale(f, minus, prod) if kf[0] * kg[0] & 1 else prod
                for (kf, kg), prod in a.products(z, y, x).items()}

    out = DgCategory(f, a.objects, lambda x, y: a.hom(y, x), products, dict(a.units),
                     name=f"op({a.name})" if a.name else "", closed=a.closed)
    out.op_source = a
    info = getattr(a, "_tensor", None)
    if info is not None:
        out._tensor = TensorInfo((opposite(c) for c in info.factors), lambda x, y: info.pair(y, x))
    return out


class TensorInfo:
    """Basis bookkeeping of a tensor category (``tensor``).  ``pair(x, y)``
    is (hom(x, y), its key tuples over the factors by degree, the flat
    key (degree, index) of each key tuple), a ``Table`` of the function
    ``pair``; the key tuples list the hom basis in order."""

    def __init__(self, factors, pair):
        self.factors = tuple(factors)
        self.pair = Table(pair)


def tensor(*cats: DgCategory) -> DgCategory:
    """Tensor product of dg categories: objects are tuples, hom complexes
    are tensor products of the factors' hom complexes, with Koszul signs
    in differential and composition.  A hom complex and its basis
    bookkeeping (``TensorInfo``, for module builders) are built on the
    first read of the pair; the product table of a triple is computed
    on its first read, from the factors' tables at (x_i, y_i, z_i), in
    the order of the basis pairs (g, f), g slowest.  Its BarPlan comes
    from the factors' plans."""
    if not cats:
        raise ValueError("tensor of no categories")
    field = cats[0].field
    for c in cats[1:]:
        if c.field != field:
            raise ValueError("field mismatch in tensor")
    objects = list(itertools.product(*(c.objects for c in cats)))
    zero = ChainComplex(field, {}, {}), {}, {}

    def pair(x, y):
        factors = [c.hom(xi, yi) for c, xi, yi in zip(cats, x, y)]
        # a hom pair with a zero factor is zero
        if not all(h.spaces for h in factors):
            return zero
        hom = tensor_complex(field, factors)
        keys = hom.spaces
        # the labels are tuples of factor labels, as grammar.dumps prints them
        hom.spaces = {d: tuple(tuple([c.spaces[k[0]][k[1]] for c, k in zip(factors, combo)])
                               for combo in lst)
                      for d, lst in keys.items()}
        return hom, keys, {k: (d, i) for d, lst in keys.items() for i, k in enumerate(lst)}

    info = TensorInfo(cats, pair)
    signs = (field.one(), field.of_int(-1))

    def place(x, y):
        # the flat key of each key tuple of hom(x, y), and the place in its
        # basis order of the first key of each degree
        _, keys, index = info.pair(x, y)
        return index, dict(zip(keys, itertools.accumulate(map(len, keys.values()), initial=0)))

    def products(x, y, z):
        # a nonzero product of the tensor is a choice of a nonzero product
        # (kg, kf, terms) in every factor's table at (x_i, y_i, z_i), terms
        # the (key, scalar) pairs of kg.kf
        tables = []
        for c, xi, yi, zi in zip(cats, x, y, z):
            table = c.products(xi, yi, zi)
            if not table:
                return {}
            tables.append([(kg, kf, [((kg[0] + kf[0], ih), v) for ih, v in prod.items()])
                           for (kg, kf), prod in table.items()])
        (index_g, start_g), (index_f, start_f) = place(y, z), place(x, y)
        index = info.pair(x, z)[2]
        out = []
        for parts in itertools.product(*tables):
            g, f, terms = zip(*parts)
            kg, kf = index_g[g], index_f[f]
            # the Koszul sign of g_j crossing f_i, i < j
            sign_exp = f_deg = 0
            for gi, fi in zip(g, f):
                sign_exp += gi[0] * f_deg
                f_deg += fi[0]
            prod = {}
            # distinct choices of terms are distinct keys: nothing cancels
            for combo in itertools.product(*terms):
                val = signs[sign_exp & 1]
                for _, v in combo:
                    val = field.mul(val, v)
                prod[index[tuple([k for k, _ in combo])][1]] = val
            out.append((start_g[kg[0]] + kg[1], start_f[kf[0]] + kf[1], (kg, kf), prod))
        # in the order of the places of (g, f) in the basis orders, g
        # slowest; the places are unique, so the sort never compares past them
        out.sort()
        return {gf: prod for _, _, gf, prod in out}

    units = {}
    for x in objects:
        units[x] = expansion = {}
        index = info.pair(x, x)[2]
        for combo in itertools.product(*[c.unit(xi).items() for c, xi in zip(cats, x)]):
            val = field.one()
            for _, v in combo:
                val = field.mul(val, v)
            field.accumulate(expansion, index[tuple([k for k, _ in combo])], val)
    name = " (x) ".join(c.name or "?" for c in cats)
    out = DgCategory(field, objects, lambda x, y: info.pair(x, y)[0], products, units, name=name,
                     closed=all(c.closed for c in cats))
    out._tensor = info
    return out


def tensor_info(cat: DgCategory) -> TensorInfo:
    info = getattr(cat, "_tensor", None)
    if info is None:
        raise ValueError("category does not carry tensor bookkeeping")
    return info
