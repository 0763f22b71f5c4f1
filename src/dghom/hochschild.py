"""The cyclic bar complex: Hochschild homology, shuffle product, traces.

Chains at bar degree m are tuples (f_m, ..., f_0) over object loops
x_0 -> x_1 -> ... -> x_m -> x_0, with f_j: x_j -> x_{j+1} for j < m and
the wrap-around f_m: x_m -> x_0.  Faces compose adjacent factors; the
wrap-around face carries the full Koszul sign of rotating f_0 to the
front:

    d_i(f_m, ..., f_0) = (f_m, ..., f_i . f_{i-1}, ..., f_0)   1 <= i <= m
    d_0(f_m, ..., f_0) = (-1)^{|f_0|(|f_1|+...+|f_m|)} (f_0 . f_m, f_{m-1}, ..., f_1)

and b = sum_i (-1)^i d_i.  (The face signs are pinned by the simplicial
identities and b^2 = 0, which the test suite checks exhaustively at low
bar degree; see the README's conventions section.)

The normalized complex quotients the degeneracy images: inner factors
(all but the leftmost) range over non-unit basis elements, which
requires the category to have unit basis vectors.  The total complex is
cohomological with deg(chain) = (internal degree) - (bar degree); the
reported HH_n is homology in total degree -n.
"""

from __future__ import annotations

import itertools

from .exactfield import homology_quotient, operator_complex
from .dgcore import DgCategory, tensor, tensor_info
from .monomial import HochschildError


def _require_unit_basis(a: DgCategory):
    if not a.unit_is_basis():
        raise HochschildError(
            "normalized cyclic bar chains need every unit to be a basis element "
            "with coefficient 1 (all built-in constructors guarantee this)")


def _require_closed(a: DgCategory):
    if not a.closed:
        raise HochschildError("refusing a truncated realization; homology needs a closed one")


class CyclicBar:
    """Normalized cyclic bar chains of a category up to a bar bound.

    The inner factors (every slot but the wrap-around one) range over
    non-unit basis elements; they, their digraph and the unit keys come
    from the category's BarPlan.  A category whose units are not basis
    vectors is refused."""

    # read by perfbench/tracer.py, which counts chains per kind of bar
    normalized = True

    def __init__(self, a: DgCategory, bar_bound: int):
        _require_closed(a)
        _require_unit_basis(a)
        self.a = a
        self.bar_bound = bar_bound
        self.field = a.field
        plan = a.bar_plan()
        self.differential = plan.differential
        self.unit_keys = plan.unit_keys
        # chains in enumeration order: walks, then the product of the slot bases
        self.keys_by_bar = {m: list(self._enumerate(m, plan)) for m in range(bar_bound + 1)}

    def _enumerate(self, m, plan):
        a = self.a
        for x0 in a.objects:
            # inner walk x_0 -> ... -> x_m along the non-unit digraph, ending
            # where the wrap-around f_m: x_m -> x_0 has a basis key
            back = {y for y in a.objects if a.hom(y, x0).spaces}
            for objs in plan.walks(m, (x0,), back):
                inner_lists = [plan.nonunit[(objs[j], objs[j + 1])] for j in range(m)]
                for kf_m in a.basis_keys(objs[m], x0):
                    # tuple order (f_m, f_{m-1}, ..., f_0)
                    for inner_keys in itertools.product(*reversed(inner_lists)):
                        yield (objs, (kf_m,) + inner_keys)

    # -- degree bookkeeping ---------------------------------------------

    @staticmethod
    def bar_degree(key):
        return len(key[1]) - 1

    @staticmethod
    def internal_degree(key):
        return sum(k[0] for k in key[1])

    @classmethod
    def total_degree(cls, key):
        return cls.internal_degree(key) - cls.bar_degree(key)

    def _hom_pair(self, key, pos):
        """Source/target objects of the factor at tuple position pos
        (0 = leftmost = wrap-around)."""
        objs, keys = key
        m = len(keys) - 1
        if pos == 0:
            return objs[m], objs[0]
        j = m - pos  # the factor f_j
        return objs[j], objs[j + 1]

    def face(self, key, i) -> dict:
        """Face d_i (wrap-around at i = 0) as a combination of chains one
        bar degree down, without the alternating-sum sign.

        The product is read from the composition table.  Only the
        composed slot can be degenerate: the other inner factors
        keep their objects and were non-unit already."""
        objs, keys = key
        m = len(keys) - 1
        if m == 0:
            raise ValueError("no faces on bar degree 0")
        f = self.field
        if i == 0:
            # rotate f_0 to the front with the full Koszul sign, compose with f_m
            x, y, z = objs[m], objs[0], objs[1]
            kg, kf = keys[m], keys[0]
            new_objs = objs[1:]
            head, tail = (), keys[1:m]
            flip = (kg[0] * (sum(k[0] for k in keys) - kg[0])) & 1
        else:
            # compose f_i . f_{i-1}, at tuple positions m-i, m-i+1
            pos = m - i
            x, y, z = objs[i - 1], objs[i], objs[(i + 1) % (m + 1)]
            kg, kf = keys[pos], keys[pos + 1]
            new_objs = objs[:i] + objs[i + 1:]
            head, tail = keys[:pos], keys[pos + 2:]
            flip = 0
        prod = self.a.products(x, y, z).get((kg, kf))
        if not prod:
            return {}
        deg = kg[0] + kf[0]
        unit = self.unit_keys.get(x) if (head and x == z) else None
        return {(new_objs, head + ((deg, ih),) + tail): f.neg(w) if flip else w
                for ih, w in prod.items() if (deg, ih) != unit}

    def b_of(self, key) -> dict:
        f = self.field
        m = self.bar_degree(key)
        if m == 0:
            return {}
        out = {}
        for i in range(m + 1):
            for k2, v in self.face(key, i).items():
                f.accumulate(out, k2, f.neg(v) if i & 1 else v)
        return out

    def dint_of(self, key) -> dict:
        """Internal differential, Koszul signs accumulated from the left.

        Columns come from the hom complexes' differentials; only the
        differentiated slot can become degenerate."""
        f = self.field
        objs, keys = key
        m = len(keys) - 1
        out = {}
        acc = 0
        for pos in range(m + 1):
            x, y = self._hom_pair(key, pos)
            col = self.a.hom(x, y).d_of(keys[pos])
            if col:
                unit = self.unit_keys.get(x) if (pos and x == y) else None
                head, tail = keys[:pos], keys[pos + 1:]
                # one slot changes per term, so no two terms share a key
                for k2, v in col:
                    if k2 != unit:
                        out[(objs, head + (k2,) + tail)] = f.neg(v) if acc & 1 else v
            acc += keys[pos][0]
        return out

    def total_diff_of(self, key) -> dict:
        """D = b + (-1)^m d_int, raising total cohomological degree by 1;
        d_int is skipped on a category with no differential."""
        f = self.field
        m = self.bar_degree(key)
        out = self.b_of(key)
        if not self.differential:
            return out
        for k2, v in self.dint_of(key).items():
            f.accumulate(out, k2, f.neg(v) if m & 1 else v)
        return out

    def chains_by_total(self) -> dict:
        """Chain keys per total degree, each degree in enumeration order."""
        out = {}
        for keys in self.keys_by_bar.values():
            for k in keys:
                out.setdefault(self.total_degree(k), []).append(k)
        return out

    def total_complex(self):
        """The sum-total complex over assembled bar degrees, with the chain
        keys as basis labels, plus the chain-key table per total degree.
        D never raises the bar degree, so no image leaves the assembly."""
        by_t = self.chains_by_total()
        return operator_complex(self.field, by_t, self.total_diff_of), by_t


# ---------------------------------------------------------------------------
# degree-0 Chern character: the trace map into HH_0

class Ch0Class:
    def __init__(self, field, coords, basis_dim):
        self.field = field
        self.coords = list(coords)
        self.basis_dim = basis_dim

    def __eq__(self, other):
        return isinstance(other, Ch0Class) and self.coords == other.coords

    def __add__(self, other):
        if self.basis_dim != other.basis_dim:
            raise ValueError("classes in different quotients")
        return Ch0Class(self.field,
                        [self.field.add(a, b) for a, b in zip(self.coords, other.coords)],
                        self.basis_dim)

    def is_zero(self):
        return not any(self.coords)

    def __repr__(self):
        return f"Ch0Class({self.coords})"


def ch0(a: DgCategory, x, e) -> Ch0Class:
    """Class of the trace of an idempotent matrix in HH_0.

    ``e`` is a square matrix (list of lists) of elements of hom(x, x),
    each a dict {(0, basis index): scalar} of closed degree-0
    endomorphisms; e must satisfy e.e = e entrywise.
    """
    f = a.field
    n = len(e)
    for row in e:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(n):
            for (d, _), v in e[i][j].items():
                if v and d != 0:
                    raise ValueError("matrix entries must be of degree 0")
            if a.d_elem(x, x, e[i][j]):
                raise ValueError("matrix entries must be closed")
    for i in range(n):
        for j in range(n):
            acc = {}
            for k in range(n):
                for kk, v in a.compose_elems(x, x, x, e[i][k], e[k][j]).items():
                    f.accumulate(acc, kk, v)
            if not acc == {kk: v for kk, v in e[i][j].items() if v}:
                raise ValueError("matrix is not idempotent")
    plan = a.bar_plan()
    bar_bound = plan.bar_bound(-1, 0)
    total, _ = CyclicBar(a, bar_bound).total_complex()
    if plan.status(0, bar_bound) != "exact":
        raise HochschildError("HH_0 not exactly computable for this category")
    dim, _, project = homology_quotient(total.diff(-1), total.diff(0))
    index0 = {k: i for i, k in enumerate(total.labels(0))}
    trace = {}
    for i in range(n):
        for k, v in e[i][i].items():
            f.accumulate(trace, k, v)
    vec = {}
    for (d, idx), v in trace.items():
        key = ((x,), ((d, idx),))
        vec[index0[key]] = v
    return Ch0Class(f, project(vec), dim)


# ---------------------------------------------------------------------------
# shuffle product

class ShuffleMap:
    """The Eilenberg-Zilber shuffle sh: HH(a) (x) HH(b) -> HH(a (x) b),
    restricted to a total-degree window, with a machine-checked
    chain-map certificate.

    Crossing an inner a-factor u past an inner b-factor v contributes
    the suspended Koszul sign (-1)^{(|u|-1)(|v|-1)}; moving the outer
    b-factor past the inner a-block contributes
    (-1)^{|g_q| sum(|a_i|-1)}.
    """

    def __init__(self, a: DgCategory, b: DgCategory, window, bar_bound_a=None, bar_bound_b=None):
        if a.field != b.field:
            raise ValueError("field mismatch")
        self.a, self.b = a, b
        self.field = a.field
        self.window = window
        t_lo, t_hi = window
        pa = a.bar_plan().bound_for_window(t_lo, t_hi + 1)
        pb = b.bar_plan().bound_for_window(t_lo, t_hi + 1)
        if pa is None or pb is None:
            if bar_bound_a is None or bar_bound_b is None:
                raise HochschildError("window not certifiable; pass explicit bar bounds")
            pa, pb = bar_bound_a, bar_bound_b
        self.bar_a = CyclicBar(a, pa)
        self.bar_b = CyclicBar(b, pb)
        self.ab = tensor(a, b)
        self.info = tensor_info(self.ab)
        # operator carrier only; chains of the target are produced by apply_pair
        self.bar_ab = CyclicBar(self.ab, 0)
        self.certificate_checked = False

    def _pair_hom_key(self, xa, ya, ka, xb, yb, kb):
        """Flat key of ka (x) kb in the tensor category."""
        return self.info.pair((xa, xb), (ya, yb))[2][(ka, kb)]

    def apply_pair(self, key_a, key_b) -> dict:
        """sh on a pair of chains; output {ab-chain key: scalar}.

        Chains are traversed diagrammatically (rightmost tuple entry
        first), so the first a-step is f_0; the shuffle's inversion
        count pairs each b-step with the a-steps already traversed."""
        f = self.field
        objs_a, keys_a = key_a
        objs_b, keys_b = key_b
        p = len(keys_a) - 1
        q = len(keys_b) - 1
        out = {}
        a_inner = [keys_a[p - j] for j in range(p)]          # f_0 .. f_{p-1}
        b_inner = [keys_b[q - j] for j in range(q)]
        # outer: g_q crosses the inner a-block; p*q is the conjugation
        # between the wrap-at-front face indexing used here and the
        # standard one; int(a)*bar(b) is the totalization interchange
        # for simplicial objects in complexes
        int_a = sum(k[0] for k in keys_a)
        outer_sign_exp = (keys_b[0][0] * sum(k[0] for k in a_inner)
                          + p * q + int_a * q)
        uk_a, uk_b = self.bar_a.unit_keys, self.bar_b.unit_keys
        for positions in itertools.combinations(range(p + q), p):
            posset = set(positions)
            sign_exp = outer_sign_exp
            ai = bi = 0
            xi = yi = 0
            a_seen = 0
            a_deg_seen = 0
            factors = []   # traversal order
            for s in range(p + q):
                if s in posset:
                    ka = a_inner[ai]
                    src_a = objs_a[xi]
                    xi += 1
                    factors.append((ka, uk_b[objs_b[yi]], (src_a, objs_b[yi]),
                                    (objs_a[xi], objs_b[yi])))
                    a_seen += 1
                    a_deg_seen += ka[0]
                    ai += 1
                else:
                    # an a-step traversed earlier sits later in the output
                    # tuple: an inverted pair, contributing the shuffle sign
                    # and the internal Koszul sign
                    kb = b_inner[bi]
                    sign_exp += a_seen + kb[0] * a_deg_seen
                    src_b = objs_b[yi]
                    yi += 1
                    factors.append((uk_a[objs_a[xi]], kb, (objs_a[xi], src_b),
                                    (objs_a[xi], objs_b[yi])))
                    bi += 1
            objs_ab = tuple((objs_a[i], objs_b[j]) for i, j in _staircase(positions, p, q))
            keys = [self._pair_hom_key(objs_a[p], objs_a[0], keys_a[0],
                                       objs_b[q], objs_b[0], keys_b[0])]
            for (ka, kb, src, tgt) in reversed(factors):
                keys.append(self._pair_hom_key(src[0], tgt[0], ka, src[1], tgt[1], kb))
            chain = (objs_ab, tuple(keys))
            f.accumulate(out, chain, f.sign(sign_exp))
        return out

    def check_certificate(self):
        """Verify sh(D(x (x) y)) = D(sh(x (x) y)) on every basis pair in
        the window; failure is an internal sign error, never user error."""
        f = self.field
        t_lo, t_hi = self.window
        checked = 0
        pairs = []
        chains_b = self.bar_b.chains_by_total()
        for ta, lst_a in self.bar_a.chains_by_total().items():
            for tb, lst_b in chains_b.items():
                if not (t_lo <= ta + tb <= t_hi):
                    continue
                for key_a in lst_a:
                    for key_b in lst_b:
                        pairs.append((key_a, key_b, ta))
        for key_a, key_b, ta in pairs:
            lhs = {}
            for k2, v in self.bar_a.total_diff_of(key_a).items():
                for kk, vv in self.apply_pair(k2, key_b).items():
                    f.accumulate(lhs, kk, f.mul(v, vv))
            sgn = f.sign(ta)
            for k2, v in self.bar_b.total_diff_of(key_b).items():
                for kk, vv in self.apply_pair(key_a, k2).items():
                    f.accumulate(lhs, kk, f.mul(f.mul(sgn, v), vv))
            rhs = {}
            for kk, vv in self.apply_pair(key_a, key_b).items():
                for k3, v3 in self.bar_ab.total_diff_of(kk).items():
                    f.accumulate(rhs, k3, f.mul(vv, v3))
            if lhs != rhs:
                raise HochschildError(
                    f"shuffle chain-map certificate failed on {key_a} (x) {key_b}; "
                    "this is an internal sign error")
            checked += 1
        self.certificate_checked = True
        return checked


def _staircase(positions, p, q):
    """Lattice path of (x-steps at 'positions') through a (p, q) grid,
    listed as the object coordinates (i, j) of the p+q+1 visited corners."""
    posset = set(positions)
    pts = [(0, 0)]
    i = j = 0
    for s in range(p + q):
        if s in posset:
            i += 1
        else:
            j += 1
        pts.append((i, j))
    return pts

