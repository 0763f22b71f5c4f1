"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own linear algebra and
sign conventions: dense Gaussian elimination, textbook bar complexes in
the a_0 (x) ... (x) a_n orientation, and direct convolution counting.
Two exceptions: `subspace_rank` checks `rank` against the library's
other elimination, the echelon-basis `Subspace`; and the bar
operator references at the end (`reference_face`, `reference_bar_diff`
and their companions) share the library's sign conventions but reach
every product, action and differential through the generic bilinear
calls on singleton elements, which the library's bar operators bypass;
`drop_degenerate` projects `reference_bar_diff` onto the normalized
chains by checking every middle slot.  `reference_triangle_modules`
keeps the triangle bimodules with spectator slots, which
`brute_bar_chain_keys` and `reference_bar_diff` bar with
left_spect/right_spect, against the library's one bar per object pair.
The bar-degree planners the library once kept per module,
`ReferenceContributionPlan` (with `reference_nonunit_degree_bounds`,
`reference_outer_degree_bounds` and `reference_longest_path_bound`) and
`reference_plan_bar_bound`, are references for `dgcore.BarPlan` and
`dgcore.bar_degree_cap`: they step through the bar degrees one at a
time where the library solves for the largest one.  So does
`reference_chain_support`, the two loops `BarPlan.chain_support`
replaced by its closed form.  The automatic bar bounds the commands
once derived each for itself (`auto_bar_bound`, `hc_auto_bar_bound`,
`reference_hp_bar_bound`, `reference_euler_hh_bar_bound`,
`reference_ch0_bar_bound`) are references for `BarPlan.bar_bound`.
`reference_smoothness_tor` computes the smoothness Tor over the
enveloping category a (x) a^op, with `semisimple_quotient_left_module`,
where the library bars over a alone.  `UnnormalizedCyclicBar` keeps
the cyclic bar with degenerate chains, which the library no longer
enumerates, on the library's face and differential code;
`unnormalized_exact_hh_dims` reads HH from it in the degrees its
truncation cannot reach; it walks the nonempty-hom digraph with
`walks` and `hom_graph`, the walk enumerator the library kept before
`BarPlan.walks`.  `reference_tensor` is the library's tensor before it
built the composition factor by factor; it and `reference_opposite` and
`reference_diagonal_action` fill every table in one eager pass, as the
library did before it computed a table on its first read.  `bprime_of` (b' summed from the
library's faces) and `external_tensor_module` (m (x) n over the tensor
of the bases, built on `dgmod.tensor_action`) are test helpers the
library no longer carries.  So are the functor section's `DgFunctor`, `validate_functor`,
`swap_functor` and `pullback_module`, the role-swap reference for the
twisted module of `euler_via_duality` (the diagonal pulled back along
the tensor swap), `restrict` (one slot of a diagonal bimodule fixed)
and `cyclic_operator` (the matrix of t on unnormalized bar chains);
they share the library's conventions.  `module_map_space` solves the
chain and Koszul-linearity conditions of a degree-n module map as one
linear system, a reference for `dgmod.yoneda_map`, which reads the maps
out of a representable from the cycles of the target; it takes its
kernel with the library's `kernel_basis`.
"""

import itertools

from dghom.cyclic import CyclicError, t_of_key
from dghom.dgcore import (DgCategory, TensorInfo, ValidationReport, bar_degree_cap, elem_eq,
                          tensor, tensor_info)
from dghom.dgmod import DgModule, ModuleMap, tensor_action
from dghom.exactfield import (FieldSpec, Matrix, homology_dims, kernel_basis, operator_matrix,
                               tensor_complex)
from dghom.hochschild import CyclicBar


def dense_rank(rows, field: FieldSpec) -> int:
    """Naive dense Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = field.inv(m[row][col])
        m[row] = [field.mul(inv, v) for v in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                c = m[r][col]
                m[r] = [field.sub(a, field.mul(c, b)) for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def subspace_rank(m) -> int:
    """Rank through the library's other elimination: insert every row
    into a `Subspace`, which reduces it in Fraction/F_p arithmetic and
    keeps a fully reduced basis.  An elimination independent of `rank`."""
    from dghom.exactfield import Subspace
    sp = Subspace(m.field)
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    for i in sorted(rows):
        sp.insert(rows[i])
    return sp.dim


def matrix_to_dense(m):
    z = m.field.zero()
    return [[m.entries.get((i, j), z) for j in range(m.cols)] for i in range(m.rows)]


def random_sparse_matrix(rng, field, rows, cols, density=0.4):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = field.of_int(rng.randrange(-3, 4))
                if v:
                    entries[(i, j)] = v
    from dghom.exactfield import Matrix
    return Matrix(field, rows, cols, entries)


# ---------------------------------------------------------------------------
# a degree-0 category as a plain multiplication table

class FlatAlgebra:
    """A degree-0 dg category flattened to basis elements with explicit
    source/target objects and a multiplication table; the textbook-side
    model for brute-force bar complexes."""

    def __init__(self, cat):
        self.field = cat.field
        self.objects = list(cat.objects)
        self.elems = []            # (x, y, index) meaning basis of hom(x,y)
        self.index = {}
        for (x, y) in itertools.product(cat.objects, repeat=2):
            c = cat.hom(x, y)
            assert set(c.support()) <= {0}
            for i in range(c.dim(0)):
                self.index[(x, y, i)] = len(self.elems)
                self.elems.append((x, y, i))
        self.mult = {}
        for (x, y, z) in itertools.product(cat.objects, repeat=3):
            table = cat.comp.get((x, y, z), {})
            for ((dg, ig), (df, if_)), prod in table.items():
                g = self.index[(y, z, ig)]
                f = self.index[(x, y, if_)]
                self.mult[(g, f)] = {self.index[(x, z, ih)]: v for ih, v in prod.items()}

    def source(self, e):
        return self.elems[e][0]

    def target(self, e):
        return self.elems[e][1]

    def compose(self, g, f):
        """g . f, for target(f) == source(g)."""
        return self.mult.get((g, f), {})


def brute_hochschild_dims(cat, n_max):
    """Unnormalized Hochschild homology dims of a degree-0 category via
    the textbook complex: chains a_0 (x) ... (x) a_n with
    a_i in A(x_{i+1}, x_i), differential
    b = sum_{i<n} (-1)^i (.. a_i a_{i+1} ..) + (-1)^n (a_n a_0, ..)."""
    alg = FlatAlgebra(cat)
    f = alg.field

    def chains(n):
        out = []
        for combo in itertools.product(range(len(alg.elems)), repeat=n + 1):
            ok = all(alg.source(combo[i]) == alg.target(combo[i + 1]) for i in range(n))
            ok = ok and alg.source(combo[n]) == alg.target(combo[0])
            if ok:
                out.append(combo)
        return out

    levels = {n: chains(n) for n in range(n_max + 2)}
    index = {n: {c: i for i, c in enumerate(lst)} for n, lst in levels.items()}

    def b_matrix(n):
        rows = len(levels[n - 1])
        cols = len(levels[n])
        dense = [[f.zero()] * cols for _ in range(rows)]
        for col, c in enumerate(levels[n]):
            for i in range(n):
                sgn = f.of_int((-1) ** i)
                for h, v in alg.compose(c[i], c[i + 1]).items():
                    newc = c[:i] + (h,) + c[i + 2:]
                    r = index[n - 1][newc]
                    dense[r][col] = f.add(dense[r][col], f.mul(sgn, v))
            sgn = f.of_int((-1) ** n)
            for h, v in alg.compose(c[n], c[0]).items():
                newc = (h,) + c[1:n]
                r = index[n - 1][newc]
                dense[r][col] = f.add(dense[r][col], f.mul(sgn, v))
        return dense

    dims = {}
    for n in range(n_max + 1):
        cn = len(levels[n])
        r_out = dense_rank(b_matrix(n), f) if n > 0 else 0
        r_in = dense_rank(b_matrix(n + 1), f)
        dims[n] = cn - r_out - r_in
    return dims


def brute_tor_dims(cat, m_values, m_action, n_values, n_action, n_max):
    """Tor dims over a degree-0 category via the textbook two-sided bar
    m (x) a_1 (x) .. (x) a_p (x) n with a_i in A(x_{i-1}, x_i),
    m in M(x_p)-ish orientation:

    values/actions are plain dicts: m_values[x] = dim, and
    m_action[(x, y)][(e_index, i)] = {j: scalar} for the right action of
    basis element e of hom(x, y) sending M(y)_i into M(x)_j; n_action is
    the left action sending N(x)_i to N(y)_j for e in hom(x, y).
    """
    alg = FlatAlgebra(cat)
    f = alg.field

    def chains(p):
        out = []
        for combo in itertools.product(range(len(alg.elems)), repeat=p):
            if not all(alg.source(combo[i + 1]) == alg.target(combo[i]) for i in range(p - 1)):
                continue
            if p == 0:
                for x in alg.objects:
                    for i in range(m_values.get(x, 0)):
                        for j in range(n_values.get(x, 0)):
                            out.append(((), x, i, j))
            else:
                x_last = alg.target(combo[-1])
                x_first = alg.source(combo[0])
                for i in range(m_values.get(x_last, 0)):
                    for j in range(n_values.get(x_first, 0)):
                        out.append((combo, None, i, j))
        return out

    levels = {p: chains(p) for p in range(n_max + 2)}
    index = {p: {c: i for i, c in enumerate(lst)} for p, lst in levels.items()}

    def endpoints(c, p):
        combo = c[0]
        if p == 0:
            return c[1], c[1]
        return alg.source(combo[0]), alg.target(combo[-1])

    def b_matrix(p):
        rows = len(levels[p - 1])
        cols = len(levels[p])
        dense = [[f.zero()] * cols for _ in range(rows)]
        for col, c in enumerate(levels[p]):
            combo, _x, im, i_n = c
            # face 0: a_1 acts on n from the left
            x0 = alg.source(combo[0])
            x1 = alg.target(combo[0])
            e0 = combo[0]
            (ex, ey, ei) = alg.elems[e0]
            for j, v in n_action.get((ex, ey), {}).get((ei, i_n), {}).items():
                rest = combo[1:]
                newc = (rest, x1 if p == 1 else None, im, j)
                if p == 1:
                    newc = ((), x1, im, j)
                r = index[p - 1][newc]
                dense[r][col] = f.add(dense[r][col], v)
            # middle faces
            for i in range(p - 1):
                sgn = f.of_int((-1) ** (i + 1))
                for h, v in alg.compose(combo[i + 1], combo[i]).items():
                    newcombo = combo[:i] + (h,) + combo[i + 2:]
                    newc = (newcombo, None, im, i_n)
                    r = index[p - 1][newc]
                    dense[r][col] = f.add(dense[r][col], f.mul(sgn, v))
            # last face: a_p acts on m from the right
            ep = combo[-1]
            (ex, ey, ei) = alg.elems[ep]
            sgn = f.of_int((-1) ** p)
            for j, v in m_action.get((ex, ey), {}).get((ei, im), {}).items():
                rest = combo[:-1]
                newc = (rest, ex if p == 1 else None, j, i_n)
                if p == 1:
                    newc = ((), ex, j, i_n)
                r = index[p - 1][newc]
                dense[r][col] = f.add(dense[r][col], f.mul(sgn, v))
        return dense

    dims = {}
    for p in range(n_max + 1):
        cn = len(levels[p])
        r_out = dense_rank(b_matrix(p), f) if p > 0 else 0
        r_in = dense_rank(b_matrix(p + 1), f)
        dims[p] = cn - r_out - r_in
    return dims


def convolution(da: dict, db: dict, n: int) -> int:
    return sum(da.get(i, 0) * db.get(n - i, 0) for i in range(n + 1))


# ---------------------------------------------------------------------------
# chain bases: cyclic bar chains by filtering every object tuple, and
# two-sided bar chains over every walk of the non-unit digraph (the
# library walks only from the support of Y into the support of X); the
# pre-plan walk enumerator and the unnormalized cyclic bar

def _basis(c):
    return [(d, i) for d in c.support() for i in range(c.dim(d))]


def _factor_keys(cat, x, y, normalized):
    keys = _basis(cat.hom(x, y))
    if normalized and x == y and cat.unit_key(x) in keys:
        keys.remove(cat.unit_key(x))
    return keys


def brute_cyclic_keys(cat, m, normalized):
    """Cyclic bar chain keys (objs, (f_m, ..., f_0)) at bar degree m."""
    out = set()
    for objs in itertools.product(cat.objects, repeat=m + 1):
        inner = [_factor_keys(cat, objs[j], objs[j + 1], normalized) for j in range(m)]
        for kf_m in _basis(cat.hom(objs[m], objs[0])):
            for rest in itertools.product(*reversed(inner)):
                out.add((objs, (kf_m,) + rest))
    return out


def brute_bar_chain_keys(X, Y, mid, window_coh, bar_bound, left_spect=None, right_spect=None):
    """Normalized two-sided bar chain keys (objs, km, (a_p, ..., a_1), kn)
    per spectator pair and total cohomological degree in the window
    closure.  Object tuples run over every walk of the digraph of hom
    pairs with a non-unit key (a tuple with an empty middle factor has
    no chain), whatever the module values at its ends."""
    lo, hi = window_coh[0] - 1, window_coh[1] + 1
    spect = left_spect is not None or right_spect is not None
    factors = {(x, y): _factor_keys(mid, x, y, True) for x in mid.objects for y in mid.objects}
    edges = {}
    for (x, y), keys in factors.items():
        if keys:
            edges.setdefault(x, set()).add(y)
    out = {}
    for la in (left_spect.objects if left_spect is not None else (None,)):
        for rc in (right_spect.objects if right_spect is not None else (None,)):
            x_basis = {b: _basis(X.value((la, b) if left_spect is not None else b))
                       for b in mid.objects}
            y_basis = {b: _basis(Y.value((b, rc) if right_spect is not None else b))
                       for b in mid.objects}
            chains = {}
            for p in range(bar_bound + 1):
                for objs in walks(mid.objects, edges, p):
                    if not (x_basis[objs[p]] and y_basis[objs[0]]):
                        continue
                    betas = [factors[(objs[i - 1], objs[i])] for i in range(1, p + 1)]
                    for km in x_basis[objs[p]]:
                        for kn in y_basis[objs[0]]:
                            for bs in itertools.product(*betas):
                                bt = bs[::-1]
                                t = km[0] + kn[0] + sum(k[0] for k in bt) - p
                                if lo <= t <= hi:
                                    chains.setdefault(t, set()).add((objs, km, bt, kn))
            out[(la, rc) if spect else ()] = chains
    return out


def hom_graph(homs):
    """Digraph on objects with an edge x -> y when hom(x, y) is nonzero."""
    edges = {}
    for (x, y), c in homs.items():
        if c.total_dim():
            edges.setdefault(x, set()).add(y)
    return edges


def walks(objects, edges, m):
    """Object tuples (x_0, ..., x_m) with an edge x_i -> x_{i+1} for every
    i, listed in the lexicographic order of ``objects`` (the order of
    itertools.product over objects, restricted to walks)."""
    succ = {x: [y for y in objects if y in edges.get(x, ())] for x in objects}
    layer = [(x,) for x in objects]
    for _ in range(m):
        layer = [w + (y,) for w in layer for y in succ[w[-1]]]
    return layer


class UnnormalizedCyclicBar(CyclicBar):
    """The unnormalized cyclic bar, degenerate chains included: inner
    factors range over every basis key along every walk of the
    nonempty-hom digraph and ``unit_keys`` is empty, so no face or
    differential term is dropped.  Faces, b, the internal differential
    and the total complex are the library's; units need not be basis
    vectors."""

    normalized = False

    def __init__(self, a: DgCategory, bar_bound: int):
        self.a = a
        self.bar_bound = bar_bound
        self.field = a.field
        self.differential = a.bar_plan().differential
        self.unit_keys, edges = {}, hom_graph(a.homs)
        self.keys_by_bar = {m: list(self._walk_chains(m, edges)) for m in range(bar_bound + 1)}

    def _walk_chains(self, m, edges):
        a = self.a
        for objs in walks(a.objects, edges, m):
            inner_lists = [list(a.basis_keys(objs[j], objs[j + 1])) for j in range(m)]
            for kf_m in a.basis_keys(objs[m], objs[0]):
                for inner_keys in itertools.product(*reversed(inner_lists)):
                    yield (objs, (kf_m,) + inner_keys)


def unnormalized_exact_hh_dims(cat, bar_bound, n_max):
    """HH_n dims, 0 <= n <= n_max, from the unnormalized cyclic bar at
    bar_bound, in the degrees its truncation cannot reach.  Every slot
    ranges over all keys, so inner factors have the outer degrees, and
    the unit loops leave no longest-path cap."""
    total, _ = UnnormalizedCyclicBar(cat, bar_bound).total_complex()
    outer = cat.bar_plan().outer
    caps = {n: bar_degree_cap(outer, outer, None, -n, -n) for n in range(n_max + 1)}
    dims = homology_dims(total, (-n_max, 0))
    return {n: dims[-n] for n, cap in caps.items() if cap is not None and cap <= bar_bound}


def brute_tensor_comp_shape(cats):
    """Per object triple of tensor(*cats) with a nonzero composition, the
    number of composable basis pairs: products of per-factor basis
    products never cancel, so it is the product of the factor counts."""
    objects = list(itertools.product(*(c.objects for c in cats)))
    out = {}
    for x, y, z in itertools.product(objects, repeat=3):
        n = 1
        for i, c in enumerate(cats):
            n *= len(c.comp.get((x[i], y[i], z[i]), {}))
        if n:
            out[(x, y, z)] = n
    return out


# ---------------------------------------------------------------------------
# bar operators through the generic bilinear calls on singleton elements
# (the library reads the composition, action and differential tables
# directly)

def _d_scan(c, elem):
    """Differential of a sparse element of the complex c, by scanning
    every entry of its differential matrices."""
    f = c.field
    out = {}
    for (deg, idx), v in elem.items():
        m = c.diffs.get(deg)
        if m is None:
            continue
        for (i, j), w in m.entries.items():
            if j == idx:
                f.accumulate(out, (deg + 1, i), f.mul(w, v))
    return out


def _project(bar, objs, elems):
    """Expand a tuple of factor elements into cyclic bar chain keys,
    dropping a chain with a unit in any inner slot when normalized."""
    f = bar.field
    m = len(elems) - 1
    out = {}
    for combo in itertools.product(*[list(e.items()) for e in elems]):
        keys = tuple(k for k, _ in combo)
        coeff = f.one()
        for _, v in combo:
            coeff = f.mul(coeff, v)
        if bar.normalized and any(
                objs[m - pos] == objs[m - pos + 1]
                and keys[pos] == bar.a.unit_key(objs[m - pos])
                for pos in range(1, m + 1)):
            continue
        f.accumulate(out, (objs, keys), coeff)
    return out


def reference_face(bar, key, i):
    """CyclicBar.face through compose_elems on singleton elements."""
    from dghom.dgcore import elem_scale
    a, f = bar.a, bar.field
    objs, keys = key
    m = len(keys) - 1
    if i == 0:
        degs = [k[0] for k in keys]
        sgn = f.of_int((-1) ** ((degs[-1] * sum(degs[:-1])) % 2))
        comp = a.compose_elems(objs[m], objs[0], objs[1],
                               {keys[m]: f.one()}, {keys[0]: f.one()})
        elems = [elem_scale(f, sgn, comp)] + [{keys[pos]: f.one()} for pos in range(1, m)]
        return _project(bar, objs[1:], elems) if comp else {}
    pos = m - i
    if i < m:
        src, mid, tgt = objs[i - 1], objs[i], objs[i + 1]
    else:
        src, mid, tgt = objs[m - 1], objs[m], objs[0]
    comp = a.compose_elems(src, mid, tgt, {keys[pos]: f.one()}, {keys[pos + 1]: f.one()})
    if not comp:
        return {}
    elems = [{keys[p]: f.one()} for p in range(pos)] + [comp]
    elems += [{keys[p + 1]: f.one()} for p in range(pos + 1, m)]
    return _project(bar, objs[:i] + objs[i + 1:], elems)


def reference_b(bar, key):
    f = bar.field
    m = len(key[1]) - 1
    out = {}
    for i in range(m + 1 if m else 0):
        sgn = f.of_int((-1) ** i)
        for k2, v in reference_face(bar, key, i).items():
            f.accumulate(out, k2, f.mul(sgn, v))
    return out


def reference_dint(bar, key):
    """CyclicBar.dint_of through a scan of the hom differentials."""
    f = bar.field
    objs, keys = key
    m = len(keys) - 1
    out = {}
    acc = 0
    for pos in range(m + 1):
        j = m - pos
        src, tgt = (objs[m], objs[0]) if pos == 0 else (objs[j], objs[j + 1])
        de = _d_scan(bar.a.hom(src, tgt), {keys[pos]: f.one()})
        if de:
            sgn = f.of_int((-1) ** (acc % 2))
            elems = [{keys[p]: f.one()} for p in range(m + 1)]
            elems[pos] = {k: f.mul(sgn, v) for k, v in de.items()}
            for k2, v in _project(bar, objs, elems).items():
                f.accumulate(out, k2, v)
        acc += keys[pos][0]
    return out


def reference_total_diff(bar, key):
    f = bar.field
    out = reference_b(bar, key)
    sgn = f.of_int((-1) ** (len(key[1]) - 1))
    for k2, v in reference_dint(bar, key).items():
        f.accumulate(out, k2, f.mul(sgn, v))
    return out


def bprime_of(bar, key):
    """The bar differential b' of a CyclicBar chain: b without the
    wrap-around face, summed from the library's faces."""
    f = bar.field
    out = {}
    for i in range(1, len(key[1])):
        for k2, v in bar.face(key, i).items():
            f.accumulate(out, k2, f.neg(v) if i & 1 else v)
    return out


def reference_bar_diff(X, Y, mid, key, la=None, rc=None, left_spect=None, right_spect=None):
    """Total differential of one two-sided bar chain of bar_composite,
    through DgModule.act, compose_elems and differential scans on
    singleton elements."""
    from dghom.dgcore import tensor_info
    f = mid.field
    one = f.one()

    def xobj(b):
        return (la, b) if left_spect is not None else b

    def yobj(b):
        return (b, rc) if right_spect is not None else b

    def x_act(b_new, b_old, xelem, beta_key):
        if left_spect is None:
            return X.act(b_new, b_old, xelem, {beta_key: one})
        src, dst = (la, b_new), (la, b_old)
        info = tensor_info(X.base)
        fe = {info.pair(src, dst)[2][(ku, beta_key)]: cu for ku, cu in left_spect.unit(la).items()}
        return X.act(src, dst, xelem, fe)

    def y_act(b_new, b_old, yelem, beta_key):
        if right_spect is None:
            return Y.act(b_new, b_old, yelem, {beta_key: one})
        src, dst = (b_new, rc), (b_old, rc)
        info = tensor_info(Y.base)
        fe = {info.pair(src, dst)[2][(beta_key, ku)]: cu for ku, cu in right_spect.unit(rc).items()}
        return Y.act(src, dst, yelem, fe)

    objs, km, betas, kn = key
    p = len(betas)
    out = {}
    if p:
        for km2, v in x_act(objs[p - 1], objs[p], {km: one}, betas[0]).items():
            f.accumulate(out, (objs[:p], km2, betas[1:], kn), v)
    for i in range(1, p):
        comp = mid.compose_elems(objs[p - i - 1], objs[p - i], objs[p - i + 1],
                                 {betas[i - 1]: one}, {betas[i]: one})
        sgn = f.of_int((-1) ** (i % 2))
        for kc, v in comp.items():
            f.accumulate(out, (objs[:p - i] + objs[p - i + 1:], km,
                               betas[:i - 1] + (kc,) + betas[i + 1:], kn), f.mul(sgn, v))
    if p:
        a1 = betas[-1]
        sgn = f.of_int((-1) ** ((p + a1[0] * kn[0]) % 2))
        for kn2, v in y_act(objs[1], objs[0], {kn: one}, a1).items():
            f.accumulate(out, (objs[1:], km, betas[:-1], kn2), f.mul(sgn, v))
    sign_accum = p % 2
    for km2, v in _d_scan(X.value(xobj(objs[p])), {km: one}).items():
        f.accumulate(out, (objs, km2, betas, kn), f.mul(f.of_int((-1) ** sign_accum), v))
    sign_accum += km[0]
    for i, bk in enumerate(betas):
        de = _d_scan(mid.hom(objs[p - i - 1], objs[p - i]), {bk: one})
        sgn = f.of_int((-1) ** (sign_accum % 2))
        for bk2, v in de.items():
            f.accumulate(out, (objs, km, betas[:i] + (bk2,) + betas[i + 1:], kn), f.mul(sgn, v))
        sign_accum += bk[0]
    sgn = f.of_int((-1) ** (sign_accum % 2))
    for kn2, v in _d_scan(Y.value(yobj(objs[0])), {kn: one}).items():
        f.accumulate(out, (objs, km, betas, kn2), f.mul(sgn, v))
    return out


def drop_degenerate(vec, unit_keys):
    """A combination of two-sided bar chains projected onto the normalized
    chains: a chain with the unit key of a loop in any middle slot is
    dropped."""
    def degenerate(key):
        objs, _km, betas, _kn = key
        p = len(betas)
        return any(objs[p - i - 1] == objs[p - i] and bk == unit_keys.get(objs[p - i])
                   for i, bk in enumerate(betas))
    return {k: v for k, v in vec.items() if not degenerate(k)}


def reference_connes_B(mx, key):
    """MixedComplex._B_elem by the full formula (-1)^{m+1} (1 - t) s N on
    the unnormalized lift, projected to the normalized chains."""
    from dghom.cyclic import t_of_key
    a, f = mx.base, mx.field
    m = len(key[1]) - 1
    out = {}
    k, c = key, f.one()
    for _ in range(m + 1):
        objs, keys = k
        f.accumulate(out, (objs + (objs[0],), (a.unit_key(objs[0]),) + keys), c)
        k, sign = t_of_key(a, k)
        c = f.mul(c, sign)
    for k2, v in list(out.items()):
        k3, sign = t_of_key(a, k2)
        f.accumulate(out, k3, f.neg(f.mul(sign, v)))
    sgn = f.of_int((-1) ** (m + 1))
    normalized = set(mx.norm.keys_by_bar.get(m + 1, ()))
    return {k2: f.mul(sgn, v) for k2, v in out.items() if k2 in normalized}


def reference_tensor(*cats: DgCategory) -> DgCategory:
    """Tensor product of dg categories: objects are tuples, hom complexes
    are tensor products of the factors' hom complexes, with Koszul signs
    in differential and composition.  Carries basis bookkeeping for
    module builders.

    The library's tensor before it built the composition factor by
    factor: every basis pair (g, f) over every walk of length 2 of the
    nonempty-hom digraph, kept when each factor's product is nonzero.
    Every hom complex and its bookkeeping is built here, at once."""
    if not cats:
        raise ValueError("tensor of no categories")
    field = cats[0].field
    for c in cats[1:]:
        if c.field != field:
            raise ValueError("field mismatch in tensor")
    objects = list(itertools.product(*(c.objects for c in cats)))
    homs, info_keys, info_index = {}, {}, {}
    neg_one = field.of_int(-1)
    for x in objects:
        for y in objects:
            factors = [c.hom(xi, yi) for c, xi, yi in zip(cats, x, y)]
            hom = tensor_complex(field, factors)
            keys = info_keys[(x, y)] = hom.spaces
            info_index[(x, y)] = {k: (d, i) for d, lst in keys.items() for i, k in enumerate(lst)}
            # the labels are tuples of factor labels, as grammar.dumps prints them
            hom.spaces = {d: tuple(tuple(c.labels(k[0])[k[1]] for c, k in zip(factors, combo))
                                   for combo in lst)
                          for d, lst in keys.items()}
            homs[(x, y)] = hom
    comp = {}
    for x, y, z in walks(objects, hom_graph(homs), 2):
        xy = info_keys[(x, y)]
        yz = info_keys[(y, z)]
        idx_xz = info_index[(x, z)]
        table = {}
        for dg, gcombos in yz.items():
            for ig, gcombo in enumerate(gcombos):
                for df, fcombos in xy.items():
                    for if_, fcombo in enumerate(fcombos):
                        # per-factor products; Koszul sign from g_j crossing f_i, i<j
                        coeff = field.one()
                        parts = []
                        ok = True
                        for i, (kg, kf) in enumerate(zip(gcombo, fcombo)):
                            prod = cats[i].comp.get((x[i], y[i], z[i]), {}).get((kg, kf))
                            if not prod:
                                ok = False
                                break
                            parts.append((kg[0] + kf[0], prod))
                        if not ok:
                            continue
                        sign_exp = sum(gcombo[j][0] * fcombo[i][0]
                                       for i in range(len(cats))
                                       for j in range(i + 1, len(cats)))
                        if sign_exp % 2:
                            coeff = neg_one
                        out = {}
                        for combo in itertools.product(*[[(deg, ih, v) for ih, v in prod.items()]
                                                         for deg, prod in parts]):
                            keytuple = tuple((deg, ih) for deg, ih, _ in combo)
                            val = coeff
                            for _, _, v in combo:
                                val = field.mul(val, v)
                            dd, ih_flat = idx_xz[keytuple]
                            field.accumulate(out, ih_flat, val)
                        if out:
                            table[((dg, ig), (df, if_))] = out
        if table:
            comp[(x, y, z)] = table
    units = {}
    for x in objects:
        index = info_index[(x, x)]
        expansion = {}
        for combo in itertools.product(*[[(k, v) for k, v in cats[i].unit(x[i]).items()]
                                         for i in range(len(cats))]):
            keytuple = tuple(k for k, _ in combo)
            val = field.one()
            for _, v in combo:
                val = field.mul(val, v)
            field.accumulate(expansion, index[keytuple], val)
        units[x] = expansion
    name = " (x) ".join(c.name or "?" for c in cats)
    out = DgCategory(field, objects, homs, comp, units, name=name,
                     closed=all(c.closed for c in cats))
    out._tensor = TensorInfo(cats, objects,
                             lambda x, y: (homs[(x, y)], info_keys[(x, y)], info_index[(x, y)]))
    return out


def reference_opposite(a: DgCategory) -> DgCategory:
    """The opposite category with every product table filled at once from
    the full view of a, g .op f = (-1)^{|f||g|} f.g, the triples in
    object order."""
    f = a.field
    homs = {(x, y): a.hom(y, x) for x, y in itertools.product(a.objects, repeat=2)}
    comp = {}
    for x, y, z in itertools.product(a.objects, repeat=3):
        table = a.comp.get((z, y, x))
        if table:
            comp[(x, y, z)] = {(kg, kf): {i: f.mul(f.sign(kf[0] * kg[0]), v) for i, v in prod.items()}
                               for (kf, kg), prod in table.items()}
    return DgCategory(f, a.objects, homs, comp, a.units, name=f"op({a.name})" if a.name else "",
                      closed=a.closed)


def reference_diagonal_action(a: DgCategory) -> dict:
    """The action table of the diagonal bimodule over
    tensor(opposite(a), a), every pair filled at once through
    compose_elems: m.(f (x) g) = (-1)^{|f||m|} f.m.g, m in hom(yp, xp)
    at the object (xp, yp)."""
    from dghom.dgcore import opposite
    f = a.field
    one = f.one()
    base = tensor(opposite(a), a)
    keys = tensor_info(base).keys
    action = {}
    for (x, y), (xp, yp) in itertools.product(base.objects, repeat=2):
        table = {}
        for dh, hlist in keys[((x, y), (xp, yp))].items():
            for ih, (kf, kg) in enumerate(hlist):
                for km in a.basis_keys(yp, xp):
                    mg = a.compose_elems(y, yp, xp, {km: one}, {kg: one})
                    fmg = a.compose_elems(y, xp, x, {kf: one}, mg)
                    if fmg:
                        table[((dh, ih), km)] = {i: f.mul(f.sign(kf[0] * km[0]), v)
                                                 for (_, i), v in fmg.items()}
        if table:
            action[((x, y), (xp, yp))] = table
    return action


def reference_tensor_complex(field, factors):
    """The tensor product of complexes filled by hand, without
    operator_complex or ChainComplex.d_of: product keys grouped by total
    degree and sorted, and each column of the differential read by
    scanning the factors' matrices, with the Koszul sign
    (-1)^{|k_1|+..+|k_{i-1}|} on the term differentiating factor i."""
    from dghom.exactfield import ChainComplex, Matrix
    per_factor = [[(d, i) for d in c.support() for i in range(c.dim(d))] for c in factors]
    by_degree = {}
    for combo in itertools.product(*per_factor):
        by_degree.setdefault(sum(k[0] for k in combo), []).append(combo)
    for lst in by_degree.values():
        lst.sort()
    index = {combo: i for lst in by_degree.values() for i, combo in enumerate(lst)}
    diffs = {}
    for d, combos in by_degree.items():
        entries = {}
        for col, combo in enumerate(combos):
            sign_exp = 0
            for i, k in enumerate(combo):
                m = factors[i].diffs.get(k[0])
                if m is not None:
                    for (r, cc), v in m.entries.items():
                        if cc != k[1]:
                            continue
                        row = index[combo[:i] + ((k[0] + 1, r),) + combo[i + 1:]]
                        sgn = field.of_int(-1 if sign_exp % 2 else 1)
                        field.accumulate(entries, (row, col), field.mul(sgn, v))
                sign_exp += k[0]
        if entries:
            diffs[d] = Matrix(field, len(by_degree.get(d + 1, ())), len(combos), entries)
    return ChainComplex(field, by_degree, diffs)


def external_tensor_module(m: DgModule, n: DgModule) -> DgModule:
    """m (x) n over tensor(m.base, n.base):
    (u (x) v).(f (x) g) = (-1)^{|f||v|} (u.f) (x) (v.g).
    The basis labels of a value are the key pairs of tensor_complex."""
    f = m.base.field
    one = f.one()
    base = tensor(m.base, n.base)
    values = {(x, y): tensor_complex(f, (m.value(x), n.value(y))) for (x, y) in base.objects}
    index = {obj: {k: (d, i) for d, lst in c.spaces.items() for i, k in enumerate(lst)}
             for obj, c in values.items()}

    def act(xo, yo, hk, vk):
        kf, kg = hk
        km, kn = values[yo].labels(vk[0])[vk[1]]
        u = m.act(xo[0], yo[0], {km: one}, {kf: one})
        if not u:
            return {}
        v = n.act(xo[1], yo[1], {kn: one}, {kg: one})
        sgn = f.sign(kf[0] * kn[0])
        out = {}
        for ku, cu in u.items():
            for kv, cv in v.items():
                f.accumulate(out, index[xo][(ku, kv)], f.mul(sgn, f.mul(cu, cv)))
        return out

    return DgModule(base, values, tensor_action(base, values, act),
                    name=f"{m.name} (x) {n.name}" if (m.name and n.name) else "")


# ---------------------------------------------------------------------------
# the triangle bimodules with spectator slots

def reference_triangle_modules(a):
    """The triangle bimodules in the spectator design: X over
    tensor(opposite(a), mid) and Y over tensor(opposite(mid), a), with
    mid = tensor(a, opposite(a), a).  Their two-sided bar over mid with
    left_spect=opposite(a), right_spect=a is the triangle composite, one
    complex per spectator pair; the library builds one module pair per
    spectator pair instead.

    Action of a flat 4-slot element: (m (x) n).(f1 (x) f2 (x) f3 (x) f4)
    = (-1)^{(|f1|+|f2|)|n| + |f1||m| + |f3||n|} (f1.m.f2) (x) (f3.n.f4).
    """
    from dghom.dgcore import opposite, tensor, tensor_info
    from dghom.dgmod import DgModule, tensor_action
    from dghom.exactfield import tensor_complex
    f = a.field
    op_a = opposite(a)
    mid = tensor(a, op_a, a)
    mid_info = tensor_info(mid)
    x_base = tensor(op_a, mid)
    y_base = tensor(opposite(mid), a)

    def build(base, role):
        values = {obj: tensor_complex(f, [a.hom(*p) for p in _value_pair(role, obj)])
                  for obj in base.objects}
        index = {obj: {k: (d, i) for d, lst in c.spaces.items() for i, k in enumerate(lst)}
                 for obj, c in values.items()}

        def act(xo, yo, flat, vk):
            f1, f2, f3, f4 = _flat_components(role, flat, xo, yo)
            km, kn = values[yo].labels(vk[0])[vk[1]]
            out = {}
            for kuv, cc in _dd_act(a, f, role, xo, yo, f1, f2, f3, f4, km, kn).items():
                f.accumulate(out, index[xo][kuv], cc)
            return out

        return DgModule(base, values, tensor_action(base, values, act),
                        name=f"triangle-{role}({a.name or '?'})")

    def _value_pair(role, obj):
        if role == "X":
            x, (a1, u, v) = obj
            return ((a1, x), (v, u))
        (a1, u, v), w = obj
        return ((u, a1), (w, v))

    def _flat_components(role, flat, xo, yo):
        if role == "X":
            k1, kmid = flat
            k2, k3, k4 = mid_info.pair(xo[1], yo[1])[1][kmid[0]][kmid[1]]
            return k1, k2, k3, k4
        kmid, k4 = flat
        # hom of opposite(mid) decomposes with the same flat keys as mid
        k1, k2, k3 = mid_info.pair(yo[0], xo[0])[1][kmid[0]][kmid[1]]
        return k1, k2, k3, k4

    def _dd_act(cat, f, role, xo, yo, k1, k2, k3, k4, km, kn):
        """(m (x) n).(f1..f4) with the double-diagonal sign."""
        sign_exp = (k1[0] + k2[0]) * kn[0] + k1[0] * km[0] + k3[0] * kn[0]
        if role == "X":
            x, (a1, u, v) = xo
            xp, (a1p, up, vp) = yo
            # m in hom(a1p, xp), f1 in hom(xp, x), f2 in hom(a1, a1p)
            first = _sandwich(cat, f, (a1, x), k1, (a1p, xp), km, k2,
                              hom_f=(xp, x), hom_g=(a1, a1p))
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
        sgn = f.sign(sign_exp)
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


# ---------------------------------------------------------------------------
# bar-degree planning as each module once worked it out for itself: the
# Hochschild-side contribution plan and the two-sided bar's bound planner,
# kept verbatim (apart from names) as references for dgcore.BarPlan

def reference_nonunit_degree_bounds(a):
    degs = []
    for (x, y), c in a.homs.items():
        uk = a.unit_key(x) if x == y else None
        for d in c.support():
            for i in range(c.dim(d)):
                if (d, i) != uk or x != y:
                    degs.append(d)
    if not degs:
        return None
    return min(degs), max(degs)


def reference_outer_degree_bounds(a):
    degs = [d for c in a.homs.values() for d in c.support()]
    if not degs:
        return None
    return min(degs), max(degs)


def reference_longest_path_bound(a):
    """Max length of a path in the non-unit digraph, or None if it has a
    cycle."""
    edges = {}
    for (x, y), c in a.homs.items():
        if c.total_dim() > (x == y and a.unit_key(x) is not None):
            edges.setdefault(x, set()).add(y)
    memo = {}
    onstack = set()

    def depth(x):
        if x in onstack:
            raise ValueError("cycle")
        if x in memo:
            return memo[x]
        onstack.add(x)
        best = 0
        for y in edges.get(x, ()):
            best = max(best, 1 + depth(y))
        onstack.discard(x)
        memo[x] = best
        return best

    try:
        return max((depth(x) for x in a.objects), default=0)
    except ValueError:
        return None


class ReferenceContributionPlan:
    """Analytic bounds on which bar degrees can reach a total degree."""

    def __init__(self, a):
        self.max_bar = reference_longest_path_bound(a)
        self.inner = reference_nonunit_degree_bounds(a)
        self.outer = reference_outer_degree_bounds(a)

    def max_bar_for(self, t: int):
        caps = []
        if self.max_bar is not None:
            caps.append(self.max_bar)
        if self.outer is None:
            return 0
        if self.inner is None:
            caps.append(0)
        else:
            i_lo, i_hi = self.inner
            o_lo, o_hi = self.outer
            if i_hi <= 0:
                m = 0
                while o_hi + (m + 1) * (i_hi - 1) >= t:
                    m += 1
                caps.append(m)
            elif i_lo >= 2:
                m = 0
                while o_lo + (m + 1) * (i_lo - 1) <= t:
                    m += 1
                caps.append(m)
        return min(caps) if caps else None

    def exact_at(self, t: int, bar_bound: int) -> bool:
        for tp in (t - 1, t, t + 1):
            cap = self.max_bar_for(tp)
            if cap is None or cap > bar_bound:
                return False
        return True

    def bound_for_window(self, t_lo: int, t_hi: int):
        caps = [self.max_bar_for(tp) for tp in range(t_lo - 1, t_hi + 2)]
        if any(c is None for c in caps):
            return None
        return max(caps, default=0)


def reference_plan_bar_bound(x_bounds, y_bounds, hom_bounds, window_coh, bar_bound,
                             chain_cap=None):
    """The two-sided bar's bound planner: smallest bar bound P such that
    bar degrees > P cannot reach the window closure, and the flag."""
    from dghom.dgmod import BarWindowError
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


# The automatic bar bounds each command once worked out for itself, now
# `BarPlan.bar_bound`; kept verbatim.

def auto_bar_bound(a, n_max: int) -> int:
    """hh_dims (window -n_max .. 0)."""
    bound = a.bar_plan().bound_for_window(-n_max, 0)
    if bound is None:
        return n_max + 1
    return max(1, bound)


def hc_auto_bar_bound(a, n_max: int) -> int:
    """hc_dims (mixed complex, window -(n_max + 1) .. 1)."""
    cap = a.bar_plan().bound_for_window(-(n_max + 1), 1)
    return max(2, (cap if cap is not None else n_max + 1) + 1)


def reference_hp_bar_bound(a, n_window, max_levels: int) -> int:
    """hcminus_hp_dims (mixed complex, the pieces the towers read)."""
    n_lo, n_hi = n_window
    piece_lo = n_lo - 1
    piece_hi = n_hi + 1 + 2 * max_levels
    cap = a.bar_plan().bound_for_window(-piece_hi, -piece_lo)
    return max(2, cap + 1) if cap is not None else max(2, piece_hi - piece_lo + 2)


def reference_euler_hh_bar_bound(a, lo: int, n_hi: int) -> int:
    """euler_via_hh (homological degrees lo .. n_hi, n_hi >= 0)."""
    cap = a.bar_plan().bound_for_window(-n_hi, -lo)
    return auto_bar_bound(a, n_hi) if cap is None else max(1, cap)


def reference_ch0_bar_bound(a) -> int:
    """ch0 (HH_0)."""
    return max(2, auto_bar_bound(a, 1))


def reference_chain_support(a):
    """(floor, top) of the homological degrees of normalized cyclic bar
    chains, one bar degree at a time: floor is the smallest degree with
    possibly-nonzero chains (negative for positively graded homs), top a
    certified N with chains zero in degrees > N (hence HH_n = 0 there),
    None when no finite bound is provable."""
    plan = a.bar_plan()

    def floor():
        if plan.outer is None:
            return 0
        lo = -plan.outer[1]
        if plan.inner is not None and plan.max_bar is not None:
            for m in range(1, plan.max_bar + 1):
                lo = min(lo, m * (1 - plan.inner[1]) - plan.outer[1])
        return min(lo, 0)

    def top():
        if plan.max_bar is None:
            return None
        if plan.outer is None:
            return 0
        if plan.inner is None:
            return -plan.outer[0]
        # homological degree of a bar-m chain is m - q <= m(1 - i_lo) - min(o_lo, ...)
        best = -plan.outer[0]
        for m in range(1, plan.max_bar + 1):
            best = max(best, m * (1 - plan.inner[0]) - plan.outer[0])
        return best

    return floor(), top()


# ---------------------------------------------------------------------------
# smoothness Tor over the enveloping category

def semisimple_quotient_left_module(a):
    """The semisimple quotient of the enveloping category (one simple per
    object pair), as a left module over it (stored as a right module over
    tensor(a, opposite(a)) = opposite(tensor(opposite(a), a)))."""
    from dghom.dgcore import opposite, tensor, tensor_info
    from dghom.dgmod import DgModule
    from dghom.exactfield import ChainComplex
    f = a.field
    base = tensor(a, opposite(a))
    info = tensor_info(base)
    unit_keys = a.bar_plan().unit_keys
    values = {}
    for (x, y) in base.objects:
        values[(x, y)] = ChainComplex(f, {0: (f"s:{x},{y}",)}, {})
    action = {}
    for obj in base.objects:
        x, y = obj
        index = info.pair(obj, obj)[2]
        key = index[(unit_keys[x], unit_keys[y])]
        action[(obj, obj)] = {(key, (0, 0)): {0: f.one()}}
    return DgModule(base, values, action, name=f"S({a.name or '?'})")


def reference_smoothness_tor(a, bound):
    """Tor_n over the enveloping category a (x) a^op of the diagonal
    bimodule against the semisimple quotient, n = 0..bound+1: the
    two-sided bar over tensor(a, opposite(a)).  `smoothness_certify`
    reads the same numbers as Tor^a_n(A0, A0) from the one-sided bar
    over a (Cartan-Eilenberg, Homological Algebra, IX.4)."""
    from dghom.dgmod import bar_composite, diagonal_bimodule
    from dghom.exactfield import homology_dims
    diag = diagonal_bimodule(a)
    s_mod = semisimple_quotient_left_module(a)
    res = bar_composite(diag, s_mod, diag.base, (-(bound + 1), 0))
    dims = homology_dims(res.complexes[()], (-(bound + 1), 0))
    return {n: dims[-n] for n in range(bound + 2)}


# ---------------------------------------------------------------------------
# dg functors, restriction and the cyclic operator matrix, which the
# library no longer carries

class DgFunctor:
    """A dg functor: object map plus a degree-0 chain map per hom pair.

    ``hom_maps[(x, y)][deg]`` is the matrix hom_src(x,y)^deg ->
    hom_tgt(Fx,Fy)^deg; missing degrees are zero maps.
    """

    def __init__(self, source: DgCategory, target: DgCategory, object_map, hom_maps, name=""):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.hom_maps = dict(hom_maps)
        self.name = name

    def on_object(self, x):
        return self.object_map[x]

    def apply_elem(self, x, y, elem: dict) -> dict:
        f = self.source.field
        maps = self.hom_maps.get((x, y), {})
        out = {}
        for (deg, idx), v in elem.items():
            m = maps.get(deg)
            if m is None:
                continue
            for (i, j), w in m.entries.items():
                if j != idx:
                    continue
                f.accumulate(out, (deg, i), f.mul(w, v))
        return out


def validate_functor(F: DgFunctor) -> ValidationReport:
    rep = ValidationReport()
    a, b = F.source, F.target
    f = a.field
    for x in a.objects:
        if not elem_eq(F.apply_elem(x, x, a.unit(x)), b.unit(F.on_object(x))):
            rep.add("functor unit", (x,))
    for (x, y) in itertools.product(a.objects, repeat=2):
        Fx, Fy = F.on_object(x), F.on_object(y)
        for k in a.basis_keys(x, y):
            e = {k: f.one()}
            lhs = F.apply_elem(x, y, a.d_elem(x, y, e))
            rhs = b.d_elem(Fx, Fy, F.apply_elem(x, y, e))
            if not elem_eq(lhs, rhs):
                rep.add("functor chain map", (x, y, k))
    for (x, y, z) in itertools.product(a.objects, repeat=3):
        Fx, Fy, Fz = F.on_object(x), F.on_object(y), F.on_object(z)
        for kg in a.basis_keys(y, z):
            g = {kg: f.one()}
            Fg = F.apply_elem(y, z, g)
            for kf in a.basis_keys(x, y):
                fe = {kf: f.one()}
                lhs = F.apply_elem(x, z, a.compose_elems(x, y, z, g, fe))
                rhs = b.compose_elems(Fx, Fy, Fz, Fg, F.apply_elem(x, y, fe))
                if not elem_eq(lhs, rhs):
                    rep.add("functor composition", (x, y, z, kg, kf))
    return rep


def swap_functor(a: DgCategory, b: DgCategory) -> DgFunctor:
    """The symmetry tensor(a,b) -> tensor(b,a): (x,y) -> (y,x) with the
    Koszul sign (-1)^{|f||g|} on f (x) g."""
    field = a.field
    src = tensor(a, b)
    tgt = tensor(b, a)
    info_s = tensor_info(src)
    info_t = tensor_info(tgt)
    object_map = {x: (x[1], x[0]) for x in src.objects}
    hom_maps = {}
    for x in src.objects:
        for y in src.objects:
            sx, sy = object_map[x], object_map[y]
            by_degree = info_s.pair(x, y)[1]
            idx_t = info_t.index[(sx, sy)]
            maps = {}
            for d, combos in by_degree.items():
                entries = {}
                for col, (ka, kb) in enumerate(combos):
                    dd, row = idx_t[(kb, ka)]
                    sgn = field.sign(ka[0] * kb[0])
                    entries[(row, col)] = sgn
                n_rows = len(info_t.pair(sx, sy)[1].get(d, ()))
                if entries:
                    maps[d] = Matrix(field, n_rows, len(combos), entries)
            hom_maps[(x, y)] = maps
    return DgFunctor(src, tgt, object_map, hom_maps, name="swap")


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


def restrict(x, diag: DgModule) -> DgModule:
    """Fix the first coordinate of a diagonal bimodule, a module over
    tensor(opposite(a), a): the a-module y -> value((x, y)) with the
    a-action only."""
    info = tensor_info(diag.base)
    op_a, a = info.factors
    if x not in op_a.objects:
        raise ValueError(f"unknown object {x!r}")
    f = a.field
    opp_unit = op_a.unit(x)
    values = {y: diag.value((x, y)) for y in a.objects}
    action = {}
    for (y, yp) in itertools.product(a.objects, repeat=2):
        index = info.pair((x, y), (x, yp))[2]
        tab = {}
        for kg in a.basis_keys(y, yp):
            # element 1_x (x) g of base.hom((x,y),(x,yp))
            fe = {}
            for ku, cu in opp_unit.items():
                d, i = index[(ku, kg)]
                fe[(d, i)] = cu
            for km in diag.basis_keys((x, yp)):
                out = diag.act((x, y), (x, yp), {km: f.one()}, fe)
                if out:
                    tab[(kg, km)] = {i: v for (d, i), v in out.items()}
        if tab:
            action[(y, yp)] = tab
    return DgModule(a, values, action, name=f"{diag.name}|{x}")


def cyclic_operator(a: DgCategory, n: int) -> Matrix:
    """The matrix of the cyclic operator on unnormalized bar
    degree-(n-1) chains, in the convention stated in the docstring of
    dghom.cyclic (sign (-1)^{(n-1) + Koszul})."""
    if n < 1:
        raise CyclicError("n must be >= 1")
    keys = UnnormalizedCyclicBar(a, n - 1).keys_by_bar[n - 1]
    index = {k: i for i, k in enumerate(keys)}
    return operator_matrix(a.field, keys, index, lambda key: dict([t_of_key(a, key)]))


# ---------------------------------------------------------------------------
# the module-map solver, which the library no longer carries

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
            sgn = f.sign(n * kf[0])
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
