"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own linear algebra and
sign conventions: dense Gaussian elimination, textbook bar complexes in
the a_0 (x) ... (x) a_n orientation, and direct convolution counting.
"""

import itertools

from dghom.exactfield import FieldSpec


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
# chain bases by filtering every object tuple (the library walks the
# nonempty-hom digraph instead)

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


def brute_bar_chain_keys(X, Y, mid, window_coh, bar_bound, normalized,
                         left_spect=None, right_spect=None):
    """Two-sided bar chain keys (objs, km, (a_p, ..., a_1), kn) per
    spectator pair and total cohomological degree in the window closure."""
    lo, hi = window_coh[0] - 1, window_coh[1] + 1
    spect = left_spect is not None or right_spect is not None
    out = {}
    for la in (left_spect.objects if left_spect is not None else (None,)):
        for rc in (right_spect.objects if right_spect is not None else (None,)):
            chains = {}
            for p in range(bar_bound + 1):
                for objs in itertools.product(mid.objects, repeat=p + 1):
                    betas = [_factor_keys(mid, objs[i - 1], objs[i], normalized)
                             for i in range(1, p + 1)]
                    xv = X.value((la, objs[p]) if left_spect is not None else objs[p])
                    yv = Y.value((objs[0], rc) if right_spect is not None else objs[0])
                    for km in _basis(xv):
                        for kn in _basis(yv):
                            for bs in itertools.product(*betas):
                                bt = bs[::-1]
                                t = km[0] + kn[0] + sum(k[0] for k in bt) - p
                                if lo <= t <= hi:
                                    chains.setdefault(t, set()).add((objs, km, bt, kn))
            out[(la, rc) if spect else ()] = chains
    return out


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
