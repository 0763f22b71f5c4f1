"""Exact linear algebra over Q and prime fields.

Everything downstream reduces to the primitives here: sparse matrices of
field scalars, rank/kernel via exact Gaussian elimination, and bounded
chain complexes in the cohomological convention (the differential raises
the degree by one).  Homological degrees are reported at higher layers
as H_n := H^{-n}.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm


class FieldError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    # deterministic Miller-Rabin, valid far beyond any prime used here
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The base field: ``kind`` is 0 for Q, otherwise the prime p.

    Scalars are ints in [0, p) over F_p.  Over Q a scalar is an int or a
    Fraction: the constructors here give an int whenever the value is
    integral, so bar and cyclic assembly, whose structure constants are
    integers, allocates no Fraction.  Fraction arithmetic may still leave
    an integral Fraction; int and Fraction compare and hash alike, so
    code never tells the two apart.  Scalars are never divided with
    ``/`` (an int quotient is a float), only through ``inv``/``div``.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: int = 0):
        if kind != 0 and not _is_prime(kind):
            raise FieldError(f"not a prime: {kind}")
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldSpec is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FieldSpec is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"FieldSpec(kind={self.kind})"

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(0)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        """F_p; any p that is not a prime, 0 included, raises FieldError."""
        if not _is_prime(p):
            raise FieldError(f"not a prime: {p}")
        return FieldSpec(p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def of_int(self, n: int):
        return n % self.kind if self.kind else n

    def sign(self, k: int):
        """(-1)^k as a scalar: 1, or -1 (p - 1 over F_p)."""
        return self.kind - 1 if k & 1 else 1

    def add(self, a, b):
        return a + b if self.kind == 0 else (a + b) % self.kind

    def sub(self, a, b):
        return a - b if self.kind == 0 else (a - b) % self.kind

    def neg(self, a):
        return -a if self.kind == 0 else (-a) % self.kind

    def mul(self, a, b):
        return a * b if self.kind == 0 else (a * b) % self.kind

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.kind:
            return pow(a, self.kind - 2, self.kind)
        q = Fraction(1, a)
        return q.numerator if q.denominator == 1 else q

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def accumulate(self, store: dict, key, val):
        """store[key] += val on a sparse vector, which never stores a zero:
        a key whose value cancels is removed."""
        # add() inlined: this is the innermost loop of every assembly
        w = store.get(key, 0) + val
        if self.kind:
            w %= self.kind
        if w:
            store[key] = w
        else:
            store.pop(key, None)

    def parse(self, text: str):
        """Parse a scalar literal: integer, or p/q over the rationals."""
        text = text.strip()
        if self.kind == 0:
            q = Fraction(text)
            return q.numerator if q.denominator == 1 else q
        if "/" in text:
            num, den = text.split("/")
            return self.div(self.of_int(int(num)), self.of_int(int(den)))
        return self.of_int(int(text))

    def fmt(self, a) -> str:
        return str(a)

    def describe(self) -> str:
        return "q" if self.kind == 0 else f"fp:{self.kind}"


class Matrix:
    """Sparse matrix over a field: entries maps (row, col) to a nonzero scalar."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry ({i},{j}) out of range {rows}x{cols}")
                if v:
                    self.entries[(i, j)] = v

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    def is_zero(self) -> bool:
        return not self.entries

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        f = self.field
        out = dict(self.entries)
        for k, v in other.entries.items():
            f.accumulate(out, k, v)
        return Matrix(f, self.rows, self.cols, out)

    def scale(self, c) -> "Matrix":
        f = self.field
        if not c:
            return Matrix(f, self.rows, self.cols)
        return Matrix(f, self.rows, self.cols,
                      {k: f.mul(c, v) for k, v in self.entries.items()})

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.scale(self.field.neg(self.field.one())))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        f = self.field
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = {}
        for (i, k), u in self.entries.items():
            for j, v in by_row.get(k, ()):
                f.accumulate(out, (i, j), f.mul(u, v))
        return Matrix(f, self.rows, other.cols, out)

    def columns(self) -> dict:
        """Every nonzero column at once, {j: {i: scalar}}, in one pass over
        the entries."""
        by_col = {}
        for (i, j), v in self.entries.items():
            by_col.setdefault(j, {})[i] = v
        return by_col


def _plain(v):
    """An integral Fraction as an int, for scalars leaving this module."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


class Subspace:
    """Incremental row space kept as a fully reduced echelon basis.

    Vectors are sparse dicts {index: scalar}; stored zeros in an input
    are dropped.  Each row is scaled to 1 at its pivot, its smallest
    index, and is zero at every other pivot.  ``residual`` reduces a
    vector modulo the space.  Callers that need the combination of
    inserted vectors behind a reduction (kernels, quotient coordinates)
    append a tag coordinate past the real ones to each vector, the
    textbook [A | I] augmentation: the tags of a reduced vector record
    its combination.  ``rank`` needs no basis and does not use this.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.pivot_rows = {}      # pivot index -> reduced row (dict)

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def _add_row(self, vec: dict, c, row: dict):
        """vec += c * row in place (accumulate reduces mod p)."""
        acc = self.field.accumulate
        for j, v in row.items():
            acc(vec, j, c * v)

    def _reduce(self, vec: dict) -> dict:
        """A reduced copy of vec, without zeros.  Rows are zero at each
        other's pivots, so one pass over the pivots vec starts with
        suffices."""
        f = self.field
        vec = {k: v for k, v in vec.items() if v}
        for p in sorted(vec.keys() & self.pivot_rows.keys()):
            self._add_row(vec, f.neg(vec[p]), self.pivot_rows[p])
        return vec

    def _store(self, vec: dict):
        """Add a nonzero reduced vector as a row, back-substituting it
        into the rows that hold its pivot."""
        f = self.field
        p = min(vec)
        c = f.inv(vec[p])
        row = {k: f.mul(c, v) for k, v in vec.items()}
        for qrow in self.pivot_rows.values():
            if p in qrow:
                self._add_row(qrow, f.neg(qrow[p]), row)
        self.pivot_rows[p] = row

    def insert(self, vec: dict) -> bool:
        """Insert a generator; returns True if it enlarged the space."""
        vec = self._reduce(vec)
        if vec:
            self._store(vec)
        return bool(vec)

    def residual(self, vec: dict) -> dict:
        """Reduce vec modulo the subspace; zero dict iff vec is a member."""
        return {k: _plain(v) for k, v in self._reduce(vec).items()}


def rank(m: Matrix) -> int:
    """Rank by rank-only sparse elimination.

    Nothing is tracked and nothing back-substituted: each row is reduced
    by the pivot row at its leading column until that column holds no
    pivot yet, and then becomes the pivot row there.  Over Q every row is
    first cleared of denominators and reduced fraction-free on integers
    (Bareiss 1968); over F_p pivot rows are scaled to lead with 1.
    """
    p = m.field.kind
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    pivots = {}
    for i in sorted(rows):
        vec = rows[i] if p else _integer_row(rows[i])
        while vec:
            c = min(vec)
            prow = pivots.get(c)
            if prow is None:
                if p:
                    inv = pow(vec[c], p - 2, p)
                    vec = {j: v * inv % p for j, v in vec.items()}
                pivots[c] = vec
                break
            vec = _eliminate_mod(vec, prow, c, p) if p else _eliminate_int(vec, prow, c)
    return len(pivots)


def _integer_row(row: dict) -> dict:
    """A rational row scaled to coprime integer entries."""
    den = lcm(*(v.denominator for v in row.values()))
    vec = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
    return _primitive(vec)


def _primitive(vec: dict) -> dict:
    """Divide an integer row by the gcd of its entries, which keeps the
    entries of fraction-free elimination small."""
    g = gcd(*vec.values())
    return {j: v // g for j, v in vec.items()} if g > 1 else vec


def _eliminate_int(vec: dict, prow: dict, c: int) -> dict:
    """a*vec - b*prow with a, b the coprime cofactors that clear column c."""
    a, b = prow[c], vec[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        vec = {j: a * v for j, v in vec.items()}
    for j, v in prow.items():
        w = vec.get(j, 0) - b * v
        if w:
            vec[j] = w
        else:
            del vec[j]
    return _primitive(vec)


def _eliminate_mod(vec: dict, prow: dict, c: int, p: int) -> dict:
    """vec - vec[c]*prow mod p, for a pivot row leading with 1 at column c."""
    b = vec[c]
    for j, v in prow.items():
        w = (vec.get(j, 0) - b * v) % p
        if w:
            vec[j] = w
        else:
            del vec[j]
    return vec


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the null space of m."""
    members = _kernel_vectors(m)
    entries = {}
    for col, combo in enumerate(members):
        for i, v in combo.items():
            entries[(i, col)] = v
    return Matrix(m.field, m.cols, len(members), entries)


def _kernel_vectors(m: Matrix) -> list:
    """A basis of the null space of m as sparse vectors.  Column j is
    reduced with the tag coordinate m.rows + j; a column whose real part
    vanishes is a kernel vector, the combination its tags record."""
    sp = Subspace(m.field)
    members = []
    by_col = m.columns()
    r = m.rows
    for j in range(m.cols):
        vec = sp._reduce({**by_col.get(j, {}), r + j: 1})
        if min(vec) < r:
            sp._store(vec)
        else:
            members.append({i - r: v for i, v in vec.items()})
    return members


def image_basis(m: Matrix) -> Subspace:
    """Column space of m as an incremental Subspace."""
    sp = Subspace(m.field)
    by_col = m.columns()
    for j in sorted(by_col):
        sp.insert(by_col[j])
    return sp


class ChainComplex:
    """Bounded complex in the cohomological convention: diff(d): d -> d+1.

    ``spaces`` maps a degree to its ordered tuple of basis labels; absent
    degrees are zero.  ``specified`` restricts the degrees on which the
    complex is meaningful (None = everywhere, zero outside support);
    windowed bar-construction outputs use it to refuse out-of-range
    homology queries.
    """

    # rank per degree, made on the first diff_rank call, and the column
    # index of d_of, made on its first call (bar constructions build
    # thousands of complexes never ranked or differentiated)
    _ranks = None
    _d_cols = None

    def __init__(self, field: FieldSpec, spaces: dict, diffs: dict, specified: tuple | None = None):
        self.field = field
        self.specified = specified
        self.spaces = {d: tuple(labels) for d, labels in spaces.items() if labels}
        cleaned = {}
        for d, m in diffs.items():
            if m is None:
                continue
            want = (self.dim(d + 1), self.dim(d))
            if (m.rows, m.cols) != want:
                raise ValueError(f"diff({d}) has shape {m.rows}x{m.cols}, expected {want[0]}x{want[1]}")
            if m.entries:
                cleaned[d] = m
        self.diffs = cleaned

    def dim(self, d: int) -> int:
        return len(self.spaces.get(d, ()))

    def labels(self, d: int):
        return self.spaces.get(d, ())

    def diff(self, d: int) -> Matrix:
        m = self.diffs.get(d)
        if m is None:
            return Matrix.zeros(self.field, self.dim(d + 1), self.dim(d))
        return m

    def diff_rank(self, d: int) -> int:
        """rank diff(d), computed once per complex and degree."""
        if self._ranks is None:
            self._ranks = {}
        if d not in self._ranks:
            m = self.diffs.get(d)
            self._ranks[d] = rank(m) if m is not None else 0
        return self._ranks[d]

    def d_of(self, key):
        """The differential of the basis element key = (degree, index): a
        read-only sequence of ((degree + 1, row), scalar), empty when the
        element is closed."""
        if self._d_cols is None:
            cols = {}
            for d, m in self.diffs.items():
                for (i, j), v in m.entries.items():
                    cols.setdefault((d, j), []).append(((d + 1, i), v))
            self._d_cols = cols
        return self._d_cols.get(key, ())

    def d_elem(self, elem: dict) -> dict:
        """The differential of a sparse element {(degree, index): scalar}."""
        f = self.field
        out = {}
        for key, v in elem.items():
            for k2, w in self.d_of(key):
                f.accumulate(out, k2, f.mul(w, v))
        return out

    def support(self):
        return sorted(self.spaces)

    def basis_keys(self) -> list:
        """The basis keys (degree, index), by degree, then by index."""
        return [(d, i) for d in sorted(self.spaces) for i in range(len(self.spaces[d]))]

    def total_dim(self) -> int:
        return sum(len(v) for v in self.spaces.values())

    def verify(self):
        """Check diff(d+1) . diff(d) = 0; raises on failure."""
        for d in self.support():
            if self.dim(d) and self.dim(d + 1) and self.dim(d + 2):
                if not self.diff(d + 1).mul(self.diff(d)).is_zero():
                    raise ValueError(f"d^2 != 0 at degree {d}")
        return self


def operator_matrix(field: FieldSpec, src_keys, tgt_index: dict, op) -> Matrix:
    """The matrix of a per-key sparse operator op(key) -> {key: scalar}
    from the basis src_keys to the indexed basis tgt_index {key: row}.
    An image key outside the target basis is an assembly error."""
    entries = {}
    for col, key in enumerate(src_keys):
        for k2, v in op(key).items():
            row = tgt_index.get(k2)
            if row is None:
                raise AssertionError(f"operator image {k2!r} is not in the target basis")
            entries[(row, col)] = v
    return Matrix(field, len(tgt_index), len(src_keys), entries)


def operator_complex(field: FieldSpec, basis: dict, op, specified=None) -> ChainComplex:
    """The complex with basis[d] (a list of hashable chain keys, which
    become the basis labels) in degree d and differential op: diff(d) is
    built for every degree whose target d + 1 lies inside ``specified``
    (every degree when None)."""
    index = {d: {k: i for i, k in enumerate(keys)} for d, keys in basis.items()}
    diffs = {}
    for d, keys in basis.items():
        if specified is None or specified[0] <= d + 1 <= specified[1]:
            diffs[d] = operator_matrix(field, keys, index.get(d + 1, {}), op)
    return ChainComplex(field, basis, diffs, specified)


def tensor_complex(field: FieldSpec, factors) -> ChainComplex:
    """The tensor product of the complexes ``factors``.  Degree d has the
    key tuples (k_1, ..., k_n) of total degree d, k_i = (degree, index) in
    factor i, in itertools.product order (sorted, as each factor's keys
    are), and they are its basis labels; the differential is
    d(k_1 (x) .. (x) k_n) = sum_i (-1)^{|k_1|+..+|k_{i-1}|} k_1 (x) .. (x) dk_i (x) .. (x) k_n,
    assembled only when some factor has a differential."""
    basis = {}
    for keys in itertools.product(*[c.basis_keys() for c in factors]):
        basis.setdefault(sum([k[0] for k in keys]), []).append(keys)
    if not any(c.diffs for c in factors):
        return ChainComplex(field, basis, {})

    def d_of(keys):
        out = {}
        sign = 0
        for i, k in enumerate(keys):
            for k2, v in factors[i].d_of(k):
                field.accumulate(out, keys[:i] + (k2,) + keys[i + 1:], field.neg(v) if sign & 1 else v)
            sign += k[0]
        return out

    return operator_complex(field, basis, d_of)


class WindowError(ValueError):
    pass


def homology_dims(c: ChainComplex, window: tuple) -> dict:
    """Per cohomological degree d in window: dim ker diff(d) - rank diff(d-1)."""
    lo, hi = window
    if c.specified is not None and (lo - 1 < c.specified[0] or hi + 1 > c.specified[1]):
        raise WindowError(
            f"unspecified degrees: window [{lo},{hi}] needs [{lo - 1},{hi + 1}] "
            f"but complex is specified on {list(c.specified)}")
    return {d: c.dim(d) - c.diff_rank(d) - c.diff_rank(d - 1) for d in range(lo, hi + 1)}


def euler_char(c: ChainComplex) -> int:
    """Alternating sum of dimensions over the full (bounded) support."""
    if c.specified is not None:
        sup = c.support()
        if sup and (sup[0] < c.specified[0] or sup[-1] > c.specified[1]):
            raise WindowError("euler_char on a partially specified complex")
    return sum((-1) ** (d % 2) * c.dim(d) for d in c.support())


def homology_quotient(d_in: Matrix, d_out: Matrix):
    """Homology at the middle of  . --d_in--> V --d_out--> .

    Returns (dim, cycle_columns, project) where cycle_columns is a list of
    sparse cycle vectors forming a basis of H modulo boundaries and
    project maps a cycle vector to its coordinates in that basis.  The
    residual modulo boundaries of the k-th representative is stored with
    the tag coordinate dim V + k, so a cycle's coordinates are read off
    the tags of its reduction; project raises ValueError on a vector
    that is not a cycle or has an index outside V.
    """
    f = d_in.field
    n = d_out.cols
    bound = image_basis(d_in)
    reps = []
    quot = Subspace(f)
    # residuals of kernel vectors modulo boundaries; keep the independent ones
    for vec in _kernel_vectors(d_out):
        res = quot._reduce({**bound.residual(vec), n + len(reps): 1})
        if min(res) < n:
            quot._store(res)
            reps.append(vec)

    def project(vec: dict) -> list:
        if any(not 0 <= i < n for i in vec):
            raise ValueError(f"vector has an index outside 0..{n - 1}")
        red = quot._reduce(bound.residual(vec))
        if red and min(red) < n:
            raise ValueError("vector is not a cycle modulo boundaries")
        # only tags are left: red[n + k] = -coords[k]
        coords = [f.zero()] * len(reps)
        for g, v in red.items():
            coords[g - n] = _plain(f.neg(v))
        return coords

    return len(reps), reps, project
