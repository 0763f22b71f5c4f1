"""Exact linear algebra over Q and prime fields.

Everything downstream reduces to the primitives here: sparse matrices of
field scalars, rank/kernel via exact Gaussian elimination, and bounded
chain complexes in the cohomological convention (the differential raises
the degree by one).  Homological degrees are reported at higher layers
as H_n := H^{-n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


_Q_ZERO = Fraction(0)


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


@dataclass(frozen=True)
class FieldSpec:
    """The base field: ``kind`` is 0 for Q, otherwise the prime p.

    Scalars are Fraction instances over Q and ints in [0, p) over F_p.
    """

    kind: int = 0

    def __post_init__(self):
        if self.kind != 0 and not _is_prime(self.kind):
            raise FieldError(f"not a prime: {self.kind}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(0)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(p)

    @property
    def is_rational(self) -> bool:
        return self.kind == 0

    def zero(self):
        return Fraction(0) if self.kind == 0 else 0

    def one(self):
        return Fraction(1) if self.kind == 0 else 1

    def of_int(self, n: int):
        return Fraction(n) if self.kind == 0 else n % self.kind

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
        return 1 / a if self.kind == 0 else pow(a, self.kind - 2, self.kind)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def accumulate(self, store: dict, key, val):
        """store[key] += val on a sparse vector, which never stores a zero:
        a key whose value cancels is removed."""
        # add() inlined: this is the innermost loop of every assembly
        if self.kind:
            w = (store.get(key, 0) + val) % self.kind
        else:
            w = store.get(key, _Q_ZERO) + val
        if w:
            store[key] = w
        else:
            store.pop(key, None)

    def parse(self, text: str):
        """Parse a scalar literal: integer, or p/q over the rationals."""
        text = text.strip()
        if self.kind == 0:
            return Fraction(text)
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

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        one = field.one()
        return Matrix(field, n, n, {(i, i): one for i in range(n)})

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

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      {(j, i): v for (i, j), v in self.entries.items()})

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def apply(self, vec: dict) -> dict:
        """Apply to a sparse column vector {index: scalar}."""
        f = self.field
        out = {}
        by_col = {}
        for (i, j), v in self.entries.items():
            by_col.setdefault(j, []).append((i, v))
        for j, c in vec.items():
            if not c:
                continue
            for i, v in by_col.get(j, ()):
                f.accumulate(out, i, f.mul(v, c))
        return out

    def to_dense(self):
        z = self.field.zero()
        return [[self.entries.get((i, j), z) for j in range(self.cols)]
                for i in range(self.rows)]


class Subspace:
    """Incremental row space with pivot bookkeeping.

    Vectors are sparse dicts {index: scalar}.  Supports membership
    reduction and coordinates of a vector with respect to the inserted
    generators (used for quotient-space coordinates).
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.pivot_rows = {}      # pivot index -> reduced row (dict)
        self.pivot_combos = {}    # pivot index -> combo over inserted generators
        self.n_inserted = 0

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def _reduce(self, vec: dict, combo: dict):
        f = self.field
        vec = dict(vec)
        for p in sorted(set(vec) & set(self.pivot_rows)):
            c = vec.get(p)
            if not c:
                continue
            row = self.pivot_rows[p]
            for j, v in row.items():
                w = f.sub(vec.get(j, f.zero()), f.mul(c, v))
                if w:
                    vec[j] = w
                else:
                    vec.pop(j, None)
            rc = self.pivot_combos[p]
            for g, v in rc.items():
                w = f.sub(combo.get(g, f.zero()), f.mul(c, v))
                if w:
                    combo[g] = w
                else:
                    combo.pop(g, None)
        return vec, combo

    def insert(self, vec: dict) -> bool:
        """Insert a generator; returns True if it enlarged the space."""
        return self.insert_tracked(vec)[0]

    def insert_tracked(self, vec: dict):
        """Insert a generator; returns (added, combo) where, when the
        reduction vanished, 0 = vec + sum combo[g] * generator_g."""
        f = self.field
        idx = self.n_inserted
        self.n_inserted += 1
        vec, combo = self._reduce(dict(vec), {idx: f.one()})
        vec = {k: v for k, v in vec.items() if v}
        if not vec:
            return False, combo
        p = min(vec)
        c = f.inv(vec[p])
        row = {k: f.mul(c, v) for k, v in vec.items()}
        cmb = {k: f.mul(c, v) for k, v in combo.items()}
        # back-substitute into existing rows to keep a reduced basis
        for q, qrow in list(self.pivot_rows.items()):
            if p in qrow:
                coef = qrow[p]
                for j, v in row.items():
                    w = f.sub(qrow.get(j, f.zero()), f.mul(coef, v))
                    if w:
                        qrow[j] = w
                    else:
                        qrow.pop(j, None)
                qc = self.pivot_combos[q]
                for g, v in cmb.items():
                    w = f.sub(qc.get(g, f.zero()), f.mul(coef, v))
                    if w:
                        qc[g] = w
                    else:
                        qc.pop(g, None)
        self.pivot_rows[p] = row
        self.pivot_combos[p] = cmb
        return True, combo

    def residual(self, vec: dict) -> dict:
        """Reduce vec modulo the subspace; zero dict iff vec is a member."""
        out, _ = self._reduce(vec, {})
        return {k: v for k, v in out.items() if v}

    def contains(self, vec: dict) -> bool:
        return not self.residual(vec)


def rank(m: Matrix) -> int:
    sp = Subspace(m.field)
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    for i in sorted(rows):
        sp.insert(rows[i])
    return sp.dim


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the null space of m."""
    f = m.field
    sp = Subspace(f)
    members = []  # combos over column indices whose reduction vanished
    by_col = {}
    for (i, j), v in m.entries.items():
        by_col.setdefault(j, {})[i] = v
    for j in range(m.cols):
        added, combo = sp.insert_tracked(by_col.get(j, {}))
        if not added:
            members.append(combo)
    entries = {}
    for col, combo in enumerate(members):
        for i, v in combo.items():
            entries[(i, col)] = v
    return Matrix(f, m.cols, len(members), entries)


def image_basis(m: Matrix) -> Subspace:
    """Column space of m as an incremental Subspace."""
    sp = Subspace(m.field)
    by_col = {}
    for (i, j), v in m.entries.items():
        by_col.setdefault(j, {})[i] = v
    for j in sorted(by_col):
        sp.insert(by_col[j])
    return sp


@dataclass
class ChainComplex:
    """Bounded complex in the cohomological convention: diff(d): d -> d+1.

    ``spaces`` maps a degree to its ordered tuple of basis labels; absent
    degrees are zero.  ``specified`` restricts the degrees on which the
    complex is meaningful (None = everywhere, zero outside support);
    windowed bar-construction outputs use it to refuse out-of-range
    homology queries.
    """

    field: FieldSpec
    spaces: dict
    diffs: dict
    specified: tuple | None = None

    def __post_init__(self):
        self.spaces = {d: tuple(labels) for d, labels in self.spaces.items() if labels}
        cleaned = {}
        for d, m in self.diffs.items():
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

    def support(self):
        return sorted(self.spaces)

    def total_dim(self) -> int:
        return sum(len(v) for v in self.spaces.values())

    def verify(self):
        """Check diff(d+1) . diff(d) = 0; raises on failure."""
        for d in self.support():
            if self.dim(d) and self.dim(d + 1) and self.dim(d + 2):
                if not self.diff(d + 1).mul(self.diff(d)).is_zero():
                    raise ValueError(f"d^2 != 0 at degree {d}")
        return self

    def in_specified(self, d: int) -> bool:
        return self.specified is None or self.specified[0] <= d <= self.specified[1]


class WindowError(ValueError):
    pass


def homology_dims(c: ChainComplex, window: tuple) -> dict:
    """Per cohomological degree d in window: dim ker diff(d) - rank diff(d-1)."""
    lo, hi = window
    if c.specified is not None and (lo - 1 < c.specified[0] or hi + 1 > c.specified[1]):
        raise WindowError(
            f"unspecified degrees: window [{lo},{hi}] needs [{lo - 1},{hi + 1}] "
            f"but complex is specified on {list(c.specified)}")
    out = {}
    for d in range(lo, hi + 1):
        n = c.dim(d)
        if n == 0:
            out[d] = 0
            continue
        r_out = rank(c.diff(d)) if c.dim(d + 1) else 0
        r_in = rank(c.diff(d - 1)) if c.dim(d - 1) else 0
        out[d] = n - r_out - r_in
    return out


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
    project maps a cycle vector to its coordinates in that basis.
    """
    f = d_in.field
    bound = image_basis(d_in)
    ker = kernel_basis(d_out)
    reps = []
    quot = Subspace(f)
    # residuals of kernel vectors modulo boundaries; keep the independent ones
    for j in range(ker.cols):
        vec = ker.column(j)
        res = bound.residual(vec)
        if res and quot.insert(res):
            reps.append(vec)
    basis_space = Subspace(f)
    for vec in reps:
        basis_space.insert(bound.residual(vec))

    def project(vec: dict) -> list:
        res = bound.residual(vec)
        red, combo = basis_space._reduce(dict(res), {})
        if any(v for v in red.values()):
            raise ValueError("vector is not a cycle modulo boundaries")
        # invariant of _reduce: red = res + sum combo[g] * generator_g
        coords = [f.zero()] * len(reps)
        for g, v in combo.items():
            coords[g] = f.neg(v)
        return coords

    return len(reps), reps, project
