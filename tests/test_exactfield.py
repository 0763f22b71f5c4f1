from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dghom import exactfield
from dghom.exactfield import (ChainComplex, FieldSpec, FieldError, Matrix, WindowError,
                              euler_char, homology_dims, homology_quotient, kernel_basis, rank)
from dghom.hochschild import CyclicBar
from conftest import identity
from oracles import dense_rank, matrix_to_dense, random_sparse_matrix, subspace_rank

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)
F_BIG = FieldSpec.prime(2 ** 31 - 1)


def M(field, rows, cols, entries):
    return Matrix(field, rows, cols, {k: field.of_int(v) for k, v in entries.items()})


def transpose(m):
    return Matrix(m.field, m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()})


def column(m, j):
    return {i: v for (i, jj), v in m.entries.items() if jj == j}


class TestField:
    def test_prime_check(self):
        with pytest.raises(FieldError):
            FieldSpec.prime(6)
        with pytest.raises(FieldError):
            FieldSpec.prime(1)
        with pytest.raises(FieldError, match="not a prime: 0"):
            FieldSpec.prime(0)
        with pytest.raises(FieldError, match="not a prime: 4"):
            FieldSpec(4)
        FieldSpec.prime(2)
        FieldSpec.prime(97)

    def test_value_semantics(self):
        a, b = FieldSpec.prime(5), FieldSpec(5)
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != FieldSpec.rationals() and a != 5
        assert {a: "F5"}[b] == "F5" and len({a, b, Q}) == 2
        assert repr(FieldSpec.rationals()) == "FieldSpec(kind=0)"
        assert repr(a) == "FieldSpec(kind=5)"
        assert FieldSpec() == FieldSpec(kind=0) == Q

    def test_immutable(self):
        with pytest.raises(AttributeError):
            F5.kind = 7
        with pytest.raises(AttributeError):
            F5.other = 1
        with pytest.raises(AttributeError):
            del F5.kind
        assert F5.kind == 5

    def test_arithmetics(self):
        assert Q.parse("3/2") == Fraction(3, 2)
        assert F5.parse("7") == 2
        assert F5.parse("1/2") == F5.div(F5.one(), F5.of_int(2)) == 3
        assert F5.inv(3) == 2
        assert Q.inv(Fraction(4)) == Fraction(1, 4)


class TestRankKernel:
    def test_identity(self):
        assert rank(identity(Q, 2)) == 2
        assert kernel_basis(identity(Q, 3)).cols == 0

    def test_zero(self):
        assert rank(Matrix.zeros(Q, 3, 4)) == 0
        k = kernel_basis(Matrix.zeros(Q, 2, 3))
        assert k.cols == 3 and rank(k) == 3

    def test_proportional_rows(self):
        m = M(Q, 2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
        assert rank(m) == 1

    def test_single_row_kernel(self):
        m = M(Q, 1, 2, {(0, 0): 1, (0, 1): 1})
        k = kernel_basis(m)
        assert k.cols == 1
        col = column(k, 0)
        # spans (1, -1) up to scale
        assert col[0] == Q.neg(col[1])

    def test_kernel_annihilates(self, rng):
        for _ in range(25):
            field = rng.choice([Q, F5])
            m = random_sparse_matrix(rng, field, rng.randrange(1, 7), rng.randrange(1, 7))
            k = kernel_basis(m)
            assert m.mul(k).is_zero()
            assert rank(m) + k.cols == m.cols

    def test_rank_transpose(self, rng):
        for _ in range(25):
            field = rng.choice([Q, F5])
            m = random_sparse_matrix(rng, field, rng.randrange(1, 8), rng.randrange(1, 8))
            assert rank(m) == rank(transpose(m))

    @pytest.mark.parametrize("field", [Q, F5])
    def test_against_dense_oracle(self, field, rng):
        for _ in range(40):
            m = random_sparse_matrix(rng, field, rng.randrange(1, 9), rng.randrange(1, 9))
            assert rank(m) == dense_rank(matrix_to_dense(m), field)

    def test_columns_index(self, rng):
        m = random_sparse_matrix(rng, Q, 6, 7)
        cols = m.columns()
        for j in range(m.cols):
            assert cols.get(j, {}) == column(m, j)


def assert_rank_agrees(m):
    r = rank(m)
    assert r == subspace_rank(m) == dense_rank(matrix_to_dense(m), m.field)
    return r


def random_fraction_matrix(rng, rows, cols, density=0.5):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 13))
    return Matrix(Q, rows, cols, entries)


def full_column_rank(rng, field, rows, k):
    """A rows x k matrix whose top k x k block is lower triangular with a
    nonzero diagonal, so its rank is k."""
    nonzero = [v for v in range(-9, 10) if field.of_int(v)]
    entries = {}
    for i in range(rows):
        for j in range(min(i + 1, k)):
            v = field.of_int(rng.choice(nonzero) if i == j else rng.randrange(-9, 10))
            if v:
                entries[(i, j)] = v
    return Matrix(field, rows, k, entries)


def known_rank_product(rng, field, n, k, m):
    """An n x m matrix of rank exactly k: the product of an n x k and a
    k x m factor of rank k, with its rows and columns shuffled."""
    prod = full_column_rank(rng, field, n, k).mul(transpose(full_column_rank(rng, field, m, k)))
    row_perm, col_perm = rng.sample(range(n), n), rng.sample(range(m), m)
    return Matrix(field, n, m, {(row_perm[i], col_perm[j]): v
                                for (i, j), v in prod.entries.items()})


class TestRankOnlyKernel:
    def test_fraction_entries(self, rng):
        for _ in range(30):
            assert_rank_agrees(random_fraction_matrix(rng, rng.randrange(1, 10), rng.randrange(1, 10)))

    def test_fraction_rows_dependent(self):
        # (1/2, 1/3) and (3/4, 1/2) are proportional; denominators must clear exactly
        m = Matrix(Q, 2, 2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3),
                             (1, 0): Fraction(3, 4), (1, 1): Fraction(1, 2)})
        assert assert_rank_agrees(m) == 1

    @pytest.mark.parametrize("field", [Q, F2, F5, F_BIG], ids=["Q", "F2", "F5", "F2^31-1"])
    def test_known_rank_products(self, field, rng):
        for n, k, m in [(5, 2, 6), (12, 7, 10), (25, 13, 30), (40, 23, 38)]:
            assert assert_rank_agrees(known_rank_product(rng, field, n, k, m)) == k

    @pytest.mark.parametrize("field", [F2, F5, F_BIG], ids=["F2", "F5", "F2^31-1"])
    def test_prime_fields_sparse(self, field, rng):
        for _ in range(30):
            assert_rank_agrees(random_sparse_matrix(rng, field, rng.randrange(1, 12), rng.randrange(1, 12)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 7).flatmap(lambda r: st.integers(1, 7).flatmap(
        lambda c: st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                           min_size=r, max_size=r))))
    def test_rank_mod_p_at_most_rank_q(self, rows):
        # the rank of an integer matrix can only drop mod p
        def over(field):
            return Matrix(field, len(rows), len(rows[0]),
                          {(i, j): field.of_int(v) for i, row in enumerate(rows)
                           for j, v in enumerate(row)})
        r_q = rank(over(Q))
        for p in (2, 3, 5):
            assert rank(over(FieldSpec.prime(p))) <= r_q


@pytest.fixture
def ranked(monkeypatch):
    """The ids of the matrices passed to exactfield.rank during the test."""
    calls = []

    def counting_rank(m):
        calls.append(id(m))
        return rank(m)

    monkeypatch.setattr(exactfield, "rank", counting_rank)
    return calls


class TestRankCache:
    def test_each_differential_ranked_once(self, ranked):
        c = ChainComplex(Q, {0: ("x",), 1: ("y0", "y1"), 2: ("z",)},
                         {0: M(Q, 2, 1, {(0, 0): 1}), 1: M(Q, 1, 2, {(0, 1): 1})})
        assert homology_dims(c, (-1, 3)) == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 0}
        assert homology_dims(c, (0, 2)) == {0: 0, 1: 0, 2: 0}
        assert sorted(ranked) == sorted({id(c.diff(0)), id(c.diff(1))})

    def test_repeated_hh_dims_rank_once(self, ranked, corpus):
        total, _ = CyclicBar(corpus["kx2"], 4).total_complex()
        first = [homology_dims(total, (-n, -n)) for n in range(4)]
        assert [homology_dims(total, (-n, -n)) for n in range(4)] == first
        assert ranked and len(ranked) == len(set(ranked))


def two_term(field, n0, n1, entries):
    return ChainComplex(field, {0: tuple(f"a{i}" for i in range(n0)),
                                1: tuple(f"b{i}" for i in range(n1))},
                        {0: M(field, n1, n0, entries)})


class TestHomology:
    def test_contractible(self):
        c = two_term(Q, 1, 1, {(0, 0): 1})
        assert homology_dims(c, (0, 1)) == {0: 0, 1: 0}

    def test_point(self):
        c = ChainComplex(Q, {0: ("x",)}, {})
        assert homology_dims(c, (0, 0)) == {0: 1}
        assert homology_dims(c, (-2, 2)) == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0}

    def test_three_term_rank_arithmetic(self):
        # 0 -> k -> k^2 -> k -> 0 with both differentials of rank 1:
        # dims ker/rank bookkeeping gives zero homology everywhere
        c = ChainComplex(Q, {0: ("x",), 1: ("y0", "y1"), 2: ("z",)},
                         {0: M(Q, 2, 1, {(0, 0): 1}),
                          1: M(Q, 1, 2, {(0, 1): 1})})
        c.verify()
        assert homology_dims(c, (0, 2)) == {0: 0, 1: 0, 2: 0}

    def test_window_error(self):
        c = ChainComplex(Q, {0: ("x",)}, {}, specified=(-1, 1))
        with pytest.raises(WindowError):
            homology_dims(c, (0, 2))
        assert homology_dims(c, (0, 0)) == {0: 1}

    def test_diff_shape_checked(self):
        with pytest.raises(ValueError, match="diff\\(0\\) has shape 1x2, expected 2x1"):
            ChainComplex(Q, {0: ("x",), 1: ("y0", "y1")}, {0: M(Q, 1, 2, {(0, 0): 1})})

    def test_empty_degrees_and_zero_diffs_dropped(self):
        c = ChainComplex(Q, {0: ["x"], 1: ["y"], 2: []}, {0: M(Q, 1, 1, {}), 1: None})
        assert c.spaces == {0: ("x",), 1: ("y",)} and c.diffs == {}
        assert c.specified is None

    def test_d_squared_checked(self):
        with pytest.raises(ValueError):
            ChainComplex(Q, {0: ("a",), 1: ("b",), 2: ("c",)},
                         {0: M(Q, 1, 1, {(0, 0): 1}),
                          1: M(Q, 1, 1, {(0, 0): 1})}).verify()


def random_scalar(rng, field):
    if field.kind == 0 and rng.random() < 0.3:
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
    return field.of_int(rng.randrange(-3, 4))


def split_complex(rng, field, u, h, w):
    """d_in: k^a -> V, d_out: V -> k^b with d_out d_in = 0 and homology
    of dim h at V: on V = U + H + W, d_in maps onto U and d_out is
    injective on W and zero on U + H, before the change of basis
    d_in -> P d_in, d_out -> d_out P^-1.  P is a product of shears I + N
    with N^2 = 0, whose inverses are I - N."""
    n = u + h + w
    extra_in, extra_out = rng.randrange(3), rng.randrange(3)
    d_in = {(i, i): field.one() for i in range(u)}
    d_in.update({(i, u + j): random_scalar(rng, field) for i in range(u) for j in range(extra_in)})
    d_out = {(i, u + h + i): field.one() for i in range(w)}
    d_out.update({(w + r, u + h + j): random_scalar(rng, field)
                  for r in range(extra_out) for j in range(w)})
    d_in = Matrix(field, n, u + extra_in, d_in)
    d_out = Matrix(field, w + extra_out, n, d_out)
    for _ in range(3):
        rows = set(rng.sample(range(n), n // 2))
        shear = {(i, j): random_scalar(rng, field) for i in rows for j in range(n)
                 if j not in rows and rng.random() < 0.5}
        eye = identity(field, n)
        nil = Matrix(field, n, n, shear)
        d_in = eye.add(nil).mul(d_in)
        d_out = d_out.mul(eye.add(Matrix(field, n, n, {k: field.neg(v) for k, v in shear.items()})))
    return d_in, d_out


def as_column(vec, n, field):
    return Matrix(field, n, 1, {(i, 0): v for i, v in vec.items()})


def combine(field, pairs):
    out = {}
    for c, vec in pairs:
        for i, v in vec.items():
            field.accumulate(out, i, field.mul(c, v))
    return out


class TestHomologyQuotient:
    @pytest.mark.parametrize("field", [Q, F2, F5], ids=["Q", "F2", "F5"])
    def test_seeded_complexes(self, field, rng):
        for _ in range(30):
            u, h, w = rng.randrange(4), rng.randrange(4), rng.randrange(4)
            d_in, d_out = split_complex(rng, field, u, h, w)
            n = d_out.cols
            assert d_out.mul(d_in).is_zero()
            dim, reps, project = homology_quotient(d_in, d_out)
            assert dim == h == kernel_basis(d_out).cols - rank(d_in) == len(reps)
            for k, rep in enumerate(reps):
                assert d_out.mul(as_column(rep, n, field)).is_zero()
                assert project(rep) == [int(j == k) for j in range(dim)]
            boundaries = list(d_in.columns().values())
            for b in boundaries:
                assert project(b) == [0] * dim
            cycles = list(kernel_basis(d_out).columns().values())
            for _ in range(3):
                pairs = [(random_scalar(rng, field), v) for v in cycles + boundaries]
                want = [0] * dim
                for c, v in pairs:
                    want = [field.add(a, field.mul(c, b)) for a, b in zip(want, project(v))]
                assert project(combine(field, pairs)) == want
            for i in range(n):
                if d_out.columns().get(i):
                    with pytest.raises(ValueError, match="not a cycle"):
                        project({i: field.one()})
            for bad in (n, n + dim, -1):
                with pytest.raises(ValueError, match="outside"):
                    project({bad: field.one()})
            if reps:
                with pytest.raises(ValueError, match="outside"):
                    project({**reps[0], n: field.one()})


class TestEuler:
    def test_basics(self):
        assert euler_char(ChainComplex(Q, {0: ("x",)}, {})) == 1
        assert euler_char(two_term(Q, 1, 1, {(0, 0): 1})) == 0
        c = ChainComplex(Q, {0: ("a",), 1: ("b0", "b1"), 2: ("c",)},
                         {0: M(Q, 2, 1, {(0, 0): 1}), 1: M(Q, 1, 2, {(0, 1): 1})})
        assert euler_char(c) == 0

    def test_partial_specification_refused(self):
        c = ChainComplex(Q, {0: ("x",), 1: ("y",)}, {}, specified=(0, 1))
        # support inside the specified range is fine
        assert euler_char(c) == 0
        c2 = ChainComplex(Q, {0: ("x",), 2: ("y",)}, {}, specified=(0, 1))
        with pytest.raises(WindowError):
            euler_char(c2)

    def test_euler_equals_alternating_homology(self, rng):
        # random complexes built as sums of shifted elementary pieces with a
        # random change of basis per degree
        for _ in range(20):
            field = rng.choice([Q, F5])
            pieces = [("cone" if rng.random() < 0.5 else "point", rng.randrange(-2, 3))
                      for _ in range(rng.randrange(1, 5))]
            dims = {}

            def new_slot(d):
                i = dims.get(d, 0)
                dims[d] = i + 1
                return i

            entries = {}
            for kind, d in pieces:
                i = new_slot(d)
                if kind == "cone":
                    j = new_slot(d + 1)
                    entries.setdefault(d, {})[(j, i)] = field.of_int(rng.choice([1, 2, -1]))
            spaces = {d: tuple(f"e{d}_{i}" for i in range(n)) for d, n in dims.items()}
            mats = {d: Matrix(field, dims.get(d + 1, 0), dims[d], e)
                    for d, e in entries.items() if e}
            c = ChainComplex(field, spaces, mats)
            c.verify()
            hd = homology_dims(c, (min(dims) - 1, max(dims) + 1))
            assert euler_char(c) == sum((-1) ** (d % 2) * h for d, h in hd.items())
