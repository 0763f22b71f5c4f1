"""The one elimination, `Subspace`, against the two paths the library kept
before (`tests/oracles.py`: the rank-only loop and the fully reduced
Fraction basis).  On every differential that the hh/hc bar routes,
`MixedComplex` and the triangle bars build on the shipped inputs, and on
seeded random sparse matrices over Q (with Fractions), F_2, F_3 and F_5,
both give equal ranks, kernel vectors, pivot sets, residuals (value and
type) and quotient projections.  F_p scalars that arrive unreduced are
read as their residues mod p."""

import glob
import itertools
import os
from fractions import Fraction

import pytest

from dghom import grammar
from dghom.corpus import builtin_corpus
from dghom.cyclic import MixedComplex, _column_total_matrix, _first_column
from dghom.dgmod import bar_composite
from dghom.exactfield import (Matrix, Subspace, _kernel_vectors, homology_quotient, image_basis,
                              kernel_basis, rank)
from dghom.hochschild import CyclicBar
from dghom.presentation import PathElement, from_quiver, realize
from dghom.saturation import _triangle_modules
from dghom.smoothness import saturation_report
from conftest import F2, F3, F5, Q, a3
from oracles import (ReferenceSubspace, reference_homology_quotient, reference_image_basis,
                     reference_kernel_vectors, reference_rank)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = sorted(glob.glob(os.path.join(ROOT, "corpus", "*.dg"))
                + glob.glob(os.path.join(ROOT, "corpus", "*.quiver"))
                + glob.glob(os.path.join(ROOT, "tests", "golden", "*.dg"))
                + glob.glob(os.path.join(ROOT, "tests", "golden", "*.quiver")))


def rows_of(m):
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    return [rows[i] for i in sorted(rows)]


def types(vec):
    return {k: type(v) for k, v in vec.items()}


def random_scalar(rng, field):
    """A nonzero scalar in [0, p) over F_p; over Q an int or a Fraction."""
    v = rng.choice([-3, -2, -1, 1, 2, 3])
    if field.kind:
        return v % field.kind or 1
    return Fraction(v, rng.randrange(1, 4)) if rng.random() < 0.4 else v


def random_vector(rng, field, n):
    return {i: random_scalar(rng, field) for i in rng.sample(range(n), min(n, rng.randrange(1, 6)))}


def combination(rng, field, vectors):
    out = {}
    for vec in rng.sample(vectors, min(len(vectors), 3)):
        c = random_scalar(rng, field)
        for i, v in vec.items():
            field.accumulate(out, i, field.mul(c, v))
    return out


def assert_same_elimination(m, rng):
    """rank, kernel vectors, and the pivots and residuals of the row and
    column spaces agree with the references."""
    f = m.field
    assert rank(m) == reference_rank(m)
    kernel = _kernel_vectors(m)
    assert kernel == reference_kernel_vectors(m)
    assert {type(v) for vec in kernel for v in vec.values()} <= ({int} if f.kind else {int, Fraction})
    rows = Subspace(f), ReferenceSubspace(f)
    for row in rows_of(m):
        assert rows[0].insert(row) == rows[1].insert(row)
    columns = list(m.columns().values())
    for (new, ref), n, members in ((rows, m.cols, rows_of(m)),
                                   ((image_basis(m), reference_image_basis(m)), m.rows, columns)):
        assert new.pivot_rows.keys() == ref.pivot_rows.keys()
        if not n:
            continue
        for _ in range(3):
            for vec in (random_vector(rng, f, n), combination(rng, f, members),
                        {**combination(rng, f, members), **random_vector(rng, f, n)}):
                got, want = new.residual(vec), ref.residual(vec)
                assert got == want and types(got) == types(want)


def assert_same_quotient(d_in, d_out, rng):
    """homology_quotient and the reference pick the same representatives
    and project cycles, boundaries and their combinations alike; both
    refuse a vector that is not a cycle."""
    f = d_out.field
    dim, reps, project = homology_quotient(d_in, d_out)
    ref_dim, ref_reps, ref_project = reference_homology_quotient(d_in, d_out)
    assert (dim, reps) == (ref_dim, ref_reps)
    cycles = reps + _kernel_vectors(d_out) + list(d_in.columns().values())
    for vec in reps + [combination(rng, f, cycles) for _ in range(6)]:
        got, want = project(vec), ref_project(vec)
        assert got == want and [type(v) for v in got] == [type(v) for v in want]
    for vec in [random_vector(rng, f, d_out.cols) for _ in range(3)] if d_out.cols else []:
        image = d_out.mul(Matrix(f, d_out.cols, 1, {(i, 0): v for i, v in vec.items()}))
        if not image.is_zero():
            for proj in (project, ref_project):
                with pytest.raises(ValueError):
                    proj(vec)


def bar_route_complexes(a, bar_bound=3):
    """The complexes the hh bar route and the triangle bars build on a,
    the latter only where the triangle check builds them (a smooth
    input), and the matrices of the hc bar route: B and the total
    column matrices of MixedComplex."""
    total, _ = CyclicBar(a, bar_bound).total_complex()
    complexes = [total]
    mx = MixedComplex(a, bar_bound)
    mats = list(mx.B_mats.values())
    mats += [_column_total_matrix(mx, n, _first_column(mx, n), 0) for n in range(4)]
    if saturation_report(a, 6).smooth.certified:
        X, Y, mid = _triangle_modules(a)
        for x, w in sorted(itertools.product(X, Y), key=repr):
            complexes.append(bar_composite(X[x], Y[w], mid, (-2, 2)).complexes[()])
    return complexes, mats


def shipped_categories():
    cats = [(os.path.relpath(p, ROOT), grammar.load_path(p)[0]) for p in INPUTS]
    cats += [(f"{name} over F3", a) for name, a in builtin_corpus(F3).items()]
    return cats + [("A3", a3()), ("A3/(ab)", a3(ab_zero=True))]


def truncated_polynomial(field):
    """k[x]/(x^3), whose normalized cyclic bar doubles in each degree."""
    pres = from_quiver(field, ["v"], [("x", "v", "v", 0)],
                       [PathElement("v", "v", {("x", "x", "x"): field.one()})])
    cat, cert = realize(pres, 2, 4)
    assert cert.is_closed
    return cat


BAR_CASES = ([(name, a, 3) for name, a in shipped_categories()]
             + [(f"k[x]/(x^3) over {f.describe()}", truncated_polynomial(f), 6) for f in (Q, F3)])


@pytest.mark.parametrize("name, a, bar_bound", BAR_CASES, ids=[case[0] for case in BAR_CASES])
def test_bar_route_differentials_match_the_reference(name, a, bar_bound, rng):
    complexes, mats = bar_route_complexes(a, bar_bound)
    for c in complexes:
        for d in sorted(c.diffs):
            assert_same_elimination(c.diff(d), rng)
            assert_same_quotient(c.diff(d - 1), c.diff(d), rng)
    for m in mats:
        assert_same_elimination(m, rng)


def random_matrix(rng, field, rows, cols, density):
    entries = {(i, j): random_scalar(rng, field)
               for i in range(rows) for j in range(cols) if rng.random() < density}
    return Matrix(field, rows, cols, entries)


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_random_matrices_match_the_reference(field, rng):
    for _ in range(60):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        if rng.random() < 0.4:
            # a low-rank product
            k = rng.randrange(1, 4)
            m = random_matrix(rng, field, rows, k, 0.6).mul(random_matrix(rng, field, k, cols, 0.6))
        else:
            m = random_matrix(rng, field, rows, cols, rng.choice([0.15, 0.3, 0.6]))
        assert_same_elimination(m, rng)
        # a complex . --d_in--> k^cols --m--> . with d_in onto part of ker m
        kernel = kernel_basis(m)
        d_in = kernel.mul(random_matrix(rng, field, kernel.cols, rng.randrange(1, 5), 0.5))
        assert m.mul(d_in).is_zero()
        assert_same_elimination(d_in, rng)
        assert_same_quotient(d_in, m, rng)


def test_fp_scalars_are_reduced_as_they_enter():
    m = Matrix(F3, 1, 1, {(0, 0): 3})
    assert rank(m) == 0 and m == Matrix.zeros(F3, 1, 1) and m.is_zero()
    assert Matrix(F3, 1, 1, {(0, 0): -1}) == Matrix(F3, 1, 1, {(0, 0): 2})
    assert Matrix(F5, 2, 1, {(0, 0): 7, (1, 0): -5}).entries == {(0, 0): 2}
    assert kernel_basis(Matrix(F3, 1, 2, {(0, 0): 3, (0, 1): 1})) == Matrix(F3, 2, 1, {(0, 0): 1})
    sp = Subspace(F3)
    assert sp.insert({0: 3, 1: 1})
    assert sp.pivot_rows == {1: {1: 1}}
    assert sp.residual({1: 1}) == {} and sp.residual({0: 3, 1: 4}) == {}
    assert not sp.insert({0: 6, 1: 4})
    sp = Subspace(F3)
    assert sp.insert({0: -1, 1: 1})
    assert sp.pivot_rows == {0: {0: 1, 1: 2}}
    assert sp.residual({0: -1}) == sp.residual({0: 2}) == {1: 2}
    assert not sp.insert({0: 2, 1: 1}) and sp.residual({0: 2, 1: 1}) == {}


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_unreduced_fp_scalars_read_as_their_residues(field, rng):
    p = field.kind
    for _ in range(40):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        raw = {(i, j): rng.randrange(-2 * p, 2 * p + 1)
               for i in range(rows) for j in range(cols) if rng.random() < 0.5}
        residues = {k: v % p for k, v in raw.items() if v % p}
        m = Matrix(field, rows, cols, raw)
        assert m.entries == residues
        assert rank(m) == reference_rank(m)
        assert _kernel_vectors(m) == reference_kernel_vectors(m)
        new, ref = Subspace(field), ReferenceSubspace(field)
        for i in range(rows):
            row = {j: v for (ii, j), v in raw.items() if ii == i}
            assert new.insert(row) == ref.insert({j: v % p for j, v in row.items()})
        assert new.pivot_rows.keys() == ref.pivot_rows.keys()
        for _ in range(3):
            support = rng.sample(range(cols), rng.randrange(1, cols + 1))
            vec = {j: rng.randrange(-2 * p, 2 * p + 1) for j in support}
            assert new.residual(vec) == ref.residual({j: v % p for j, v in vec.items()})
