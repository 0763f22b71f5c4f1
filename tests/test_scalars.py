"""Over Q a scalar is an int when integral and a Fraction otherwise; no
operation may ever produce a float (an int divided with ``/`` would)."""

import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dghom import grammar
from dghom.cyclic import MixedComplex
from dghom.dgcore import tensor
from dghom.dgmod import bar_composite, diagonal_bimodule
from dghom.exactfield import Subspace
from dghom.hochschild import CyclicBar, ch0
from dghom.saturation import _triangle_modules
from conftest import Q, matrix_category
from oracles import semisimple_quotient_left_module

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "corpus")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _categories(corpus):
    cats = [grammar.load_path(os.path.join(CORPUS_DIR, name))[0]
            for name in sorted(os.listdir(CORPUS_DIR))]
    cats += list(corpus.values())
    # non-integral structure constants must stay Fractions
    cats.append(matrix_category(Q, Fraction(1, 2)))
    return cats


def _values(matrices):
    return [v for m in matrices for v in m.entries.values()]


def test_assembled_entries_are_exact(corpus):
    types = set()
    for cat in _categories(corpus):
        assert cat.field == Q
        values = _values(CyclicBar(cat, 4).total_complex()[0].diffs.values())
        mx = MixedComplex(cat, 4)
        values += _values(list(mx.b_mats.values()) + list(mx.B_mats.values()))
        diag = diagonal_bimodule(cat)
        res = bar_composite(diag, semisimple_quotient_left_module(cat), diag.base, (-3, 0))
        values += _values(m for cx in res.complexes.values() for m in cx.diffs.values())
        X, Y, mid = _triangle_modules(cat)
        for x, w in itertools.product(X, Y):
            res = bar_composite(X[x], Y[w], mid, (-2, 0), 2)
            values += _values(res.complexes[()].diffs.values())
        values += [v for c in tensor(cat, cat).homs.values()
                   for v in _values(c.diffs.values())]
        types |= {type(v) for v in values}
    assert types == {int, Fraction}


scalars = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                    st.fractions(max_denominator=10 ** 4).filter(lambda q: q.denominator > 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scalars, scalars)
def test_q_arithmetic_stays_exact(a, b):
    results = [Q.add(a, b), Q.sub(a, b), Q.mul(a, b), Q.neg(a), Q.parse(str(a)),
               Q.sign(a.numerator), Q.of_int(a.numerator)]
    if b:
        results += [Q.inv(b), Q.div(a, b)]
        assert Q.mul(Q.div(a, b), b) == a
        assert Q.mul(Q.inv(b), b) == Q.one()
    assert all(type(r) in (int, Fraction) for r in results)
    assert Q.parse(str(a)) == a
    # integral literals parse to ints
    assert type(Q.parse(str(a * a.denominator))) is int


def test_q_constants():
    assert type(Q.zero()) is type(Q.one()) is int
    assert Q.inv(3) == Fraction(1, 3) and type(Q.inv(3)) is Fraction
    # an integral inverse is an int: units and reciprocals of 1/n
    for a, want in [(1, 1), (-1, -1), (Fraction(1, 2), 2), (Fraction(-1, 3), -3)]:
        assert Q.inv(a) == want and type(Q.inv(a)) is int
    assert type(Q.parse("4/2")) is int and Q.parse("4/2") == 2
    assert type(Q.parse("3/6")) is Fraction
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)


def test_quotient_coordinates_are_ints_when_integral(corpus):
    coords = ch0(corpus["path12"], "1", [[{(0, 0): 1}]]).coords
    assert coords == [1, 0] and [type(v) for v in coords] == [int, int]
    sp = Subspace(Q)
    sp.insert({0: 2, 1: 1})
    sp.insert({1: 3, 2: 6})
    res = sp.residual({0: 1})
    assert res == {2: 1} and type(res[2]) is int
    half = sp.residual({0: 1, 3: Fraction(1, 2)})
    assert type(half[3]) is Fraction


def test_realized_structure_constants_are_ints_when_integral():
    # k<x,y>/(x^2, y^2, 2xy - yx): y.x reduces to 2 x.y
    cat, cert = grammar.load_path(os.path.join(GOLDEN_DIR, "binomial.quiver"))
    assert cert.is_closed
    values = [v for table in cat.comp.values() for prod in table.values() for v in prod.values()]
    assert 2 in values and {type(v) for v in values} == {int}
