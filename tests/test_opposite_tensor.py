"""The opposite of a tensor category A_1 (x) .. (x) A_n is
A_1^op (x) .. (x) A_n^op key tuple for key tuple and sign for sign, so
``opposite`` keeps the tensor bookkeeping that the module builders read:
the triangle modules Y live over opposite(a (x) a^op (x) a)."""

import itertools

from dghom.cells import disk_cell, sphere_cell
from dghom.dgcore import opposite, tensor, tensor_info
from conftest import Q, random_small_category


def _factors(corpus, rng):
    cells = [disk_cell(1, Q), disk_cell(2, Q), sphere_cell(1, Q), sphere_cell(2, Q)]
    return cells + list(corpus.values()) + [random_small_category(rng, max_dim=3) for _ in range(6)]


def _assert_opposite_is_tensor_of_opposites(cats):
    t = tensor(*cats)
    got = opposite(t)
    want = tensor(*(opposite(c) for c in cats))
    assert got == want
    gi, wi = tensor_info(got), tensor_info(want)
    assert gi.keys == wi.keys
    assert gi.index == wi.index
    assert gi.factors == wi.factors
    # and back: the opposite of the opposite has the bookkeeping of t
    assert tensor_info(opposite(got)).keys == tensor_info(t).keys


def test_opposite_of_a_pair_tensor(corpus, rng):
    cats = _factors(corpus, rng)
    for a, b in itertools.combinations(cats, 2):
        _assert_opposite_is_tensor_of_opposites((a, b))


def test_opposite_of_the_triangle_middle(corpus, rng):
    for a in _factors(corpus, rng):
        _assert_opposite_is_tensor_of_opposites((a, opposite(a), a))
