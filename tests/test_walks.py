"""Chain bases enumerated along walks of the nonempty-hom digraph equal
the brute-force enumeration over every object tuple."""

import itertools

from dghom.dgcore import opposite, tensor, unit_category
from dghom.dgmod import bar_composite, yoneda_module
from dghom.hochschild import CyclicBar
from dghom.saturation import _triangle_modules
from dghom.presentation import PathElement, from_quiver, realize
from conftest import Q, random_small_category
from oracles import (UnnormalizedCyclicBar, brute_bar_chain_keys, brute_cyclic_keys,
                     brute_tensor_comp_shape)


def two_cycle():
    """1 -a-> 2 -b-> 1 with a.b = 0: walks that revisit an object."""
    pres = from_quiver(Q, ["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0)],
                       [PathElement("1", "1", {("a", "b"): Q.one()})])
    cat, cert = realize(pres, 2, 5)
    assert cert.is_closed
    return cat


def _categories(corpus, rng, n_random=8):
    cats = list(corpus.values()) + [two_cycle()]
    cats += [random_small_category(rng) for _ in range(n_random)]
    return cats


def _as_sets(chain_keys):
    return {pair: {t: set(lst) for t, lst in by_t.items()} for pair, by_t in chain_keys.items()}


def test_cyclic_bar_keys(corpus, rng):
    # the library's normalized bar and the reference unnormalized one
    for cat in _categories(corpus, rng):
        for normalized, bar_class in ((True, CyclicBar), (False, UnnormalizedCyclicBar)):
            if normalized and not cat.unit_is_basis():
                continue
            bar = bar_class(cat, 4)
            for m, keys in bar.keys_by_bar.items():
                assert set(keys) == brute_cyclic_keys(cat, m, normalized), (cat, m, normalized)
                assert len(keys) == len(set(keys))


def test_bar_composite_chain_keys(corpus, rng):
    window = (-3, 0)
    for cat in _categories(corpus, rng):
        if not cat.unit_is_basis():
            continue
        op = opposite(cat)
        for x in cat.objects:
            X = yoneda_module(cat, x)
            Y = yoneda_module(op, cat.objects[-1])
            res = bar_composite(X, Y, cat, window, 3)
            want = brute_bar_chain_keys(X, Y, cat, window, 3)
            assert _as_sets(res.chain_keys) == want


def test_bar_composite_chain_keys_with_spectators(corpus, rng):
    # the triangle bars: one plain bar per object pair, the spectator
    # slot of each triangle module fixed at its unit
    for cat in _categories(corpus, rng, n_random=4):
        X, Y, mid = _triangle_modules(cat)
        for x, w in itertools.product(X, Y):
            res = bar_composite(X[x], Y[w], mid, (-2, 0), 2)
            want = brute_bar_chain_keys(X[x], Y[w], mid, (-2, 0), 2)
            assert _as_sets(res.chain_keys) == want


def test_tensor_comp(corpus, rng):
    cats = _categories(corpus, rng)
    pairs = [(a, b) for a in cats[:5] for b in cats[:5]]
    pairs += [(cats[i], cats[i + 1]) for i in range(5, len(cats) - 1)]
    pairs.append((cats[0], unit_category(cats[0].field)))
    for factors in pairs + [tuple(cats[:3])]:
        t = tensor(*factors)
        assert {k: len(v) for k, v in t.comp.items()} == brute_tensor_comp_shape(factors)
