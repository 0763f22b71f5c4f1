"""Chain bases enumerated along walks of the nonempty-hom digraph equal
the brute-force enumeration over every object tuple."""

from dghom.dgcore import opposite, tensor, unit_category
from dghom.dgmod import bar_composite, diagonal_bimodule, yoneda_module
from dghom.hochschild import CyclicBar
from dghom.presentation import PathElement, from_quiver, realize
from conftest import Q, random_small_category
from oracles import brute_bar_chain_keys, brute_cyclic_keys, brute_tensor_comp_shape


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
    for cat in _categories(corpus, rng):
        for normalized in (True, False):
            if normalized and not cat.unit_is_basis():
                continue
            bar = CyclicBar(cat, 4, normalized=normalized)
            for m, keys in bar.keys_by_bar.items():
                assert set(keys) == brute_cyclic_keys(cat, m, normalized), (cat, m, normalized)
                assert len(keys) == len(set(keys))


def test_bar_composite_chain_keys(corpus, rng):
    window = (-3, 0)
    for cat in _categories(corpus, rng):
        op = opposite(cat)
        for normalized in (True, False):
            if normalized and not cat.unit_is_basis():
                continue
            for x in cat.objects:
                X = yoneda_module(cat, x)
                Y = yoneda_module(op, cat.objects[-1])
                res = bar_composite(X, Y, cat, window, 3, normalized=normalized)
                want = brute_bar_chain_keys(X, Y, cat, window, 3, normalized)
                assert _as_sets(res.chain_keys) == want


def test_bar_composite_chain_keys_with_spectators(corpus, rng):
    for cat in _categories(corpus, rng, n_random=4):
        d = diagonal_bimodule(cat).module
        normalized = cat.unit_is_basis()
        res = bar_composite(d, d, cat, (-2, 0), 2, left_spect=opposite(cat), right_spect=cat)
        want = brute_bar_chain_keys(d, d, cat, (-2, 0), 2, normalized,
                                    left_spect=opposite(cat), right_spect=cat)
        assert _as_sets(res.chain_keys) == want


def test_tensor_comp(corpus, rng):
    cats = _categories(corpus, rng)
    pairs = [(a, b) for a in cats[:5] for b in cats[:5]]
    pairs += [(cats[i], cats[i + 1]) for i in range(5, len(cats) - 1)]
    pairs.append((cats[0], unit_category(cats[0].field)))
    for factors in pairs + [tuple(cats[:3])]:
        t = tensor(*factors)
        assert {k: len(v) for k, v in t.comp.items()} == brute_tensor_comp_shape(factors)
