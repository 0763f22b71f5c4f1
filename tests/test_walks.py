"""Chain bases enumerated along walks equal the brute-force enumeration
over every object tuple, in the same order: walks in the lexicographic
order of the objects, then the product of the slot bases.  The factorwise
tensor equals the reference tensor, dict order included, and so do the
tables that tensor, opposite and the tensor-built modules compute on
their first read, whatever the order of the reads."""

import itertools
import random

from dghom import saturation
from dghom.cells import unit_category
from dghom.dgcore import BarPlan, opposite, tensor
from dghom.dgmod import bar_composite, diagonal_bimodule, yoneda_module
from dghom.hochschild import CyclicBar
from dghom.saturation import _triangle_modules, triangle_identity_check
from dghom.presentation import PathElement, from_quiver, realize
from conftest import Q, random_small_category
from oracles import (UnnormalizedCyclicBar, brute_bar_chain_keys, brute_cyclic_keys,
                     brute_tensor_comp_shape, reference_diagonal_action, reference_opposite,
                     reference_tensor, reference_triangle_modules)


def two_cycle():
    """1 -a-> 2 -b-> 1 with a.b = 0: walks that revisit an object."""
    pres = from_quiver(Q, ["1", "2"], [("a", "1", "2", 0), ("b", "2", "1", 0)],
                       [PathElement("1", "1", {("a", "b"): Q.one()})])
    cat, cert = realize(pres, 2, 5)
    assert cert.is_closed
    return cat


def linear_quiver(n, degrees=None):
    """The path algebra of 1 -> 2 -> ... -> n, arrows in the given degrees."""
    degrees = degrees or [0] * (n - 1)
    objs = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", objs[i], objs[i + 1], d) for i, d in enumerate(degrees)]
    cat, cert = realize(from_quiver(Q, objs, arrows), sum(map(abs, degrees)) + 2, n)
    assert cert.is_closed
    return cat


def _categories(corpus, rng, n_random=8):
    cats = list(corpus.values()) + [two_cycle()]
    cats += [random_small_category(rng) for _ in range(n_random)]
    return cats


def _in_walk_order(cat, keys, walk_key):
    """The keys sorted into enumeration order: the walk by object
    position, then the slot keys, which sort as their bases list them
    ((degree, index), degrees ascending)."""
    rank = {x: n for n, x in enumerate(cat.objects)}
    return sorted(keys, key=lambda k: (len(k[0]), [rank[x] for x in k[0]], walk_key(k)))


def _bar_order(mid, brute):
    # chains (objs, km, (a_p, ..., a_1), kn) run km, kn, then (a_1, ..., a_p)
    return {pair: {t: _in_walk_order(mid, keys, lambda k: (k[1], k[3], k[2][::-1]))
                   for t, keys in by_t.items()}
            for pair, by_t in brute.items()}


def test_cyclic_bar_keys(corpus, rng):
    # the library's normalized bar and the reference unnormalized one
    for cat in _categories(corpus, rng):
        for normalized, bar_class in ((True, CyclicBar), (False, UnnormalizedCyclicBar)):
            if normalized and not cat.unit_is_basis():
                continue
            bar = bar_class(cat, 4)
            for m, keys in bar.keys_by_bar.items():
                want = _in_walk_order(cat, brute_cyclic_keys(cat, m, normalized), lambda k: k[1])
                assert keys == want, (cat, m, normalized)


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
            assert res.chain_keys == _bar_order(cat, want)


def test_bar_composite_chain_keys_with_spectators(corpus, rng):
    # the triangle bars: one plain bar per object pair, the spectator
    # slot of each triangle module fixed at its unit; A4 and graded A3
    # at the window of `dghom check`, with the bar bound it plans
    cases = [(cat, (-2, 0), 2) for cat in _categories(corpus, rng, n_random=4)]
    cases += [(linear_quiver(4), (-3, 3), None), (linear_quiver(3, [1, -1]), (-3, 3), None)]
    for cat, window, bound in cases:
        X, Y, mid = _triangle_modules(cat)
        for x, w in itertools.product(X, Y):
            res = bar_composite(X[x], Y[w], mid, window, bound)
            want = brute_bar_chain_keys(X[x], Y[w], mid, window, res.bar_bound)
            assert res.chain_keys == _bar_order(mid, want), (cat, x, w)


def test_triangle_walks_start_and_end_in_the_module_supports(monkeypatch):
    # A4 at (-3, 3): every walk handed to bar_composite must run from the
    # support of Y[w] into the support of X[x]; a fallback to every walk
    # of the non-unit digraph of a (x) a^op (x) a fails here
    inside = []
    seen = []
    original_bar, original_walks = saturation.bar_composite, BarPlan.walks

    def bar(X, Y, *args, **kwargs):
        inside.append((X, Y))
        try:
            return original_bar(X, Y, *args, **kwargs)
        finally:
            inside.pop()

    def walks(plan, m, starts, ends):
        out = original_walks(plan, m, starts, ends)
        if inside:
            X, Y = inside[-1]
            for objs in out:
                assert Y.value(objs[0]).total_dim() and X.value(objs[-1]).total_dim(), objs
            seen.extend(out)
        return out

    monkeypatch.setattr(saturation, "bar_composite", bar)
    monkeypatch.setattr(BarPlan, "walks", walks)
    res = triangle_identity_check(linear_quiver(4), (-3, 3))
    assert res.status == "pass" and res.details["pairs"] == 16
    assert seen


def test_tensor_comp(corpus, rng):
    cats = _categories(corpus, rng)
    pairs = [(a, b) for a in cats[:5] for b in cats[:5]]
    pairs += [(cats[i], cats[i + 1]) for i in range(5, len(cats) - 1)]
    pairs.append((cats[0], unit_category(cats[0].field)))
    for factors in pairs + [tuple(cats[:3])]:
        t = tensor(*factors)
        assert {k: len(v) for k, v in t.comp.items()} == brute_tensor_comp_shape(factors)


def _ordered(d):
    """Nested dicts as nested item lists, so equality sees dict order."""
    return [(k, _ordered(v)) for k, v in d.items()] if isinstance(d, dict) else d


def test_tensor_matches_reference(corpus, rng):
    cats = _categories(corpus, rng, n_random=6)
    a3, graded = linear_quiver(3), linear_quiver(3, [1, -1])
    cases = [(a, b) for a in cats[:5] for b in cats[:5]]
    cases += [(cats[i], cats[i + 1]) for i in range(5, len(cats) - 1)]
    cases += [tuple(cats[:3]), (cats[0], unit_category(Q))]
    cases += [(a, opposite(a), a) for a in (a3, graded, two_cycle())]
    cases.append((opposite(graded), graded))
    for factors in cases:
        got, want = tensor(*factors), reference_tensor(*factors)
        assert got.objects == want.objects
        assert _ordered({k: c.spaces for k, c in got.homs.items()}) \
            == _ordered({k: c.spaces for k, c in want.homs.items()})
        assert {k: c.diffs for k, c in got.homs.items()} == {k: c.diffs for k, c in want.homs.items()}
        assert _ordered(got.comp) == _ordered(want.comp), factors
        assert _ordered(got.units) == _ordered(want.units)
        assert _ordered(got._tensor.keys) == _ordered(want._tensor.keys)
        assert _ordered(got._tensor.index) == _ordered(want._tensor.index)
        assert got == want


def _spectator_slice(ref, slot, unit_key, split):
    """The action of a spectator-slot triangle module ``ref`` with its
    spectator object fixed (``slot`` maps an object of the library
    module to one of ``ref``) and its spectator hom factor at the unit
    key: the tables of the library module, keyed by the middle flat key.
    ``split`` turns a key tuple of ref's base into (spectator key,
    middle key)."""
    keys = ref.base._tensor.keys

    def table(xo, yo):
        pair = (slot(xo), slot(yo))
        out = {}
        for ((d, i), vk), prod in ref.actions(*pair).items():
            k_spect, k_mid = split(keys[pair][d][i])
            if k_spect == unit_key:
                out[(k_mid, vk)] = prod
        return out
    return table


def _read_shuffled(read, keys, rng, want):
    """Read every key through the accessor in a shuffled order; each
    table equals the reference's."""
    keys = list(keys)
    rng.shuffle(keys)
    for key in keys:
        assert read(*key) == want(*key), key


def test_tables_on_demand_equal_the_eager_reference():
    # each table is computed on its first read, so the reads run in a
    # shuffled order; the full view must still list the tables in object
    # order, equal to the eager reference dict for dict
    rng = random.Random(0x7AB)
    for a in (linear_quiver(3), linear_quiver(3, [1, -1]), two_cycle()):
        want_mid = reference_tensor(a, opposite(a), a)
        cats = [(tensor(a, opposite(a), a), want_mid), (opposite(a), reference_opposite(a)),
                (opposite(tensor(a, opposite(a), a)), reference_opposite(want_mid))]
        for got, want in cats:
            triples = itertools.product(got.objects, repeat=3)
            _read_shuffled(got.products, triples, rng, lambda *t: want.comp.get(t, {}))
            assert _ordered(got.comp) == _ordered(want.comp), (a, got)

        X, Y, _mid = _triangle_modules(a)
        Xr, Yr, _ = reference_triangle_modules(a)
        # X[x] is Xr at the objects (x, o), Y[w] is Yr at (o, w)
        sides = [(X, Xr, lambda s, o: (s, o), opposite(a).unit_key, lambda k: k),
                 (Y, Yr, lambda s, o: (o, s), a.unit_key, lambda k: k[::-1])]
        for modules, ref, slot, unit_key, split in sides:
            for s, module in modules.items():
                want = _spectator_slice(ref, lambda o: slot(s, o), unit_key(s), split)
                pairs = list(itertools.product(module.base.objects, repeat=2))
                _read_shuffled(module.actions, pairs, rng, want)
                full = {p: t for p in pairs if (t := want(*p))}
                assert _ordered(module.action) == _ordered(full), (a, module)

        diag, want = diagonal_bimodule(a), reference_diagonal_action(a)
        _read_shuffled(diag.actions, itertools.product(diag.base.objects, repeat=2), rng,
                       lambda *p: want.get(p, {}))
        assert _ordered(diag.action) == _ordered(want), a
