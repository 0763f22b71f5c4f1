"""The bar and cyclic operators read the composition, action and
differential tables directly; they must equal the references in
`oracles.py`, which reach the same structure through the generic
bilinear calls on singleton elements, on every chain."""

import itertools

from dghom.dgcore import disk_cell, opposite, tensor, validate
from dghom.exactfield import ChainComplex
from dghom.cyclic import mixed_complex
from dghom.dgmod import _bar_differential, bar_composite, diagonal_bimodule, yoneda_module
from dghom.hochschild import CyclicBar
from dghom.saturation import _triangle_modules
from conftest import (Q, F5, contractible_category, exterior_deg, matrix_category,
                      random_small_category)
from oracles import (UnnormalizedCyclicBar, drop_degenerate, reference_b, reference_bar_diff,
                     reference_connes_B, reference_dint, reference_face, reference_total_diff,
                     semisimple_quotient_left_module)


def _categories(corpus, rng):
    cats = list(corpus.values())
    cats += [matrix_category(Q), matrix_category(F5), contractible_category(Q),
             exterior_deg(Q, 1), exterior_deg(Q, -1)]
    cats += [disk_cell(n, Q) for n in (0, 1, 2)]
    cats += [random_small_category(rng) for _ in range(8)]
    for cat in cats:
        assert validate(cat).ok, cat
    return cats


def test_cyclic_bar_operators(corpus, rng):
    checked = 0
    # the normalized bar, and the library's operators on the reference
    # unnormalized chains
    for cat in _categories(corpus, rng):
        for normalized, bar_class in ((True, CyclicBar), (False, UnnormalizedCyclicBar)):
            if normalized and not cat.unit_is_basis():
                continue
            bar = bar_class(cat, 4)
            for m, keys in bar.keys_by_bar.items():
                for key in keys:
                    for i in range(m + 1 if m else 0):
                        assert bar.face(key, i) == reference_face(bar, key, i), (cat, key, i)
                    assert bar.b_of(key) == reference_b(bar, key), (cat, key)
                    assert bar.dint_of(key) == reference_dint(bar, key), (cat, key)
                    assert bar.total_diff_of(key) == reference_total_diff(bar, key), (cat, key)
                    checked += 1
    assert checked > 500


def test_connes_operator(corpus, rng):
    checked = 0
    for cat in _categories(corpus, rng):
        if not cat.unit_is_basis():
            continue
        mx = mixed_complex(cat, 6)
        for keys in mx.keys.values():
            for key in keys:
                assert mx._B_elem(key) == reference_connes_B(mx, key), (cat, key)
                checked += 1
    assert checked > 100


def _bar_diff_agrees(X, Y, mid, res):
    unit_keys = {u: mid.unit_key(u) for u in mid.objects}
    diff = _bar_differential(X, Y, mid)
    n = 0
    for keys in res.chain_keys[()].values():
        for key in keys:
            want = drop_degenerate(reference_bar_diff(X, Y, mid, key), unit_keys)
            assert diff(key) == want, (mid, key)
            n += 1
    return n


def test_bar_differential(corpus, rng):
    # k[x,y]/(x^2, y^2) has two non-unit loops, so its normalized bar
    # has chains in every bar degree and most of the chains checked here
    checked = 0
    for cat in _categories(corpus, rng) + [tensor(corpus["kx2"], corpus["kx2"])]:
        if not cat.unit_is_basis():
            continue
        op = opposite(cat)
        for x in cat.objects:
            X = yoneda_module(cat, x)
            Y = yoneda_module(op, cat.objects[-1])
            res = bar_composite(X, Y, cat, (-3, 0), 3)
            checked += _bar_diff_agrees(X, Y, cat, res)
    assert checked > 500


def test_bar_differential_smoothness_route(corpus):
    # the diagonal bimodule against the semisimple quotient, as in
    # smoothness_certify
    for cat in list(corpus.values()) + [matrix_category(Q)]:
        diag = diagonal_bimodule(cat)
        s_mod = semisimple_quotient_left_module(cat)
        res = bar_composite(diag, s_mod, diag.base, (-3, 0))
        assert _bar_diff_agrees(diag, s_mod, diag.base, res)


def test_bar_differential_with_spectators(corpus, rng):
    # the triangle bars: one plain bar per object pair, the spectator
    # slot of each triangle module fixed at its unit
    cats = list(corpus.values()) + [matrix_category(Q), disk_cell(1, Q)]
    cats += [random_small_category(rng) for _ in range(4)]
    for cat in cats:
        X, Y, mid = _triangle_modules(cat)
        checked = 0
        for x, w in itertools.product(X, Y):
            res = bar_composite(X[x], Y[w], mid, (-2, 0), 2)
            checked += _bar_diff_agrees(X[x], Y[w], mid, res)
        assert checked, cat


def test_no_internal_differential_on_inputs_without_one(corpus, monkeypatch):
    # BarPlan.differential is false on every degree-0 corpus input and
    # true on the cone; with it false, neither bar looks up a differential
    assert contractible_category(Q).bar_plan().differential
    cats = [corpus[name] for name in ("kx2", "path12", "kxk")]
    assert not any(cat.bar_plan().differential for cat in cats)

    def looked_up(*args):
        raise AssertionError("internal differential looked up")
    monkeypatch.setattr(CyclicBar, "dint_of", looked_up)
    monkeypatch.setattr(ChainComplex, "d_of", looked_up)
    for cat in cats:
        CyclicBar(cat, 3).total_complex()
        X = yoneda_module(cat, cat.objects[0])
        Y = yoneda_module(opposite(cat), cat.objects[-1])
        bar_composite(X, Y, cat, (-3, 0), 3)
