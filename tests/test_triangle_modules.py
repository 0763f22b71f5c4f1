"""The triangle composite as one plain two-sided bar per object pair.

`saturation._triangle_modules` fixes the spectator slot of each triangle
module at its unit, so the bar over B' = a (x) a^op (x) a needs no
spectator objects.  Each pair's chain basis and differential must equal
the spectator-slot design (`oracles.reference_triangle_modules`, barred
with left_spect = a^op and right_spect = a), and the modules must
satisfy the dg module axioms when the arrows carry degrees, which is
where every term of the double-diagonal sign shows."""

import itertools

import pytest

from dghom.dgcore import disk_cell, opposite
from dghom.dgmod import bar_composite, validate_module
from dghom.presentation import PathElement, from_quiver, realize
from dghom.saturation import _triangle_modules, triangle_identity_check
from conftest import Q
from oracles import (brute_bar_chain_keys, drop_degenerate, reference_bar_diff,
                     reference_triangle_modules)


def a3(degrees=(0, 0), ab_zero=False):
    """The quiver 1 -a-> 2 -b-> 3 with the given arrow degrees, and with
    the relation a.b = 0 when ab_zero."""
    da, db = degrees
    rels = [PathElement("1", "3", {("a", "b"): Q.one()})] if ab_zero else []
    pres = from_quiver(Q, ["1", "2", "3"], [("a", "1", "2", da), ("b", "2", "3", db)], rels)
    cat, cert = realize(pres, abs(da) + abs(db) + 2, 3)
    assert cert.is_closed
    cat.name = "A3/(ab)" if ab_zero else "A3"
    return cat


def _cases(corpus):
    return {"A3": a3(), "A3/(ab)": a3(ab_zero=True), "path12": corpus["path12"],
            "kx2": corpus["kx2"], "D(1)": disk_cell(1, Q)}


@pytest.mark.parametrize("name", ["A3", "A3/(ab)", "path12", "kx2", "D(1)"])
def test_per_pair_bar_equals_spectator_bar(corpus, name):
    a = _cases(corpus)[name]
    window, bar_bound = (-2, 2), 2
    X, Y, mid = _triangle_modules(a)
    Xr, Yr, mid_r = reference_triangle_modules(a)
    assert mid_r == mid
    op_a = opposite(a)
    unit_keys = {u: mid.unit_key(u) for u in mid.objects}
    want_keys = brute_bar_chain_keys(Xr, Yr, mid, window, bar_bound,
                                     left_spect=op_a, right_spect=a)
    assert sorted(itertools.product(X, Y), key=repr) == sorted(want_keys, key=repr)
    chains = 0
    for (x, w), want in want_keys.items():
        res = bar_composite(X[x], Y[w], mid, window, bar_bound)
        keys = res.chain_keys[()]
        assert {t: set(lst) for t, lst in keys.items()} == want, (x, w)
        cx = res.complexes[()]
        for t, m in cx.diffs.items():
            row = {k: i for i, k in enumerate(keys.get(t + 1, ()))}
            entries = {}
            for col, key in enumerate(keys[t]):
                img = drop_degenerate(
                    reference_bar_diff(Xr, Yr, mid, key, x, w, op_a, a), unit_keys)
                entries.update({(row[k], col): v for k, v in img.items()})
            assert m.entries == entries, (x, w, t)
            chains += len(keys[t])
    assert chains > 0


@pytest.mark.parametrize("degrees", [(1, 1), (-1, -1), (1, -1)])
def test_triangle_modules_of_graded_a3_are_modules(degrees):
    X, Y, _mid = _triangle_modules(a3(degrees))
    for module in list(X.values()) + list(Y.values()):
        assert validate_module(module).ok, module.name


@pytest.mark.parametrize("ab_zero", [False, True], ids=["A3", "A3/(ab)"])
def test_triangle_report_on_a3(ab_zero):
    res = triangle_identity_check(a3(ab_zero=ab_zero), (-2, 2))
    assert res.as_dict() == {"status": "pass", "evidence": "quasi-isomorphism",
                             "details": {"pairs": 9, "bar_bound": 3}}
