"""The triangle composite as one plain two-sided bar per object pair.

`saturation._triangle_modules` fixes the spectator slot of each triangle
module at its unit, so the bar over B' = a (x) a^op (x) a needs no
spectator objects.  Each pair's chain basis and differential must equal
the spectator-slot design (`oracles.reference_triangle_modules`, barred
with left_spect = a^op and right_spect = a), and the modules must
satisfy the dg module axioms when the arrows carry degrees, which is
where every term of the double-diagonal sign shows."""

import copy
import itertools

import pytest

from dghom.cells import disk_cell
from dghom.dgcore import DgCategory, Table, opposite, tensor, tensor_info
from dghom.dgmod import bar_composite, validate_module
from dghom.saturation import _triangle_modules, triangle_identity_check
from conftest import Q, a3
from oracles import (brute_bar_chain_keys, drop_degenerate, reference_bar_diff,
                     reference_triangle_modules)


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


def _clean(tables):
    """No empty table, no empty product and no zero scalar."""
    return all(t and all(p and all(p.values()) for p in t.values()) for t in tables.values())


def test_builders_leave_their_input_unchanged_and_emit_clean_tables(corpus):
    # opposite and tensor share products with their inputs, so a table
    # written after construction would change the input too; and the
    # constructors store tables as given, so every builder must emit clean ones
    for a in [*corpus.values(), a3((1, -1)), a3(ab_zero=True), disk_cell(1, Q)]:
        comp, units = copy.deepcopy(a.comp), copy.deepcopy(a.units)
        built = []
        for build in (opposite, lambda a: tensor(a, opposite(a), a), _triangle_modules):
            built.append(build(a))
            assert a.comp == comp and a.units == units, a.name
        op, mid, (X, Y, _) = built
        assert _clean(a.comp) and _clean(op.comp) and _clean(mid.comp), a.name
        assert all(_clean(m.action) for m in [*X.values(), *Y.values()]), a.name


def test_triangle_set_up_computes_no_table(monkeypatch):
    # tensor, opposite and tensor_action compute a table on its first
    # read: building the triangle modules and the middle category's plan
    # reads no product of a and no action table, and the 9 bars on A3
    # compute only the tables their faces can reach; a full read of comp
    # or action anywhere on the way computes every one of mid's 27^3 triples.
    # A hom pair of mid is built on its first read too: the set-up and the
    # plan (made from the factors' plans) build only the loops the units
    # read, and a full read of mid.homs would build all 27^2 pairs
    a = a3()
    reads, cats = [], [a]
    read, init = Table.__call__, DgCategory.__init__
    monkeypatch.setattr(Table, "__call__", lambda table, *key: reads.append((table, key))
                        or read(table, *key))
    monkeypatch.setattr(DgCategory, "__init__", lambda cat, *args, **kwargs: cats.append(cat)
                        or init(cat, *args, **kwargs))
    X, Y, mid = _triangle_modules(a)
    mid.bar_plan()
    # the product tables of every category made on the way, and the
    # modules' action tables
    tables = [c.products for c in cats] + [m.actions for m in [*X.values(), *Y.values()]]
    assert [(table, key) for table, key in reads if any(table is t for t in tables)] == []
    loops = {(u, u) for u in mid.objects}
    built = tensor_info(mid).pair.stored
    assert set(built) <= loops

    computed = {}
    for owner in [mid, *X.values(), *Y.values()]:
        table = owner.products if owner is mid else owner.actions
        def compute(*key, _owner=owner, _fill=table.fill):
            computed.setdefault(id(_owner), []).append(key)
            return _fill(*key)
        table.fill = compute
    # the triples and pairs a face reads: the X-action (face 0), the
    # middle compositions and the Y-action (face p) of every chain
    # and the hom pairs: the loops, the pairs of those tables, and the
    # targets of the middle compositions
    reachable = {id(m): set() for m in [mid, *X.values(), *Y.values()]}
    reachable_homs = set(loops)
    for x, w in itertools.product(X, Y):
        res = bar_composite(X[x], Y[w], mid, (-2, 2))
        for keys in res.chain_keys[()].values():
            for objs, _km, betas, _kn in keys:
                p = len(betas)
                if p:
                    reachable[id(X[x])].add((objs[p - 1], objs[p]))
                    reachable[id(Y[w])].add((objs[1], objs[0]))
                    reachable_homs.update({(objs[p - 1], objs[p]), (objs[0], objs[1])})
                reachable[id(mid)].update(objs[i - 1:i + 2] for i in range(1, p))
                for i in range(1, p):
                    reachable_homs.update(itertools.combinations(objs[i - 1:i + 2], 2))
    for owner, keys in computed.items():
        assert len(keys) == len(set(keys)) and set(keys) <= reachable[owner]
    assert 0 < len(computed[id(mid)]) < len(mid.objects) ** 3
    assert set(built) <= reachable_homs
    assert len(built) == 45, len(built)
