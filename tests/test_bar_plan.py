"""One BarPlan per category against the planners it replaced.

`dgcore.BarPlan` and `dgcore.bar_degree_cap` must give the answers of
the Hochschild-side contribution plan, of the two-sided bar's bound
planner and of the chain-support loops (`oracles.ReferenceContributionPlan`,
`oracles.reference_plan_bar_bound`, `oracles.reference_chain_support`),
on categories and windows that together reach every branch of the grading arithmetic: no chains, no
non-unit key, middle degrees <= 0, middle degrees >= 2, and mixed
middle degrees with an acyclic or a cyclic non-unit digraph."""

import itertools
import random
from pathlib import Path

from dghom import dgcore, grammar, saturation
from dghom.dgcore import DgCategory, disk_cell, opposite, sphere_cell, tensor
from dghom.dgmod import BarWindowError, _plan_bar_bound
from conftest import (Q, contractible_category, exterior_deg, matrix_category,
                      random_small_category)
from oracles import (ReferenceContributionPlan, _factor_keys, reference_chain_support,
                     reference_longest_path_bound, reference_plan_bar_bound)
from test_triangle_modules import a3

WINDOWS = [(lo, lo + w) for lo in range(-6, 5) for w in range(4)]
BAR_BOUNDS = [0, 1, 2, 4]


def _categories(corpus):
    cats = list(corpus.values())
    cats += [sphere_cell(n, Q) for n in range(-3, 5)] + [disk_cell(n, Q) for n in range(-3, 5)]
    rng = random.Random(8)
    draws = [random_small_category(rng) for _ in range(20)]
    cats += draws + [tensor(a, opposite(a)) for a in draws[:10]]
    cats += [exterior_deg(Q, 1), exterior_deg(Q, -1), contractible_category(Q),
             DgCategory(Q, (), {}, {}, {}, name="empty")]
    return cats


def _branch(outer, inner, max_bar):
    if outer is None:
        return "no chains"
    if inner is None:
        return "no non-unit key"
    if inner[1] <= 0:
        return "inner <= 0"
    if inner[0] >= 2:
        return "inner >= 2"
    return "mixed, cyclic" if max_bar is None else "mixed, acyclic"


ALL_BRANCHES = {"no chains", "no non-unit key", "inner <= 0", "inner >= 2",
                "mixed, cyclic", "mixed, acyclic"}


def test_plan_matches_contribution_plan(corpus):
    hit = set()
    for a in _categories(corpus):
        plan, ref = a.bar_plan(), ReferenceContributionPlan(a)
        assert (plan.max_bar, plan.inner, plan.outer) == (ref.max_bar, ref.inner, ref.outer), a
        assert plan.max_bar == reference_longest_path_bound(a)
        assert plan.unit_keys == {x: a.unit_key(x) for x in a.objects}
        for x, y in itertools.product(a.objects, repeat=2):
            assert plan.nonunit[(x, y)] == _factor_keys(a, x, y, True)
            assert (y in plan.succ[x]) == bool(plan.nonunit[(x, y)])
        for t_lo, t_hi in WINDOWS:
            assert plan.bound_for_window(t_lo, t_hi) == ref.bound_for_window(t_lo, t_hi), a
        for t, bar_bound in itertools.product(range(-7, 6), BAR_BOUNDS):
            want = "exact" if ref.exact_at(t, bar_bound) else "truncated"
            assert plan.status(t, bar_bound) == want, a
        hit.add(_branch(plan.outer, plan.inner, plan.max_bar))
    assert hit == ALL_BRANCHES


def test_chain_support_matches_loops(corpus):
    golden = Path(__file__).resolve().parent / "golden"
    rng = random.Random(801)
    draws = [random_small_category(rng) for _ in range(400)]
    cats = list(corpus.values()) + draws + [opposite(a) for a in draws]
    cats += [sphere_cell(n, Q) for n in range(-3, 4)] + [disk_cell(n, Q) for n in range(-3, 4)]
    cats += [grammar.load_path(golden / name)[0]
             for name in ("graded_path.quiver", "ext_minus1.quiver", "cell.sphere.1.dg",
                          "cell.disk.2.dg", "op.graded_path.quiver.dg",
                          "tensor.path12.quiver.kx2.quiver.dg")]
    cats += [exterior_deg(Q, 1), exterior_deg(Q, -1), matrix_category(Q), contractible_category(Q),
             tensor(corpus["kx2"], corpus["path12"]), DgCategory(Q, (), {}, {}, {}, name="empty")]
    # (negative floor, no finite top): every combination occurs
    seen = set()
    for a in cats:
        floor, top = a.bar_plan().chain_support()
        assert (floor, top) == reference_chain_support(a), a
        seen.add((floor < 0, top is None))
    assert seen == set(itertools.product((False, True), repeat=2))


def _plan_answer(planner, *args):
    try:
        return planner(*args)
    except BarWindowError as exc:
        return str(exc)


def test_plan_bar_bound_matches_reference(corpus):
    module_bounds = [None, (0, 0), (-2, 1), (1, 3), (-3, -1)]
    hom_bounds = {a.bar_plan().outer: a.bar_plan().max_bar for a in _categories(corpus)}
    # the all-key bounds of a category contain the unit degree 0, so the
    # "middle degrees >= 2" branch needs synthetic bounds
    hom_bounds.update({(2, 3): None, (1, 1): None, (-2, -1): 4})
    hit = set()
    for (hb, cap), xb, yb, window, bar_bound in itertools.product(
            hom_bounds.items(), module_bounds, module_bounds, WINDOWS, (None, 2)):
        for chain_cap in (None, cap):
            args = (xb, yb, hb, window, bar_bound, chain_cap)
            assert _plan_answer(_plan_bar_bound, *args) == _plan_answer(reference_plan_bar_bound, *args)
            hit.add("no chains" if None in (xb, yb) else _branch(xb, hb, chain_cap))
    assert hit == ALL_BRANCHES


def test_bar_plan_is_cached():
    a = a3()
    assert a.bar_plan() is a.bar_plan()


def test_triangle_check_plans_each_category_once(monkeypatch):
    built = []
    original = dgcore.BarPlan.__init__

    def counting_init(self, a):
        built.append(a)
        original(self, a)

    monkeypatch.setattr(dgcore.BarPlan, "__init__", counting_init)
    res = saturation.triangle_identity_check(a3(), (-2, 2))
    assert res.status == "pass"
    assert len(built) == len({id(a) for a in built})
    mids = [a for a in built if len(a.objects) == 27]
    assert len(mids) == 1, [a.name for a in built]
