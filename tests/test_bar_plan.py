"""One BarPlan per category against the planners it replaced.

`dgcore.BarPlan` and `dgcore.bar_degree_cap` must give the answers of
the Hochschild-side contribution plan, of the two-sided bar's bound
planner and of the chain-support loops (`oracles.ReferenceContributionPlan`,
`oracles.reference_plan_bar_bound`, `oracles.reference_chain_support`),
on categories and windows that together reach every branch of the grading arithmetic: no chains, no
non-unit key, middle degrees <= 0, middle degrees >= 2, and mixed
middle degrees with an acyclic or a cyclic non-unit digraph.
`BarPlan.bar_bound` must give the automatic bar bounds the commands
once derived each for itself (`oracles.auto_bar_bound` and its
companions), except where those differed from the one rule."""

import itertools
import random
from pathlib import Path

from dghom import dgcore, grammar, saturation
from dghom.cells import disk_cell, sphere_cell
from dghom.dgcore import BarPlan, DgCategory, opposite, tensor
from dghom.dgcore import bar_degree_cap
from dghom.dgmod import BarWindowError, DgModule, bar_composite, yoneda_module
from dghom.exactfield import ChainComplex
from dghom.hochschild import CyclicBar
from conftest import (F3, Q, contractible_category, exterior_deg, matrix_category,
                      random_small_category)
from oracles import (ReferenceContributionPlan, _factor_keys, auto_bar_bound, hc_auto_bar_bound,
                     reference_ch0_bar_bound, reference_chain_support,
                     reference_euler_hh_bar_bound, reference_hp_bar_bound,
                     reference_longest_path_bound, reference_opposite, reference_plan_bar_bound,
                     reference_tensor)
from test_triangle_modules import a3
from test_walks import two_cycle

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
            assert plan.nonunit(x, y) == _factor_keys(a, x, y, True)
            assert (y in plan.succ[x]) == bool(plan.nonunit(x, y))
        for t_lo, t_hi in WINDOWS:
            assert plan.bound_for_window(t_lo, t_hi) == ref.bound_for_window(t_lo, t_hi), a
        for t, bar_bound in itertools.product(range(-7, 6), BAR_BOUNDS):
            want = "exact" if ref.exact_at(t, bar_bound) else "truncated"
            assert plan.status(t, bar_bound) == want, a
        hit.add(_branch(plan.outer, plan.inner, plan.max_bar))
    assert hit == ALL_BRANCHES


def _scaled_unit(c):
    """One object whose hom is the field on e, with e.e = e/c: the unit
    c.e is not a basis element with coefficient 1 unless c = 1."""
    e = (0, 0)
    return DgCategory(Q, ("*",), {("*", "*"): ChainComplex(Q, {0: ("e",)}, {})},
                      {("*", "*", "*"): {(e, e): {0: Q.div(Q.one(), c)}}}, {"*": {e: c}},
                      name=f"unit*{c}")


def _tensor_cases(corpus):
    cats = list(corpus.values())
    cases = [(a, b) for a in cats for b in cats]
    cases += [tuple(cats[:3]), (cats[1], opposite(cats[2]), cats[1])]
    cases += [(a, opposite(a), a) for a in (a3((1, -1)), two_cycle())]
    cases += [(opposite(a), a) for a in (a3((1, -1)), two_cycle())]
    cells = [disk_cell(1, Q), sphere_cell(1, Q)]
    cases += [tuple(cells), (cells[1], opposite(cells[1]), cells[0]), (cells[0], cells[0])]
    # degrees that add up alike: several key tuples per degree, the unit one of them
    cases.append((exterior_deg(Q, 1), exterior_deg(Q, -1)))
    rng = random.Random(27)
    for field in (Q, F3):
        draws = [random_small_category(rng, field) for _ in range(12)]
        cases += list(zip(draws[::2], draws[1::2])) + [tuple(draws[:3])]
    # tensor units that are not basis elements, and one that is while
    # neither factor's is; a non-unit cycle beside a differential
    two, half = _scaled_unit(Q.of_int(2)), _scaled_unit(Q.div(Q.one(), Q.of_int(2)))
    cases += [(two, corpus["kx2"]), (two, corpus["path12"]), (corpus["path12"], half, two), (two, half),
              (matrix_category(Q), contractible_category(Q))]
    return cases


def _plan_fields(plan):
    return (list(plan.shapes.items()), plan.unit_keys, plan.succ, plan.max_bar, plan.inner,
            plan.outer, plan.differential)


def test_tensor_plan_comes_from_the_factors(corpus):
    """A tensor category, and its opposite, plans from its factors'
    plans; the plan must be the one read pair by pair off the eager
    reference's hom complexes, field for field and every nonunit list,
    and agree with the loops over the reference's keys."""
    seen = set()
    for factors in _tensor_cases(corpus):
        t, ref = tensor(*factors), reference_tensor(*factors)
        for got, want in ((t, ref), (opposite(t), reference_opposite(ref))):
            plan = got.bar_plan()
            # the reference without its tensor bookkeeping is planned pair by pair
            eager = BarPlan(DgCategory(want.field, want.objects, want.homs, want.comp, want.units))
            assert _plan_fields(plan) == _plan_fields(eager), got
            loops = ReferenceContributionPlan(want)
            assert (plan.max_bar, plan.inner, plan.outer) == (loops.max_bar, loops.inner, loops.outer)
            assert plan.differential == any(c.diffs for c in want.homs.values())
            for x, y in itertools.product(got.objects, repeat=2):
                keys = _factor_keys(want, x, y, True)
                assert plan.nonunit(x, y) == eager.nonunit(x, y) == keys
                assert (y in plan.succ[x]) == bool(keys)
            seen.add("cycle" if plan.max_bar is None else "acyclic")
            seen.add("differential" if plan.differential else "no differential")
            if None in plan.unit_keys.values():
                seen.add("no unit key")
            if any(None in c.bar_plan().unit_keys.values() for c in factors):
                seen.add("factor without unit key")
    assert seen == {"cycle", "acyclic", "differential", "no differential", "no unit key",
                    "factor without unit key"}


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


def _refused_as_none(answer):
    return None if isinstance(answer, str) else answer


def _planned(chains, cap, bar_bound):
    """What ``bar_composite`` makes of a bound ``cap`` on the bar degrees
    that reach the window, when both modules have a value (``chains``):
    (bar bound, flag), or None where it refuses."""
    if not chains:
        return 0, "exact"
    if bar_bound is None:
        return None if cap is None else (cap, "exact")
    return bar_bound, "exact" if cap is not None and bar_bound >= cap else "truncated"


def test_plan_bar_bound_matches_reference(corpus):
    module_bounds = [None, (0, 0), (-2, 1), (1, 3), (-3, -1)]
    # the middle factors of a two-sided bar are non-unit keys, so a plan is
    # keyed by their degree bounds, ``inner``; the synthetic bounds add hom
    # bounds without a chain cap, which only bar_degree_cap can take
    plans = {(p.inner, p.max_bar): p for p in (a.bar_plan() for a in _categories(corpus))}
    hom_bounds = list(plans) + [((2, 3), None), ((1, 1), None), ((-2, -1), 4)]
    hit = set()
    for (hb, cap), xb, yb, window, bar_bound in itertools.product(
            hom_bounds, module_bounds, module_bounds, WINDOWS, (None, 2)):
        chains = None not in (xb, yb)
        outer = (xb[0] + yb[0], xb[1] + yb[1]) if chains else None
        for chain_cap in (None, cap):
            want = _plan_answer(reference_plan_bar_bound, xb, yb, hb, window, bar_bound, chain_cap)
            got = _planned(chains, bar_degree_cap(outer, hb, chain_cap, *window), bar_bound)
            assert got == _refused_as_none(want)
            hit.add(_branch(xb, hb, chain_cap) if chains else "no chains")
        if (hb, cap) in plans:
            want = _plan_answer(reference_plan_bar_bound, xb, yb, hb, window, bar_bound, cap)
            got = _planned(chains, plans[(hb, cap)].two_sided_bound(xb, yb, *window), bar_bound)
            assert got == _refused_as_none(want)
    assert hit == ALL_BRANCHES


def _bar_answer(X, Y, mid, window, bar_bound):
    res = bar_composite(X, Y, mid, window, bar_bound)
    return res.bar_bound, res.flag


def test_bar_composite_matches_reference(corpus):
    """bar_composite's bound, flag and refusal, on representable modules
    and an empty one, are the reference planner's."""
    hit = set()
    for a in (corpus["kx2"], corpus["path12"], a3(), exterior_deg(Q, 1)):
        plan, op = a.bar_plan(), opposite(a)
        xs = [yoneda_module(a, x) for x in a.objects] + [DgModule(a, {}, {})]
        ys = [yoneda_module(op, y) for y in op.objects]
        for X, Y, window, bar_bound in itertools.product(xs, ys, [(-3, 0), (-1, 1)],
                                                         (None, 0, 1, 2, 4)):
            bounds = X.support_bounds(), Y.support_bounds()
            want = _plan_answer(reference_plan_bar_bound, *bounds, plan.inner, window, bar_bound,
                                plan.max_bar)
            assert _plan_answer(_bar_answer, X, Y, a, window, bar_bound) == want
            hit.add("no chains" if None in bounds else "refused" if isinstance(want, str)
                    else want[1])
    assert hit == {"no chains", "refused", "exact", "truncated"}


def test_bar_bound_matches_command_rules(corpus):
    """Every automatic bar bound is BarPlan.bar_bound.  Two rules differ
    from it: hp without a provable bound took piece_hi - piece_lo + 2
    where the shared rule takes 1 - t_lo, and ch0 took at least 2 where
    bar degree 1 covers HH_0 (its chains in total degrees -1 .. 1 are
    the same, so is its class)."""
    branches = set()
    for a in _categories(corpus):
        plan = a.bar_plan()
        for n in range(8):
            assert plan.bar_bound(-n, 0) == auto_bar_bound(a, n), a
            assert plan.bar_bound(-(n + 1), 1, mixed=True) == hc_auto_bar_bound(a, n), a
        for t_lo, t_hi in WINDOWS:
            if t_lo <= 0:
                assert plan.bar_bound(t_lo, t_hi) == reference_euler_hh_bar_bound(a, -t_hi, -t_lo)
        for (n_lo, n_hi), levels in itertools.product(WINDOWS, (2, 4)):
            pieces = (-(n_hi + 1 + 2 * levels), 1 - n_lo)
            got = plan.bar_bound(*pieces, mixed=True)
            if plan.bound_for_window(*pieces) is None:
                assert got == max(2, 1 - pieces[0]), a
                branches.add("unbounded")
            else:
                assert got == reference_hp_bar_bound(a, (n_lo, n_hi), levels), a
                branches.add("finite")
        got, old = plan.bar_bound(-1, 0), reference_ch0_bar_bound(a)
        if got != old:
            assert got == 1 == old - 1 and plan.bound_for_window(-1, 0) <= 1, a
            chains = [CyclicBar(a, b).chains_by_total() for b in (got, old)]
            assert all(chains[0].get(t) == chains[1].get(t) for t in (-1, 0, 1)), a
            branches.add("ch0 below 2")
    assert branches == {"finite", "unbounded", "ch0 below 2"}


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
