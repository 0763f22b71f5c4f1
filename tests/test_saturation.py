import random

import pytest

from dghom import dgcore, dgmod, hochschild, saturation
from dghom.cells import disk_cell, sphere_cell
from dghom.exactfield import homology_dims
from dghom.dgcore import opposite, tensor
from dghom.dgmod import BarWindowError, _diagonal_over, diagonal_bimodule, validate_module
from dghom.monomial import HochschildError, hh_dims
from dghom.presentation import from_quiver, realize
from dghom.saturation import euler_report, euler_via_duality, euler_via_hh, triangle_identity_check
from dghom.smoothness import properness_check, saturation_report, smoothness_certify
from conftest import F3, Q, hom_dims, random_small_category
from oracles import pullback_module, semisimple_quotient_left_module, swap_functor
from test_triangle_modules import a3


def graded_path4():
    """Path 1 -> 2 -> 3 -> 4 with every arrow in degree 2: its HH reaches
    down to degree -21."""
    pres = from_quiver(Q, ["1", "2", "3", "4"],
                       [("a", "1", "2", 2), ("b", "2", "3", 2), ("c", "3", "4", 2)])
    cat, cert = realize(pres, 10, 5)
    assert cert.is_closed
    return cat


class TestProperness:
    def test_corpus_proper(self, corpus):
        for cat in corpus.values():
            ok, detail = properness_check(cat)
            assert ok
            assert all(isinstance(v, int) for v in detail.values())

    def test_spheres_proper(self):
        ok, _ = properness_check(sphere_cell(2, Q))
        assert ok

    def test_truncated_not_proper(self):
        pres = from_quiver(Q, ["v"], [("x", "v", "v", 0)])
        cat, cert = realize(pres, 2, 3)
        ok, _ = properness_check(cat)
        assert not ok


class TestSmoothness:
    def test_semisimple_module_valid(self, corpus):
        for cat in corpus.values():
            assert validate_module(semisimple_quotient_left_module(cat)).ok

    def test_unit_certified_zero(self, corpus):
        r = smoothness_certify(corpus["unit"], 6)
        assert r.status == "certified" and r.level == 0

    def test_kxk_certified_zero(self, corpus):
        r = smoothness_certify(corpus["kxk"], 6)
        assert r.status == "certified" and r.level == 0

    def test_path_certified_one(self, corpus):
        r = smoothness_certify(corpus["path12"], 6)
        assert r.status == "certified" and r.level == 1
        assert r.tor_dims[0] == 2 and r.tor_dims[1] == 1 and r.tor_dims[2] == 0

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6])
    def test_kx2_inconclusive_every_bound(self, corpus, bound):
        r = smoothness_certify(corpus["kx2"], bound)
        assert r.status == "inconclusive" and r.level == bound
        assert all(r.tor_dims[n] == 1 for n in range(bound + 2))

    @pytest.mark.parametrize("bound", [-1, -3])
    def test_negative_bound_refused(self, corpus, bound):
        # no Tor is computed below degree 0, so no certificate may be issued
        with pytest.raises(ValueError, match="bound must be >= 0"):
            smoothness_certify(corpus["kx2"], bound)

    def test_graded_input_honestly_inconclusive(self):
        r = smoothness_certify(sphere_cell(1, Q), 4)
        assert r.status == "inconclusive"
        assert "degree 0" in r.reason

    def test_non_basic_honestly_inconclusive(self):
        # one-object k x k: the unit 1 = e1 + e2 is not a basis vector and
        # the non-unit span is not a nilpotent ideal
        from dghom.grammar import loads
        text = """
dgcat
field q
object v
basis v v e 0
basis v v u 0
unit v u 1
compose v v v e e e 1
compose v v v u u u 1
compose v v v e u e 1
compose v v v u e e 1
"""
        cat, _ = loads(text)
        r = smoothness_certify(cat, 4)
        assert r.status == "inconclusive"

    def test_hh_vanishes_above_certified_level(self, corpus):
        for name in ("unit", "kxk", "path12"):
            cat = corpus[name]
            r = smoothness_certify(cat, 6)
            assert r.certified
            dims = hh_dims(cat, r.level + 3)
            for n in range(r.level + 1, r.level + 4):
                assert dims[n] == (0, "exact")


class TestDualData:
    """The dual data of a: the dual opposite(a), with evaluation and
    coevaluation both carried by the diagonal bimodule."""

    def test_unit(self, corpus):
        assert diagonal_bimodule(corpus["unit"]).dims(("*", "*")) == {0: 1}

    def test_dims_are_hom_dims(self, corpus):
        a = corpus["path12"]
        diag = diagonal_bimodule(a)
        for x in a.objects:
            for y in a.objects:
                assert diag.dims((x, y)) == hom_dims(a, y, x)

    def test_sphere_diagonal(self):
        diag = diagonal_bimodule(sphere_cell(2, Q))
        assert diag.dims(("1", "2")) == {}
        assert diag.dims(("2", "1")) == {2: 1}

    def test_role_swap_is_dual_of_opposite(self, corpus):
        """The swap pullback of the diagonal is the diagonal of the
        opposite, the twisted module of the duality route of the Euler
        characteristic, which that route builds over
        opposite(diag.base); both equal diagonal_bimodule(opposite(a))."""
        cats = [corpus[name] for name in ("unit", "kxk", "path12", "kx2")]
        cats += [a3(), a3(ab_zero=True), a3((1, -1)), sphere_cell(2, Q), disk_cell(1, Q),
                 disk_cell(2, Q)]
        for a in cats:
            diag = diagonal_bimodule(a)
            swapped = pullback_module(swap_functor(a, opposite(a)), diag)
            assert swapped == _diagonal_over(opposite(a), opposite(diag.base)), a.name
            assert swapped == diagonal_bimodule(opposite(a)), a.name

    def test_duality_route_builds_one_tensor(self, monkeypatch):
        """euler_via_duality tensors once, for the diagonal's base; the
        twisted diagonal is built over the opposite of that base."""
        calls = []

        def counting(*cats):
            calls.append(len(cats))
            return tensor(*cats)
        for module in (dgcore, dgmod, saturation):
            monkeypatch.setattr(module, "tensor", counting)
        euler_via_duality(a3())
        assert calls == [2]


class TestTriangle:
    @pytest.mark.parametrize("name", ["unit", "kxk", "path12"])
    def test_pass_with_quasi_iso_evidence(self, corpus, name):
        res = triangle_identity_check(corpus[name], (-3, 3))
        assert res.status == "pass"
        assert res.evidence == "quasi-isomorphism"

    def test_both_composites(self, corpus):
        # the second composite is the first one of the opposite category
        a = corpus["path12"]
        first = triangle_identity_check(a, (-2, 2))
        second = triangle_identity_check(opposite(a), (-2, 2))
        assert first.status == "pass" and second.status == "pass"

    @pytest.mark.parametrize("bound", [2, 4, 6])
    def test_never_passes_on_kx2(self, corpus, bound):
        res = triangle_identity_check(corpus["kx2"], (-3, 3),
                                      saturation=saturation_report(corpus["kx2"], bound))
        assert res.status == "inconclusive"
        assert "smoothness" in res.details["reason"]

    def test_truncated_input_inconclusive(self):
        pres = from_quiver(Q, ["v"], [("x", "v", "v", 0)])
        cat, cert = realize(pres, 2, 3)
        res = triangle_identity_check(cat, (-2, 2))
        assert res.status == "inconclusive"

    def test_memory_error_is_never_a_certificate(self, corpus, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(saturation, "bar_composite", out_of_memory)
        with pytest.raises(MemoryError):
            triangle_identity_check(corpus["path12"], (-3, 3))

    def test_bar_refusal_is_inconclusive_with_its_reason(self, corpus, monkeypatch):
        def refuse(*args, **kwargs):
            raise BarWindowError("window not provably computable")
        monkeypatch.setattr(saturation, "bar_composite", refuse)
        res = triangle_identity_check(corpus["path12"], (-3, 3))
        assert res.status == "inconclusive"
        assert res.details["reason"] == "window not provably computable"
        assert "required_bound" not in res.as_dict()


class TestEuler:
    def test_values(self, corpus):
        for name, chi in (("unit", 1), ("path12", 2), ("kxk", 2)):
            rep = euler_report(corpus[name])
            assert rep.chi_hh == chi and rep.chi_dual == chi
            assert rep.agree is True

    def test_two_routes_disagreement_would_show(self, corpus):
        rep = euler_report(corpus["unit"])
        assert rep.hh_status == "exact" and rep.dual_status == "exact"

    def test_bound_limited_for_kx2(self, corpus):
        chi, window, status = euler_via_hh(corpus["kx2"])
        assert status == "bound_limited"
        rep = euler_report(corpus["kx2"])
        assert rep.agree is None

    def test_smooth_certificate_enables_exactness(self, corpus):
        cat = corpus["path12"]
        r = smoothness_certify(cat, 6)
        chi, window, status = euler_via_hh(cat, r)
        assert status == "exact" and chi == 2

    def test_multiplicative_under_tensor(self, corpus):
        saturated = ["unit", "kxk", "path12"]
        chis = {}
        for name in saturated:
            chis[name] = euler_via_hh(corpus[name])[0]
        for na in saturated:
            for nb in saturated:
                t = tensor(corpus[na], corpus[nb])
                chi_t, _, status = euler_via_hh(t)
                assert status == "exact"
                assert chi_t == chis[na] * chis[nb]

    def test_sphere_euler(self):
        # positively graded hom: negative homological degrees enter the sum
        s = sphere_cell(1, Q)
        chi, window, status = euler_via_hh(s)
        assert status == "exact" and chi == 2
        chi_d, _, status_d = euler_via_duality(s)
        assert status_d == "exact" and chi_d == 2

    def test_hh_route_reads_every_degree_from_one_complex(self, monkeypatch):
        """On graded_path4, HH_-21 .. HH_0 come from one Hochschild
        complex whose bar bound covers all of them, and the route says
        exact because each is exact there."""
        cat = graded_path4()
        built = []

        class CountedBar(hochschild.CyclicBar):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hochschild, "CyclicBar", CountedBar)
        assert euler_via_hh(cat) == (4, (-21, 0), "exact")
        assert len(built) == 1

    @pytest.mark.parametrize("field,seed", [(Q, 2601), (F3, 2602)], ids=["Q", "F3"])
    def test_routes_agree_on_random_categories(self, field, seed):
        """Wherever both routes are exact, chi agrees.  On a monomial
        input the HH route reads Bardzell's resolution and the duality
        route the two-sided bar, so they share no complex."""
        rng = random.Random(seed)
        exact = 0
        for _ in range(60):
            cat = random_small_category(rng, field)
            try:
                chi_dual, _, dual_status = euler_via_duality(cat)
            except BarWindowError:
                continue
            chi_hh, _, hh_status = euler_via_hh(cat)
            if hh_status == dual_status == "exact":
                assert chi_hh == chi_dual, cat.name
                exact += 1
        assert exact >= 30


class TestHHLowerDegree:
    """hh_dims from a negative lower degree, the Euler HH route's floor."""

    @pytest.mark.parametrize("build", [lambda: sphere_cell(1, Q), graded_path4],
                             ids=["sphere1", "graded_path4"])
    def test_matches_one_cyclic_bar(self, build):
        cat = build()
        plan = cat.bar_plan()
        n_min, top = plan.chain_support()
        n_max = max(top, 0)
        assert n_min < 0
        bar_bound = plan.bar_bound(-n_max, -n_min)
        total, _ = hochschild.CyclicBar(cat, bar_bound).total_complex()
        dims = homology_dims(total, (-n_max, -n_min))
        got = hh_dims(cat, n_max, n_min=n_min)
        assert sorted(got) == list(range(n_min, n_max + 1))
        for n, value in got.items():
            assert value == (dims[-n], plan.status(-n, bar_bound)), n

    @pytest.mark.parametrize("n_min,n_max", [(3, 2), (-3, -1), (0, -1)])
    def test_empty_range_refused(self, n_min, n_max):
        with pytest.raises(HochschildError, match="n_max must be"):
            hh_dims(sphere_cell(1, Q), n_max, n_min=n_min)


class TestReportShapes:
    def test_saturation_report_dict(self, corpus):
        rep = saturation_report(corpus["path12"], 4)
        d = rep.as_dict()
        assert d["saturated"] is True
        assert d["smooth"]["status"] == "certified"

    def test_euler_report_dict(self, corpus):
        d = euler_report(corpus["unit"]).as_dict()
        assert set(d) == {"chi_hh", "hh_window", "hh_status", "chi_dual",
                          "dual_window", "dual_status", "agree"}
