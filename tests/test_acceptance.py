"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All numeric assertions are exact (the arithmetic is exact); the
stated wall-clock budgets are asserted where the criterion pins one.
"""

import time

from dghom.exactfield import ChainComplex, homology_dims
from dghom.dgcore import disk_cell, opposite, sphere_cell, tensor
from dghom.dgmod import (ModuleMap, bar_tor, module_map_space, shift_module, sn_pack,
                         sn_unpack, validate_module, yoneda_module)
from dghom.hochschild import (HochschildError, auto_bar_bound, hh_dims,
                              hochschild_complex, shuffle_map)
from dghom.cyclic import hc_dims, hcminus_hp_dims, mixed_complex
from dghom.saturation import (euler_via_duality, euler_via_hh, properness_check,
                              saturation_report, smoothness_certify, triangle_identity_check)
from conftest import Q, random_small_category
from oracles import convolution, unnormalized_exact_hh_dims

PASS = "ACCEPTANCE {}: PASS - {}"


def test_criterion_1_hh_ground_truth(corpus):
    budgets = []
    expectations = {
        "unit": ({n: 1 if n == 0 else 0 for n in range(7)}, 6),
        "kx2": ({0: 2, 1: 1, 2: 1, 3: 1, 4: 1}, 4),
        "path12": ({0: 2, 1: 0, 2: 0, 3: 0, 4: 0}, 4),
    }
    for name, (want, n_max) in expectations.items():
        t0 = time.monotonic()
        got = hh_dims(corpus[name], n_max)
        dt = time.monotonic() - t0
        assert {n: d for n, (d, s) in got.items()} == want
        assert all(s == "exact" for _, s in got.values())
        assert dt < 5.0
        budgets.append(dt)
    print(PASS.format(1, f"HH ground truth over Q, exact, max {max(budgets):.2f}s per item"))


def test_criterion_2_mixed_complex_identities(corpus, rng):
    t0 = time.monotonic()
    for name in ("unit", "kxk", "path12", "kx2"):
        mixed_complex(corpus[name], 5)  # constructor hard-gates the identities
    count = 0
    while count < 50:
        cat = random_small_category(rng, max_dim=4)
        assert cat.total_dim() <= 4
        mixed_complex(cat, 5)
        count += 1
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(PASS.format(2, f"b^2=B^2=bB+Bb=0 on corpus + 50 random categories in {dt:.1f}s"))


def test_criterion_3_cyclic_ground_truth(corpus):
    got = hc_dims(corpus["unit"], 6)
    assert {n: d for n, (d, s) in got.items()} == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 1}
    assert all(s == "exact" for _, s in got.values())
    for name, cat in corpus.items():
        assert hc_dims(cat, 0)[0][0] == hh_dims(cat, 0)[0][0]
    print(PASS.format(3, "HC(unit) = 1,0,1,0,1,0,1 and HC_0 = HH_0 on the corpus"))


def test_criterion_4_tower_certification(corpus):
    rep = hcminus_hp_dims(corpus["unit"], (0, 1), 6)
    assert rep.hp[0].status == "stabilized" and rep.hp[0].dim == 1
    rep = hcminus_hp_dims(corpus["path12"], (0, 1), 6)
    assert rep.hp[0].status == "stabilized" and rep.hp[0].dim == 2
    for levels in range(2, 7):
        rep = hcminus_hp_dims(corpus["kx2"], (0, 1), levels)
        assert rep.hp[0].status == "bound_limited" and rep.hp[0].lim1_caveat
        assert rep.hcminus[0].status == "bound_limited"
    print(PASS.format(4, "HP_0(unit)=1, HP_0(path)=2 stabilized; kx2 bound_limited "
                         "with lim^1 caveat at all level counts <= 6"))


def test_criterion_5_shuffle_monoidality(corpus):
    t0 = time.monotonic()
    u = corpus["unit"]
    for name in ("unit", "kxk", "path12", "kx2"):
        sh = shuffle_map(u, corpus[name], (-3, 0))
        assert sh.certificate_checked
    sh = shuffle_map(corpus["kx2"], corpus["kx2"], (-3, 0))
    assert sh.certificate_checked
    # Kunneth dims in every exact degree <= 3 for the square of kx2
    a = corpus["kx2"]
    da = {n: d for n, (d, s) in hh_dims(a, 3).items()}
    dt_dims = hh_dims(tensor(a, a), 3)
    for n in range(4):
        dim, status = dt_dims[n]
        assert status == "exact"
        assert dim == convolution(da, da, n)
    assert dt_dims[1][0] == 4
    dt = time.monotonic() - t0
    assert dt < 120.0
    print(PASS.format(5, f"shuffle certificates + Kunneth (dim H_1(kx2^2) = 4) in {dt:.1f}s"))


def test_criterion_6_saturation(corpus):
    r = smoothness_certify(corpus["unit"], 6)
    assert r.status == "certified" and r.level == 0
    r = smoothness_certify(corpus["path12"], 6)
    assert r.status == "certified" and r.level == 1
    for bound in range(1, 7):
        r = smoothness_certify(corpus["kx2"], bound)
        assert r.status == "inconclusive" and r.level == bound
    for cat in list(corpus.values()) + [sphere_cell(1, Q), disk_cell(0, Q)]:
        ok, _ = properness_check(cat)
        assert ok
    print(PASS.format(6, "smoothness certified(0)/certified(1)/inconclusive(N<=6); "
                         "properness on all closed realizations"))


def test_criterion_7_triangle_identities(corpus):
    for name in ("unit", "kxk", "path12"):
        res = triangle_identity_check(corpus[name], (-3, 3))
        assert res.status == "pass" and res.evidence == "quasi-isomorphism"
    for bound in (2, 4, 6):
        res = triangle_identity_check(corpus["kx2"], (-3, 3),
                                      saturation=saturation_report(corpus["kx2"], bound))
        assert res.status != "pass"
    print(PASS.format(7, "triangle identities pass with quasi-isomorphism evidence on "
                         "{unit, kxk, path12}; never pass on kx2"))


def test_criterion_8_euler_equality(corpus):
    values = {"unit": 1, "kxk": 2, "path12": 2}
    for name, chi in values.items():
        cat = corpus[name]
        smooth = smoothness_certify(cat, 6)
        chi_hh, _, s1 = euler_via_hh(cat, smooth)
        chi_dual, _, s2 = euler_via_duality(cat, smooth=smooth)
        assert s1 == "exact" and s2 == "exact"
        assert chi_hh == chi_dual == chi
    for na in values:
        for nb in values:
            t = tensor(corpus[na], corpus[nb])
            chi_t, _, status = euler_via_hh(t)
            assert status == "exact"
            assert chi_t == values[na] * values[nb]
    print(PASS.format(8, "chi_hh = chi_dual on saturated corpus (1, 2, 2); "
                         "chi multiplicative under tensor"))


def test_criterion_9_prop31_roundtrips(rng):
    done = 0
    while done < 100:
        cat = random_small_category(rng, max_dim=4)
        n = rng.choice([0, 1, 2])
        x = rng.choice(cat.objects)
        y = rng.choice(cat.objects)
        m = yoneda_module(cat, x)
        m2 = shift_module(yoneda_module(cat, y), -n)
        space = module_map_space(m, m2, n)
        maps = {}
        field = cat.field
        for mp in space:
            c = field.of_int(rng.randrange(-2, 3))
            if not c:
                continue
            for obj, tab in mp.maps.items():
                dst = maps.setdefault(obj, {})
                for km, e in tab.items():
                    cell = dst.setdefault(km, {})
                    for j, v in e.items():
                        cell[j] = field.add(cell.get(j, field.zero()), field.mul(c, v))
        fmap = ModuleMap(m, m2, n, maps)
        fmap.check()
        packed = sn_pack(m, m2, fmap)
        assert validate_module(packed).ok
        mb, m2b, fb = sn_unpack(packed)
        assert mb == m and m2b == m2 and fb.maps == fmap.maps
        done += 1
    print(PASS.format(9, "100 randomized sn_pack/sn_unpack roundtrips, all exact and validated"))


def test_criterion_10_oracle_equivalence(corpus, rng):
    # normalized vs unnormalized HH dims in all degrees <= 3 exact for both
    checked = 0
    attempts = 0
    while checked < 6 and attempts < 20:
        attempts += 1
        cat = random_small_category(rng, max_dim=4)
        bound = max(4, auto_bar_bound(cat, 3))
        try:
            hn = hochschild_complex(cat, bound)
        except HochschildError:
            continue
        used = False
        for n, du in unnormalized_exact_hh_dims(cat, bound, 3).items():
            dn, sn = hn.hh_dim(n)
            if sn == "exact":
                assert dn == du
                used = True
        checked += used
    assert checked >= 6

    # bar_tor exact windows stable under incrementing the truncation bound
    from dghom.dgmod import DgModule

    def simple(cat, v):
        f = cat.field
        uk = cat.unit_key(v)
        return DgModule(cat, {v: ChainComplex(f, {0: ("s",)}, {})},
                        {(v, v): {(uk, (0, 0)): {0: f.one()}}})

    for name in ("kx2", "path12"):
        cat = corpus[name]
        m = simple(cat, cat.objects[0])
        n_mod = simple(opposite(cat), cat.objects[0])
        cx1, f1 = bar_tor(m, n_mod, (0, 3))
        assert f1 == "exact"
        cx2, f2 = bar_tor(m, n_mod, (0, 3), bar_bound=6)
        assert f2 == "exact"
        assert homology_dims(cx1, (-3, 0)) == homology_dims(cx2, (-3, 0))
    print(PASS.format(10, "normalized = unnormalized HH dims (exact degrees <= 3); "
                          "exact Tor windows stable under larger truncation"))
