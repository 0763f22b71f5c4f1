import itertools
import random

import pytest

from dghom.cells import disk_cell, sphere_cell
from dghom.exactfield import homology_quotient, Subspace
from dghom.dgcore import opposite, tensor
from dghom.hochschild import CyclicBar, ShuffleMap, ch0
from dghom.monomial import HochschildError, hh_dims
from conftest import (Q, F2, F3, F5, a3, contractible_category, exterior_deg, matrix_category,
                      random_small_category)
from oracles import (UnnormalizedCyclicBar, brute_hochschild_dims, convolution,
                     unnormalized_exact_hh_dims)


class TestComplexAssembly:
    def test_unit_normalized_dims(self, corpus):
        total, _ = CyclicBar(corpus["unit"], 4).total_complex()
        assert {t: total.dim(t) for t in total.support()} == {0: 1}

    def test_kx2_unnormalized_counts(self, corpus):
        bar = UnnormalizedCyclicBar(corpus["kx2"], 5)
        assert [len(bar.keys_by_bar[m]) for m in range(6)] == [2, 4, 8, 16, 32, 64]

    def test_missing_chain_refused(self, corpus, monkeypatch):
        # the shared assembly refuses an image with no row in the basis
        bar = CyclicBar(corpus["kx2"], 3)
        by_t = bar.chains_by_total()
        t, key = next((t + 1, k2) for t, keys in sorted(by_t.items())
                      for k in keys for k2 in bar.total_diff_of(k))
        by_t[t].remove(key)
        monkeypatch.setattr(bar, "chains_by_total", lambda: by_t)
        with pytest.raises(AssertionError):
            bar.total_complex()

    def test_b_squared_random_quiver(self, rng):
        # exhaustive entrywise d^2 = 0 at bar bound 4 on random two-object algebras
        for _ in range(3):
            cat = random_small_category(rng, max_dim=4)
            CyclicBar(cat, 4).total_complex()[0].verify()
            UnnormalizedCyclicBar(cat, 4).total_complex()[0].verify()

    def test_simplicial_identities_low_bar(self, corpus):
        # d_i d_j = d_{j-1} d_i for i < j, checked exhaustively on
        # unnormalized chains at bar degrees 2 and 3
        for name in ("kx2", "path12"):
            bar = UnnormalizedCyclicBar(corpus[name], 3)
            f = corpus[name].field
            for m in (2, 3):
                for key in bar.keys_by_bar[m]:
                    for j in range(1, m + 1):
                        for i in range(j):
                            lhs = {}
                            for k2, v in bar.face(key, j).items():
                                for k3, w in bar.face(k2, i).items():
                                    lhs[k3] = f.add(lhs.get(k3, f.zero()), f.mul(v, w))
                            rhs = {}
                            for k2, v in bar.face(key, i).items():
                                for k3, w in bar.face(k2, j - 1).items():
                                    rhs[k3] = f.add(rhs.get(k3, f.zero()), f.mul(v, w))
                            assert {k: v for k, v in lhs.items() if v} == \
                                   {k: v for k, v in rhs.items() if v}

    def test_status_analysis(self, corpus):
        plan = corpus["kx2"].bar_plan()
        assert plan.status(-2, 3) == "exact"
        assert plan.status(-3, 3) == "truncated"  # needs bar degree 4 chains

    def test_contribution_table(self, corpus):
        # total degree 0 has only chains of bar degree 0 and internal degree 0
        bar = CyclicBar(corpus["path12"], 3)
        _, chain_keys = bar.total_complex()
        assert {(bar.bar_degree(k), bar.internal_degree(k)) for k in chain_keys[0]} == {(0, 0)}


class TestHHDims:
    def test_ground_truth_unit(self, corpus):
        assert hh_dims(corpus["unit"], 6) == {n: (1 if n == 0 else 0, "exact") for n in range(7)}

    def test_ground_truth_kx2(self, corpus):
        want = {0: (2, "exact"), 1: (1, "exact"), 2: (1, "exact"), 3: (1, "exact"), 4: (1, "exact")}
        assert hh_dims(corpus["kx2"], 4) == want

    def test_ground_truth_path(self, corpus):
        assert hh_dims(corpus["path12"], 3) == {0: (2, "exact")} | {n: (0, "exact") for n in (1, 2, 3)}

    def test_prime_field(self):
        from dghom.corpus import kx2
        dims = hh_dims(kx2(F5), 3)
        assert dims[0] == (2, "exact")
        # char-0 pattern persists away from small primes
        assert dims[1][0] == 1

    def test_char_two_dual_numbers(self):
        from dghom.corpus import kx2
        dims = hh_dims(kx2(F2), 3)
        # in characteristic 2 the dual numbers have larger HH
        assert dims[0] == (2, "exact")
        assert dims[1][0] == 2

    def test_sphere(self):
        assert {n: d for n, (d, s) in hh_dims(sphere_cell(1, Q), 3).items()} == \
            {0: 2, 1: 0, 2: 0, 3: 0}

    def test_against_brute_oracle(self, corpus, rng):
        for name in ("kx2", "path12", "kxk"):
            cat = corpus[name]
            want = brute_hochschild_dims(cat, 3)
            got = {n: d for n, (d, s) in hh_dims(cat, 3).items()}
            assert got == want

    def test_normalized_equals_unnormalized(self, rng):
        # in the degrees exact for both: the reference unnormalized bar
        # has unit loops, so only the grading bounds its truncation
        for _ in range(4):
            cat = random_small_category(rng, max_dim=4)
            bound = max(4, cat.bar_plan().bar_bound(-3, 0))
            try:
                hn = hh_dims(cat, 3, bar_bound=bound)
            except HochschildError:
                continue
            for n, du in unnormalized_exact_hh_dims(cat, bound, 3).items():
                dn, sn = hn[n]
                if sn == "exact":
                    assert dn == du

    def test_hh0_commutator_oracle(self, corpus):
        # HH_0 = (sum of endomorphism spaces) / graded commutators
        for name in ("unit", "kx2", "path12", "kxk"):
            cat = corpus[name]
            f = cat.field
            endo_basis = []
            index = {}
            for x in cat.objects:
                for k in cat.basis_keys(x, x):
                    if k[0] != 0:
                        continue
                    index[(x, k)] = len(endo_basis)
                    endo_basis.append((x, k))
            comm = Subspace(f)
            rank_comm = 0
            for (x, y) in itertools.product(cat.objects, repeat=2):
                for kf in cat.basis_keys(x, y):
                    for kg in cat.basis_keys(y, x):
                        if kf[0] + kg[0] != 0:
                            continue
                        gf = cat.compose_elems(x, y, x, {kg: f.one()}, {kf: f.one()})
                        fg = cat.compose_elems(y, x, y, {kf: f.one()}, {kg: f.one()})
                        sgn = f.of_int((-1) ** ((kf[0] * kg[0]) % 2))
                        vec = {}
                        for k, v in gf.items():
                            vec[index[(x, k)]] = v
                        for k, v in fg.items():
                            i = index[(y, k)]
                            vec[i] = f.sub(vec.get(i, f.zero()), f.mul(sgn, v))
                        if comm.insert(vec):
                            rank_comm += 1
            want = len(endo_basis) - rank_comm
            assert hh_dims(cat, 0)[0][0] == want

    def test_kunneth_on_corpus_pairs(self, corpus):
        names = ["unit", "kxk", "path12", "kx2"]
        for na, nb in [("unit", "kx2"), ("path12", "kxk"), ("kx2", "kx2"), ("path12", "path12")]:
            a, b = corpus[na], corpus[nb]
            da = {n: d for n, (d, s) in hh_dims(a, 3).items()}
            db = {n: d for n, (d, s) in hh_dims(b, 3).items()}
            dt = hh_dims(tensor(a, b), 3)
            for n in range(4):
                dim, status = dt[n]
                assert status == "exact"
                assert dim == convolution(da, db, n)

    def test_chain_support_bounds(self, corpus):
        # (floor, top) of the homological degrees carrying chains
        assert corpus["unit"].bar_plan().chain_support() == (0, 0)
        assert corpus["kxk"].bar_plan().chain_support() == (0, 0)
        assert corpus["path12"].bar_plan().chain_support() == (0, 1)
        assert corpus["kx2"].bar_plan().chain_support() == (0, None)

    def test_bar_bound_below_one_refused(self, corpus):
        with pytest.raises(HochschildError, match="bar_bound must be >= 1"):
            hh_dims(corpus["kx2"], 2, bar_bound=0)

    def test_requires_closed(self):
        from dghom.presentation import from_quiver, realize
        pres = from_quiver(Q, ["v"], [("x", "v", "v", 0)])
        cat, cert = realize(pres, 2, 3)
        assert not cert.is_closed
        with pytest.raises(HochschildError):
            hh_dims(cat, 2)


class TestShuffle:
    def test_degree_zero_chains_multiply(self, corpus):
        a, b = corpus["kx2"], corpus["path12"]
        sh = ShuffleMap(a, b, (-2, 0))
        key_a = a_bar0 = (("v",), ((0, 1),))       # the class of x
        key_b = (("1",), ((0, 0),))                # the unit at object 1
        out = sh.apply_pair(key_a, key_b)
        assert len(out) == 1
        (okey, val), = out.items()
        assert val == Q.one()
        objs, keys = okey
        assert objs == (("v", "1"),) and len(keys) == 1

    def test_certificates_corpus(self, corpus):
        u = corpus["unit"]
        for name in ("unit", "kxk", "path12", "kx2"):
            sh = ShuffleMap(u, corpus[name], (-3, 0))
            sh.check_certificate()
            assert sh.certificate_checked

    def test_certificate_kx2_square(self, corpus):
        sh = ShuffleMap(corpus["kx2"], corpus["kx2"], (-3, 0))
        sh.check_certificate()
        assert sh.certificate_checked

    def test_certificates_graded(self):
        ext1 = exterior_deg(Q, 1)
        extm = exterior_deg(Q, -1)
        ShuffleMap(ext1, extm, (-2, 2), bar_bound_a=3, bar_bound_b=3).check_certificate()
        ShuffleMap(disk_cell(2, Q), ext1, (-2, 2), bar_bound_a=3, bar_bound_b=3).check_certificate()
        ShuffleMap(sphere_cell(1, Q), sphere_cell(2, Q), (-2, 4)).check_certificate()

    def test_h1_kunneth_dimension_and_surjectivity(self, corpus):
        # dim H_1(HH(kx2 (x) kx2)) = 4 = sum HH_p * HH_q, and the induced
        # shuffle map hits all of it
        a = corpus["kx2"]
        ab = tensor(a, a)
        dims = hh_dims(ab, 1)
        assert dims[1] == (4, "exact")

        sh = ShuffleMap(a, a, (-2, 0))
        target, _ = CyclicBar(ab, 3).total_complex()
        t = -1
        d_in = target.diff(t - 1)
        d_out = target.diff(t)
        h_dim, reps, project = homology_quotient(d_in, d_out)
        assert h_dim == 4
        # cycle pairs of total degree -1: (bar 0, bar 1) and (bar 1, bar 0)
        image = Subspace(Q)
        count = 0
        chains_a = sh.bar_a.chains_by_total()
        row_of = {k: i for i, k in enumerate(target.labels(t))}
        for ta, tb in [(0, -1), (-1, 0)]:
            for ka in chains_a.get(ta, []):
                for kb in chains_a.get(tb, []):
                    # both factors are cycles here (kx2 chains at bar <= 1 with
                    # zero differential in these degrees need checking)
                    da = sh.bar_a.total_diff_of(ka)
                    db = sh.bar_a.total_diff_of(kb)
                    if da or db:
                        continue
                    vec = {}
                    for okey, v in sh.apply_pair(ka, kb).items():
                        vec[row_of[okey]] = v
                    if not vec:
                        continue
                    coords = project(vec)
                    if image.insert({i: c for i, c in enumerate(coords) if c}):
                        count += 1
        assert count == 4  # surjective onto H_1

    def test_window_refusal_without_bounds(self):
        ext1 = exterior_deg(Q, 1)
        with pytest.raises(HochschildError):
            ShuffleMap(ext1, ext1, (-2, 2))


class TestCh0:
    def test_unit_generator(self, corpus):
        u = corpus["unit"]
        c = ch0(u, "*", [[{(0, 0): Q.one()}]])
        assert c.basis_dim == 1 and any(c.coords)

    def test_block_extension_same_class(self, corpus):
        u = corpus["unit"]
        e = {(0, 0): Q.one()}
        c1 = ch0(u, "*", [[e]])
        c2 = ch0(u, "*", [[e, {}], [{}, {}]])
        assert c1 == c2

    def test_path_idempotents_independent(self, corpus):
        cat = corpus["path12"]
        c1 = ch0(cat, "1", [[{cat.unit_key("1"): Q.one()}]])
        c2 = ch0(cat, "2", [[{cat.unit_key("2"): Q.one()}]])
        assert c1.basis_dim == 2
        assert not c1.is_zero() and not c2.is_zero()
        assert c1 != c2
        sp = Subspace(Q)
        assert sp.insert({i: v for i, v in enumerate(c1.coords) if v})
        assert sp.insert({i: v for i, v in enumerate(c2.coords) if v})

    def test_additive_on_blocks(self, corpus):
        cat = corpus["kxk"]
        e1 = {cat.unit_key("1"): Q.one()}
        e2 = {cat.unit_key("2"): Q.one()}
        c1 = ch0(cat, "1", [[e1]])
        c2 = ch0(cat, "1", [[e1, {}], [{}, e1]])
        assert c2 == c1 + c1

    def test_conjugation_invariance(self, corpus):
        # conjugate diag(e,0) by the elementary matrix E = [[1,1],[0,1]]:
        # E diag(1,0) E^{-1} = [[1,-1],[0,0]] is again idempotent
        u = corpus["unit"]
        one = Q.one()
        e = [[{(0, 0): one}, {}], [{}, {}]]
        conj = [[{(0, 0): one}, {(0, 0): Q.of_int(-1)}], [{}, {}]]
        assert ch0(u, "*", e) == ch0(u, "*", conj)

    def test_rejects_non_idempotent(self, corpus):
        u = corpus["unit"]
        with pytest.raises(ValueError):
            ch0(u, "*", [[{(0, 0): Q.of_int(2)}]])

    def test_rejects_wrong_degree(self):
        d = disk_cell(2, Q)
        with pytest.raises(ValueError):
            ch0(d, "3", [[{(1, 0): Q.one()}]])


def test_hh_of_the_opposite_category(corpus):
    # HH(a) = HH(a^op): the Hochschild complex of a^op is that of a with
    # every chain read backwards.  The opposite's tables are computed on
    # their first read, here through the faces of its CyclicBar, once at
    # the automatic bound (the monomial route where it applies) and once
    # at an explicit one; only degrees both sides mark exact are compared
    rng = random.Random(0x0B)
    cats = list(corpus.values()) + [a3((1, -1)), a3(ab_zero=True), exterior_deg(F3, 1),
                                    matrix_category(F3), contractible_category(Q)]
    cats += [random_small_category(rng, field) for field in (Q, F3) for _ in range(20)]
    compared = 0
    for a in cats:
        if not a.unit_is_basis():
            continue
        for bound in (None, 4):
            # a fresh opposite each time: the monomial route reads its full comp
            got, want = hh_dims(opposite(a), 4, bound), hh_dims(a, 4, bound)
            both = [n for n in got if got[n][1] == want[n][1] == "exact"]
            assert [got[n][0] for n in both] == [want[n][0] for n in both], (a, bound)
            compared += len(both)
    assert compared > 200
