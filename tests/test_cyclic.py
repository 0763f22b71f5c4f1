import pytest

from dghom import cyclic
from dghom.cells import sphere_cell
from dghom.exactfield import rank
from dghom.cyclic import (CyclicError, MixedComplex, _column_homology, _column_total_dims,
                          _column_total_matrix, hcminus_hp_dims, t_of_key)
from dghom.monomial import hc_dims, hh_dims
from conftest import Q, F2, exterior_deg, identity
from oracles import UnnormalizedCyclicBar, bprime_of, cyclic_operator


class TestCyclicOperator:
    def test_unit_low_degrees(self, corpus):
        # convention pinned by the Connes-Tsygan identities (see README):
        # t on bar degree m carries (-1)^m times the Koszul rotation sign
        u = corpus["unit"]
        t1 = cyclic_operator(u, 1)   # bar degree 0
        assert t1 == identity(Q, 1)
        t2 = cyclic_operator(u, 2)   # bar degree 1
        assert t2.entries == {(0, 0): Q.of_int(-1)}

    @pytest.mark.parametrize("name,n", [("kx2", 1), ("kx2", 2), ("kx2", 3), ("kx2", 4),
                                        ("path12", 2), ("kxk", 3)])
    def test_t_power_is_identity(self, corpus, name, n):
        tm = cyclic_operator(corpus[name], n)
        acc = identity(Q, tm.rows)
        for _ in range(n):
            acc = tm.mul(acc)
        assert acc == identity(Q, tm.rows)

    def test_t_power_graded(self):
        ext1 = exterior_deg(Q, 1)
        for n in (2, 3):
            tm = cyclic_operator(ext1, n)
            acc = identity(Q, tm.rows)
            for _ in range(n):
                acc = tm.mul(acc)
            assert acc == identity(Q, tm.rows)

    def test_connes_tsygan_compatibility(self, corpus):
        # (1 - t) b' = b (1 - t) on the realized unnormalized range
        for name in ("kx2", "path12"):
            cat = corpus[name]
            f = cat.field
            bar = UnnormalizedCyclicBar(cat, 3)
            for m in (1, 2, 3):
                for key in bar.keys_by_bar[m]:
                    lhs = {}
                    for k2, v in bprime_of(bar, key).items():
                        lhs[k2] = f.add(lhs.get(k2, f.zero()), v)
                        k3, sgn = t_of_key(bar.a, k2)
                        lhs[k3] = f.sub(lhs.get(k3, f.zero()), f.mul(sgn, v))
                    rhs = {}
                    for k2, v in bar.b_of(key).items():
                        rhs[k2] = f.add(rhs.get(k2, f.zero()), v)
                    k2, sgn = t_of_key(bar.a, key)
                    for k3, v in bar.b_of(k2).items():
                        rhs[k3] = f.sub(rhs.get(k3, f.zero()), f.mul(sgn, v))
                    assert {k: v for k, v in lhs.items() if v} == \
                           {k: v for k, v in rhs.items() if v}

    def test_connes_tsygan_graded(self):
        ext1 = exterior_deg(Q, 1)
        f = Q
        bar = UnnormalizedCyclicBar(ext1, 3)
        for m in (1, 2):
            for key in bar.keys_by_bar[m]:
                lhs = {}
                for k2, v in bprime_of(bar, key).items():
                    lhs[k2] = f.add(lhs.get(k2, f.zero()), v)
                    k3, sgn = t_of_key(bar.a, k2)
                    lhs[k3] = f.sub(lhs.get(k3, f.zero()), f.mul(sgn, v))
                rhs = {}
                for k2, v in bar.b_of(key).items():
                    rhs[k2] = f.add(rhs.get(k2, f.zero()), v)
                k2, sgn = t_of_key(bar.a, key)
                for k3, v in bar.b_of(k2).items():
                    rhs[k3] = f.sub(rhs.get(k3, f.zero()), f.mul(sgn, v))
                assert {k: v for k, v in lhs.items() if v} == \
                       {k: v for k, v in rhs.items() if v}


class TestMixedComplex:
    def test_identities_hard_gate_corpus(self, corpus):
        # construction verifies b^2 = B^2 = bB + Bb = 0 and raises otherwise
        for name in ("unit", "kxk", "path12", "kx2"):
            MixedComplex(corpus[name], 5)

    def test_identities_graded(self):
        MixedComplex(exterior_deg(Q, 1), 4)
        MixedComplex(sphere_cell(1, Q), 4)

    def test_identities_char_p(self):
        from dghom.corpus import kx2
        MixedComplex(kx2(F2), 5)

    def test_unit_B_vanishes_in_range(self, corpus):
        mx = MixedComplex(corpus["unit"], 5)
        B0 = mx.B_mats.get(0)
        assert B0 is None or B0.is_zero()

    def test_b_homology_is_hh(self, corpus):
        for name in ("unit", "kx2", "path12"):
            cat = corpus[name]
            mx = MixedComplex(cat, 5)
            hh = hh_dims(cat, 3)
            for n in range(4):
                if hh[n][1] == "exact":
                    assert _column_homology(mx, n, 0, 0) == hh[n][0]

    def test_kx2_B_nonzero(self, corpus):
        mx = MixedComplex(corpus["kx2"], 4)
        assert not mx.B_mats[0].is_zero()

    def test_bound_guard(self, corpus):
        with pytest.raises(CyclicError):
            MixedComplex(corpus["unit"], 1)


class TestHC:
    def test_unit_ground_truth(self, corpus):
        want = {n: (1 if n % 2 == 0 else 0, "exact") for n in range(7)}
        assert hc_dims(corpus["unit"], 6) == want

    def test_hc0_equals_hh0(self, corpus):
        for name, cat in corpus.items():
            assert hc_dims(cat, 0)[0][0] == hh_dims(cat, 0)[0][0]

    def test_kx2(self, corpus):
        dims = hc_dims(corpus["kx2"], 4)
        assert dims[0] == (2, "exact")
        assert dims[1] == (0, "exact")
        assert dims[2] == (2, "exact")

    def test_path(self, corpus):
        dims = hc_dims(corpus["path12"], 3)
        assert {n: d for n, (d, s) in dims.items()} == {0: 2, 1: 0, 2: 2, 3: 0}


class TestTowers:
    def test_unit_stabilizes(self, corpus):
        rep = hcminus_hp_dims(corpus["unit"], (0, 1), 6)
        assert rep.hp[0].status == "stabilized" and rep.hp[0].dim == 1
        assert rep.hp[0].stabilized_at == 2
        assert rep.hp[1].status == "stabilized" and rep.hp[1].dim == 0
        assert rep.hcminus[0].status == "stabilized" and rep.hcminus[0].dim == 1

    def test_path_stabilizes(self, corpus):
        rep = hcminus_hp_dims(corpus["path12"], (0, 1), 6)
        assert rep.hp[0].status == "stabilized" and rep.hp[0].dim == 2
        assert rep.hp[1].status == "stabilized" and rep.hp[1].dim == 0

    def test_kx2_bound_limited_with_caveat(self, corpus):
        for levels in (2, 3, 4, 5, 6):
            rep = hcminus_hp_dims(corpus["kx2"], (0, 1), levels)
            for n in (0, 1):
                assert rep.hp[n].status == "bound_limited"
                assert rep.hp[n].lim1_caveat

    def test_tower_monotonicity_regression(self, corpus):
        # a verdict issued at r is not contradicted by computing more levels
        for name in ("unit", "kxk", "path12"):
            r1 = hcminus_hp_dims(corpus[name], (0, 1), 3)
            r2 = hcminus_hp_dims(corpus[name], (0, 1), 6)
            for n in (0, 1):
                if r1.hp[n].status == "stabilized":
                    assert r2.hp[n].status == "stabilized"
                    assert r2.hp[n].dim == r1.hp[n].dim
                    later = dict(r2.hp[n].levels)
                    for r in range(r1.hp[n].stabilized_at, max(later) + 1):
                        assert later[r] == r1.hp[n].dim

    def test_report_serialization_includes_levels(self, corpus):
        rep = hcminus_hp_dims(corpus["unit"], (0, 1), 4)
        d = rep.as_dict()
        assert d["hp"]["0"]["levels"]
        assert all("r" in lv and "dim" in lv for lv in d["hp"]["0"]["levels"])
        assert "lim1_caveat" not in d["hp"]["0"]

    def test_levels_guard(self, corpus):
        with pytest.raises(CyclicError):
            hcminus_hp_dims(corpus["unit"], (0, 1), 1)


class TestColumnRanks:
    @staticmethod
    def _content(m):
        return (m.rows, m.cols, frozenset(m.entries.items()))

    def test_each_matrix_ranked_once(self, corpus, monkeypatch):
        # neighbouring degrees share a column-total matrix (d_out of n+1 is
        # d_in of n): every matrix built for a rank is one not ranked before
        built, ranked = [], []

        def recording_matrix(mx, n, q_lo, q_hi):
            m = _column_total_matrix(mx, n, q_lo, q_hi)
            built.append((n, m.rows, m.cols, frozenset(m.entries.items())))
            return m

        def counting_rank(m):
            ranked.append(m)
            return rank(m)

        monkeypatch.setattr(cyclic, "_column_total_matrix", recording_matrix)
        monkeypatch.setattr(cyclic, "rank", counting_rank)
        # an explicit bar bound keeps hc on the bar (over Q the automatic
        # one takes kx2, a monomial input, to Bardzell's complex)
        bound = corpus["kx2"].bar_plan().bar_bound(-7, 1, mixed=True)
        for run in (lambda: hcminus_hp_dims(corpus["kx2"], (0, 1), 6),
                    lambda: hc_dims(corpus["kx2"], 6, bound)):
            built.clear()
            ranked.clear()
            run()
            assert built and len(built) == len(set(built)) == len(ranked)

    def test_memo_matches_direct_ranks(self, corpus):
        for name in ("unit", "kx2", "path12"):
            mx = MixedComplex(corpus[name], 6)
            for n in range(-1, 6):
                for q_lo in range(-3, 1):
                    for q_hi in range(q_lo, 4):
                        d_in = _column_total_matrix(mx, n + 1, q_lo, q_hi)
                        d_out = _column_total_matrix(mx, n, q_lo, q_hi)
                        total = sum(mx.dim(k) for _, k in _column_total_dims(mx, n, q_lo, q_hi))
                        want = total - rank(d_out) - rank(d_in)
                        assert _column_homology(mx, n, q_lo, q_hi) == want, (name, n, q_lo, q_hi)
