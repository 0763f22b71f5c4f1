import itertools

import pytest

from dghom.cells import disk_cell, sphere_cell, unit_category
from dghom.exactfield import homology_dims, rank
from dghom.dgcore import DgCategory, opposite, tensor, validate
from conftest import Q, F2, hom_dims, random_small_category
from oracles import swap_functor, validate_functor

class TestValidate:
    def test_unit_category(self):
        u = unit_category(Q)
        assert validate(u).ok
        assert hom_dims(u, "*", "*") == {0: 1}

    def test_unit_category_f2(self):
        u = unit_category(F2)
        assert validate(u).ok

    def test_corrupted_unit_reported(self):
        u = unit_category(Q)
        bad = DgCategory(Q, u.objects, u.homs, u.comp, {"*": {(0, 0): Q.of_int(2)}})
        rep = validate(bad)
        assert not rep.ok
        assert any(axiom == "unit axiom" for axiom, *_ in rep.violations)

    def test_corrupted_composition_reported(self):
        u = unit_category(Q)
        comp = {("*", "*", "*"): {((0, 0), (0, 0)): {0: Q.of_int(3)}}}
        bad = DgCategory(Q, u.objects, u.homs, comp, dict(u.units))
        rep = validate(bad)
        assert not rep.ok

    @pytest.mark.parametrize("n", [-1, 0, 1, 3])
    def test_cells_valid(self, n):
        assert validate(sphere_cell(n, Q)).ok
        assert validate(disk_cell(n, Q)).ok


class TestCells:
    def test_sphere_dims(self):
        s = sphere_cell(0, Q)
        assert hom_dims(s, "1", "2") == {0: 1}
        assert hom_dims(s, "2", "1") == {}
        s3 = sphere_cell(3, Q)
        assert hom_dims(s3, "1", "2") == {3: 1}

    def test_disk_is_acyclic_cone(self):
        d = disk_cell(0, Q)
        dims = hom_dims(d, "3", "4")
        assert sorted(dims) == [-2, -1] and set(dims.values()) == {1}
        assert rank(d.hom("3", "4").diff(-2)) == 1
        assert homology_dims(d.hom("3", "4"), (-3, 0)) == {-3: 0, -2: 0, -1: 0, 0: 0}


class TestOpposite:
    def test_involution_unit(self):
        u = unit_category(Q)
        assert opposite(opposite(u)) == u

    def test_involution_random(self, rng):
        for _ in range(6):
            cat = random_small_category(rng)
            assert opposite(opposite(cat)) == cat
            assert validate(opposite(cat)).ok

    def test_sphere_swaps_direction(self):
        s = sphere_cell(2, Q)
        op = opposite(s)
        assert hom_dims(op, "2", "1") == {2: 1}
        assert hom_dims(op, "1", "2") == {}

    def test_path_algebra_reversed(self, corpus):
        op = opposite(corpus["path12"])
        assert hom_dims(op, "2", "1") == {0: 1}
        assert hom_dims(op, "1", "2") == {}
        assert validate(op).ok


class TestTensor:
    def test_unit_is_neutral_for_dims(self, corpus):
        a = corpus["path12"]
        t = tensor(unit_category(Q), a)
        for (x, y) in itertools.product(a.objects, repeat=2):
            assert hom_dims(t, ("*", x), ("*", y)) == hom_dims(a, x, y)
        assert validate(t).ok

    def test_unit_tensor_unit(self):
        u = unit_category(Q)
        t = tensor(u, u)
        assert t.total_dim() == 1 and validate(t).ok

    def test_sphere_zero_squared(self):
        t = tensor(sphere_cell(0, Q), sphere_cell(0, Q))
        assert hom_dims(t, ("1", "1"), ("2", "2")) == {0: 1}

    def test_dims_are_convolutions(self, rng):
        for _ in range(6):
            a = random_small_category(rng, max_dim=3)
            b = random_small_category(rng, max_dim=3)
            t = tensor(a, b)
            for (x, xp) in itertools.product(a.objects, repeat=2):
                for (y, yp) in itertools.product(b.objects, repeat=2):
                    da = hom_dims(a, x, xp)
                    db = hom_dims(b, y, yp)
                    dt = hom_dims(t, (x, y), (xp, yp))
                    degs = set()
                    for i in da:
                        for j in db:
                            degs.add(i + j)
                    for d in degs | set(dt):
                        expect = sum(da.get(i, 0) * db.get(d - i, 0) for i in da)
                        assert dt.get(d, 0) == expect

    def test_tensor_valid_random(self, rng):
        for _ in range(4):
            a = random_small_category(rng, max_dim=3)
            b = random_small_category(rng, max_dim=3)
            assert validate(tensor(a, b)).ok

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            tensor(unit_category(Q), unit_category(F2))

    def test_swap_is_invertible_functor(self, rng):
        for _ in range(4):
            a = random_small_category(rng, max_dim=3)
            b = random_small_category(rng, max_dim=3)
            sw = swap_functor(a, b)
            assert validate_functor(sw).ok
            for pair, maps in sw.hom_maps.items():
                for d, mat in maps.items():
                    assert rank(mat) == mat.cols == mat.rows

    def test_opposite_commutes_with_tensor(self, rng):
        for _ in range(4):
            a = random_small_category(rng, max_dim=3)
            b = random_small_category(rng, max_dim=3)
            assert opposite(tensor(a, b)) == tensor(opposite(a), opposite(b))
