"""The one tensor product of complexes (`exactfield.tensor_complex`) and
the builders over tensor categories that rest on it: the Koszul sign of
the differential, checked through the dg axioms of every builder, and
the complex itself against the hand-filled reference."""

import itertools

import pytest

from dghom.cells import disk_cell
from dghom.exactfield import tensor_complex
from dghom.dgcore import opposite, tensor, validate
from dghom.dgmod import validate_module, yoneda_module
from dghom.saturation import _triangle_modules
from conftest import Q, F5, a3, contractible_category, random_small_category
from oracles import external_tensor_module, reference_tensor_complex

NM = list(itertools.product((1, 2), repeat=2))


GRADED_A3 = a3((1, -1))


def _same(got, want):
    assert got.spaces == want.spaces
    assert got.diffs == want.diffs


class TestKoszulSign:
    """Disk cells carry a differential in odd and even degrees, so a wrong
    sign on the second factor breaks d^2 = 0 or Leibniz."""

    @pytest.mark.parametrize("n, m", NM)
    def test_tensor_of_disks_is_a_dg_category(self, n, m):
        assert validate(tensor(disk_cell(n, Q), disk_cell(m, Q))).ok

    @pytest.mark.parametrize("n, m", NM)
    def test_external_tensor_of_disk_yonedas_is_a_module(self, n, m):
        ext = external_tensor_module(yoneda_module(disk_cell(n, Q), "4"),
                                     yoneda_module(disk_cell(m, Q), "4"))
        assert validate_module(ext).ok

    @pytest.mark.parametrize("n", [1, 2])
    def test_triangle_modules_of_a_disk_are_modules(self, n):
        X, Y, _mid = _triangle_modules(disk_cell(n, Q))
        for module in list(X.values()) + list(Y.values()):
            assert validate_module(module).ok, module.name


def _hom_triples(cats):
    objects = list(itertools.product(*(c.objects for c in cats)))
    for x in objects:
        for y in objects:
            yield x, y, [c.hom(xi, yi) for c, xi, yi in zip(cats, x, y)]


class TestAgainstReference:
    @pytest.mark.parametrize("cats", [
        (disk_cell(1, Q), disk_cell(2, Q)),
        (disk_cell(2, Q), opposite(disk_cell(1, Q)), disk_cell(1, Q)),
        (contractible_category(Q), contractible_category(Q)),
        (contractible_category(F5), disk_cell(1, F5), contractible_category(F5)),
        (GRADED_A3, opposite(GRADED_A3), GRADED_A3),
        (a3(), disk_cell(1, Q)),
    ], ids=["D1-D2", "D2-opD1-D1", "cone-cone", "cone-D1-cone-F5", "gradedA3-op-A3", "A3-D1"])
    def test_fixed_factors(self, cats):
        field = cats[0].field
        for x, y, factors in _hom_triples(cats):
            got = tensor_complex(field, factors)
            _same(got, reference_tensor_complex(field, factors))
            # no differential is assembled unless a factor has one
            closed = all(got.d_of((d, i)) == () for d in got.support() for i in range(got.dim(d)))
            if not any(c.diffs for c in factors):
                assert got.diffs == {} and closed
            elif got.spaces:
                assert not closed

    def test_random_draws(self, rng):
        for _ in range(25):
            cats = [random_small_category(rng) for _ in range(rng.choice([2, 3]))]
            for x, y, factors in _hom_triples(cats):
                _same(tensor_complex(Q, factors), reference_tensor_complex(Q, factors))

    def test_tensor_homs_use_it(self, rng):
        # the hom complexes of a tensor category: the same differential,
        # and labels that are the factor labels of the key tuples
        for cats in [(disk_cell(1, Q), contractible_category(Q)),
                     (random_small_category(rng), random_small_category(rng))]:
            t = tensor(*cats)
            for x, y, factors in _hom_triples(cats):
                want = reference_tensor_complex(Q, factors)
                hom = t.hom(x, y)
                assert hom.diffs == want.diffs
                assert hom.spaces == {
                    d: tuple(tuple(c.labels(k[0])[k[1]] for c, k in zip(factors, keys)) for keys in lst)
                    for d, lst in want.spaces.items()}
