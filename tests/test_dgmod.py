import itertools
import random

import pytest

from dghom.cells import disk_cell, sphere_cell, unit_category
from dghom.corpus import builtin_corpus
from dghom.exactfield import ChainComplex, homology_dims, kernel_basis
from dghom.dgcore import opposite
from dghom.dgmod import (DgModule, ModuleMap, bar_composite, diagonal_bimodule, shift_module,
                         sn_pack, sn_unpack, tor_dims, validate_module, yoneda_map, yoneda_module,
                         BarWindowError)
from conftest import F3, Q, a3, contractible_category, random_small_category, exterior_deg
from oracles import (brute_tor_dims, dense_rank, external_tensor_module, module_map_space,
                     reference_yoneda_action, restrict)


def simple_module(cat, vertex):
    f = cat.field
    values = {vertex: ChainComplex(f, {0: ("s",)}, {})}
    uk = cat.unit_key(vertex)
    return DgModule(cat, values, {(vertex, vertex): {(uk, (0, 0)): {0: f.one()}}},
                    name=f"simple({vertex})")


class TestModules:
    def test_yoneda_unit(self):
        u = unit_category(Q)
        m = yoneda_module(u, "*")
        assert validate_module(m).ok
        assert m.dims("*") == {0: 1}

    def test_yoneda_action_equals_the_eager_reference(self, corpus):
        # the action of h(x) is a's product table with its key pairs
        # swapped, read pair by pair; it must equal the eager loop through
        # compose_elems table for table, and be a module
        rng = random.Random(0x40E)
        cats = [*corpus.values(), a3((1, -1))]
        cats += [sphere_cell(n, Q) for n in (-1, 0, 1, 2)] + [disk_cell(n, Q) for n in (0, 1, 2)]
        cats += [random_small_category(rng, field) for field in (Q, F3) for _ in range(12)]
        tables = 0
        for a in cats:
            for x in a.objects:
                m, want = yoneda_module(a, x), reference_yoneda_action(a, x)
                tables += len(want)
                pairs = list(itertools.product(a.objects, repeat=2))
                rng.shuffle(pairs)
                for pair in pairs:
                    assert m.actions(*pair) == want.get(pair, {}), (a, x, pair)
                assert m.action == want, (a, x)
                assert validate_module(m).ok, (a, x)
        assert tables >= 100

    def test_yoneda_sphere(self):
        s = sphere_cell(2, Q)
        m = yoneda_module(s, "2")
        assert m.dims("1") == {2: 1}
        assert m.dims("2") == {0: 1}
        assert validate_module(m).ok

    def test_yoneda_random_valid(self, rng):
        for _ in range(5):
            cat = random_small_category(rng)
            for x in cat.objects:
                assert validate_module(yoneda_module(cat, x)).ok

    def test_unknown_object(self, corpus):
        with pytest.raises(ValueError):
            yoneda_module(corpus["unit"], "nope")

    def test_shift_is_valid(self, rng):
        for _ in range(4):
            cat = random_small_category(rng)
            m = yoneda_module(cat, cat.objects[0])
            for j in (-2, 1):
                assert validate_module(shift_module(m, j)).ok


class TestDiagonal:
    def test_unit(self):
        d = diagonal_bimodule(unit_category(Q))
        assert d.dims(("*", "*")) == {0: 1}
        assert validate_module(d).ok

    def test_valid_on_random_quiver_algebras(self, rng):
        for _ in range(5):
            cat = random_small_category(rng)
            assert validate_module(diagonal_bimodule(cat)).ok

    def test_restrict_recovers_yoneda(self, corpus):
        for name in ("unit", "path12", "kx2", "kxk"):
            cat = corpus[name]
            d = diagonal_bimodule(cat)
            for x in cat.objects:
                assert restrict(x, d) == yoneda_module(cat, x)

    def test_restrict_dims_match_bimodule(self, corpus):
        cat = corpus["path12"]
        d = diagonal_bimodule(cat)
        for x in cat.objects:
            r = restrict(x, d)
            for y in cat.objects:
                assert r.dims(y) == d.dims((x, y))

    def test_restrict_of_external_tensor_is_scalar_extension(self, corpus):
        a = corpus["path12"]
        b = corpus["kx2"]
        m = yoneda_module(a, "2")
        n = yoneda_module(b, "v")
        ext = external_tensor_module(m, n)
        assert validate_module(ext).ok
        for x in a.objects:
            dm = sum(m.dims(x).values())
            for y in b.objects:
                got = ext.dims((x, y))
                for d, k in n.dims(y).items():
                    assert got.get(d, 0) == dm * k


class TestBarTor:
    def test_unit_field(self):
        u = unit_category(Q)
        m = yoneda_module(u, "*")
        n = yoneda_module(opposite(u), "*")
        assert tor_dims(m, n, (0, 3)) == {0: (1, "exact"), 1: (0, "exact"), 2: (0, "exact"),
                                          3: (0, "exact")}

    def test_kx2_simple_simple(self, corpus):
        cat = corpus["kx2"]
        dims = tor_dims(simple_module(cat, "v"), simple_module(opposite(cat), "v"), (0, 5))
        assert {n: d for n, (d, _) in dims.items()} == {n: 1 for n in range(6)}
        assert all(s == "exact" for _, s in dims.values())

    def test_path_simple_projective(self, corpus):
        cat = corpus["path12"]
        s2 = simple_module(cat, "2")
        p1 = yoneda_module(opposite(cat), "1")
        dims = tor_dims(s2, p1, (0, 3))
        assert all(d == 0 for n, (d, _) in dims.items() if n > 1)

    def test_free_collapse_invariant(self, rng):
        checked = 0
        for _ in range(8):
            cat = random_small_category(rng, max_dim=3)
            op = opposite(cat)
            n = yoneda_module(op, op.objects[-1])
            for x in cat.objects:
                try:
                    res = bar_composite(yoneda_module(cat, x), n, cat, (-2, 2))
                except BarWindowError:
                    continue  # grading genuinely gives no finite bound
                # free-resolution collapse: the answer is the value complex at x
                got = homology_dims(res.complexes[()], (-2, 2))
                want = homology_dims(n.value(x), (-2, 2))
                assert got == want
                checked += 1
        assert checked >= 4

    def test_symmetry_under_opposite(self, corpus):
        for name in ("kx2", "path12"):
            cat = corpus[name]
            op = opposite(cat)
            m = simple_module(cat, cat.objects[0])
            n = simple_module(op, cat.objects[0])
            d1 = tor_dims(m, n, (0, 3))
            # swap roles over the opposite category
            d2 = tor_dims(n, m, (0, 3))
            assert {k: v[0] for k, v in d1.items()} == {k: v[0] for k, v in d2.items()}

    def test_exact_windows_stable_under_larger_bound(self, corpus):
        cat = corpus["kx2"]
        m = simple_module(cat, "v")
        n = simple_module(opposite(cat), "v")
        tor = tor_dims(m, n, (0, 3))
        assert {flag for _, flag in tor.values()} == {"exact"}
        assert {i: d for i, (d, _) in tor_dims(m, n, (0, 3), bar_bound=6).items()} == \
            {i: d for i, (d, _) in tor.items()}

    def test_against_brute_oracle(self, corpus):
        for name in ("path12", "kx2", "kxk"):
            cat = corpus[name]
            op = opposite(cat)
            x0 = cat.objects[0]
            m = yoneda_module(cat, cat.objects[-1])
            n = simple_module(op, x0)
            got = {k: v[0] for k, v in tor_dims(m, n, (0, 3)).items()}
            m_values = {x: m.dims(x).get(0, 0) for x in cat.objects}
            m_action = {}
            for (x, y), tab in m.action.items():
                block = {}
                for ((df, i_f), (dm, im)), prod in tab.items():
                    block[(i_f, im)] = dict(prod)
                m_action[(x, y)] = block
            n_values = {x: n.dims(x).get(0, 0) for x in cat.objects}
            n_action = {}
            for (xo, yo), tab in n.action.items():
                # left action of hom(y, x)-in-cat = hom(x, y)-in-op... translate:
                # n is a module over op; its action by op-hom(xo, yo) = cat.hom(yo, xo)
                block = n_action.setdefault((yo, xo), {})
                for ((df, i_f), (dm, im)), prod in tab.items():
                    block[(i_f, im)] = dict(prod)
            want = brute_tor_dims(cat, m_values, m_action, n_values, n_action, 3)
            assert got == want

    def test_uncomputable_window_refused(self):
        ext = exterior_deg(Q, 1)
        m = yoneda_module(ext, "v")
        n = yoneda_module(opposite(ext), "v")
        with pytest.raises(BarWindowError):
            tor_dims(m, n, (0, 2))
        tor = tor_dims(m, n, (0, 2), bar_bound=4)
        assert {flag for _, flag in tor.values()} == {"truncated"}


class TestSnPack:
    def test_shift_identity_triple(self, corpus):
        for name in ("unit", "path12"):
            cat = corpus[name]
            m = yoneda_module(cat, cat.objects[-1])
            for n in (0, 1, 2):
                # the relabelling identity m -> m[-n] as a degree-n map
                fmap = ModuleMap(m, shift_module(m, -n), n,
                                 {x: {km: {km[1]: cat.field.one()} for km in m.value(x).basis_keys()}
                                  for x in cat.objects})
                fmap.check()
                packed = sn_pack(m, fmap.dst, fmap)
                assert validate_module(packed).ok
                # values sit at the two sphere eyes
                for y in cat.objects:
                    assert packed.dims(("1", y)) == m.dims(y)
                    assert packed.dims(("2", y)) == {d + n: k for d, k in m.dims(y).items()}
                mb, m2b, fb = sn_unpack(packed)
                assert mb == m and m2b == fmap.dst and fb.maps == fmap.maps

    def test_zero_map_triple(self, corpus):
        cat = corpus["kx2"]
        m = yoneda_module(cat, "v")
        m2 = shift_module(m, -1)
        zero = ModuleMap(m, m2, 1, {})
        packed = sn_pack(m, m2, zero)
        assert validate_module(packed).ok
        _, _, fb = sn_unpack(packed)
        assert fb.maps == {}

    def test_zero_first_slot_triple(self, corpus):
        # the (0, M, 0) packing: everything lives at the second eye
        cat = corpus["path12"]
        zero_mod = DgModule(cat, {}, {})
        m2 = yoneda_module(cat, "2")
        zmap = ModuleMap(zero_mod, m2, 1, {})
        packed = sn_pack(zero_mod, m2, zmap)
        assert validate_module(packed).ok
        for y in cat.objects:
            assert packed.dims(("1", y)) == {}
            assert packed.dims(("2", y)) == m2.dims(y)
        mb, m2b, fb = sn_unpack(packed)
        assert mb == zero_mod and m2b == m2 and fb.maps == {}

    def test_random_roundtrips(self, corpus, rng):
        count = 0
        for name in ("unit", "kxk", "path12", "kx2"):
            cat = corpus[name]
            for n in (0, 1):
                m = yoneda_module(cat, cat.objects[0])
                m2 = shift_module(yoneda_module(cat, cat.objects[-1]), -n)
                space = module_map_space(m, m2, n)
                for _ in range(3):
                    maps = {}
                    for mp in space:
                        c = cat.field.of_int(rng.randrange(-2, 3))
                        if not c:
                            continue
                        for x, tab in mp.maps.items():
                            dst = maps.setdefault(x, {})
                            for km, e in tab.items():
                                cell = dst.setdefault(km, {})
                                for j, v in e.items():
                                    cell[j] = cat.field.add(cell.get(j, cat.field.zero()),
                                                            cat.field.mul(c, v))
                    fmap = ModuleMap(m, m2, n, maps)
                    fmap.check()
                    packed = sn_pack(m, m2, fmap)
                    assert validate_module(packed).ok
                    mb, m2b, fb = sn_unpack(packed)
                    assert mb == m and m2b == m2 and fb.maps == fmap.maps
                    count += 1
        assert count >= 12


def _yoneda_span_categories(rng):
    cats = [a3((1, -1))]
    for field in (Q, F3):
        cats += list(builtin_corpus(field).values())
        cats += [exterior_deg(field, 1), exterior_deg(field, -1), contractible_category(field)]
        cats += [sphere_cell(n, field) for n in (-1, 0, 1, 2)]
        cats += [disk_cell(n, field) for n in (0, 1, 2)]
    cats += [random_small_category(rng, field) for _ in range(75) for field in (Q, F3)]
    return cats


class TestYonedaMap:
    def test_cycles_span_the_solver_space(self, rng):
        # yoneda_map over a basis of the degree-n cycles of dst.value(x)
        # gives valid maps spanning what the linear-system solver finds
        nonzero = 0
        for cat in _yoneda_span_categories(rng):
            f = cat.field
            h = {x: yoneda_module(cat, x) for x in cat.objects}
            for n, x, y in itertools.product(range(-2, 3), cat.objects, cat.objects):
                for dst in (h[y], shift_module(h[y], -n)):
                    cycles = kernel_basis(dst.value(x).diff(n)).columns()
                    maps = [yoneda_map(cat, x, dst, n, {(n, i): v for i, v in z.items()}).check()
                            for z in cycles.values()]
                    ref = module_map_space(h[x], dst, n)
                    assert len(maps) == len(ref)
                    if not ref:
                        continue
                    nonzero += 1
                    slots = list({(obj, km, j) for mp in maps + ref
                                  for obj, tab in mp.maps.items()
                                  for km, e in tab.items() for j in e})
                    rows = [[mp.maps.get(obj, {}).get(km, {}).get(j, f.zero())
                             for obj, km, j in slots] for mp in maps + ref]
                    assert dense_rank(rows[:len(maps)], f) == len(maps)
                    assert dense_rank(rows, f) == len(ref)
        assert nonzero > 1000
