"""`smoothness_certify` reads Tor^a(A0, A0) from the one-sided bar over
a, or on a monomial input as the number of Anick chains AP(n);
`oracles.reference_smoothness_tor` computes Tor over a (x) a^op of
the diagonal against the semisimple quotient A0 (x) A0^op.  The two
agree (Cartan-Eilenberg, Homological Algebra, IX.4), and for monomial
algebras both match Bardzell's closed forms (J. Algebra 188, 1997),
which the library reaches at bounds the two-sided bar cannot."""

from pathlib import Path

import pytest

from dghom.cli import main
from dghom.dgcore import DgCategory, Table, opposite
from dghom.dgmod import top_module, tor_dims
from dghom.grammar import load_path, loads
from dghom.smoothness import _degree_zero_hypotheses, smoothness_certify
from conftest import Q, F2, F5, random_small_category
from oracles import reference_smoothness_tor


def quiver(field, vertices, arrows, relations, wordlength=4):
    """The text of a quiver file: arrows (name, src, tgt) in degree 0,
    relations as monomial paths in diagram order."""
    lines = ["quiver", f"field {field}", f"wordlength {wordlength}"]
    lines += [f"vertex {v}" for v in vertices]
    lines += [f"arrow {name} {src} {tgt}" for name, src, tgt in arrows]
    lines += [f"relation 1 {path}" for path in relations]
    return "\n".join(lines) + "\n"


def kx(field, n):
    return quiver(field, ["v"], [("x", "v", "v")], [".".join("x" * n)], n + 1)


A3 = [("a", "1", "2"), ("b", "2", "3")]
CYCLE = [("a", "1", "2"), ("b", "2", "1")]
XY = [("x", "v", "v"), ("y", "v", "v")]

FAMILIES = {
    "kx2": kx("q", 2),
    "kx3_q": kx("q", 3),
    "kx3_f3": kx("fp 3", 3),
    "a3": quiver("q", ["1", "2", "3"], A3, []),
    "a3_ab_q": quiver("q", ["1", "2", "3"], A3, ["a.b"]),
    "a3_ab_f2": quiver("fp 2", ["1", "2", "3"], A3, ["a.b"]),
    "cycle_ab": quiver("q", ["1", "2"], CYCLE, ["a.b"]),
    "cycle_ab_ba": quiver("fp 5", ["1", "2"], CYCLE, ["a.b", "b.a"]),
    "kxy_rad2": quiver("q", ["v"], XY, ["x.x", "x.y", "y.x", "y.y"], 3),
    "kronecker": quiver("fp 3", ["1", "2"], [("a", "1", "2"), ("b", "1", "2")], []),
}


def load(text):
    cat, cert = loads(text)
    assert cert.is_closed
    return cat


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_routes_agree_on_corpus(corpus, bound):
    for name, cat in corpus.items():
        r = smoothness_certify(cat, bound)
        assert r.tor_dims == reference_smoothness_tor(cat, bound), name


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_routes_agree_on_quiver_families(name):
    cat = load(FAMILIES[name])
    for bound in (0, 1, 2):
        assert smoothness_certify(cat, bound).tor_dims == reference_smoothness_tor(cat, bound)


@pytest.mark.parametrize("field", [Q, F2, F5], ids=["Q", "F2", "F5"])
def test_routes_agree_on_random_degree_zero_categories(field, rng):
    compared = 0
    for _ in range(30):
        cat = random_small_category(rng, field)
        if _degree_zero_hypotheses(cat) is not None:
            continue
        for bound in range(5):
            assert smoothness_certify(cat, bound).tor_dims == reference_smoothness_tor(cat, bound)
        compared += 1
    assert compared >= 10


@pytest.mark.parametrize("field, n", [("q", 2), ("fp 3", 2), ("q", 3)])
def test_truncated_polynomial_tor_is_one_through_bound_12(field, n):
    r = smoothness_certify(load(kx(field, n)), 12)
    assert r.status == "inconclusive" and r.level == 12
    assert r.tor_dims == {k: 1 for k in range(14)}


def test_radical_square_zero_two_loops_tor_doubles_through_bound_8():
    r = smoothness_certify(load(FAMILIES["kxy_rad2"]), 8)
    assert r.status == "inconclusive" and r.level == 8
    assert r.tor_dims == {k: 2 ** k for k in range(10)}


@pytest.mark.parametrize("name, level, tor", [
    ("a3", 1, {0: 3, 1: 2, 2: 0}),
    ("a3_ab_q", 2, {0: 3, 1: 2, 2: 1, 3: 0}),
    ("a3_ab_f2", 2, {0: 3, 1: 2, 2: 1, 3: 0}),
    ("kronecker", 1, {0: 2, 1: 2, 2: 0}),
    ("cycle_ab", 2, {0: 2, 1: 2, 2: 1, 3: 0}),
])
def test_global_dimension_certified(name, level, tor):
    r = smoothness_certify(load(FAMILIES[name]), 6)
    assert r.status == "certified" and r.level == level
    assert {n: r.tor_dims[n] for n in tor} == tor


def test_saturate_kx3_bound_6_via_cli(tmp_path, capsys):
    path = tmp_path / "kx3.quiver"
    path.write_text(kx("q", 3))
    assert main(["saturate", str(path), "--bound", "6"]) == 0
    out = capsys.readouterr().out
    assert "smooth: inconclusive(6)" in out


# k<x, y>/(x^2, y^2, 2xy - yx): not monomial, so Tor comes from the bar
BINOMIAL = Path(__file__).resolve().parent / "golden" / "binomial.quiver"
# the square 1 -> 2 -> 4, 1 -> 3 -> 4 with a.b = c.d: not monomial either
SQUARE = quiver("q", ["1", "2", "3", "4"],
                [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
                ["a.b -1 c.d"])


@pytest.mark.parametrize("name, tor", [
    ("square", {0: 4, 1: 4, 2: 1, 3: 0, 4: 0, 5: 0}),
    ("binomial", {n: n + 1 for n in range(6)}),
])
def test_bar_route_computes_no_opposite_table(name, tor, monkeypatch):
    # the one-sided bar reads no product of opposite(a), and tor_dims
    # knows a module over opposite(a) by its base's op_source: comparing
    # it with a fresh opposite(a) would compute both sides' tables
    a = load(SQUARE) if name == "square" else load_path(BINOMIAL)[0]
    tables, cats = [], [a]
    read, init = Table.__call__, DgCategory.__init__
    monkeypatch.setattr(Table, "__call__", lambda table, *key: tables.append(table)
                        or read(table, *key))
    monkeypatch.setattr(DgCategory, "__init__", lambda cat, *args, **kwargs: cats.append(cat)
                        or init(cat, *args, **kwargs))
    assert smoothness_certify(a, 4).tor_dims == tor
    # the categories whose product tables were read
    owners = [c for t in tables for c in cats if t is c.products]
    assert owners and all(owner is a for owner in owners)


def test_tor_refuses_a_base_one_product_off_the_opposite():
    a, _cert = load_path(BINOMIAL)
    op = opposite(a)
    want = tor_dims(top_module(a), top_module(op), (0, 2))

    def with_one_product_dropped(cat):
        (triple, table), *rest = cat.comp.items()
        key = next(iter(table))
        comp = {triple: {k: v for k, v in table.items() if k != key}, **dict(rest)}
        return DgCategory(cat.field, cat.objects, cat.homs, comp, cat.units)

    # an equal base that is not an opposite(a) passes by full comparison
    equal = DgCategory(op.field, op.objects, op.homs, op.comp, op.units)
    assert equal.op_source is None
    assert tor_dims(top_module(a), top_module(equal), (0, 2)) == want
    # a base one product off, built by hand or as the opposite of another
    # category, is refused
    for base in (with_one_product_dropped(op), opposite(with_one_product_dropped(a))):
        with pytest.raises(ValueError, match="opposite category"):
            tor_dims(top_module(a), top_module(base), (0, 2))
