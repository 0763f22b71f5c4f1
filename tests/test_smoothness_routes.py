"""`smoothness_certify` reads Tor^a(A0, A0) from the one-sided bar over
a, or on a monomial input as the number of Anick chains AP(n);
`oracles.reference_smoothness_tor` computes Tor over a (x) a^op of
the diagonal against the semisimple quotient A0 (x) A0^op.  The two
agree (Cartan-Eilenberg, Homological Algebra, IX.4), and for monomial
algebras both match Bardzell's closed forms (J. Algebra 188, 1997),
which the library reaches at bounds the two-sided bar cannot."""

import pytest

from dghom.cli import main
from dghom.grammar import loads
from dghom.saturation import _degree_zero_hypotheses, smoothness_certify
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
