"""Monomial inputs take HH and Tor from Bardzell's complex and Anick's
chains AP(n), and HC over Q from its weight pieces; the bar routes are
the references.  On every recognized input the two routes must give the
same HH and HC dims and statuses and the same smoothness certificate,
and every other input, HC over F_p, or an explicit bar bound, must stay
on the bar."""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from dghom import cyclic, dgmod, hochschild, monomial, smoothness
from dghom.dgcore import validate
from dghom.grammar import loads
from dghom.monomial import hc_dims, hh_dims, monomial_algebra
from dghom.smoothness import smoothness_certify

FIELDS = ["q", "fp 2", "fp 3"]
A3 = [("a", "1", "2"), ("b", "2", "3")]
CYCLE = [("a", "1", "2"), ("b", "2", "1")]

# name -> (vertices, arrows (name, src, tgt), monomial relations in diagram order)
QUIVERS = {
    "kx2": (["v"], [("x", "v", "v")], ["x.x"]),
    "kx3": (["v"], [("x", "v", "v")], ["x.x.x"]),
    "kx4": (["v"], [("x", "v", "v")], ["x.x.x.x"]),
    "path12": (["1", "2"], [("a", "1", "2")], []),
    "a3": (["1", "2", "3"], A3, []),
    "a3_ab": (["1", "2", "3"], A3, ["a.b"]),
    "cycle_ab_ba": (["1", "2"], CYCLE, ["a.b", "b.a"]),
    "cycle_aba": (["1", "2"], CYCLE, ["a.b.a"]),
    "cycle3_rad2": (["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
                    ["a.b", "b.c", "c.a"]),
    "kxy_rad2": (["v"], [("x", "v", "v"), ("y", "v", "v")], ["x.x", "x.y", "y.x", "y.y"]),
    "loop_out": (["1", "2"], [("x", "1", "1"), ("a", "1", "2")], ["x.x"]),
}


def quiver_text(field, vertices, arrows, relations, wordlength=6):
    lines = ["quiver", f"field {field}", f"wordlength {wordlength}"]
    lines += [f"vertex {v}" for v in vertices]
    lines += [f"arrow {name} {src} {tgt}" for name, src, tgt in arrows]
    lines += [f"relation {rel}" if " " in rel else f"relation 1 {rel}" for rel in relations]
    return "\n".join(lines) + "\n"


def load(text):
    cat, cert = loads(text)
    assert validate(cat).ok and (cert is None or cert.is_closed)
    return cat


def answers(cat, hh_n, tor_bound):
    return hh_dims(cat, hh_n), smoothness_certify(cat, tor_bound).as_dict()


def constructions(m, cls):
    """The argument tuples of every ``cls(...)`` built while the
    monkeypatch context ``m`` is open."""
    built = []
    real = cls.__init__

    def recording(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)
    m.setattr(cls, "__init__", recording)
    return built


def bar_answers(monkeypatch, cat, hh_n, tor_bound):
    """The same answers with no input recognized as monomial, so that
    hh_dims and smoothness_certify take the bar.  hh_dims must build a
    CyclicBar: a patch that misses the name hh_dims reads would
    otherwise compare the monomial route with itself."""
    with monkeypatch.context() as m:
        m.setattr(monomial, "monomial_algebra", lambda a: None)
        m.setattr(smoothness, "monomial_algebra", lambda a: None)
        bars = constructions(m, hochschild.CyclicBar)
        out = answers(cat, hh_n, tor_bound)
    assert bars, "hh_dims never built a CyclicBar"
    return out


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_ap_route_matches_bar(name, field, monkeypatch):
    cat = load(quiver_text(field, *QUIVERS[name]))
    for c in monomial_algebra(cat).hochschild_complex(7).values():
        c.verify()
    assert answers(cat, 6, 7) == bar_answers(monkeypatch, cat, 6, 7)


def bar_hc(monkeypatch, cat, n_max):
    """hc_dims with no input recognized as monomial, so on the bar, which
    must build a MixedComplex."""
    with monkeypatch.context() as m:
        m.setattr(monomial, "monomial_algebra", lambda a: None)
        mixed = constructions(m, cyclic.MixedComplex)
        out = hc_dims(cat, n_max)
    assert len(mixed) == 1, "hc_dims did not build one MixedComplex"
    return out


def test_bar_modules_re_export_the_entry_points():
    # every import and except clause sees one error class, whichever module it names
    assert hochschild.HochschildError is monomial.HochschildError
    assert cyclic.CyclicError is monomial.CyclicError


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_weight_route_hc_matches_bar(name, monkeypatch):
    cat = load(quiver_text("q", *QUIVERS[name]))
    assert hc_dims(cat, 5) == bar_hc(monkeypatch, cat, 5)


@pytest.mark.parametrize("field,bar_bound", [("fp 2", None), ("fp 3", None), ("q", 6)])
@pytest.mark.parametrize("name", ["kx3", "cycle_ab_ba"])
def test_hc_over_fp_or_with_a_bar_bound_stays_on_the_bar(name, field, bar_bound, monkeypatch):
    cat = load(quiver_text(field, *QUIVERS[name]))

    def refuse(*args):
        raise AssertionError("the weight route was taken")
    built = constructions(monkeypatch, cyclic.MixedComplex)
    monkeypatch.setattr(monomial.MonomialAlgebra, "hc_dims", refuse)
    assert len(hc_dims(cat, 4, bar_bound)) == 5
    assert len(built) == 1


@st.composite
def monomial_quivers(draw):
    """A closed monomial quiver over Q, F_2 or F_3: 2-3 vertices, 1-4
    arrows, relations that are paths of length 2-4.  When they leave a
    cycle alive, every path of length 3 is a relation too; inputs of
    total dimension above 8 are dropped, for the bar's sake."""
    n = draw(st.integers(2, 3))
    vertices = [str(i) for i in range(n)]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = [(f"a{i}", s, t) for i, (s, t) in enumerate(draw(st.lists(ends, min_size=1, max_size=4)))]
    out = {v: [a for a in arrows if a[1] == v] for v in vertices}

    def paths(length):
        layer = [[a] for a in arrows]
        for _ in range(length - 1):
            layer = [p + [b] for p in layer for b in out[p[-1][2]]]
        return [".".join(a[0] for a in p) for p in layer]

    candidates = [p for length in (2, 3, 4) for p in paths(length)]
    relations = draw(st.lists(st.sampled_from(candidates), max_size=4, unique=True)) \
        if candidates else []
    field = draw(st.sampled_from(FIELDS))
    cat, cert = loads(quiver_text(field, vertices, arrows, relations, 5))
    if not cert.is_closed:
        cat, cert = loads(quiver_text(field, vertices, arrows, relations + paths(3), 5))
    assert cert.is_closed
    assume(cat.total_dim() <= 8)
    return cat


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                                 HealthCheck.function_scoped_fixture])
@given(cat=monomial_quivers())
def test_ap_route_matches_bar_on_random_monomial_quivers(cat, monkeypatch):
    assert monomial_algebra(cat) is not None
    assert answers(cat, 3, 4) == bar_answers(monkeypatch, cat, 3, 4)
    if cat.field.kind == 0:
        assert hc_dims(cat, 3) == bar_hc(monkeypatch, cat, 3)


def kxy_commutative_quiver(wordlength):
    return quiver_text("q", ["v"], [("x", "v", "v"), ("y", "v", "v")],
                       ["x.x", "y.y", "1 x.y -1 y.x"], wordlength)


REFUSED = {
    # k[x,y]/(x^2, y^2, xy - yx): a multiplicative basis, but xy and yx
    # are one basis key, z
    "kxy_commutative": "dgcat\nfield q\nobject v\n"
                       + "".join(f"basis v v {k} 0\n" for k in "exyz") + "unit v e 1\n"
                       + "".join(f"compose v v v {g} {f} {h} 1\n" for g, f, h in
                                 ["eee", "exx", "xex", "eyy", "yey", "ezz", "zez", "xyz", "yxz"]),
    # the same algebra as a quiver, which realizes closed at wordlength 4
    "kxy_commutative_quiver": kxy_commutative_quiver(4),
    "commutative_square": quiver_text("q", ["1", "2", "3", "4"],
                                      [("a", "1", "2"), ("b", "2", "4"),
                                       ("c", "1", "3"), ("d", "3", "4")],
                                      ["1 a.b -1 c.d"], 4),
    "graded_arrow": "quiver\nfield q\nwordlength 4\nvertex v\narrow x v v 1\nrelation 1 x.x\n",
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_inputs_stay_on_the_bar(name, monkeypatch):
    cat = load(REFUSED[name])
    assert monomial_algebra(cat) is None

    def refuse(*args):
        raise AssertionError("the AP route was taken")
    monkeypatch.setattr(monomial.MonomialAlgebra, "hochschild_complex", refuse)
    monkeypatch.setattr(monomial.MonomialAlgebra, "chains", refuse)
    assert len(hh_dims(cat, 3)) == 4
    assert len(hc_dims(cat, 3)) == 4
    assert len(smoothness_certify(cat, 3).tor_dims) in (0, 5)


@pytest.mark.parametrize("wordlength", [4, 5])
def test_binomial_quiver_realizes_closed(wordlength):
    # relations homogeneous in word length: every word of length 3 dies,
    # so the quiver is the closed k[x,y]/(x^2, y^2, xy - yx)
    cat, cert = loads(kxy_commutative_quiver(wordlength))
    assert cert.is_closed and cert.saturation_length == 3
    assert answers(cat, 3, 3) == answers(load(REFUSED["kxy_commutative"]), 3, 3)
    # Kunneth for k[x]/(x^2) (x) k[y]/(y^2)
    assert hh_dims(cat, 3) == {n: (d, "exact") for n, d in enumerate([4, 4, 5, 6])}


def test_binomial_quiver_truncated_at_wordlength_3():
    # the words die at length 3, but xy.xy has length 4, past the bound
    _cat, cert = loads(kxy_commutative_quiver(3))
    assert not cert.is_closed and cert.truncated_products > 0


def test_relation_of_mixed_word_lengths_stays_truncated():
    # x.x = x: its terms differ in length, so the dying of long words
    # proves nothing about the ideal and the realization is not closed
    _cat, cert = loads("quiver\nfield q\nwordlength 4\nvertex v\narrow x v v\n"
                       "relation 1 x.x -1 x\n")
    assert not cert.is_closed


def test_refused_commutative_square_keeps_its_answers():
    # kQ/(ab - cd) on the square has global dimension 2: the bar finds it
    cat = load(REFUSED["commutative_square"])
    r = smoothness_certify(cat, 4)
    assert r.status == "certified" and r.level == 2
    assert r.tor_dims == {0: 4, 1: 4, 2: 1, 3: 0, 4: 0, 5: 0}


def test_explicit_bar_bound_stays_on_the_bar(monkeypatch):
    cat = load(quiver_text("q", *QUIVERS["kx3"]))
    want = hh_dims(cat, 4)

    def refuse(a):
        raise AssertionError("an explicit bar bound must not look for AP chains")
    monkeypatch.setattr(monomial, "monomial_algebra", refuse)
    assert hh_dims(cat, 4, bar_bound=5) == want


def test_kx3_to_degree_40_builds_no_bar(monkeypatch):
    cat = load(quiver_text("q", *QUIVERS["kx3"]))

    def no_bar(*args, **kwargs):
        raise AssertionError("a bar was built")
    monkeypatch.setattr(hochschild.CyclicBar, "__init__", no_bar)
    monkeypatch.setattr(dgmod, "bar_composite", no_bar)
    # HH of k[x]/(x^3) over Q: 3 in degree 0, 2 in every degree above
    assert hh_dims(cat, 40) == {n: (3 if n == 0 else 2, "exact") for n in range(41)}
    r = smoothness_certify(cat, 40)
    assert r.status == "inconclusive" and r.level == 40
    assert r.tor_dims == {n: 1 for n in range(42)}


def test_kx3_hc_to_degree_40_builds_no_bar(monkeypatch):
    cat = load(quiver_text("q", *QUIVERS["kx3"]))

    def no_bar(*args, **kwargs):
        raise AssertionError("a bar was built")
    monkeypatch.setattr(hochschild.CyclicBar, "__init__", no_bar)
    # HC of k[x]/(x^3) over Q: 3 in even degrees, 0 in odd ones
    assert hc_dims(cat, 40) == {n: (0 if n % 2 else 3, "exact") for n in range(41)}


def test_weight_pieces_of_kx3():
    # HH^(w) of k[x]/(x^3) over Q: the units in weight 0, and weights
    # 3k + 1 and 3k + 2 in degrees 2k and 2k + 1; weight 3k is acyclic.
    # Over F_3 weight 3k is not, and there S need not vanish on it.
    def pieces(field):
        mono = monomial_algebra(load(quiver_text(field, *QUIVERS["kx3"])))
        return {w: hh for w, hh in mono.hh_by_weight(4).items() if any(hh)}
    want = {0: [1, 0, 0, 0, 0], 1: [1, 1, 0, 0, 0], 2: [1, 1, 0, 0, 0],
            4: [0, 0, 1, 1, 0], 5: [0, 0, 1, 1, 0], 7: [0, 0, 0, 0, 1], 8: [0, 0, 0, 0, 1]}
    assert pieces("q") == want
    assert pieces("fp 3") == {**want, 3: [0, 1, 1, 0, 0], 6: [0, 0, 0, 1, 1]}


def test_ap_chains_of_kx3():
    # AP(2k) = x^{3k}, AP(2k+1) = x^{3k+1}, each its own unique chain
    mono = monomial_algebra(load(quiver_text("q", *QUIVERS["kx3"])))
    lengths = [[len(w) for _s, _t, w, _last in ap] for ap in mono.chains(6)]
    assert lengths == [[0], [1], [3], [4], [6], [7], [9]]


def test_radical_square_zero_tor_without_a_bar(monkeypatch):
    # k<x, y>/(x, y)^2: AP(n) is every word of length n, so Tor_n = 2^n
    cat = load(quiver_text("q", *QUIVERS["kxy_rad2"]))

    def no_bar(*args, **kwargs):
        raise AssertionError("a bar was built")
    monkeypatch.setattr(dgmod, "bar_composite", no_bar)
    r = smoothness_certify(cat, 11)
    assert r.status == "inconclusive"
    assert r.tor_dims == {n: 2 ** n for n in range(13)}
