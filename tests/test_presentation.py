import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dghom import grammar
from dghom.cells import disk_cell, sphere_cell
from dghom.exactfield import FieldSpec, homology_dims
from dghom.dgcore import validate
from dghom.presentation import (PathElement, Presentation, PresentationError, RealizeCertificate,
                                from_quiver, pushout_attach, pushout_attach_object, realize)
from conftest import Q, hom_dims


def sphere_presentation(n):
    return Presentation(Q, ["1", "2"], {"s": ("1", "2", n)})


class TestRecords:
    def test_path_element_drops_zero_terms_and_tuples_words(self):
        e = PathElement("1", "2", {("a", "b"): 3, ("c",): 0, "cd": 2})
        assert (e.src, e.tgt) == ("1", "2")
        assert e.terms == {("a", "b"): 3, ("c", "d"): 2}
        assert all(type(w) is tuple for w in e.terms)
        assert not e.is_zero()
        assert PathElement("1", "1", {("a",): 0}).is_zero()

    def test_realize_certificate(self):
        cert = RealizeCertificate("closed", "", 4)
        assert (cert.saturation_length, cert.truncated_products) == (None, 0)
        assert cert.is_closed
        cert = RealizeCertificate(status="truncated", reason="word length", basis_count=2,
                                  saturation_length=3, truncated_products=5)
        assert not cert.is_closed
        assert (cert.reason, cert.basis_count, cert.saturation_length,
                cert.truncated_products) == ("word length", 2, 3, 5)


class TestRealize:
    def test_sphere_matches_cell(self):
        for n in (-1, 0, 2):
            cat, cert = realize(sphere_presentation(n), abs(n) + 1, 2)
            assert cert.is_closed
            ref = sphere_cell(n, Q)
            assert hom_dims(cat, "1", "2") == hom_dims(ref, "1", "2")
            assert validate(cat).ok

    def test_acyclic_path_algebra_closed(self):
        pres = from_quiver(Q, ["1", "2", "3"], [("a", "1", "2", 0), ("b", "2", "3", 0)])
        cat, cert = realize(pres, 2, 4)
        assert cert.is_closed
        assert hom_dims(cat, "1", "3") == {0: 1}  # the composite path
        assert validate(cat).ok

    def test_free_loop_truncated(self):
        pres = from_quiver(Q, ["v"], [("x", "v", "v", 0)])
        cat, cert = realize(pres, 2, 4)
        assert cert.status == "truncated"
        assert "final length" in cert.reason

    def test_monomial_saturation_closed(self, corpus):
        pres = from_quiver(Q, ["v"], [("x", "v", "v", 0)],
                           [PathElement("v", "v", {("x", "x"): Q.one()})])
        cat, cert = realize(pres, 2, 5)
        assert cert.is_closed and cert.saturation_length == 2
        assert hom_dims(cat, "v", "v") == {0: 2}

    def test_longer_truncation_same_category(self):
        pres = from_quiver(Q, ["v"], [("x", "v", "v", 0)],
                           [PathElement("v", "v", {("x", "x"): Q.one()})])
        c1, _ = realize(pres, 2, 3)
        c2, _ = realize(pres, 2, 6)
        assert c1 == c2

    def test_unit_killing_relation_rejected(self):
        pres = from_quiver(Q, ["v"], [], [PathElement("v", "v", {(): Q.one()})])
        with pytest.raises(PresentationError):
            realize(pres, 2, 2)

    def test_linear_relation_acyclic(self):
        # commuting square: d.a - c.b = 0
        pres = from_quiver(Q, ["1", "2", "3", "4"],
                           [("a", "1", "2", 0), ("b", "1", "3", 0),
                            ("d", "2", "4", 0), ("c", "3", "4", 0)],
                           [PathElement("1", "4", {("a", "d"): Q.one(),
                                                   ("b", "c"): Q.of_int(-1)})])
        cat, cert = realize(pres, 2, 4)
        assert cert.is_closed
        assert hom_dims(cat, "1", "4") == {0: 1}
        assert validate(cat).ok


class TestPushout:
    def test_attach_disk(self):
        pres = sphere_presentation(0)
        attached = pushout_attach(pres, 1, PathElement("1", "2", {("s",): Q.one()}))
        cat, cert = realize(attached, 3, 3)
        assert cert.is_closed
        ref = disk_cell(1, Q)
        assert hom_dims(cat, "1", "2") == hom_dims(ref, "3", "4")
        assert homology_dims(cat.hom("1", "2"), (-2, 1)) == {-2: 0, -1: 0, 0: 0, 1: 0}
        assert validate(cat).ok

    def test_attach_checks_degree(self):
        pres = sphere_presentation(0)
        with pytest.raises(PresentationError):
            pushout_attach(pres, 3, PathElement("1", "2", {("s",): Q.one()}))

    def test_attach_checks_closedness(self):
        pres = sphere_presentation(1)
        attached = pushout_attach(pres, 2, PathElement("1", "2", {("s",): Q.one()}))
        # the new generator h has d(h) = s and degree 0; s is closed, h is not
        with pytest.raises(PresentationError):
            pushout_attach(attached, 1, PathElement("1", "2", {(attached_name(attached),): Q.one()}))

    def test_attach_closed_modulo_relation(self):
        # h: 1 -> 3 in degree -1 with d(h) = a.b is closed only once a.b = 0
        gens = {"a": ("1", "2", 0), "b": ("2", "3", 0), "h": ("1", "3", -1)}
        ab = PathElement("1", "3", {("a", "b"): Q.one()})
        h = PathElement("1", "3", {("h",): Q.one()})
        pres = Presentation(Q, ["1", "2", "3"], gens, {"h": ab}, [ab])
        cat, cert = realize(pushout_attach(pres, 0, h), 3, 3)
        assert cert.is_closed and validate(cat).ok
        # the attached generator kills h, so hom(1, 3) is acyclic
        assert hom_dims(cat, "1", "3") == {-2: 1, -1: 1}
        assert homology_dims(cat.hom("1", "3"), (-2, 0)) == {-2: 0, -1: 0, 0: 0}
        with pytest.raises(PresentationError, match="not closed"):
            pushout_attach(Presentation(Q, ["1", "2", "3"], gens, {"h": ab}), 0, h)

    def test_attach_closed_through_longer_relation_words(self):
        # d(h) = x - y vanishes only through the longer word z.w, since
        # x = z.w = y; the relations are not homogeneous in word length
        gens = {"x": ("1", "2", 0), "y": ("1", "2", 0), "z": ("1", "3", 0),
                "w": ("3", "2", 0), "h": ("1", "2", -1)}
        rels = [PathElement("1", "2", {("x",): 1, ("z", "w"): -1}),
                PathElement("1", "2", {("y",): 1, ("z", "w"): -1})]
        dh = PathElement("1", "2", {("x",): 1, ("y",): -1})
        pres = Presentation(Q, ["1", "2", "3"], gens, {"h": dh}, rels)
        cat, cert = realize(pres, 3, 3)
        assert cert.is_closed
        assert hom_dims(cat, "1", "2") == {-1: 1, 0: 1}
        assert homology_dims(cat.hom("1", "2"), (-1, 0)) == {-1: 1, 0: 1}
        attached = pushout_attach(pres, 0, PathElement("1", "2", {("h",): 1}))
        cat, cert = realize(attached, 3, 3)
        assert cert.is_closed and validate(cat).ok
        # the attached generator kills h and leaves x
        assert hom_dims(cat, "1", "2") == {-2: 1, -1: 1, 0: 1}
        assert homology_dims(cat.hom("1", "2"), (-2, 0)) == {-2: 0, -1: 0, 0: 1}

    def test_attach_boundary_through_the_empty_word(self):
        # d(h) = id_v: the boundary of the attaching element is the unit
        pres = Presentation(Q, ["v"], {"h": ("v", "v", -1)},
                            {"h": PathElement("v", "v", {(): Q.one()})})
        with pytest.raises(PresentationError, match="not closed"):
            pushout_attach(pres, 0, PathElement("v", "v", {("h",): Q.one()}))

    def test_object_attach(self):
        pres = Presentation(Q, ["a"])
        out = pushout_attach_object(pres, "b")
        cat, cert = realize(out, 1, 1)
        assert cert.is_closed
        assert hom_dims(cat, "a", "b") == {} and hom_dims(cat, "b", "a") == {}
        assert cat.total_dim() == 2

    def test_double_object_attach_is_coproduct_of_units(self, corpus):
        pres = Presentation(Q, [])
        pres = pushout_attach_object(pres, "1")
        pres = pushout_attach_object(pres, "2")
        cat, cert = realize(pres, 1, 1)
        assert cert.is_closed
        assert cat == corpus["kxk"]

    def test_iterated_attachments_stay_valid(self):
        # attach a second cell killing the boundary of the first
        pres = sphere_presentation(0)
        pres = pushout_attach(pres, 1, PathElement("1", "2", {("s",): Q.one()}))
        cat, cert = realize(pres, 3, 3)
        assert validate(cat).ok
        for c in cat.homs.values():
            c.verify()


def attached_name(pres):
    return next(n for n in pres.generators if n.startswith("h"))


@st.composite
def degree_zero_quivers(draw):
    """A degree-0 quiver over Q, F_2 or F_3 on 1-3 vertices with 1-3
    arrows; each relation is a path of length 1-3, or that path minus a
    multiple of another path parallel to it of the same length."""
    field = draw(st.sampled_from([Q, FieldSpec.prime(2), FieldSpec.prime(3)]))
    vertices = [str(i) for i in range(draw(st.integers(1, 3)))]
    ends = st.sampled_from(vertices)
    arrows = [(f"a{i}", draw(ends), draw(ends), 0) for i in range(draw(st.integers(1, 3)))]
    pres = from_quiver(field, vertices, arrows)
    paths = [w for n in (1, 2, 3) for w in itertools.product([a[0] for a in arrows], repeat=n)
             if _composes(pres, w)]
    relations = []
    for _ in range(draw(st.integers(0, 3)) if paths else 0):
        w = draw(st.sampled_from(paths))
        terms = {w: field.one()}
        parallel = [v for v in paths if v != w and len(v) == len(w)
                    and pres.word_endpoints(v) == pres.word_endpoints(w)]
        if parallel and draw(st.booleans()):
            terms[draw(st.sampled_from(parallel))] = field.of_int(draw(st.sampled_from([-1, 1, 2])))
        relations.append(PathElement(*pres.word_endpoints(w), terms))
    return from_quiver(field, vertices, arrows, relations)


def _composes(pres, word):
    try:
        pres.word_endpoints(word)
    except PresentationError:
        return False
    return True


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(degree_zero_quivers())
def test_closed_realization_independent_of_wordlength(pres):
    # relations homogeneous in word length: once closed, a longer bound
    # adds nothing
    for length in range(1, 4):
        short, cert_short = realize(pres, 2, length)
        long_, cert_long = realize(pres, 2, length + 1)
        if cert_short.is_closed and cert_long.is_closed:
            assert grammar.dumps(short) == grammar.dumps(long_)
            assert validate(short).ok
