import random

import pytest

from dghom.cells import disk_cell, sphere_cell
from dghom.exactfield import ChainComplex, FieldSpec, Matrix
from dghom.corpus import builtin_corpus, kx2, path12, product_kk, unit
from dghom.dgcore import DgCategory, opposite, tensor
from dghom.presentation import PathElement, from_quiver, realize

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


@pytest.fixture(scope="session")
def corpus():
    return builtin_corpus(Q)


@pytest.fixture
def rng():
    return random.Random(0xD64)


def hom_dims(cat, x, y):
    """{degree: dimension} of hom(x, y) over its support."""
    c = cat.hom(x, y)
    return {d: c.dim(d) for d in c.support()}


def identity(field, n):
    return Matrix(field, n, n, {(i, i): field.one() for i in range(n)})


def exterior_deg(field, degree):
    """k[x]/(x^2) with the generator in the given cohomological degree."""
    pres = from_quiver(field, ["v"], [("x", "v", "v", degree)],
                       [PathElement("v", "v", {("x", "x"): field.one()})])
    cat, cert = realize(pres, abs(degree) + 2, 3)
    assert cert.is_closed
    cat.name = f"ext({degree})"
    return cat


def a3(degrees=(0, 0), ab_zero=False):
    """The quiver 1 -a-> 2 -b-> 3 with the given arrow degrees, and with
    the relation a.b = 0 when ab_zero."""
    da, db = degrees
    rels = [PathElement("1", "3", {("a", "b"): Q.one()})] if ab_zero else []
    pres = from_quiver(Q, ["1", "2", "3"], [("a", "1", "2", da), ("b", "2", "3", db)], rels)
    cat, cert = realize(pres, abs(da) + abs(db) + 2, 3)
    assert cert.is_closed
    cat.name = "A3/(ab)" if ab_zero else "A3"
    return cat


def matrix_category(field, c=1):
    """Two isomorphic objects with every hom the field in degree 0: the
    non-unit arrows 1 -> 2 -> 1 compose to c times a unit (a face of a
    normalized bar chain lands on a degenerate chain)."""
    objs = ("1", "2")
    one = field.one()
    homs = {(x, y): ChainComplex(field, {0: (f"{x}{y}",)}, {}) for x in objs for y in objs}
    comp = {(x, y, z): {((0, 0), (0, 0)): {0: c if x != y != z else one}}
            for x in objs for y in objs for z in objs}
    return DgCategory(field, objs, homs, comp, {x: {(0, 0): one} for x in objs}, name="M2")


def contractible_category(field):
    """k[h]/(h^2) with |h| = -1 and dh = 1: the internal differential of
    an inner bar factor h is the unit, a degenerate chain."""
    one = field.one()
    hom = ChainComplex(field, {-1: ("h",), 0: ("1",)}, {-1: Matrix(field, 1, 1, {(0, 0): one})})
    u, h = (0, 0), (-1, 0)
    comp = {("*", "*", "*"): {(u, u): {0: one}, (u, h): {0: one}, (h, u): {0: one}}}
    return DgCategory(field, ("*",), {("*", "*"): hom}, comp, {"*": {u: one}}, name="cone")


def random_small_category(rng, field=Q, max_dim=4):
    """A random valid dg category of total dimension <= max_dim, drawn
    from always-valid constructions."""
    builders = [
        lambda: unit(field),
        lambda: product_kk(field),
        lambda: path12(field),
        lambda: kx2(field),
        lambda: sphere_cell(rng.choice([-1, 0, 1, 2]), field),
        lambda: disk_cell(rng.choice([0, 1, 2]), field),
        lambda: exterior_deg(field, rng.choice([-1, 1])),
        lambda: _random_acyclic_quiver(rng, field),
    ]
    cat = rng.choice(builders)()
    if rng.random() < 0.3:
        cat = opposite(cat)
    if cat.total_dim() <= 2 and rng.random() < 0.3:
        other = unit(field)
        cat = tensor(cat, other)
    if cat.total_dim() > max_dim:
        cat = unit(field)
    return cat


def _random_acyclic_quiver(rng, field):
    n_v = rng.choice([1, 2])
    vertices = [str(i) for i in range(1, n_v + 1)]
    arrows = []
    if n_v == 2:
        for k in range(rng.choice([0, 1, 2])):
            arrows.append((f"a{k}", "1", "2", 0))
    pres = from_quiver(field, vertices, arrows)
    cat, cert = realize(pres, 2, 3)
    assert cert.is_closed
    return cat
