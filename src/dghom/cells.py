"""The unit category and the sphere and disk cells S(n) and D(n), as
finite dg categories; ``presentation.pushout_attach`` attaches the same
cells to a presentation.  ``dghom`` exports these constructors but
loads this module on their first use."""

from __future__ import annotations

from .exactfield import ChainComplex, FieldSpec, Matrix
from .dgcore import DgCategory


def _one_dim_hom(field, label, degree):
    return ChainComplex(field, {degree: (label,)}, {})


def unit_category(field: FieldSpec) -> DgCategory:
    """One object, hom = the field in degree 0."""
    one = field.one()
    homs = {("*", "*"): _one_dim_hom(field, "1", 0)}
    comp = {("*", "*", "*"): {(((0, 0), (0, 0))): {0: one}}}
    units = {"*": {(0, 0): one}}
    return DgCategory(field, ("*",), homs, comp, units, name="unit")


def _two_object_cell(field, obj_a, obj_b, arrow_complex, arrow_units_action):
    """Shared shape of the sphere and disk cells: two objects, scalar
    endomorphisms, all morphisms from the first to the second."""
    one = field.one()
    homs = {
        (obj_a, obj_a): _one_dim_hom(field, "1", 0),
        (obj_b, obj_b): _one_dim_hom(field, "1", 0),
        (obj_a, obj_b): arrow_complex,
        (obj_b, obj_a): ChainComplex(field, {}, {}),
    }
    comp = {
        (obj_a, obj_a, obj_a): {((0, 0), (0, 0)): {0: one}},
        (obj_b, obj_b, obj_b): {((0, 0), (0, 0)): {0: one}},
    }
    comp[(obj_a, obj_a, obj_b)] = {((d, i), (0, 0)): {i: one} for (d, i) in arrow_units_action}
    comp[(obj_a, obj_b, obj_b)] = {((0, 0), (d, i)): {i: one} for (d, i) in arrow_units_action}
    units = {obj_a: {(0, 0): one}, obj_b: {(0, 0): one}}
    return DgCategory(field, (obj_a, obj_b), homs, comp, units)


def sphere_cell(n: int, field: FieldSpec) -> DgCategory:
    """Two objects 1, 2; hom(1,2) is the field in degree n; no morphisms
    back; scalar endomorphisms."""
    arrow = _one_dim_hom(field, "s", n)
    cat = _two_object_cell(field, "1", "2", arrow, [(n, 0)])
    cat.name = f"S({n})"
    return cat


def disk_cell(n: int, field: FieldSpec) -> DgCategory:
    """Two objects 3, 4; hom(3,4) is the acyclic two-term complex
    k --id--> k in degrees n-2, n-1 (the cone direction places the new
    generator one degree below its boundary)."""
    arrow = ChainComplex(
        field,
        {n - 2: ("h",), n - 1: ("c",)},
        {n - 2: Matrix(field, 1, 1, {(0, 0): field.one()})},
    )
    cat = _two_object_cell(field, "3", "4", arrow, [(n - 2, 0), (n - 1, 0)])
    cat.name = f"D({n})"
    return cat
