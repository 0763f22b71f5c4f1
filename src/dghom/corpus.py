"""The small built-in example categories, and the proposition checks
``dghom check`` runs on each corpus member (only ``check`` loads this
module)."""

from __future__ import annotations

import json

from .exactfield import FieldSpec, kernel_basis
from .dgcore import tensor
from .cells import unit_category
from .monomial import HochschildError, hh_dims
from .presentation import PathElement, from_quiver, realize


def unit(field: FieldSpec):
    return unit_category(field)


def kx2(field: FieldSpec):
    """k[x]/(x^2): one vertex, a degree-0 loop squaring to zero."""
    pres = from_quiver(field, ["v"], [("x", "v", "v", 0)],
                       [PathElement("v", "v", {("x", "x"): field.one()})])
    cat, cert = realize(pres, 2, 3)
    assert cert.is_closed
    cat.name = "k[x]/(x^2)"
    return cat


def path12(field: FieldSpec):
    """Path algebra of the quiver 1 -> 2."""
    pres = from_quiver(field, ["1", "2"], [("a", "1", "2", 0)])
    cat, cert = realize(pres, 2, 2)
    assert cert.is_closed
    cat.name = "path(1->2)"
    return cat


def product_kk(field: FieldSpec):
    """k x k as the two-object coproduct of unit categories (the basic
    form; the one-object presentation has a non-basis unit)."""
    pres = from_quiver(field, ["1", "2"], [])
    cat, cert = realize(pres, 1, 1)
    assert cert.is_closed
    cat.name = "k x k"
    return cat


def builtin_corpus(field: FieldSpec) -> dict:
    return {
        "unit": unit(field),
        "kxk": product_kk(field),
        "path12": path12(field),
        "kx2": kx2(field),
    }


# ---------------------------------------------------------------------------
# the proposition checks

def _check_prop31(cat, rng):
    from .dgmod import shift_module, sn_pack, sn_unpack, validate_module, yoneda_map, yoneda_module
    field = cat.field
    trials = 0
    for n in (0, 1):
        for x in cat.objects:
            # a random degree-n map h(x) -> h(x)[-n]: by the Yoneda lemma,
            # a random cycle of h(x)[-n](x) in degree n, the image of 1_x
            m2 = shift_module(yoneda_module(cat, x), -n)
            cycles = kernel_basis(m2.value(x).diff(n))
            if not cycles.cols:
                continue
            coeffs = [field.of_int(rng.randrange(-2, 3)) for _ in range(cycles.cols)]
            if not any(coeffs):
                coeffs[0] = field.one()
            e = {}
            for (i, j), v in cycles.entries.items():
                field.accumulate(e, (n, i), field.mul(coeffs[j], v))
            fmap = yoneda_map(cat, x, m2, n, e)
            m = fmap.src
            packed = sn_pack(m, m2, fmap)
            if not validate_module(packed).ok:
                return "FAIL", "packed module failed validation"
            m_back, m2_back, f_back = sn_unpack(packed)
            if not (m_back == m and m2_back == m2 and f_back.maps == fmap.maps):
                return "FAIL", "roundtrip differs"
            trials += 1
    return "PASS", f"{trials} roundtrips"


def _check_triangle(cat, sat):
    from .saturation import triangle_identity_check
    res = triangle_identity_check(cat, (-3, 3), saturation=sat)
    if res.status == "pass":
        return "PASS", f"evidence: {res.evidence}"
    if res.status == "inconclusive":
        return "INCONCLUSIVE", str(res.details.get("reason", ""))
    return "FAIL", json.dumps(res.details, sort_keys=True)


def _check_chi(cat, sat):
    from .saturation import euler_report
    if not sat.saturated:
        return "SKIPPED", "not certified saturated; chi equality undefined here"
    rep = euler_report(cat, sat.smooth)
    if rep.agree:
        return "PASS", f"chi = {rep.chi_hh} by both routes"
    return "FAIL", json.dumps(rep.as_dict(), sort_keys=True)


def _check_kunneth(cat):
    from .hochschild import ShuffleMap
    field = cat.field
    one = unit_category(field)
    try:
        sh = ShuffleMap(one, cat, (-3, 0))
    except HochschildError as exc:
        return "INCONCLUSIVE", str(exc)
    try:
        sh.check_certificate()
    except HochschildError as exc:
        return "FAIL", str(exc)
    dims_a = hh_dims(cat, 2)
    dims_t = hh_dims(tensor(one, cat), 2)
    for n in range(3):
        if dims_a[n][1] != "exact" or dims_t[n][1] != "exact":
            return "INCONCLUSIVE", f"degree {n} not exact"
        if dims_a[n][0] != dims_t[n][0]:
            return "FAIL", f"Kunneth with the unit fails at degree {n}"
    return "PASS", "shuffle certificate + unit Kunneth"


def check_category(cat, bound: int, rng) -> dict:
    """{check name: (status, detail)} of the four proposition checks."""
    from .smoothness import saturation_report
    sat = saturation_report(cat, bound)
    return {
        "prop31_roundtrip": _check_prop31(cat, rng),
        "triangle_identities": _check_triangle(cat, sat),
        "chi_equality": _check_chi(cat, sat),
        "kunneth_shuffle": _check_kunneth(cat),
    }
