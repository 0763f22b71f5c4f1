"""Exact homological computations with finite dg categories.

The toolkit works over the rationals or a prime field and keeps every
answer exact: chain-level data is stored as sparse matrices of field
scalars, homology is computed by Gaussian elimination, and every result
that depends on a truncation bound carries an explicit exact/truncated
certificate.

Layers, bottom up:

* ``exactfield`` -- fields, sparse matrices, chain complexes.
* ``dgcore`` / ``presentation`` / ``cells`` -- dg categories, tensor
  products, presentations and their realizations; the unit category and
  the sphere and disk cells.
* ``dgmod`` -- dg modules, the diagonal bimodule, the two-sided bar
  construction.
* ``hochschild`` / ``cyclic`` -- cyclic-bar machinery: HH, mixed
  complexes, HC, HC^-, HP towers.
* ``monomial`` -- monomial inputs: Anick's chains AP(n) and Bardzell's
  complex, the fast route of HH and Tor.
* ``smoothness`` -- properness and smoothness certificates: Tor against
  the semisimple quotient, from AP(n) or the one-sided bar.
* ``saturation`` -- triangle identities, Euler characteristics by two
  routes; exports ``smoothness_certify``, which the benchmark's tracer
  wraps under this module's name.
* ``cli`` -- command-line front end emitting JSON reports.
"""

from .exactfield import FieldSpec, Matrix, ChainComplex, rank, kernel_basis, homology_dims, euler_char
from .dgcore import DgCategory, validate, opposite, tensor
from .presentation import Presentation, pushout_attach, pushout_attach_object, realize


def __getattr__(name):
    # the cells load on their first use: no command but check builds one
    if name in ("unit_category", "sphere_cell", "disk_cell"):
        from . import cells
        return getattr(cells, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FieldSpec", "Matrix", "ChainComplex", "rank", "kernel_basis",
    "homology_dims", "euler_char",
    "DgCategory", "validate", "unit_category", "sphere_cell", "disk_cell",
    "opposite", "tensor",
    "Presentation", "pushout_attach", "pushout_attach_object", "realize",
]
