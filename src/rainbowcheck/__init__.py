"""Exact simplicial homology and rainbow-simplex condition checking."""

from .chromatic import (
    ArityError,
    CheckReport,
    Coloring,
    DualityAudit,
    HypothesisVerdict,
    alexander_duality_audit,
    check_meshulam,
    check_theorem,
    chromatic_subcomplex,
    rainbow_simplices,
    validate_coloring,
)
from .complexes import (
    PseudomanifoldReport,
    SimplicialComplex,
    boundary_complex,
    connected_components,
    euler_characteristic,
    induced_subcomplex,
    pseudomanifold_report,
    vertex_link,
)
from .generators import NamedComplex, generate, random_coloring, sperner_instance
from .homology import (
    GF2,
    GF3,
    GF5,
    QQ,
    BettiVector,
    DEFAULT_FIELDS,
    FieldSpec,
    is_acyclic,
    parse_field,
    reduced_betti,
    relative_betti,
    sphere_betti,
)
from .subdivision import (
    SubdivisionMap,
    barycentric_subdivision,
    derived_neighborhood,
    supplement_complex,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
