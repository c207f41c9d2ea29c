"""Exact computations in module categories of bound quiver algebras."""

from .algebra import (
    Algebra,
    AlgebraError,
    AlgebraMorphismData,
    build_algebra,
    corner_algebra,
    opposite_algebra,
    quotient_by_idempotent_ideal,
    verify_algebra_axioms,
)
from .bimodules import Bimodule, hom_from_bimodule, restrict_along_surjection, tensor_with_bimodule
from .exceptional import (
    EnumerationConfig,
    ExceptionalReport,
    check_recollement_theorem,
    check_split_theorem,
    enumerate_bricks,
    enumerate_ces,
    is_exceptional,
    is_exceptional_sequence,
    semibrick_report,
)
from .fields import F2, RATIONALS, FieldSpec
from .fileio import ParseError, parse_algebra_file, parse_module_file
from .linalg import Matrix, Subspace, quotient_with_section, solve_right
from .modules import (
    ModuleError,
    ModuleMap,
    RightModule,
    brick_report,
    direct_sum,
    explicit_module,
    ext_dims,
    hom_basis,
    hom_dim,
    injective_module,
    is_projective_module,
    iso_test,
    make_module,
    minimal_resolution,
    module_from_arrow_maps,
    projective_module,
    simple_module,
    thin_module,
    top_and_cover,
    zero_module,
)
from .quiver import Arrow, Quiver, RelationExpr
from .recollements import Recollement, build_recollement, verify_recollement_laws
from .scope import computation_scope
from .split_extensions import SplitExtension, build_split_extension

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
