"""Numerical toolkit for the seminorm geometry induced by a positive operator.

Given a positive semidefinite A on a finite-dimensional real or complex
space, the package computes A-seminorms of vectors and operators, norm
attainment subspaces, decides exact and approximate orthogonality through
several provably equivalent routes, and classifies (and refutes, with
constructed witnesses) approximate right/left symmetry of A-bounded
operators.
"""

from .core import (
    DEFAULT_TOL,
    PsdOperator,
    Tolerances,
    hermitian_eig,
    null_basis,
    psd_decompose,
    sqrt_psd,
)
from .errors import (
    AttainmentSubsetError,
    ComplexFieldError,
    DimensionMismatchError,
    EpsilonRangeError,
    IsometryError,
    NonFiniteError,
    NotABoundedError,
    NotAUnitError,
    NotHermitianError,
    NotPositiveError,
    RankTooSmallError,
    RealFieldError,
    SemiorthoError,
    WitnessConstructionError,
    ZeroANormError,
)
from .operators import (
    ABoundedOperator,
    BoundedCheck,
    IsometryCheck,
    NormAttainment,
    bind_operator,
    check_a_bounded,
    is_a_isometry,
    norm_attainment_set,
    operator_norm_a,
    tilde_reduce,
)
from .orthogonality import (
    attainment_subset,
    direct_objective,
    op_orth_attainment_real,
    op_orth_direct,
    op_orth_pointwise,
    op_orth_theta_sweep_complex,
)
from .reference import ReferenceInstance, example_3_1
from .selftest import SUITES, SelftestOutcome, run_selftest
from .symmetry import (
    ConstructionTag,
    LeftParams,
    SymmetryKind,
    SymmetryReport,
    WitnessConstruction,
    classify_left,
    classify_right,
    left_parameters,
    left_witness,
    right_witness,
)
from .vectors import (
    ConeTag,
    Method,
    OrthoVerdict,
    Witness,
    cone_membership,
    directional_derivative,
    inner_a,
    is_a_null,
    is_a_orthogonal,
    is_chmielinski_orthogonal_vec,
    is_eps_orthogonal,
    norm_a,
    orthogonal_decomposition,
    validate_epsilon,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
