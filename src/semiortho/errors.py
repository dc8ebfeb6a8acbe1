"""Exception hierarchy for semiortho."""

from __future__ import annotations


class SemiorthoError(Exception):
    """Base class for all semiortho errors."""


class DimensionMismatchError(SemiorthoError):
    """Vector or matrix dimensions do not match the ambient space."""


class NotHermitianError(SemiorthoError):
    """Matrix is not Hermitian within the configured tolerance."""


class NotPositiveError(SemiorthoError):
    """Matrix has an eigenvalue below the negative rank tolerance."""


class NotABoundedError(SemiorthoError):
    """Operator does not map the null space of A into itself."""


class EpsilonRangeError(SemiorthoError):
    """Approximation parameter epsilon lies outside [0, 1)."""


class ComplexFieldError(SemiorthoError):
    """Complex-field input passed to a real-field-only operation."""


class RealFieldError(SemiorthoError):
    """Real-field input passed to a complex-field-only operation."""


class ZeroANormError(SemiorthoError):
    """Operator has zero A-norm where a positive one is required."""


class IsometryError(SemiorthoError):
    """Witness construction requested for an operator that is an A-isometry."""


class RankTooSmallError(SemiorthoError):
    """dim R(A) is too small for the requested construction."""


class AttainmentSubsetError(SemiorthoError):
    """The attainment-subset hypothesis M_A^T subset of M_A^S fails."""


class WitnessConstructionError(SemiorthoError):
    """A witness construction hit a numerical pathology (should not occur)."""


class NonFiniteError(SemiorthoError):
    """Input has an infinite or NaN entry."""
