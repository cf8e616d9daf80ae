"""torsal: exact projective geometry of torsal ruled hypersurfaces in P^4.

Everything is computed over the rationals with certified, replayable
polynomial identities — no floating point, no numerical tolerance.
"""

from torsal.errors import (
    BaseLocusError,
    ContextMismatchError,
    DegreeError,
    DigitLimitError,
    ExprSyntaxError,
    InexactDivisionError,
    MissingAssignmentError,
    NonHomogeneousError,
    NotContainedError,
    PointNotOnSurfaceError,
    SingularMatrixError,
    SingularPointError,
    TorsalError,
    UnknownVariableError,
    VerificationError,
)
from torsal.polyring import Monomial, Polynomial, VarContext

__version__ = "0.1.0"

__all__ = [
    "Monomial",
    "Polynomial",
    "VarContext",
    "TorsalError",
    "ContextMismatchError",
    "UnknownVariableError",
    "MissingAssignmentError",
    "DegreeError",
    "DigitLimitError",
    "InexactDivisionError",
    "SingularMatrixError",
    "NonHomogeneousError",
    "PointNotOnSurfaceError",
    "SingularPointError",
    "VerificationError",
    "NotContainedError",
    "BaseLocusError",
    "ExprSyntaxError",
    "kernel_backend",
    "__version__",
]


def kernel_backend() -> str:
    """Which term-arithmetic kernel is active; there is one, "pure"."""
    return "pure"
