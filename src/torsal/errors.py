"""Exception types shared across the package.

The CLI maps errors to a JSON error type and an exit code in one table,
``torsal.cli._ERRORS``: parse-side, degree and usage errors exit 2,
verification failures exit 1. A TorsalError the table does not name
(InexactDivisionError, SingularMatrixError, MissingAssignmentError,
PointNotOnSurfaceError) means a defect and exits 3, like any other
unexpected exception.
"""


class TorsalError(Exception):
    """Base class for all package errors."""


class ContextMismatchError(TorsalError):
    """Operands live in different variable contexts."""


class UnknownVariableError(TorsalError):
    """A variable name is not declared in the relevant context."""

    def __init__(self, name, context=None):
        self.name = name
        msg = f"unknown variable {name!r}"
        if context is not None:
            msg += f" in context ({', '.join(context.names)})"
        super().__init__(msg)


class MissingAssignmentError(TorsalError):
    """substitute() received no image for a variable that occurs in f."""


class DegreeError(TorsalError):
    """A degree precondition failed (homogenize, resultant, discriminant)."""


class InexactDivisionError(TorsalError):
    """An exact polynomial division would leave a remainder."""


class SingularMatrixError(TorsalError):
    """Matrix has zero determinant where an invertible one is required."""


class NonHomogeneousError(TorsalError):
    """Hypersurface construction got a non-homogeneous polynomial."""

    def __init__(self, offending_terms):
        self.offending_terms = list(offending_terms)
        super().__init__(
            "polynomial is not homogeneous; terms of differing degree: "
            + ", ".join(self.offending_terms)
        )


class PointNotOnSurfaceError(TorsalError):
    """tangent_hyperplane() called at a point off the hypersurface."""


class SingularPointError(TorsalError):
    """tangent_hyperplane() called at a point with vanishing gradient."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"gradient vanishes at {point}; no tangent hyperplane")


class VerificationError(TorsalError):
    """A certified construction failed to verify on the given input."""


class NotContainedError(VerificationError):
    """A parametrized family does not lie on the hypersurface."""


class BaseLocusError(TorsalError):
    """Every rank sample landed on the base locus (zero image vector)."""

    def __init__(self, seed):
        self.seed = seed
        super().__init__(
            f"all rank samples for seed {seed} gave a zero image vector; "
            "retry with a different seed"
        )


class ExprSyntaxError(TorsalError):
    """Expression text violates the grammar; carries the byte offset."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")
