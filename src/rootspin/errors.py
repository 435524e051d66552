"""Exception types shared across the package.

Arithmetic reuses the builtin OverflowError (64-bit rational components
exceeded) and ZeroDivisionError (inverse of zero).
"""


class RootspinError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(RootspinError):
    """Two scalars from different quadratic fields were combined."""


class DimensionMismatch(RootspinError):
    """Operands live in spaces of different dimension."""


class DomainError(RootspinError):
    """Input outside the mathematical domain (e.g. sqrt of a negative)."""


class NotRepresentable(RootspinError):
    """The requested object does not exist over the active quadratic field."""


class NonUnitVector(RootspinError):
    """A mirror normal, rotor factor or seed root is not exactly unit length."""


class OddGradePresent(RootspinError):
    """A spinor reinterpretation was asked of a multivector with odd-grade parts."""


class ZeroRoot(RootspinError):
    """A reflection was requested in the zero vector."""


class ClosureCapExceeded(RootspinError):
    """A fixpoint closure grew past its element cap (non-finite input?)."""


class NormNotInField(RootspinError):
    """A root's length is not expressible in the active quadratic field.

    `norm_squared` is the root's squared norm: a QScalar wherever it fits the
    64-bit bound, else its text, as a QScalar would print it.
    """

    def __init__(self, root, norm_squared):
        self.root = root
        self.norm_squared = norm_squared
        super().__init__(
            f"squared norm {norm_squared} of {root} has no square root in its field"
        )


class DegenerateFunctional(RootspinError):
    """No generic positivity functional was found within the retry limit."""


class UnknownAngle(RootspinError):
    """Two roots are not the simple roots of the finite dihedral group their reflections
    generate: the group is infinite, or their angle is not pi - pi/m for its m."""
