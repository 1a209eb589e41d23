"""Exception types shared across the workbench."""


class SupvarError(Exception):
    """Base class for all workbench errors."""


class InvariantBroken(SupvarError):
    """An internal invariant failed: a bug in the workbench, not bad input."""


class ShapeMismatch(SupvarError):
    """Operands live over different (m, n) or have incompatible sizes."""


class NotDominant(SupvarError):
    """Weight is not dominant integral for gl(m) x gl(n)."""


class ConstructionOverflow(SupvarError):
    """An intermediate construction exceeds the configured dimension budget."""


class AlgebraMismatch(SupvarError):
    """Modules over different algebras were combined."""


class FormInconsistent(InvariantBroken):
    """Contravariant-form adjointness verification failed."""


class ZeroPoint(SupvarError):
    """The origin of the odd part was passed to a rank test."""


class TooLarge(SupvarError):
    """Input exceeds an enumeration bound."""


class SignConventionBroken(InvariantBroken):
    """No consistent sign convention satisfies d . d = 0."""


class AssumptionViolated(SupvarError):
    """A structural hypothesis on an input subalgebra fails."""


class BadCodimension(SupvarError):
    """Support dimension exceeds the ambient support dimension."""


class Unsupported(SupvarError):
    """The requested computation is outside the engine's scope."""


class WeightParseError(SupvarError):
    """Malformed weight string."""
