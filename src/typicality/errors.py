"""Exception types shared across the package."""


class TypicalityError(Exception):
    """Base class for all package-specific errors."""


class DimensionCapError(TypicalityError):
    """A requested dense object would exceed the configured composite-dimension cap."""


class ShapeMismatchError(TypicalityError):
    """Operands have incompatible dimensions."""


class HermiticityError(TypicalityError):
    """An operator required to be Hermitian is not, beyond tolerance."""


class RankDeficiencyError(TypicalityError):
    """Supplied vectors are linearly dependent beyond tolerance."""


class OperatorRangeError(TypicalityError):
    """A measurement operator violates 0 <= X <= 1 beyond tolerance."""


class EmptyWindowError(TypicalityError):
    """A typical window clamps to an empty excitation range."""
