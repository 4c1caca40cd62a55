"""Exception types shared across the package."""


class GFrameError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(GFrameError):
    """Operands disagree on shapes, measure spaces, or block dimensions."""


class FamilyValidationError(GFrameError):
    """An operator family violates its structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid operator family: " + "; ".join(self.violations))


class PreconditionError(GFrameError):
    """A named hypothesis of a construction failed; the message names it."""


class SingularOperatorError(PreconditionError):
    """An operator that must be inverted is singular at the working tolerance:
    for a frame operator, the family is not a frame."""


class NumericalRangeError(GFrameError):
    """A result computed from finite input left the floating-point range: a
    frame operator that overflows or underflows, or that of a frame which
    cannot be inverted (smallest eigenvalue at or below the rank cutoff)."""


class GenerationError(GFrameError):
    """Random instance generation could not satisfy the requested shape."""


class DocumentError(GFrameError):
    """Malformed frame document; ``path`` points at the offending element."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
