"""Exception types shared across the package."""


class RoeforgeError(Exception):
    """Base class for every package-specific error."""


class SpaceMismatchError(RoeforgeError, ValueError):
    """Objects built over different spaces were combined."""


class ScalarModeError(RoeforgeError, ValueError):
    """Rational and float operators were mixed without explicit promotion."""


class UncontrolledSupportError(RoeforgeError, ValueError):
    """An operator entry connects points at infinite distance."""


class NotUniformSumError(RoeforgeError, ValueError):
    """Operator does not have a single common row/column sum."""


class SupportOutsideTubeError(RoeforgeError, ValueError):
    """A translation's support leaves the tube whose colouring was supplied."""


class SpectralError(RoeforgeError, RuntimeError):
    """An eigenvalue computation failed to converge."""


class GapComputationError(RoeforgeError, RuntimeError):
    """A convergence-curve cross-check failed; the reported gap is suspect."""


class GapBoundError(RoeforgeError, ValueError):
    """The measured gap contradicts a caller-supplied displacement constant."""


class SpaceParseError(RoeforgeError, ValueError):
    """A space file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class OperatorParseError(RoeforgeError, ValueError):
    """An operator file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ManifestError(RoeforgeError, ValueError):
    """A family manifest was malformed or named an unknown generator."""


class FamilyError(RoeforgeError, ValueError):
    """A graph-family generator could not produce the requested member."""
