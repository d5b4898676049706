"""Exception types raised by construction and evolution routines.

Everything derives from ValueError (or OverflowError for coordinate
overflow) so callers who do not care about the distinction can catch
broadly; the CLI maps ConfigError to exit code 2.
"""

from __future__ import annotations


class ConstraintError(ValueError):
    """A construction violates one of its algebraic constraints."""


class PhaseSumError(ConstraintError):
    """Coin phases do not sum to a multiple of 2*pi."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"phase sum must be a multiple of 2*pi: residual {residual:.3e} "
            f"exceeds tolerance {tol:.1e}"
        )


class ZeroSumError(ConstraintError):
    """A shift-table row does not sum to zero."""

    def __init__(self, dimension: int, residual: int):
        self.dimension = dimension
        self.residual = residual
        super().__init__(
            f"shift displacements in dimension {dimension} must sum to zero "
            f"(got residual {residual})"
        )


class NormalizationError(ConstraintError):
    """A state does not have unit norm and normalization was not requested."""


class DimensionMismatchError(ValueError):
    """Two objects disagree on spatial or coin dimension."""


class NonUnitaryError(ValueError):
    """A matrix expected to be unitary is not, within tolerance."""


class CoordinateOverflowError(OverflowError):
    """A lattice coordinate is, or a shift would move it, outside the supported integer range."""


class WindowTooSmallError(ValueError):
    """The truncated-lattice window cannot contain the evolution."""

    def __init__(self, window: tuple[int, ...], required: tuple[int, ...]):
        self.window = window
        self.required = required
        super().__init__(
            f"window half-widths {window} too small; amplitudes could reach the "
            f"boundary within the requested step count (need at least {required})"
        )


class OracleTooLargeError(ValueError):
    """An oracle's arrays (lattice triplets, eigensolver stack) would not fit its byte budget."""

    def __init__(self, budget: int, requested: int, what: str):
        self.budget, self.requested = budget, requested
        super().__init__(f"{what} needs {requested} bytes; budget {budget} bytes")


class OrderMismatchError(ValueError):
    """Sampled momentum points disagree on the propagator's order."""


class ConfigError(ValueError):
    """A walk config is malformed; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
