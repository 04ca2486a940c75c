"""Exception types shared across the library and mapped to CLI exit codes."""


class LamccError(Exception):
    """Base class for all library errors."""


class EdgeListParseError(LamccError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ParameterError(LamccError):
    """Invalid parameter value (lambda out of range, wrong regime, ...)."""


class SizeCapError(LamccError):
    """Instance exceeds a size cap."""


class InvalidLabelingError(LamccError):
    """Labeling violates its edge/non-edge partition invariants."""


class InfeasibleSolutionError(LamccError):
    """A fractional solution violates the constraints it claims to satisfy."""


class SimplexError(LamccError):
    """Kept for API compatibility: nothing raises it since the dense simplex went."""


class MwuConvergenceError(LamccError):
    """Multiplicative-weights solver exhausted its budget before certifying.

    Carries the best feasible iterate found and the ratio bound it could
    certify, so callers can decide whether the partial result is usable.
    """

    def __init__(self, message: str, best_solution=None, certified_ratio: float | None = None):
        super().__init__(message)
        self.best_solution = best_solution
        self.certified_ratio = certified_ratio
