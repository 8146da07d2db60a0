"""Exception types and argument checks shared across the package."""

import math


def check_finite(**values) -> None:
    """ValueError naming the first of the given numbers that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class EmptyDomainError(ValueError):
    """An operation needed at least one valid pixel/sample and got none."""


class DivergenceError(RuntimeError):
    """An iterative solve produced a non-finite objective.

    Carries the objective trace up to the failure so callers can report it.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
