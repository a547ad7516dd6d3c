"""Exception types shared across the package."""


class MinimaError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(MinimaError):
    """Incompatible tensor shapes or mode sizes."""


class NumericsError(MinimaError):
    """Non-finite values where finite floats are required."""


class RankError(MinimaError):
    """Requested decomposition ranks are out of the feasible range."""


class InfeasibleBudgetError(MinimaError):
    """A parameter budget below the smallest admissible configuration.

    Carries ``best_achievable`` (a parameter count or ratio, depending on
    context) so callers can report how close the budget came.
    """

    def __init__(self, message, best_achievable=None):
        super().__init__(message)
        self.best_achievable = best_achievable


class EmptyModelError(MinimaError):
    """Model container holds no matrices."""


class PlanMismatchError(MinimaError):
    """Compression plan does not cover exactly the model's patches."""
