"""Exception types shared across the toolkit.

Every error that maps to a CLI exit code or carries diagnostic payload
lives here so callers can catch one family.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(ToolkitError, ValueError):
    """An argument is malformed or out of range.  It is a ValueError too,
    so callers that catch ValueError keep working."""


class InvalidCoefficients(ToolkitError):
    """Coefficient field violates a structural requirement (symmetry, shape)."""


class StiffnessError(ToolkitError):
    """Adaptive integration underflowed its step size.

    Attributes
    ----------
    t_reached : float
        Time actually reached before the failure.
    """

    def __init__(self, message: str, t_reached: float = 0.0):
        super().__init__(message)
        self.t_reached = float(t_reached)


class FiniteEscape(ToolkitError):
    """A Riccati solution left the chart (norm blow-up) in finite time.

    Attributes
    ----------
    t_escape : float
        Estimated escape time; the solution is valid strictly before it.
    """

    def __init__(self, message: str, t_escape: float):
        super().__init__(message)
        self.t_escape = float(t_escape)


class NoConvergence(ToolkitError):
    """A horizon-doubling limit failed to settle below tolerance.

    Attributes
    ----------
    T_max : float
        Largest horizon tried.
    last_change : float
        Size of the last doubling increment observed.
    """

    def __init__(self, message: str, T_max: float, last_change: float = float("nan")):
        super().__init__(message)
        self.T_max = float(T_max)
        self.last_change = float(last_change)


class WeylNonexistence(ToolkitError):
    """The limiting plane has no graph representation over the first block.

    Raised when the top block of the converged frame is (numerically)
    singular: the plane is vertical-degenerate and the corresponding Weyl
    matrix does not exist.
    """

    def __init__(self, message: str, smallest_singular_value: float = 0.0):
        super().__init__(message)
        self.smallest_singular_value = float(smallest_singular_value)


class NonInvertibleTopBlock(ToolkitError):
    """Finite-horizon principal-frame top block is singular at readback time."""


class DivergentLimit(ToolkitError):
    """Extrapolation to a boundary value failed to stabilize."""


class UnwrapFailure(ToolkitError):
    """Argument tracking could not keep |increment| < pi/2 at the smallest dt."""


class SignViolation(ToolkitError):
    """A claimed Herglotz sampler produced a negative-imaginary eigenvalue."""


class SingularR(ToolkitError):
    """Control-cost matrix R is singular or below its declared lower bound."""


class NotSolvable(ToolkitError):
    """LQ synthesis requested on a problem whose solvability check failed."""


class GoldenMismatch(ToolkitError):
    """A preset pipeline disagreed with its frozen golden values.

    Attributes
    ----------
    diffs : list of (name, got, want, tolerance)
    """

    def __init__(self, message: str, diffs):
        super().__init__(message)
        self.diffs = list(diffs)


class SchemaError(ToolkitError):
    """Problem-file JSON violates the input schema."""
