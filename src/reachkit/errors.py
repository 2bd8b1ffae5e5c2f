"""Exception and warning types shared across the package, and the size
budget that BudgetExceeded enforces.

AssumptionViolated is the family of errors that mean a procedure's
assumption does not hold (the computation refused to start or step); the
command line exits 3 on any of them and 2 on every other ReachkitError."""

# the size budget, checked in floats before numpy allocates: a grid has at
# most MAX_GRID_CELLS cells and a sample lattice as many points; a list of
# time steps, and the RK4 steps of one trajectory, at most MAX_TIME_STEPS
MAX_GRID_CELLS = 100_000_000
MAX_TIME_STEPS = 1_000_000


class ReachkitError(Exception):
    """Base class for all errors raised by this package."""


class AssumptionViolated(ReachkitError):
    """Base class of the errors that say an assumption of the computation
    does not hold, rather than that its input is unusable."""


class DimMismatch(ReachkitError):
    """Operands have incompatible ambient dimensions."""


class InfeasibleFace(ReachkitError):
    """Face constraint system has no solution."""


class DegenerateNormal(ReachkitError):
    """A normal vector vanished where a nonzero one is required."""


class EmptyPolyhedron(AssumptionViolated):
    """Polyhedron is empty where a nonempty one is required."""


class Unbounded2D(ReachkitError):
    """Vertex enumeration was asked for an unbounded 2D polyhedron."""


class Empty2D(ReachkitError):
    """Vertex enumeration was asked for an empty 2D polyhedron."""


class TooFewPoints(ReachkitError):
    """Hull construction needs at least three points."""


class NumericRange(AssumptionViolated):
    """A numeric computation left the representable/trustworthy range."""


class NonFiniteState(AssumptionViolated):
    """Integration produced a NaN or infinite state."""


class UnboundedFace(ReachkitError):
    """Norm maximization was asked over an unbounded face."""


class ExpressionError(ReachkitError):
    """Expression string does not conform to the supported grammar."""


class EmptyBoundary(AssumptionViolated):
    """Boundary sampling produced no usable samples."""


class StepTooCoarse(AssumptionViolated):
    """A front sample moved more than two cells in one substep."""


class PreconditionViolated(AssumptionViolated):
    """A documented procedure precondition does not hold."""


class AssumptionA2Violated(AssumptionViolated):
    """The outward-flow lower bound over a face is not positive.

    Carries ``delta``, the offending minimum of the directional derivative.
    """

    def __init__(self, delta, message=None):
        self.delta = float(delta)
        super().__init__(message or f"outward-flow minimum over the face is {delta:.6g} (needs > 0)")


class BadDeltaOrder(AssumptionViolated):
    """delta0 >= delta where delta0 < delta is required."""


class DenominatorAllDegenerate(ReachkitError):
    """Every sampled ratio denominator fell below the degeneracy cutoff."""


class DimUnsupported(ReachkitError):
    """Operation is only implemented for a specific ambient dimension."""


class BudgetExceeded(ReachkitError):
    """A grid, a sample lattice or a list of time steps would outgrow its
    fixed size budget."""


def _within_budget(count: float, limit: int, what: str):
    if count > limit:
        raise BudgetExceeded(f"{count:.3g} {what} exceed the budget of {limit:,}")


class ModelError(ReachkitError):
    """Model file failed schema validation or refers to missing data."""


class EmptyPolyhedronWarning(UserWarning):
    """Signal that a convention value was returned for an empty polyhedron."""
