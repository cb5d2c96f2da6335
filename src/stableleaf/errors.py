"""Exception hierarchy.

Two branches matter to the CLI exit-code contract: ValidationError maps to
exit 2, NumericalError to exit 3.
"""


class StableLeafError(Exception):
    pass


class ValidationError(StableLeafError):
    """Bad user input: unknown map, bad parameters, malformed config."""


class UnknownMapError(ValidationError):
    pass


class BadParamsError(ValidationError):
    pass


class NumericalError(StableLeafError):
    """A computation failed for numerical/dynamical reasons.

    stage names the pipeline stage that failed, once ``leaf.staged`` has seen it.
    """

    stage = None


class DomainError(NumericalError):
    """Point outside the declared domain box or inside the singular-guard margin."""


class NonFiniteError(NumericalError):
    pass


class OrbitEscapeError(NumericalError):
    """The orbit left the domain box at iterate `step`."""

    def __init__(self, step: int, point=None):
        super().__init__(f"orbit left the domain at step {step}" + (f" ({point})" if point else ""))
        self.step = step
        self.point = point


class SingularStepError(NumericalError):
    """A one-step derivative had zero determinant along the orbit."""


class SingularMatrixError(NumericalError):
    pass


class ConformalError(NumericalError):
    """E and F coincide to round-off; the contracted direction is undefined."""


class NoFeasibleEpsilonError(NumericalError):
    pass


class NotConvergedError(NumericalError):
    """Leaf Cauchy iteration did not converge; the message names each failed condition.

    report is the ConvergenceReport of the failed run, its last leaf distance d_k[-1] among the rest.
    """

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class DegenerateLeafError(NumericalError):
    """A leaf has too few grid nodes to measure distances along it."""


class StencilEscapeError(NumericalError):
    """A finite-difference stencil point left the region where directions exist."""


class BoundViolationError(NumericalError):
    """A paper inequality that holds in exact arithmetic was violated grossly."""


class SpectralSlackError(NumericalError):
    """No admissible constant fits the regular-growth bounds at this radius/slack."""


class NoFixedPointError(NumericalError):
    pass


class NotHyperbolicError(NumericalError):
    pass
