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
    """Leaf Cauchy iteration did not reach the tolerance; carries the partial report."""

    def __init__(self, kmax: int, last_distance: float, report=None, why: str = ""):
        why = f": {why}" if why else ""
        super().__init__(f"leaf distances d_k not below tolerance by k={kmax} (last d_k={last_distance:.3e}){why}")
        self.kmax = kmax
        self.last_distance = last_distance
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
