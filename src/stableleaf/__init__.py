"""Local stable manifolds of planar maps via finite-time most-contracted leaves.

The package builds the derivative cocycle along an orbit, extracts the most
contracted direction field of each order, integrates its leaves, and verifies
the quantitative hyperbolicity bounds that make the leaf sequence Cauchy.
"""

from .budget import (
    EpsilonSchedule,
    HyperbolicityBudget,
    check_condition_double_star,
    check_condition_star,
    estimate_budget,
)
from .cocycle import OrbitCocycle, SingularFrame, build_orbit_cocycle, singular_frame
from .directions import (
    AngleGapRecord,
    angle_distance,
    angle_gap,
    contracted_direction,
    direction_field_derivative,
    fold_angle,
    pushforward_contraction,
)
from .errors import *  # noqa: F401,F403
from .fixedpoint import FixedPointData, eigen_split, regular_growth_check, verify_fixed_point_theorem
from .leaf import (
    ContractionReport,
    ConvergenceReport,
    LeafCurve,
    UniquenessReport,
    cauchy_iterate,
    choose_epsilon,
    contraction_check,
    integrate_leaf,
    uniqueness_probe,
)
from .maps import MapModel, Mat2, Point2, make_map
from .rng import SplitRng

__version__ = "0.1.0"
