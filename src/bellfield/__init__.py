"""Random-field and quantum-superoperator models of polarizer experiments."""

from .angles import PolAngle
from .bell import (
    CoincidenceResult,
    Mrf3Params,
    ParameterError,
    TriphotonGraph,
    UnexpectedLeadingOrder,
    brute_force_oracle,
    build_triphoton_graph,
    coincidence_probability,
)
from .dist import (
    DeltaCollision,
    DistFn,
    HarmonicOverflow,
    RegularizedDistFn,
    SigmaTooCoarse,
    dist_integrate,
    dist_mul,
    regularize,
)
from .graded import DivergentLimit, GradedCoeff, coeff_ratio_limit

__all__ = [
    "PolAngle",
    "GradedCoeff",
    "coeff_ratio_limit",
    "DivergentLimit",
    "DistFn",
    "RegularizedDistFn",
    "dist_mul",
    "dist_integrate",
    "regularize",
    "DeltaCollision",
    "HarmonicOverflow",
    "SigmaTooCoarse",
    "Mrf3Params",
    "ParameterError",
    "CoincidenceResult",
    "coincidence_probability",
    "brute_force_oracle",
    "TriphotonGraph",
    "build_triphoton_graph",
    "UnexpectedLeadingOrder",
]

__version__ = "0.1.0"
