"""Weighted epsilon-nets of sizes one to three, exactly.

Constructions, verification, and lower-bound gadgets for small weighted
nets over convex ranges and axis-parallel boxes.  All geometric predicates
are evaluated in exact rational arithmetic.
"""

from .errors import (
    BudgetExceededError,
    ConditionError,
    ConstructionFailureError,
    DegenerateInputError,
    DimensionMismatchError,
    EpsnetError,
    InfeasibleCountError,
    UnsupportedDimensionError,
)
from .geometry import (
    Halfspace,
    HPolytope,
    Hyperplane,
    PointSet,
    SubsetHull,
    point_in_hull,
    polytopes_intersect,
)
from .ranges import (
    BoxRange,
    EpsilonProfile,
    RangeSpaceKind,
    WeightedNet,
    max_subset_avoiding,
    max_subset_avoiding_witness,
)
from .constructions import (
    box_median_point,
    construct_box_pair_highd,
    construct_box_triple_2d,
    construct_convex_pair,
)
from .verification import (
    counting_bound,
    pierceable_by_two,
    verify_weighted_net,
    verify_weighted_net_boxes,
    verify_weighted_net_convex,
)
from .gadgets import (
    GADGETS,
    certify,
    gadget_five_clusters,
    gadget_hexagon_3d,
    gadget_simplex,
)

# the one place the version is written; pyproject.toml reads it from here
__version__ = "0.1.0"

__all__ = [
    "BoxRange",
    "BudgetExceededError",
    "ConditionError",
    "ConstructionFailureError",
    "DegenerateInputError",
    "DimensionMismatchError",
    "EpsilonProfile",
    "EpsnetError",
    "GADGETS",
    "Halfspace",
    "HPolytope",
    "Hyperplane",
    "InfeasibleCountError",
    "PointSet",
    "RangeSpaceKind",
    "SubsetHull",
    "UnsupportedDimensionError",
    "WeightedNet",
    "box_median_point",
    "certify",
    "construct_box_pair_highd",
    "construct_box_triple_2d",
    "construct_convex_pair",
    "counting_bound",
    "gadget_five_clusters",
    "gadget_hexagon_3d",
    "gadget_simplex",
    "max_subset_avoiding",
    "max_subset_avoiding_witness",
    "pierceable_by_two",
    "point_in_hull",
    "polytopes_intersect",
    "verify_weighted_net",
    "verify_weighted_net_boxes",
    "verify_weighted_net_convex",
    "__version__",
]
