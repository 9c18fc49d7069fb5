"""Exact toric geometry: class groups, Picard groups, line-bundle
cohomology, and the p-power-tower model of the perfectoid cover."""

from .cohomology import (
    CheckVerdict,
    CohomologyTable,
    batyrev_borisov_check,
    cohomology,
    demazure_vanishing_check,
    graded_piece_cohomology,
    support_region,
)
from .divisor import (
    ClassGroup,
    DivisorPolytope,
    MonomialCocycle,
    TDivisor,
    cartier_witnesses,
    class_group,
    cocycle_class_equal,
    divisor_polytope,
    divisor_to_cocycle,
    is_basepoint_free,
    is_cartier,
    lattice_points,
    picard_embedding,
    picard_group,
    principal_divisor,
    pullback_by_power_map,
)
from .errors import ConsistencyError, FanParseError, HypothesisError, InputError, ToricError
from .fan import Cone, Fan, FanReport, cone_intersection, faces, is_complete, is_smooth, validate_fan
from .lattice import (
    AbelianGroupPresentation,
    GroupElement,
    cokernel,
    hermite_normal_form,
    smith_normal_form,
    solve_integer_system,
)
from .library import NAMED_FAN_NAMES, named_fan
from .perfectoid import (
    LevelSeries,
    PerfectoidBundle,
    PerfectoidPicard,
    cohomology_series,
    formal_root,
    frobenius_pullback,
    from_divisor,
    inverse,
    perfectoid_batyrev_borisov,
    perfectoid_demazure,
    perfectoid_pic,
    polytope_dimension,
    tensor,
    trivial_bundle,
)

__version__ = "0.1.0"
