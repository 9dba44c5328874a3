"""Latin hypercubes of small order: construction, transforms, classification,
and exact transversal counting.

Two independent counting paths are exposed: an exact search (a
meet-in-the-middle counter and an ordered enumerator) that works on any cube
within the search envelope, and a closed-form counter
for order-4 cubes built from a Boolean orientation function.  The `lhc`
command line wraps both plus a verification suite.
"""

from .algebra import (
    BinaryOp,
    CompositionSpec,
    GroupKind,
    Leaf,
    Node,
    TransformSpec,
    TwoLevelComposition,
    apply_isotopy,
    apply_parastrophe,
    apply_transform,
    compose,
    factor_on_subset,
    fiber_quasigroup,
    find_factorization,
    gen_iterated_group,
    lift_transversals_fiber,
    lift_transversals_product,
    lower_bound_completely_reducible,
    slice_first,
)
from .core import (
    Cell,
    EnvelopeError,
    LatinHypercube,
    LhcError,
    LineRef,
    ParseError,
    StructuralError,
    UnsupportedOrderError,
    ValidationReport,
    coords_of,
    index_of,
    l_cell,
    l_of,
    parse_lhc,
    serialize_lhc,
    validate_latin,
)
from .engine import (
    SearchStats,
    Transversal,
    count_transversals,
    count_transversals_stats,
    enumerate_transversals,
    transversals_by_quadruple,
    verify_transversal,
)
from .semilinear import (
    BooleanFn,
    DeltaClass,
    DeltaReport,
    PlaneParity,
    Quadruple,
    QuadrupleCensus,
    QuadrupleClass,
    brindled_count_closed,
    census_recurrence,
    classify_quadruple,
    count_transversals_formula,
    count_twin,
    delta_report,
    detect_semilinear,
    enumerate_brindled,
    gen_semilinear,
    lambda_z4,
    lambda_z22,
    parse_lambda,
    zero_transversal_criterion,
)

__version__ = "0.1.0"
