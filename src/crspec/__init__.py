"""Exact set-valued dynamics of closed relations.

The library computes with closed relations on an interval (finite unions of
boxes) or on a finite metric space (adjacency matrices), entirely in rational
arithmetic: set-valued orbits, min and Hausdorff set distances, eps-tracing
of (initial) specifications, exact tracer search, certificates for
sufficient conditions, exhaustive per-cell refutations, and the shift
spaces generated by finite relations.
"""

from .errors import (
    BadRangeError,
    CRSpecError,
    EmptyImageError,
    EmptySetError,
    NonPositiveGapError,
    NoPreimageError,
    ScenarioParseError,
    ScenarioValidationError,
    SizeMismatchError,
)
from .mahavier import (
    EPSequence,
    ShiftSpace,
    TransitionMatrix,
    mixing_index,
)
from .relations import (
    BoxRelation,
    Cell,
    CellDecomposition,
    FiniteRelation,
    Orbit,
    OrbitSegment,
    cell_decomposition,
    cell_of,
)
from .sets import (
    FiniteMetricSpace,
    Interval,
    IntervalSpace,
    IntervalUnion,
    MetricCheck,
    PointSet,
    normalize,
    rat,
    validate_metric,
)
from .specifications import (
    InitialSpecification,
    NoTracer,
    RegionFailure,
    Specification,
    TraceEntry,
    TraceReport,
    TracerWitness,
    check_initial_trace,
    check_trace,
    conjugacy_transport,
    derive_initial,
    find_initial_tracer,
    find_tracer,
    lift_tracer,
)
from .verdicts import (
    Certificate,
    Inconclusive,
    InitialTemplate,
    Instantiation,
    PropertyVerdict,
    Refutation,
    SpacedTemplate,
    certify_common_image,
    certify_eventual_hausdorff,
    certify_full_image,
    certify_trivial_fiber,
    implication_suite,
    recheck,
    refute_property,
)

__version__ = "0.1.0"
