"""roeforge: finite-scale coarse geometry over bounded-degree spaces.

Finite metric spaces with infinity-separated components, the *-algebra of
finite-propagation operators over them, edge-colouring decompositions of
partial translations into symmetric involutions, averaging operators whose
powers converge geometrically to the block-constant projection, and
spectral-gap reports that separate expander-like graph families from
amenable-like ones.
"""

from .errors import (
    FamilyError,
    GapBoundError,
    GapComputationError,
    ManifestError,
    NotUniformSumError,
    OperatorParseError,
    RoeforgeError,
    ScalarModeError,
    SpaceMismatchError,
    SpaceParseError,
    SpectralError,
    SupportOutsideTubeError,
    UncontrolledSupportError,
)
from .space import (
    INF,
    ControlledSet,
    FiniteSpace,
    GeneratingResult,
    check_triangle,
    coarse_components,
    compose,
    controlled,
    disjoint_union,
    is_generating,
    load_space,
    parse_space_file,
    space_from_graph,
    tube,
)
from .transalg import (
    MODE_FLOAT,
    MODE_RATIONAL,
    FinitePropOp,
    PartialTranslation,
    PermutationOp,
    invariance_defect,
    invariant_subspace_basis,
    operator_from_text,
    operator_to_text,
    row_sum_diagonal,
    single_pair_translations,
    uniform_sum,
    uniform_sum_value,
)
from .colouring import (
    EdgeColouring,
    TranslationDecomposition,
    colour_permutations,
    colouring_to_text,
    decompose_translation,
    edge_colouring,
    tube_graph_edges,
    validate_colouring,
)
from .spectral import DEFAULT_TOL, SpectralResult
from .kazhdan import (
    DENSE_CUTOFF,
    AveragingOp,
    ComponentGap,
    GapReport,
    KazhdanProjection,
    RateConstants,
    build_averaging,
    family_report_to_dict,
    gap_report,
    kazhdan_lower_bound,
    kazhdan_projection,
    power_gap,
    rate_constants,
    report_to_dict,
    report_to_json,
    reports_to_csv,
    restrict,
)
from .families import (
    FAMILIES,
    load_manifest,
    make_box_space_Z,
    make_complete,
    make_cycle,
    make_hypercube,
    make_margulis,
    make_random_regular,
    random_bounded_degree_space,
)

__version__ = "0.1.0"
