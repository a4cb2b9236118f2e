"""Exact construction and verification of repetitive Delone subsets of Z^2.

The package builds substitution hierarchies of lattice patches (the
alternating-block family, its uniquely-ergodic mixing refinement, and the
simplex-of-measures realization), counts patch occurrences exactly on the
implicit hierarchy, and runs the probe-grid rigidity predicates that link
corner-density gaps to unavoidable metric distortion.
"""

from .patch import (
    Patch,
    corner_density,
    from_rows,
    full_patch,
    has_even_column_property,
    read_patch,
    write_patch,
)
from .maps import (
    CandidateMap,
    DeloneParams,
    DistortionReport,
    ExtendedMap,
    distortion,
    hat_extend,
    identity_map,
)
from .hierarchy import (
    BLOCK_ALIGNED,
    SLIDING,
    Arrangement,
    CapacityError,
    HierarchySpec,
    Level,
    block_frequency_matrix,
    count_occurrences,
    estimate_repetitivity,
    materialize,
    read_spec,
    validate_scheme,
    write_spec,
)
from .nonrect import (
    BuildParams,
    ConstantBundle,
    LSchedule,
    build_delone_spec,
    build_new_patches,
    containment_scale,
    counting_schedule,
    density_gap_constants,
    ell_min,
    expansion_chain_report,
    n_min,
    regularity_constants,
    rigorous_bundle,
    starting_patches,
)
from .ue import (
    MixMatrix,
    build_ue_spec,
    delta_product,
    frequency_convergence_report,
    mix_level,
)
from .choquet import (
    ChoquetSeq,
    MeasureVector,
    SeparationWitness,
    build_choquet_spec,
    find_separating_coordinates,
    initial_simplex_patches,
    make_finite_dim_matrices,
    measure_vectors,
    p_sequence,
    patch_cardinality,
    validate_choquet_seq,
)
from .rectlab import (
    GridSpec,
    boundary_curve,
    brute_force_min_bilip,
    check_no_stretch,
    coarse_derivative_deviation,
    count_lattice_near_curve,
    expanding_pair_search,
    find_regular_square,
    heuristic_grid_map,
    probe_points,
)

__version__ = "0.1.0"
