"""Numerical toolkit for finite-dimensional nonautonomous linear
Hamiltonian systems over compact base flows: exponential-dichotomy
detection, Weyl and principal functions, rotation numbers, perturbation
parameter scans, Herglotz/Stieltjes spectral analysis, and
linear-quadratic feedback synthesis."""

from .base_flow import BaseFlow, BasePoint, advance, make_flow, sample_orbit
from .hamiltonian import (
    BlockMap,
    CoefficientField,
    constant_field,
    field_from_dict,
    general_perturb,
    J_matrix,
    perturb_h2,
    perturb_h3,
    regularize,
    swap_variables,
)
from .propagator import (
    ChunkedPropagator,
    CocycleValue,
    SolutionFrame,
    cocycle_check,
    fundamental_matrix,
    transfer_matrix,
)
from .riccati_weyl import (
    WeylMatrix,
    apply_family,
    boundary_limit,
    plane_distance,
    principal_functions,
    riccati_flow,
    weyl_minus,
    weyl_plus,
)
from .dichotomy import (
    AtkinsonReport,
    ClassificationReport,
    DichotomyReport,
    EDThresholds,
    NonoscillationReport,
    UWDReport,
    WitnessReport,
    atkinson_check,
    bounded_solution_witness,
    classify_family,
    detect_ed,
    nonoscillation_check,
    principal_angle,
    uwd_test,
)
from .rotation import (
    RotationEstimate,
    RotationProfile,
    ed_candidates_from_rotation,
    rotation_number,
    rotation_profile,
)
from .param_scan import (
    HerglotzData,
    MonotonicityCertificate,
    ScanResult,
    StieltjesMass,
    find_alpha_star,
    herglotz_fit,
    left_halfline_check,
    rho_curve,
    stieltjes_invert,
    weyl_monotonicity_check,
    weyl_sampler,
)
from .lq_control import (
    LQProblem,
    LQSolution,
    build_hamiltonian,
    compare_control,
    solvability_check,
    synthesize,
)
from .presets import PRESET_NAMES, Preset, get_preset, scalar_lq_problem
from . import errors

__version__ = "0.1.0"
