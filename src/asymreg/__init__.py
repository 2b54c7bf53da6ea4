"""Certified rates of asymptotic regularity for averaged fixed-point
iterations in uniformly convex geodesic spaces, with numerical verification
of every bound at desk scale."""

import os

# The package calls no BLAS routine (no dot, matmul, einsum or linalg), so
# OpenBLAS needs no thread pool: started by numpy's import, its idle threads
# cost CPU at import and after it.  numpy is imported at its first array
# use, inside the functions that make arrays (never by `rate`); this runs at
# the package's import, before that.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import (
    HARD_STEP_CAP,
    Caps,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    loads_config,
    parse_angle,
)
from .geometry import (
    EUCLIDEAN,
    POINCARE_DISK,
    DimensionMismatchError,
    GeometryError,
    ParameterRangeError,
    Point,
    PointOutsideModelError,
    SpaceModel,
    combine,
    dist,
    euclidean,
    make_point,
    poincare_disk,
)
from .iteration import (
    IterationError,
    Trajectory,
    ishikawa_step,
    run_trajectory,
    trajectory_to_csv,
)
from .mappings import (
    ApproxFixedPointSpec,
    DomainError,
    DomainSpec,
    MappingError,
    MappingSpec,
    WitnessError,
    apply_map,
    closed_ball,
    declared_fixed_point,
    euclidean_reflection_average,
    euclidean_rotation,
    identity,
    in_domain,
    metric_projection,
    poincare_rotation,
    validate_afp,
    whole_space,
)
from .moduli import (
    DescriptorDomainError,
    DescriptorError,
    ModulusDescriptor,
    Schedule,
    ScheduleError,
    descriptor_from_dict,
    descriptor_to_dict,
    eta1_affine,
    eta1_from_eta,
    eta1_shift,
    eta1_to_eta,
    eta2_to_eta1,
    eta3_affine,
    eta3_k_plus_ceil,
    eta3_to_eta2,
    eta_constant,
    eta_hilbert,
    eta_quadratic,
    eta_to_eta1,
    eval_eta_lower,
    eval_eta1,
    eval_eta3,
    eval_gamma,
    eval_nat,
    gamma_dyadic_shift,
    gamma_from_dyadic,
    gamma_geometric_tail,
    gamma_shifted,
    gamma_zero,
    omega_affine,
    seq_constant,
    seq_geometric,
    seq_tabulated,
    sequence_from_dict,
    tabulated,
    theta_linear,
    validate_schedule,
    verify_gamma,
    verify_theta,
)
from .rates import (
    EtaDomainError,
    RateError,
    RateInputs,
    RateReport,
    compute_delta,
    compute_gamma0,
    compute_p,
    compute_phi,
    epsilon_shortcut,
    inputs_for,
)
from .report import FAIL, PASS, UNVERIFIED_AT_SCALE, CheckReport, Failure
from .verification import (
    SOUNDNESS_WINDOW,
    certify,
    check_delta_witness,
    check_dyadic_uc_implication,
    check_lemma_inequalities,
    check_nonexpansive,
    check_phi_soundness,
    check_space_axioms,
    check_uc_implication,
    reference_point,
    trajectory_for,
)

__version__ = "0.1.0"
