"""Robust regression by empirical gain maximization.

Instead of minimizing a loss, a fit maximizes the average of a bounded,
peaked gain applied to the residuals.  Abnormal observations contribute
(near) zero gain rather than unbounded loss, which is where the robustness
comes from.  The package ships a catalog of gains with their classical
bounded-loss duals, half-quadratic and gradient solvers with restarts and
scale schedules, heavy-tailed data generators, a quadrature-based
certification suite for the calibration theory, and a batch CLI.
"""

__version__ = "0.1.0"

from .calibrate import (
    CertReport,
    SandwichReport,
    calibration_gap,
    check_gain_axioms,
    check_type_alpha,
    estimate_lipschitz,
    fourier_transform,
    gain_mass,
    gap_log_slope,
    mde_distance,
    population_gain,
    sandwich_check,
)
from .errors import (
    CertificationFailureError,
    DegenerateIterateError,
    GainRegError,
    InvalidInputError,
    InvalidParameterError,
    NonFiniteResultError,
    PrecisionFailureError,
    SingularSystemError,
    UnsupportedOperationError,
)
from .features import (
    FeatureMap,
    HypothesisModel,
    default_sup_bound,
    design_matrix,
    kernel_map,
    linear_map,
    model_from_json,
    model_to_json,
    predict,
    predict_batch,
    subsample_centers,
)
from .gains import (
    GainConstants,
    GainSpec,
    catalog,
    eval_gain,
    eval_gain_derivative,
    gain_sloper,
    gain_weigher,
    generalized_tukey,
    irls_weight,
    lipschitz_L3,
    loss_from_gain,
    mixture_gain,
)
from .quadrature import QuadratureConfig
from .simulate import (
    Dataset,
    LocationProblem,
    NoiseSpec,
    gen_location,
    gen_toy,
    location_problem,
    mixture_mode,
    toy_noise_spec,
    toy_references,
)
from .solver import (
    FitReport,
    SolverConfig,
    cross_validate_sigma,
    default_config,
    empirical_gain,
    fit_egm,
    gain_gradient,
    schedule_exponent,
    sigma_schedule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
