"""Numerical laboratory for the chemotaxis system with logistic growth.

Solves

    u_t = lap(u) - chi div(u grad v) + u (a - b u)
    v_t = lap(v) - lam v + mu u

on periodic boxes by two independent routes (a Duhamel fixed-point solver
and an ETD1 (exponential time differencing) stepper), evaluates the
closed-form thresholds and bounds of the underlying theory, and turns the
asymptotic statements (eventual boundedness, persistence, exponential
convergence) into quantitative verdicts.
"""

from .core import (
    Field,
    Grid,
    GridMismatchError,
    InvalidParameterError,
    Params,
    SimState,
    VectorField,
)
from .spectral import (
    SemigroupPlan,
    apply_semigroup,
    apply_semigroup_div,
    apply_semigroup_grad,
    gradient,
    laplacian,
    measure_gradient_constant,
)
from .mild import (
    ContractionFailureError,
    PicardConfig,
    PicardResult,
    local_horizon,
    picard_solve,
)
from .imex import (
    DivergenceError,
    PositivityViolationError,
    StepControl,
    cfl_dt,
    integrate,
    step,
)
from .constants import (
    CalibrationConstants,
    PaperConstants,
    compute_constants,
    convergence_K,
    gaussian_tail,
    minimal_ball_radius,
    persistence_L,
    persistence_T,
    principal_eigenvalue,
    principal_eigenvalue_fd,
    step1_Mtilde,
)
from .harness import (
    DiagnosticsRecord,
    SeriesTooShortError,
    Verdict,
    WindowAdjustmentError,
    check_convergence,
    check_eventual_bound,
    check_persistence,
    diagnostics,
    fit_decay_rate,
)
from .config import ConfigError, ExperimentConfig, load_config, write_config

__version__ = "0.1.0"
