"""steadypop: stationary solutions of quasilinear size-structured population models."""

from .errors import (
    BoundsViolationError,
    ConfigError,
    ConvergenceError,
    GridMismatchError,
    ParameterError,
    SteadypopError,
)
from .grid import (
    DensityProfile,
    Grid,
    build_grid,
    cumulative_integral,
    integrate,
    reverse_cumulative_integral,
    translate,
    zero_profile,
)
from .kernel import (
    KernelContext,
    apply_T,
    birth_G,
    compactness_diagnostics,
    make_context,
    net_reproduction_R,
    residual,
    survival_pi,
)
from .model import (
    CompositeRate,
    ModelSpec,
    RateBounds,
    composite_model,
    constant_model,
    counterexample_f,
    counterexample_model,
    default_x_max,
    envelope_norms,
    envelope_profiles,
    hierarchical_model,
    random_onion_samples,
    validate_hypotheses,
)
from .solver import (
    BracketFailure,
    Certificate,
    EquilibriumResult,
    MapATrace,
    ScanResult,
    SolverConfig,
    bisect_root,
    certify,
    compute_M,
    find_rho0,
    inner_picard,
    iterate_map_A,
    lambda_residual,
    scan_roots,
    solve_all,
)

__version__ = "0.1.0"
