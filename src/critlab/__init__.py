"""critlab: mass-critical constrained minimizers with a singular-weight
interaction on bounded domains, and the quantitative laws of their
concentration limit."""

from .params import GNParams, surface_area
from .errors import (
    BracketFailure,
    ConfigError,
    CritlabError,
    IoFailure,
    IterationStall,
    MassViolation,
    NonPositive,
    NotConverged,
    SingularStartup,
    TailUnresolved,
)
from .grids import (
    Ball,
    Grid,
    GridFunction,
    Interval,
    build_grid,
    dirichlet_form,
    integrate,
    integrate_nodal,
    mass,
    normalize_mass,
)
from .groundstate import (
    GroundStateData,
    RadialProfile,
    IdentityReport,
    LinearizedProbe,
    linearized_probe,
    moment,
    solve_ground_state,
    verify_identities,
)
from .potentials import (
    LambdaConstant,
    PotentialSpec,
    compute_lambda,
    eval_potential,
    limit_factor,
    validate_assumptions,
)
from .variational import (
    EnergyBreakdown,
    FlowConfig,
    MinimizerResult,
    UniquenessReport,
    evaluate_energy,
    gn_quotient,
    gradient_flow_minimize,
    make_trial_function,
    multistart_uniqueness,
    nonexistence_probe,
    trial_quotient,
)
from .asymptotics import (
    LawFit,
    LimitsReport,
    ScalingFit,
    SweepRecord,
    SweepResult,
    check_limits,
    default_gap_schedule,
    fit_scaling_laws,
    lemma_energy_bound,
    predicted_eps,
    rescale_minimizer,
    run_sweep,
)

__version__ = "0.1.0"
