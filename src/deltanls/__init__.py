"""Stationary and mass-constrained states of the 1D NLS with a defocusing
bulk nonlinearity and a focusing delta-point nonlinearity at the origin."""

from .params import (
    Params,
    Region,
    ExistenceRule,
    MassInterval,
    ThresholdKind,
    InvalidExponents,
    classify,
    expected_solution_regime,
)
from .algebra import constants, h_of_t, I_of_t
from .stationary import (
    BranchPoint,
    SolutionSet,
    branch_point_from_t,
    diagonal_exists,
    lambda_bar,
    profile,
    solve_for_lambda,
    vertex_residual,
    zero_frequency_point,
)
from .massmap import (
    GateFailure,
    MassCurve,
    NormalizedSolution,
    ThresholdReport,
    asymptotics,
    mass_curve,
    mass_of_lambda_diagonal,
    mass_of_t,
    mass_threshold,
    normalized_solutions,
)
from .energy import (
    Attainment,
    EnergyBreakdown,
    branch_energy,
    convexity_scan,
    groundstate_energy,
    zero_level_mass,
)
from .oracle import (
    GridProfile,
    ShootingResult,
    constrained_minimize,
    functional_eval,
    sample_profile,
    sampled_functional,
    shoot,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
