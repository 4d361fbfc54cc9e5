"""Numerical laboratory for the nonlinear Schroedinger equation with a
repulsive inverse-power potential: ground states and sharp constants,
split-step time evolution, virial/Morawetz functionals, and trajectory
classification against the global-existence / blow-up / scattering
criteria."""

__version__ = "0.1.0"

from .equation import (
    CriticalityInfo,
    EquationSpec,
    RegimeNotCoveredError,
    ThresholdVerdict,
    classify_criticality,
    threshold_test,
)
from .grid import (
    Field,
    Grid,
    GridError,
    InvalidFieldError,
    boundary_shell_mass_fraction,
    gradient_norm_sq,
    h1_norm,
    mass,
    mass_fourier,
    weighted_norm,
)
from .weights import (
    LocalizedWeights,
    check_positivity_condition,
    eval_localized_weight,
)
from .groundstate import (
    Bubble,
    GroundState,
    GroundStateError,
    gn_inequality_oracle,
    hardy_oracle,
    make_bubble,
    sharp_gn_constant,
    solve_ground_state,
)
from .evolve import (
    EvolveConfig,
    TrajectoryOutcome,
    evolve,
    evolve_linear,
    glassey_upper_bound,
)
from .observables import (
    IdentityCheck,
    ObservableRecord,
    interaction_morawetz_l4,
    localized_virial_bound_check,
    morawetz_action,
    radial_sobolev_oracle,
    record,
    scattering_cauchy_diagnostic,
    virial_identity_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
