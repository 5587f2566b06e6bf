"""Inverse flight-mechanics solver for fixed-wing fixed-mass aircraft.

Given a prescribed ground-axes trajectory and bank-angle history, the
solver computes the control time histories (thrust, aileron, elevator,
rudder) and all remaining flight variables by marching the nonlinear
differential-algebraic system sequentially and explicitly. A forward
6-DOF simulator closes the loop as a round-trip verification oracle.
"""

from .aero import EquilibriumReference
from .atmosphere import density, density_gradient
from .errors import (
    AltitudeOutOfRange,
    BeyondStall,
    ConfigError,
    ConfigFileError,
    DegenerateAxialProjection,
    DegenerateCoefficient,
    FlightMechanicsError,
    GimbalSingularity,
    GridTooShort,
    NonFiniteState,
    NoSolution,
    SideslipSingularity,
    SingularControlMatrix,
    SingularInertia,
    SolverAbort,
    VerticalFlight,
    ZeroVelocity,
)
from .forward import ControlHistory, ForwardHistory, simulate
from .model import (
    ISA,
    AeroCoefficients,
    AircraftConfig,
    AnalyticChannel,
    AnalyticManeuver,
    FlightEnvironment,
    FlightState,
    SampledManeuver,
    TrajectorySpec,
    load_config,
    load_sampled_maneuver,
    mirage_iii,
    validate_config,
)
from .solver import (
    MANEUVERS,
    KinematicProfiles,
    SolutionHistory,
    convergence_study,
    initialize,
    maneuver_spec,
    march,
    setup,
    solve,
)

__version__ = "0.1.0"
