"""Exception types shared across the package."""


class FlightMechanicsError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FlightMechanicsError):
    """Aircraft or maneuver input failed validation.

    Carries the full list of violations so every broken invariant is
    reported at once, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"[{code}] {msg}" for code, msg in self.violations)
        super().__init__(f"invalid configuration: {lines}")

    @property
    def codes(self):
        return [code for code, _ in self.violations]


class ConfigFileError(FlightMechanicsError):
    """A config or maneuver file could not be parsed.

    Messages always cite the offending key and line number.
    """


class AltitudeOutOfRange(FlightMechanicsError):
    """Altitude outside the 0..11 km validity range of the density model."""


class ZeroVelocity(FlightMechanicsError):
    """Velocity magnitude is zero; path angles are undefined."""


class BeyondStall(FlightMechanicsError):
    """The 1-g trim angle of attack lies past the end of the linear lift
    curve."""


class VerticalFlight(FlightMechanicsError):
    """Flight path is (numerically) vertical; heading of the velocity
    vector is undefined."""


class GimbalSingularity(FlightMechanicsError):
    """Pitch attitude at +/-90 deg; Euler rates are not recoverable."""


class DegenerateCoefficient(FlightMechanicsError):
    """A solved-for rate has a vanishing coefficient in its defining
    relation (e.g. heading offset from the velocity vector reaching
    90 deg)."""


class DegenerateAxialProjection(FlightMechanicsError):
    """cos(alpha)*cos(beta) ~ 0: thrust cannot be resolved along the
    flight-path axis."""


class SideslipSingularity(FlightMechanicsError):
    """cos(beta) ~ 0: angle-of-attack rate equation is singular."""


class SingularInertia(FlightMechanicsError):
    """Inertia coupling determinant is zero; angular accelerations and
    moments cannot be exchanged."""


class SingularControlMatrix(FlightMechanicsError):
    """Control effectiveness system is not invertible; surface
    deflections cannot be recovered from required moments."""


class NoSolution(FlightMechanicsError):
    """The requested attitude/path combination admits no solution."""


class GridTooShort(FlightMechanicsError):
    """Not enough samples for the requested finite-difference stencil."""


class NonFiniteState(FlightMechanicsError):
    """An integrated variable became NaN or infinite."""


class SolverAbort(FlightMechanicsError):
    """A module error occurred inside the solution loop.

    Wraps the original error together with the failing station index and
    solution phase.
    """

    def __init__(self, phase, station, cause):
        self.phase = phase
        self.station = station
        self.cause = cause
        super().__init__(f"{phase} failed at station {station}: {cause}")
