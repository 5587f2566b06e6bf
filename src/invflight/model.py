"""Domain types, units policy, and validation of aircraft and maneuver inputs.

Units are SI throughout: kg, m, s, N, rad. Angles are stored in radians
internally; degrees appear only at I/O boundaries (CLI formatting and the
summary report). Gravity is a fixed constant, not a field model. The
aircraft is input data: the built-in Mirage-III data set is the package's
``mirage3.cfg``, a file of the form ``load_config`` reads from any path.

Axis conventions:
    ground axes   x_g north-ish, y_g east-ish, z_g down (altitude = -z_g)
    body axes     x_b out the nose, y_b starboard, z_b down
    attitude      phi (bank), theta (pitch), psi (heading)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from importlib import resources
from typing import Callable

import numpy as np

from .errors import ConfigError, ConfigFileError

__all__ = [
    "FlightEnvironment",
    "ISA",
    "AeroCoefficients",
    "AircraftConfig",
    "FlightState",
    "AnalyticChannel",
    "AnalyticManeuver",
    "SampledManeuver",
    "TrajectorySpec",
    "mirage_iii",
    "validate_config",
    "load_config",
    "load_sampled_maneuver",
    "CONFIG_KEYS",
]


@dataclass(frozen=True)
class FlightEnvironment:
    """Physical constants for the standard atmosphere and gravity.

    The package reads the one instance ``ISA``; the constants are fixed.
    """

    g: float = 9.81              # m/s^2
    rho_sl: float = 1.225        # sea-level density, kg/m^3
    lapse_rate: float = 0.0065   # temperature lapse rate, K/m
    temp_sl: float = 288.0       # sea-level temperature, K
    gas_constant: float = 287.0  # specific gas constant of air, J/(kg K)


ISA = FlightEnvironment()

# the five-point boundary stencils of the third derivative
_MIN_SAMPLE_ROWS = 5


def off_spacing(steps, dt: float) -> bool:
    """Whether a step of ``steps`` strays from the spacing ``dt`` by more
    than the one sample-spacing tolerance, 1e-9 of max(``dt``, 1 s)."""
    # max |steps - dt| without a temporary: rounding keeps the order
    return bool(max(np.max(steps) - dt, dt - np.min(steps))
                > 1e-9 * max(dt, 1.0))


def time_step(path, t, skip=0) -> float:
    """The step of the time column ``t`` of file ``path``: the mean step,
    since a first step read far from t = 0 is less exact. Fewer than 2
    rows, or times that do not increase uniformly, are an input error; the
    first step off names its row's line (the data follow ``skip`` lines)."""
    if len(t) < 2:
        raise ConfigFileError(f"{path}: a step needs 2 rows, got {len(t)}")
    dt = float(t[-1] - t[0]) / (len(t) - 1)
    if dt <= 0.0 or off_spacing(np.diff(t), dt):  # the row only on failure
        row = next(i for i, step in enumerate(np.diff(t), start=1)
                   if step <= 0.0 or off_spacing(step, dt))
        lineno = [n for n, _ in _data_lines(path, skip)][row]
        raise ConfigFileError(
            f"{path}: line {lineno}: times do not increase uniformly")
    return dt


@dataclass(frozen=True)
class AeroCoefficients:
    """Dimensionless aerodynamic and stability coefficients.

    Lift/drag/side-force build-up plus the moment derivatives. The pitch
    channel carries alpha, q and elevator; the roll/yaw channels carry
    beta, the rate terms p*b/V and r*b/V, and the aileron/rudder pair.
    Angle derivatives are per radian, as tabulated in the usual data
    sheets.
    """

    # force build-up
    c_lift0: float          # lift coefficient at zero angle of attack
    c_lift_alpha: float     # lift slope, 1/rad
    c_drag0: float          # zero-lift drag
    k_drag: float           # induced-drag factor of the drag polar
    c_side_beta: float      # side force per sideslip, 1/rad

    # pitching moment (longitudinal)
    c_pitch0: float
    c_pitch_alpha: float    # 1/rad
    c_pitch_q: float        # applied to bare pitch rate q
    c_pitch_dm: float       # elevator effectiveness, 1/rad

    # rolling moment (lateral)
    c_roll_beta: float
    c_roll_p: float         # applied to p*b/V
    c_roll_r: float         # applied to r*b/V
    c_roll_dl: float        # aileron effectiveness, 1/rad
    c_roll_dn: float        # rudder cross effectiveness, 1/rad

    # yawing moment (lateral)
    c_yaw_beta: float
    c_yaw_p: float          # applied to p*b/V
    c_yaw_r: float          # applied to r*b/V
    c_yaw_dl: float         # aileron cross effectiveness, 1/rad
    c_yaw_dn: float         # rudder effectiveness, 1/rad

    @property
    def control_determinant(self) -> float:
        """Determinant of the aileron/rudder effectiveness 2x2 system."""
        return self.c_roll_dl * self.c_yaw_dn - self.c_roll_dn * self.c_yaw_dl


@dataclass(frozen=True)
class AircraftConfig:
    """Mass, inertia tensor entries, reference geometry, and aero data.

    Inertia naming: i_roll/i_pitch/i_yaw are the moments about the body
    x/y/z axes; i_yz, i_zx, i_xy are the products of inertia in the
    corresponding body-axis planes (zero for the usual x-z symmetric
    airframe except i_zx).
    """

    mass: float        # kg
    i_roll: float      # kg m^2
    i_pitch: float     # kg m^2
    i_yaw: float       # kg m^2
    i_yz: float        # kg m^2
    i_zx: float        # kg m^2
    i_xy: float        # kg m^2
    wing_area: float   # m^2
    span_ref: float    # lateral reference length, m
    chord_ref: float   # longitudinal reference length, m
    aero: AeroCoefficients

    @property
    def inertia_determinant(self) -> float:
        """Coupling scalar of the inertia system.

        Equals det of the inertia tensor; must be nonzero for the moment
        equations to be solvable in either direction.
        """
        a, b, c = self.i_roll, self.i_pitch, self.i_yaw
        d, e, f = self.i_yz, self.i_zx, self.i_xy
        return a * b * c - a * d * d - b * e * e - c * f * f - 2.0 * d * e * f


@dataclass
class FlightState:
    """The start of a forward flight: speed, airflow angles, body rates,
    attitude and ground position at one time station."""

    v: float = 0.0           # speed along the flight path, m/s
    alpha: float = 0.0       # angle of attack (procedure value), rad
    beta: float = 0.0        # sideslip, rad
    p: float = 0.0           # roll rate, rad/s
    q: float = 0.0           # pitch rate, rad/s
    r: float = 0.0           # yaw rate, rad/s
    phi: float = 0.0         # bank, rad
    theta: float = 0.0       # pitch, rad
    psi: float = 0.0         # heading, rad
    xg: float = 0.0          # ground position, m
    yg: float = 0.0
    zg: float = 0.0          # down: altitude = -zg


@dataclass(frozen=True)
class AnalyticChannel:
    """One prescribed scalar of time with its analytic derivatives.

    All callables must accept numpy arrays. ``d3`` may be omitted for
    channels that are never differentiated three times (the bank angle).
    """

    f: Callable
    d1: Callable
    d2: Callable
    d3: Callable | None = None


@dataclass(frozen=True)
class AnalyticManeuver:
    """Closed-form constraint functions: three coordinates plus bank."""

    x: AnalyticChannel
    y: AnalyticChannel
    z: AnalyticChannel
    phi: AnalyticChannel


@dataclass(frozen=True)
class SampledManeuver:
    """Uniformly sampled constraint series: three coordinates plus bank."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class TrajectorySpec:
    """The four prescribed constraint histories plus the time grid.

    Exactly one of ``analytic`` or ``samples`` is set. For sampled input
    the grid is taken from the sample times.
    """

    duration: float
    dt: float
    analytic: AnalyticManeuver | None = None
    samples: SampledManeuver | None = None
    name: str = "custom"

    @property
    def station_count(self) -> int:
        return int(round(self.duration / self.dt)) + 1

    def validate(self) -> "TrajectorySpec":
        problems = []
        if not self.dt > 0.0:
            problems.append(("non_positive_dt", f"dt = {self.dt} must be > 0"))
        if not self.duration > 0.0:
            problems.append(("non_positive_duration",
                             f"duration = {self.duration} must be > 0"))
        if (self.analytic is None) == (self.samples is None):
            problems.append(("bad_channels",
                             "exactly one of analytic/samples must be set"))
        if self.dt > 0.0 and self.duration > 0.0:
            n = self.duration / self.dt
            if abs(n - round(n)) > 1e-6:
                problems.append(("grid_mismatch",
                                 f"duration {self.duration} is not an integer "
                                 f"multiple of dt {self.dt}"))
            elif self.station_count < 4:
                problems.append(("too_few_stations",
                                 f"{self.station_count} stations; boundary "
                                 "stencils need at least 4"))
        if self.samples is not None:
            s = self.samples
            n = len(s.t)
            if any(len(a) != n for a in (s.x, s.y, s.z, s.phi)):
                problems.append(("ragged_samples",
                                 "sample columns have unequal lengths"))
            elif n < _MIN_SAMPLE_ROWS:
                problems.append(("too_few_samples",
                                 f"{n} sample rows; the third-derivative "
                                 f"stencil needs at least {_MIN_SAMPLE_ROWS}"))
            else:
                if off_spacing(np.diff(s.t), self.dt):
                    problems.append(("non_uniform_samples",
                                     "sample times are not uniformly spaced "
                                     f"at dt = {self.dt}"))
                if (self.dt > 0.0 and self.duration > 0.0
                        and n != self.station_count):
                    problems.append(("sample_count_mismatch",
                                     f"{n} sample rows; duration "
                                     f"{self.duration} at dt {self.dt} "
                                     f"needs {self.station_count}"))
        if problems:
            raise ConfigError(problems)
        return self


def validate_config(cfg: AircraftConfig) -> AircraftConfig:
    """Check every aircraft invariant; report all violations at once.

    Returns the config unchanged when everything holds. Side-effect-free
    and idempotent.
    """
    v = []
    for obj in (cfg, cfg.aero):
        for f in fields(obj):
            val = getattr(obj, f.name)
            if f.name != "aero" and not math.isfinite(val):
                v.append(("non_finite", f"{f.name} = {val} must be finite"))
    if not cfg.mass > 0.0:
        v.append(("non_positive_mass", f"mass = {cfg.mass} must be > 0"))
    for name in ("i_roll", "i_pitch", "i_yaw"):
        val = getattr(cfg, name)
        if not val > 0.0:
            v.append(("non_positive_inertia", f"{name} = {val} must be > 0"))
    for name in ("wing_area", "span_ref", "chord_ref"):
        val = getattr(cfg, name)
        if not val > 0.0:
            v.append(("non_positive_geometry", f"{name} = {val} must be > 0"))

    scale = abs(cfg.i_roll * cfg.i_pitch * cfg.i_yaw)
    if scale > 0.0 and abs(cfg.inertia_determinant) <= 1e-9 * scale:
        v.append(("singular_inertia",
                  "inertia coupling determinant is (numerically) zero; the "
                  "moment equations cannot be inverted"))

    a = cfg.aero
    if not a.c_lift_alpha > 0.0:
        v.append(("non_positive_lift_slope",
                  f"c_lift_alpha = {a.c_lift_alpha} must be > 0"))
    if a.c_drag0 < 0.0:
        v.append(("negative_drag", f"c_drag0 = {a.c_drag0} must be >= 0"))
    if a.k_drag < 0.0:
        v.append(("negative_drag", f"k_drag = {a.k_drag} must be >= 0"))

    det_scale = max(abs(a.c_roll_dl * a.c_yaw_dn),
                    abs(a.c_roll_dn * a.c_yaw_dl), 1e-30)
    if abs(a.control_determinant) <= 1e-12 * det_scale:
        v.append(("singular_control_matrix",
                  "aileron/rudder effectiveness determinant is zero"))
    if a.c_pitch_dm == 0.0:
        v.append(("singular_control_matrix",
                  "elevator effectiveness c_pitch_dm is zero"))

    if v:
        raise ConfigError(v)
    return cfg


# Config file keys use the conventional data-sheet symbols.
CONFIG_KEYS = {
    "m": "mass",
    "A": "i_roll",
    "B": "i_pitch",
    "C": "i_yaw",
    "D": "i_yz",
    "E": "i_zx",
    "F": "i_xy",
    "S": "wing_area",
    "b": "span_ref",
    "d": "chord_ref",
    "C_L0": "c_lift0",
    "C_L_alpha": "c_lift_alpha",
    "C_D0": "c_drag0",
    "K_CD": "k_drag",
    "C_y_beta": "c_side_beta",
    "C_m0": "c_pitch0",
    "C_m_alpha": "c_pitch_alpha",
    "C_m_q": "c_pitch_q",
    "C_m_delta_m": "c_pitch_dm",
    "C_l_beta": "c_roll_beta",
    "C_l_p": "c_roll_p",
    "C_l_r": "c_roll_r",
    "C_l_delta_l": "c_roll_dl",
    "C_l_delta_n": "c_roll_dn",
    "C_n_beta": "c_yaw_beta",
    "C_n_p": "c_yaw_p",
    "C_n_r": "c_yaw_r",
    "C_n_delta_l": "c_yaw_dl",
    "C_n_delta_n": "c_yaw_dn",
}

_AERO_FIELDS = {f for f in AeroCoefficients.__dataclass_fields__}


def load_config(path) -> AircraftConfig:
    """Parse a key=value aircraft data file and validate the result.

    Keys are the table symbols (m, A..F, S, b, d, C_L0, C_l_p, ...).
    Lines starting with '#' and blank lines are ignored. Every parse
    problem cites the key and the 1-based line number.
    """
    values: dict[str, float] = {}
    seen: dict[str, int] = {}
    for lineno, line in _data_lines(path):
        if "=" not in line:
            raise ConfigFileError(f"{path}: line {lineno}: expected "
                                  f"'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in CONFIG_KEYS:
            raise ConfigFileError(
                f"{path}: line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigFileError(
                f"{path}: line {lineno}: duplicate key {key!r} "
                f"(first set on line {seen[key]})")
        try:
            values[key] = float(text)
        except ValueError:
            raise ConfigFileError(
                f"{path}: line {lineno}: key {key!r}: "
                f"{text!r} is not a number") from None
        seen[key] = lineno

    missing = [k for k in CONFIG_KEYS if k not in values]
    if missing:
        raise ConfigFileError(
            f"{path}: missing keys: {', '.join(missing)}")

    fields = {CONFIG_KEYS[k]: v for k, v in values.items()}
    aero = AeroCoefficients(**{k: v for k, v in fields.items()
                               if k in _AERO_FIELDS})
    body = {k: v for k, v in fields.items() if k not in _AERO_FIELDS}
    return validate_config(AircraftConfig(aero=aero, **body))


def mirage_iii() -> AircraftConfig:
    """The built-in Mirage-III data set, the package's ``mirage3.cfg``."""
    return load_config(resources.files(__package__) / "mirage3.cfg")


def _data_lines(path, skip=0):
    """(number, text) of each data line of file ``path`` after its first
    ``skip`` lines, as ``np.loadtxt`` reads them: comments cut, no blanks."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if lineno > skip and line:
                yield lineno, line


def _bad_line(path, width: int, delimiter, skip: int):
    """Where and why the first data line after ``skip`` lines is not
    ``width`` finite numbers (``delimiter`` None: commas or spaces)."""
    for lineno, line in _data_lines(path, skip):
        parts = (line.split(delimiter) if delimiter
                 else line.replace(",", " ").split())
        if len(parts) != width:
            return (f"line {lineno}: expected {width} columns, "
                    f"got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            return f"line {lineno}: non-numeric entry"
        if not all(map(math.isfinite, row)):
            return f"line {lineno}: non-finite entry"
    return None


def load_numeric_text(path, lines, width: int, delimiter=None, skip=0,
                      usecols=None):
    """The data rows of file ``path`` in ``lines`` (the path, or lines of
    the file after its first ``skip``), parsed by ``np.loadtxt`` as one
    ``(rows, width)`` block, or of the columns ``usecols`` only.

    The checks run on the whole block; a bad entry raises
    ``ConfigFileError`` naming the file's first bad line, looked up only
    on failure.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(lines, delimiter=delimiter, usecols=usecols,
                              ndmin=2)
        except ValueError as err:
            raise ConfigFileError(
                f"{path}: {_bad_line(path, width, delimiter, skip) or err}"
            ) from None
    if len(data) and (data.shape[1] != len(usecols or range(width))
                      or not np.isfinite(data).all()):
        raise ConfigFileError(
            f"{path}: {_bad_line(path, width, delimiter, skip)}")
    return data


def load_sampled_maneuver(path) -> TrajectorySpec:
    """Parse a sampled maneuver file: rows of 't x_g y_g z_g phi'.

    Columns may be separated by commas or whitespace; the parser reads
    the lines with commas as spaces. Times must be uniformly spaced.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = load_numeric_text(
            path, (line.replace(",", " ") for line in fh), 5)
    if len(data) < _MIN_SAMPLE_ROWS:
        raise ConfigFileError(
            f"{path}: only {len(data)} sample rows; at least "
            f"{_MIN_SAMPLE_ROWS} required")
    t = data[:, 0]
    return TrajectorySpec(
        duration=float(t[-1] - t[0]), dt=time_step(path, t), name="sampled",
        samples=SampledManeuver(*data.T)).validate()
