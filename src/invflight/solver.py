"""Three-phase inverse-simulation solver.

Given the four prescribed constraint histories (three ground-axes
coordinates plus bank angle), the solver produces the control time
histories and all remaining flight variables:

  setup         check the whole trajectory, then compute its station
                coordinates and kinematic profiles a block of stations at
                a time as the march reads them: speed, flight-path angles,
                bank, air density, and their time derivatives (trajectory
                derivatives analytic when available, finite differences
                otherwise; speed derivatives always by finite differences);
  initialize    equilibrium start: the lift-curve zero moved to the 1-g
                trim, zero airflow angles, pitch and heading equal to the
                path angles, thrust from the axial balance, body rates from
                the Euler rates, as the march's twelve-value start;
  march         march station to station with fixed-step RK4 over the
                twelve-variable vector (alpha, beta, theta, psi, T,
                alpha', beta', theta', psi', p, q, r), a block of stations
                at a time; after each block, recover its stations'
                deflections from the moment balance in one call and yield
                them as a part of the solution (``solve`` gathers the
                parts into one history).

Every step of the march is explicit: each stage evaluates the
differentiated force balances, then the attitude accelerations, then
the body-rate derivatives, in that order, seeding the angular
accelerations from the previous stage (station values for the first
stage). That cascade is affine in its seed, so it runs once through the
kernels and its remaining ``CASCADE_SWEEPS - 1`` passes are applied in
closed form through the stage Jacobian, and that count is a gain on a
hidden constraint's residual. The re-evaluation at each new station, seeded
with the step's averaged angular accelerations, is also the next step's
first stage (first same as last), so a step costs four rate evaluations.
The kernels take their arguments positionally, in signature order:
binding them as keywords, by name on every call, cost a third of a stage.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields, replace
from itertools import combinations
from typing import Callable

import numpy as np

from . import aero, dynamics, kinematics
from .atmosphere import (TROPOPAUSE_ALTITUDE, _raise_out_of_range, density,
                         density_gradient)
from .errors import (
    BeyondStall,
    ConfigError,
    FlightMechanicsError,
    NonFiniteState,
    SolverAbort,
    VerticalFlight,
    ZeroVelocity,
)
from .forward import ControlHistory
from .model import (
    ISA,
    AircraftConfig,
    AnalyticChannel,
    AnalyticManeuver,
    FlightState,
    TrajectorySpec,
    validate_config,
)
from .numerics import (
    UniformGrid,
    fd_first_derivative,
    fd_second_derivative,
    fd_third_derivative,
    rk4_step,
)

__all__ = [
    "MANEUVERS",
    "maneuver_spec",
    "KinematicProfiles",
    "SolutionHistory",
    "InitialConditions",
    "setup",
    "initialize",
    "march",
    "solve",
    "convergence_study",
]

_VERTICAL_TOL = 1e-9


# ----------------------------------------------------------------------
# Built-in maneuver library
# ----------------------------------------------------------------------


def _linear(rate, offset=0.0):
    return AnalyticChannel(
        f=lambda t, r=rate, o=offset: o + r * np.asarray(t, dtype=float),
        d1=lambda t, r=rate: np.full_like(np.asarray(t, dtype=float), r),
        d2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        d3=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def _roll_bank_channel():
    # One full 360 deg roll in 6 s, starting and ending at rest:
    # phi = (pi/8) * (cos(pi t/2) - 9 cos(pi t/6) + 8)
    amp = math.pi / 8.0
    wf = math.pi / 2.0
    ws = math.pi / 6.0

    def f(t):
        t = np.asarray(t, dtype=float)
        return amp * (np.cos(wf * t) - 9.0 * np.cos(ws * t) + 8.0)

    def d1(t):
        t = np.asarray(t, dtype=float)
        return amp * (-wf * np.sin(wf * t) + 9.0 * ws * np.sin(ws * t))

    def d2(t):
        t = np.asarray(t, dtype=float)
        return amp * (-wf * wf * np.cos(wf * t)
                      + 9.0 * ws * ws * np.cos(ws * t))

    return AnalyticChannel(f=f, d1=d1, d2=d2)


# every built-in maneuver flies for this long, s
_MANEUVER_DURATION = 6.0

# the straight, level 200 m/s run at 10 km that both maneuvers fly
_STRAIGHT_RUN = dict(x=_linear(200.0), y=_linear(0.0),
                     z=_linear(0.0, -10000.0))

MANEUVERS = {
    "mirage-roll": AnalyticManeuver(**_STRAIGHT_RUN,
                                    phi=_roll_bank_channel()),
    "level": AnalyticManeuver(**_STRAIGHT_RUN, phi=_linear(0.0)),
}


def maneuver_spec(name: str, dt: float) -> TrajectorySpec:
    if name not in MANEUVERS:
        raise ConfigError([("unknown_maneuver",
                            f"{name!r}; known: {', '.join(sorted(MANEUVERS))}")
                           ])
    return TrajectorySpec(duration=_MANEUVER_DURATION, dt=dt,
                          analytic=MANEUVERS[name], name=name)


# ----------------------------------------------------------------------
# Setup phase
# ----------------------------------------------------------------------


# the stage table's columns: the stage rate function unpacks the first
# 14, in this order; the station coordinates go only into the solution
_STAGE_COLUMNS = ("v", "v_dot", "v_ddot", "theta_w", "theta_w_dot",
                  "theta_w_ddot", "psi_w", "psi_w_dot", "psi_w_ddot",
                  "phi", "phi_dot", "phi_ddot", "rho", "rho_dot",
                  "xg", "yg", "zg")

# stations per block of every stream: the stage table (272 B a station),
# the march's parts and their deflection recovery (144 B), the history
# writer's and the replay reader's (k, 21) blocks (168 B) and the forward
# flight's controls and records (128 B). A run's peak above its import
# scales with it, and each block costs about 2 ms of march: an S-turn
# round trip peaks 0.9 and 1.0-1.2 MB lower in blocks of 1,024 and 512
# than of 2,048, for 1 and 1-4 % more time; 256 saves under 0.2 MB more
STATION_BLOCK = 512


@dataclass
class KinematicProfiles:
    """Per-station kinematic quantities on a half-step grid, computed a
    block of stations at a time.

    The marching scheme evaluates stage rates at station times and at
    the midpoints between stations, so every channel lives on a grid of
    spacing dt/2 with 2*count - 1 points; stations are the even points.
    No channel is kept: ``stage_rows`` computes them from
    ``channel(name, k, a, b)``, the k-th time derivative of a trajectory
    channel on points a..b-1 of its grid, which has ``scale`` points a
    station: 2 for analytic channels, 1 for sampled ones.
    """

    stations: UniformGrid
    channel: Callable
    scale: int

    def stage_rows(self):
        """The stage table a block at a time: for stations s..s+k, k <=
        ``STATION_BLOCK``, the C-contiguous ``(2k+1, 17)`` float64 half-step
        rows 2s..2s+2k in ``_STAGE_COLUMNS`` order, 136 bytes a row.
        Consecutive blocks share their boundary row; nothing is
        computed before the first ``next``, and a block is not held here
        once it is yielded."""
        carry = [-0.0]
        for s in range(0, self.stations.count - 1, STATION_BLOCK):
            yield self._block(s, STATION_BLOCK, carry)

    def _block(self, s, count, carry):
        """Stations s..s+k as their table, k = ``count`` or fewer at the
        run's end; ``carry`` holds the azimuth unwrap's running correction
        at station s, and the call moves it on to s+k. With ``carry``
        None, the refusal pass instead: stop after the refusals.

        Each row is the whole-run computation's, bit for bit: numpy's
        elementwise functions give the same bits on any chunk, 4 points
        each side of the block feed every stencil at its rows (at the ends
        of the run the stencils take their one-sided forms, as on the
        whole grid), and the unwrap sums its corrections in sequence from
        the carried sum, as ``np.unwrap``'s ``cumsum`` does.
        """
        n, scale = self.stations.count, self.scale
        e = min(s + count, n - 1)
        lo, hi = scale * s, scale * e
        a = max(lo - 4, 0)
        own = slice(lo - a, hi + 1 - a)
        h = self.stations.dt / scale

        def traj(name, k):  # on the block and the stencils' points
            return self.channel(name, k, a, min(hi + 5, scale * (n - 1) + 1))

        def station(bad):  # of the first True
            return (lo + int(np.argmax(bad))) // scale

        z = traj("z", 0)[own]
        out = (z > 0.0) | (z < -TROPOPAUSE_ALTITUDE)  # altitude -z
        if np.any(out):
            _raise_out_of_range(float(-z[np.argmax(out)]),
                                f" at station {station(out)}")
        xd, yd, zd = traj("x", 1), traj("y", 1), traj("z", 1)
        speed = np.sqrt(xd * xd + yd * yd + zd * zd)  # the stencils' too
        v = speed[own]
        if np.any(v <= 0.0):
            raise ZeroVelocity(f"zero speed at station {station(v <= 0.0)}")
        xd, yd, zd = xd[own], yd[own], zd[own]
        stw = np.clip(-zd / v, -1.0, 1.0)
        elevation = np.arcsin(stw)
        ctw = np.cos(elevation)
        if np.any(ctw < _VERTICAL_TOL):
            raise VerticalFlight("vertical flight path at station "
                                 f"{station(ctw < _VERTICAL_TOL)}")
        if carry is None:
            return None

        table = np.empty((2 * (e - s) + 1, len(_STAGE_COLUMNS)))
        (v_col, v_dot, v_ddot, theta_w, theta_w_dot, theta_w_ddot, psi_w,
         psi_w_dot, psi_w_ddot, phi, phi_dot, phi_ddot, rho,
         rho_dot, xg, yg, zg) = table[::2 // scale].T
        v_col[:], theta_w[:], zg[:] = v, elevation, z
        xg[:], yg[:] = traj("x", 0)[own], traj("y", 0)[own]
        del elevation
        for k, col in enumerate((phi, phi_dot, phi_ddot)):
            col[:] = traj("phi", k)[own]
        v_dot[:] = fd_first_derivative(speed, h)[own]
        v_ddot[:] = fd_second_derivative(speed, h)[own]
        del speed
        # the flight-path angles: the elevation chain differentiates the
        # vertical velocity resolution, the azimuth chain the two horizontal
        # ones combined, which stays valid for any heading. Transcendentals
        # take contiguous arrays, never the strided columns: numpy may run
        # another loop there, with other last bits (arctan2 does, numpy 2.4
        # on AVX-512). The azimuth is ``np.unwrap``'s, step for step; the
        # carried sum starts at -0.0, which adds nothing to any float
        raw = np.arctan2(yd, xd)
        del xd, yd
        dd = np.diff(raw)
        fix = np.mod(dd + math.pi, 2.0 * math.pi) - math.pi
        np.copyto(fix, math.pi, where=(fix == -math.pi) & (dd > 0))
        fix -= dd
        fix[np.abs(dd) < math.pi] = 0.0
        total = np.cumsum(np.concatenate((carry, fix)))
        psi_w[:] = azimuth = raw + total
        del raw, dd, fix
        spw, cpw = np.sin(azimuth), np.cos(azimuth)
        del azimuth
        rho[:] = density(z)
        rho_dot[:] = density_gradient(z) * zd
        del z, zd
        vctw = v * ctw
        theta_w_dot[:] = -(traj("z", 2)[own] + v_dot * stw) / vctw
        theta_w_ddot[:] = -(traj("z", 3)[own] + v_ddot * stw
                            + 2.0 * v_dot * ctw * theta_w_dot
                            - v * stw * theta_w_dot * theta_w_dot) / vctw
        xdd, ydd = traj("x", 2)[own], traj("y", 2)[own]
        psi_w_dot[:] = (cpw * ydd - spw * xdd) / vctw
        psi_w_ddot[:] = ((-spw * ydd - cpw * xdd) * psi_w_dot
                         + cpw * traj("y", 3)[own] - spw * traj("x", 3)[own]
                         - psi_w_dot * (v_dot * ctw - v * stw * theta_w_dot)
                         ) / vctw
        if scale == 1:  # samples: linear midpoint interpolation
            for col in table.T:
                even = col[::2]
                col[1::2] = 0.5 * (even[:-1] + even[1:])
        carry[0] = total[-1]
        return table


def setup(spec: TrajectorySpec) -> KinematicProfiles:
    """Turn a trajectory prescription into kinematic profiles.

    Validates the spec, then block by block checks the altitude, speed
    and path elevation, keeping nothing. A refusal is raised before any
    station is marched, as a check of the whole run raises it: the first
    station out of the atmosphere, else the first at zero speed, else the
    first on a vertical path.
    Analytic channels are evaluated at every half step. Sampled channels
    are differentiated on the stations, the even rows, and each odd row
    then gets the mean of its neighbours.
    """
    spec.validate()
    n, dt = spec.station_count, spec.dt
    if spec.analytic is not None:
        man = spec.analytic
        for name in "xyz":
            if getattr(man, name).d3 is None:
                raise ConfigError([("missing_derivative",
                                    f"analytic channel {name} needs d3")])
        t0, scale = 0.0, 2

        def channel(name, k, a, b):
            ch = getattr(man, name)
            tf = 0.5 * dt * np.arange(a, b)
            return np.asarray((ch.f, ch.d1, ch.d2, ch.d3)[k](tf), dtype=float)
    else:
        samples = spec.samples
        t0, scale = float(samples.t[0]), 1
        fd = (None, fd_first_derivative, fd_second_derivative,
              fd_third_derivative)

        def channel(name, k, a, b):
            arr = np.asarray(getattr(samples, name)[a:b], dtype=float)
            return fd[k](arr, dt) if k else arr

    profiles = KinematicProfiles(UniformGrid(t0, dt, n), channel, scale)
    first = {}
    for s in range(0, n - 1, STATION_BLOCK):
        try:
            profiles._block(s, STATION_BLOCK, None)
        except (ZeroVelocity, VerticalFlight) as err:
            first.setdefault(type(err), err)
    if first:
        raise first.get(ZeroVelocity) or first[VerticalFlight]
    return profiles


# ----------------------------------------------------------------------
# Initialization phase
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InitialConditions:
    """Equilibrium start of the march: ``y0``, the state at the first
    station in march order (alpha, beta, theta, psi, T, alpha', beta',
    theta', psi', p, q, r), and the 1-g trim ``reference`` there, whose
    shifted ``coeffs`` the march flies."""

    y0: tuple
    reference: aero.EquilibriumReference


def initialize(profiles: KinematicProfiles,
               cfg: AircraftConfig) -> InitialConditions:
    """Equilibrium initial state at the first station.

    The lift curve is shifted to the 1-g trim at the station's density
    and speed, which refuses a start past stall or with no dynamic
    pressure. Airflow angles and their rates start at zero, so pitch and
    heading equal the path angles; thrust closes the axial balance; body
    rates follow from the Euler rates. The recovery pass after the march
    writes the deflections.
    """
    validate_config(cfg)
    # row 0 of a one-station table: the first block's row 0, bit for bit
    row = dict(zip(_STAGE_COLUMNS, profiles._block(0, 1, [-0.0])[0].tolist()))
    try:
        ref = aero.equilibrium_reference(cfg, row["rho"], row["v"])
    except (ZeroVelocity, BeyondStall) as err:
        raise type(err)(f"{err} at station 0") from None
    phi0, phi_dot0 = row["phi"], row["phi_dot"]
    theta0 = theta_w0 = row["theta_w"]
    psi0 = psi_w0 = row["psi_w"]

    c_lift = ref.c_lift0_equib
    c_drag = aero.drag_coefficient(c_lift, ref.coeffs)
    c_x, c_y, c_z = aero.body_force_coefficients(c_drag, 0.0, c_lift,
                                                 0.0, 0.0)
    thrust0 = dynamics.thrust_from_force_balance(
        mass=cfg.mass, g=ISA.g, s_ref=cfg.wing_area, qbar=ref.qbar,
        v_dot=row["v_dot"], alpha=0.0, beta=0.0,
        theta=theta0, phi=phi0, c_x=c_x, c_y=c_y, c_z=c_z)

    theta_dot0, psi_dot0 = kinematics.attitude_rates(
        alpha=0.0, beta=0.0, phi=phi0,
        alpha_dot=0.0, beta_dot=0.0, phi_dot=phi_dot0,
        theta=theta0, psi=psi0, theta_w=theta_w0, psi_w=psi_w0,
        theta_w_dot=row["theta_w_dot"], psi_w_dot=row["psi_w_dot"])
    p0, q0, r0 = kinematics.body_rates_from_euler(phi0, theta0, phi_dot0,
                                                  theta_dot0, psi_dot0)
    return InitialConditions(
        y0=(0.0, 0.0, theta0, psi0, thrust0, 0.0, 0.0,
            theta_dot0, psi_dot0, p0, q0, r0),
        reference=ref)


# ----------------------------------------------------------------------
# Marching phase
# ----------------------------------------------------------------------


# Passes of the angular-acceleration cascade per stage evaluation; the
# count less one is a gain on a hidden-constraint residual, not a
# convergence count (see _make_rate_function). It moves the results;
# the roll maneuver's rudder peak against it:
#
#   sweeps   max|delta_n| at dt = 1e-3   at dt = 1e-4
#        1   47.11 deg                   45.88 deg
#        2   46.39 deg
#        4   46.08 deg                   45.80 deg
#        8   45.94 deg
#       16   45.87 deg                   45.78 deg
CASCADE_SWEEPS = 4

# the rate function's head of one row of ``KinematicProfiles.stage_rows()``,
# and the marched head of one station of the march's record block (state,
# then (p', q', r')), read and written in place as packed doubles
_STAGE_ROW = struct.Struct("14d")
_STATION_RECORD = struct.Struct("15d")


def _make_rate_function(rows, t0, half_dt, cfg, coeffs, lag):
    """Stage rate function over the 12-variable state.

    ``rows`` is a block of ``KinematicProfiles.stage_rows()`` whose first
    row is at time ``t0``; a stage unpacks the first 14 values of its
    half-step row from the block's buffer into floats.

    The differentiated force balances need the angular accelerations
    (p', q', r'), which follow from the attitude accelerations they feed
    back into: (p', q', r') -> (beta'', alpha'') -> (theta'', psi'') ->
    (p', q', r'). The cascade is seeded with the previous stage's values
    (station values at step starts, held in the 3-slot list ``lag``) and
    applied ``CASCADE_SWEEPS`` times in all.

    The cascade is affine in its seed, so only the first pass runs the
    kernels, at the real state, with every typed check. Each further pass
    is the increment ``delta <- A delta`` through the stage Jacobian A,
    built from one shared set of sines and cosines: the p', q', r' terms
    of ``sideslip_accel`` and ``aoa_accel`` give (beta'', alpha''), the
    second-derivative slots of ``attitude_accels`` give (theta'', psi''),
    and ``body_rate_derivatives`` closes the loop. A passes through the
    2-D attitude-acceleration bottleneck, so its rank is at most 2. Every
    returned rate equals the last sweep of the full cascade up to
    roundoff.

    A single pass is the plain stage-lagged scheme. On the attitude/path
    coupling, not only at trim, A^2 = A (eigenvalues {1, 1, 0}), so k
    sweeps from seed x0 return ``A x0 + c + (k - 1) A c``: ``A c`` is the
    residual of a hidden algebraic constraint and ``CASCADE_SWEEPS - 1``
    a proportional gain on it, not a convergence count, and (I - A) has
    no inverse. Stage states off the coupling (a 1e-2 solve) break
    A^2 = A, so the sweeps stay a loop. The kernels get positional
    arguments in signature order; binding their 19-29 keywords cost
    2-3 us a call.
    """
    mass = cfg.mass
    g = ISA.g
    s_ref = cfg.wing_area
    c_lift0 = coeffs.c_lift0
    c_lift_alpha = coeffs.c_lift_alpha
    k_drag = coeffs.k_drag
    c_drag0 = coeffs.c_drag0
    c_side_beta = coeffs.c_side_beta
    inv_half = 1.0 / half_dt
    row_bytes, unpack_row = rows.strides[0], _STAGE_ROW.unpack_from
    sin, cos = math.sin, math.cos

    body_force = aero.body_force_coefficients
    body_force_rates = aero.body_force_coefficient_rates
    thrust_rate = dynamics.thrust_rate
    sideslip_accel = dynamics.sideslip_accel
    aoa_accel = dynamics.aoa_accel
    attitude_accels = kinematics.attitude_accels
    body_rate_derivs = kinematics.body_rate_derivatives

    def rates(t, state):
        (alpha, beta, theta, psi, thrust,
         alpha_dot, beta_dot, theta_dot, psi_dot, p, q, r) = state
        (v, v_dot, v_ddot, theta_w, theta_w_dot, theta_w_ddot,
         psi_w, psi_w_dot, psi_w_ddot, phi, phi_dot, phi_ddot,
         rho, rho_dot) = unpack_row(rows,
                                    row_bytes * round((t - t0) * inv_half))

        qbar = 0.5 * rho * v * v
        qbar_dot = 0.5 * rho_dot * v * v + rho * v * v_dot

        c_lift = c_lift0 + c_lift_alpha * alpha
        c_lift_dot = c_lift_alpha * alpha_dot
        c_drag = c_drag0 + k_drag * c_lift * c_lift
        c_drag_dot = 2.0 * k_drag * c_lift * c_lift_dot
        c_side = c_side_beta * beta
        c_side_dot = c_side_beta * beta_dot

        c_x, c_y, c_z = body_force(c_drag, c_side, c_lift, alpha, beta)
        c_x_dot, c_y_dot, c_z_dot = body_force_rates(
            c_drag, c_side, c_lift, c_drag_dot, c_side_dot, c_lift_dot,
            alpha, beta, alpha_dot, beta_dot)

        thrust_dot = thrust_rate(
            mass, g, s_ref, qbar, qbar_dot, v_ddot, thrust,
            alpha, beta, theta, phi, alpha_dot, beta_dot, theta_dot, phi_dot,
            c_x, c_y, c_z, c_x_dot, c_y_dot, c_z_dot)

        seed_p, seed_q, seed_r = lag[0], lag[1], lag[2]
        beta_ddot = sideslip_accel(
            mass, g, s_ref, qbar, qbar_dot, v, v_dot, thrust, thrust_dot,
            alpha, beta, theta, phi, alpha_dot, beta_dot, theta_dot, phi_dot,
            p, r, seed_p, seed_r, c_x, c_y, c_z, c_x_dot, c_y_dot, c_z_dot)

        alpha_ddot = aoa_accel(
            mass, g, s_ref, qbar, qbar_dot, v, v_dot, thrust, thrust_dot,
            alpha, beta, theta, phi, alpha_dot, beta_dot, theta_dot, phi_dot,
            p, q, r, seed_p, seed_q, seed_r,
            c_x, c_y, c_z, c_x_dot, c_y_dot, c_z_dot)

        theta_ddot, psi_ddot = attitude_accels(
            alpha, beta, phi, alpha_dot, beta_dot, phi_dot,
            alpha_ddot, beta_ddot, phi_ddot, theta, psi, theta_dot, psi_dot,
            theta_w, psi_w, theta_w_dot, psi_w_dot, theta_w_ddot, psi_w_ddot)

        p_dot, q_dot, r_dot = body_rate_derivs(
            phi, theta, phi_dot, theta_dot, psi_dot,
            phi_ddot, theta_ddot, psi_ddot)

        # the remaining passes are increments through the cascade's
        # Jacobian in its seed (p', q', r')
        sa, ca = sin(alpha), cos(alpha)
        sb, cb = sin(beta), cos(beta)
        sp, cp = sin(phi), cos(phi)
        st, ct = sin(theta), cos(theta)
        cb_sa = cb * sa
        cb_ca = cb * ca
        sb_sa = sb * sa
        tb = sb / cb
        # (theta'', psi'') per unit (alpha'', beta''); the kernels
        # above have checked that neither denominator vanishes
        inv_pitch = 1.0 / (cb_ca * ct + (sb * sp + cb_sa * cp) * st)
        th_a = (cb_sa * st + cb_ca * cp * ct) * inv_pitch
        th_b = (sb * ca * st + (cb * sp - sb_sa * cp) * ct) * inv_pitch
        inv_yaw = 1.0 / (cos(theta_w) * cos(psi_w - psi))
        ps_a = cb_ca * sp * inv_yaw
        ps_b = -(cb * cp + sb_sa * sp) * inv_yaw
        sp_ct = sp * ct
        cp_ct = cp * ct

        dp = p_dot - seed_p
        dq = q_dot - seed_q
        dr = r_dot - seed_r
        for _ in range(CASCADE_SWEEPS - 1):
            d_beta = sa * dp - ca * dr
            d_alpha = dq - tb * (ca * dp + sa * dr)
            d_theta = th_a * d_alpha + th_b * d_beta
            d_psi = ps_a * d_alpha + ps_b * d_beta
            dp = -st * d_psi
            dq = cp * d_theta + sp_ct * d_psi
            dr = cp_ct * d_psi - sp * d_theta
            beta_ddot += d_beta
            alpha_ddot += d_alpha
            theta_ddot += d_theta
            psi_ddot += d_psi
            p_dot += dp
            q_dot += dq
            r_dot += dr

        lag[:] = p_dot, q_dot, r_dot

        return (alpha_dot, beta_dot, theta_dot, psi_dot, thrust_dot,
                alpha_ddot, beta_ddot, theta_ddot, psi_ddot,
                p_dot, q_dot, r_dot)

    return rates


@dataclass
class SolutionHistory:
    """Per-station record of all solved variables plus diagnostics.

    The constraint channels (ground coordinates and bank) and the path
    angles are copied from the setup profiles, never integrated, so they
    reproduce the prescription exactly. ``alpha`` is the procedure value
    (departure from trim); ``alpha_actual`` applies the reporting shift.
    The 18 solved columns, ``alpha`` to ``delta_n`` in ``_RECORD`` order,
    are strided views of one ``(stations, 18)`` record block, not
    separate arrays. A part of a run, as ``march`` yields it, holds the
    consecutive stations ``t`` of ``grid``, the whole run's grid, and
    ``rate_gap`` up to its last station.
    """

    grid: UniformGrid
    maneuver: str
    reference: aero.EquilibriumReference
    t: np.ndarray
    xg: np.ndarray
    yg: np.ndarray
    zg: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    theta_w: np.ndarray
    psi_w: np.ndarray
    delta_l: np.ndarray
    delta_m: np.ndarray
    delta_n: np.ndarray
    thrust: np.ndarray
    alpha_dot: np.ndarray
    beta_dot: np.ndarray
    theta_dot: np.ndarray
    psi_dot: np.ndarray
    p_dot: np.ndarray
    q_dot: np.ndarray
    r_dot: np.ndarray
    stall: np.ndarray
    reverse_thrust: np.ndarray
    rate_gap: float  # max |averaged - direct| angular acceleration, rad/s^2

    @property
    def alpha_actual(self) -> np.ndarray:
        return self.alpha + self.reference.alpha_shift

    def controls(self) -> ControlHistory:
        return ControlHistory(grid=self.grid, delta_l=self.delta_l,
                              delta_m=self.delta_m, delta_n=self.delta_n,
                              thrust=self.thrust)

    def state_at(self, i: int) -> FlightState:
        return FlightState(**{f.name: float(getattr(self, f.name)[i])
                              for f in fields(FlightState)})


# a station's record: state, (p', q', r'), deflections; the march packs
# the first 15, the recovery pass fills the last 3
_RECORD = ("alpha", "beta", "theta", "psi", "thrust",
           "alpha_dot", "beta_dot", "theta_dot", "psi_dot",
           "p", "q", "r", "p_dot", "q_dot", "r_dot",
           "delta_l", "delta_m", "delta_n")
# what the history and the recovery need of the stage table's stations
_KEPT = ("v", "phi", "theta_w", "psi_w", "xg", "yg", "zg")
# the per-station arrays of a part besides its record block's columns
_MARCHED = ("t", *_KEPT, "stall", "reverse_thrust")


def march(spec: TrajectorySpec, cfg: AircraftConfig):
    """Solve the inverse problem a stage block at a time.

    ``setup`` and ``initialize`` run now, so a refused trajectory or
    start raises here; the march itself runs as the returned iterator is
    read. It yields the solution as ``SolutionHistory`` parts in station
    order, one per block of ``KinematicProfiles.stage_rows()``: at most
    ``STATION_BLOCK`` stations, the last part one more. Each part's
    arrays are its own, and each value has the whole run's bits.
    """
    profiles = setup(spec)
    return _march(spec.name, profiles, initialize(profiles, cfg), cfg)


def _march(name, profiles, init, cfg):
    """The parts of ``march``.

    Marches the twelve-variable state with fixed-step RK4; after each
    step the station's angular accelerations are taken as the weighted
    stage average, and the auxiliary rates are re-evaluated algebraically
    at the new station as the next step's k1. The largest gap between
    the averaged and the re-evaluated angular accelerations is the
    running ``rate_gap``. A block's last station is the next block's
    first: its record is carried over, and its part is the next one. The
    march never reads the deflections, so once a block is marched they
    are recovered from the moment balance for its part in one call.
    """
    inertia = dynamics.inertia_system(cfg)
    coeffs = init.reference.coeffs
    grid = profiles.stations
    n, dt, t0 = grid.count, grid.dt, grid.t0

    pack_station = _STATION_RECORD.pack_into
    lag = [0.0, 0.0, 0.0]
    y = init.y0
    head = (*y, 0.0, 0.0, 0.0)  # the first 15 values of station s
    max_gap = 0.0
    s = 0
    for rows in profiles.stage_rows():
        e = s + len(rows) // 2  # the block marches stations s..e
        block = np.empty((e + 1 - s, len(_RECORD)))
        stride = block.strides[0]
        pack_station(block, 0, *head)
        col = dict(zip(_STAGE_COLUMNS, rows[::2].T))
        kept = {k: col[k].copy() for k in _KEPT}
        qbar = aero.dynamic_pressure(col["rho"], col["v"])
        rate_fn = _make_rate_function(rows, t0 + s * dt, 0.5 * dt, cfg,
                                      coeffs, lag)
        if s == 0:
            # station 0: the rates at the initial state, seeded with zero
            # angular accelerations, are step 0's k1
            rates_new = rate_fn(t0, y)
        for i in range(s, e):
            t_n = t0 + i * dt
            try:
                y_new, ks = rk4_step(rate_fn, t_n, y, dt, rates_new)
                k1, k2, k3, k4 = ks
                p_avg = (k1[9] + 2.0 * (k2[9] + k3[9]) + k4[9]) / 6.0
                q_avg = (k1[10] + 2.0 * (k2[10] + k3[10]) + k4[10]) / 6.0
                r_avg = (k1[11] + 2.0 * (k2[11] + k3[11]) + k4[11]) / 6.0

                if not all(map(math.isfinite, y_new)):
                    raise NonFiniteState("integrated state went non-finite")

                # algebraic re-evaluation at the new station (the averaged
                # angular accelerations serve as the lagged values); the
                # same time, state and seed make it the next step's k1,
                # also across a block boundary, whose row both blocks
                # hold, and it leaves in ``lag`` what that k1 would leave
                lag[0], lag[1], lag[2] = p_avg, q_avg, r_avg
                rates_new = rate_fn(t_n + dt, y_new)
                gap = max(abs(rates_new[9] - p_avg),
                          abs(rates_new[10] - q_avg),
                          abs(rates_new[11] - r_avg))
                if gap > max_gap:
                    max_gap = gap
            except FlightMechanicsError as err:
                raise SolverAbort("marching loop", i + 1, err) from err

            pack_station(block, stride * (i + 1 - s), *y_new, p_avg, q_avg,
                         r_avg)
            y = y_new
        head = (*y, p_avg, q_avg, r_avg)
        del rows, col, rate_fn  # the part is built without the stage block

        m = len(block) if e == n - 1 else len(block) - 1  # its stations
        out = dict(zip(_RECORD, block[:m].T))
        # setup (V > 0) and validate_config (the aircraft data) have made
        # every check the recovery makes, so it cannot fail here
        out["delta_l"][:], out["delta_m"][:], out["delta_n"][:] = \
            dynamics.controls_from_angular_accels(
                *(out[k] for k in ("p_dot", "q_dot", "r_dot", "p", "q", "r",
                                   "alpha", "beta")),
                kept["v"][:m], qbar[:m], inertia, coeffs, cfg.wing_area,
                cfg.span_ref, cfg.chord_ref)
        # |alpha_actual| in one temporary: the same bits as
        # ``np.abs(alpha + alpha_shift)``
        alpha_abs = out["alpha"] + init.reference.alpha_shift
        stall = np.abs(alpha_abs, out=alpha_abs) > aero.STALL_ALPHA
        del alpha_abs
        part = SolutionHistory(
            grid=grid, maneuver=name, reference=init.reference,
            t=grid.times(s, s + m), stall=stall,
            reverse_thrust=out["thrust"] < 0.0, rate_gap=max_gap,
            **{k: a[:m] for k, a in kept.items()}, **out)
        del block, kept, qbar, out, stall  # only the part holds them
        yield part
        del part  # the next block is built without this one
        s = e


def solve(spec: TrajectorySpec, cfg: AircraftConfig) -> SolutionHistory:
    """Solve the inverse problem over the whole trajectory: the parts of
    ``march`` gathered into one history, whose 18 solved columns are
    strided views of one ``(n, 18)`` record block."""
    whole, s = None, 0
    for part in march(spec, cfg):
        if whole is None:  # after the first block's stage table is freed
            n = part.grid.count
            whole = replace(
                part, **dict(zip(_RECORD, np.empty((n, len(_RECORD))).T)),
                **{k: np.empty(n, getattr(part, k).dtype) for k in _MARCHED})
        e = s + len(part.t)
        for k in _MARCHED + _RECORD:
            getattr(whole, k)[s:e] = getattr(part, k)
        whole.rate_gap = part.rate_gap
        s = e
        del part  # the next block is built without this one
    return whole


# ----------------------------------------------------------------------
# Step-size study
# ----------------------------------------------------------------------


@dataclass
class PairComparison:
    """Control-history deviation between two step sizes, measured on the
    coarser grid relative to each channel's peak magnitude; every metric
    of a pair with a diverged run is ``inf``."""

    dt_coarse: float
    dt_fine: float
    metrics: dict

    @property
    def worst(self) -> float:
        return max(self.metrics.values())

    @property
    def diverged(self) -> bool:
        return math.isinf(self.worst)


def convergence_study(spec: TrajectorySpec, cfg: AircraftConfig,
                      dts) -> list:
    """Solve at several step sizes and compare the control histories: one
    ``PairComparison`` per pair of step sizes, finest ``dt_fine`` first.

    Histories are compared pairwise on the coarser grid of each pair
    (linear interpolation in time), channel by channel, normalized by
    the larger peak magnitude of the pair. A run whose state goes
    non-finite diverges instead of aborting the study.
    """
    dts = list(dts)
    if len(dts) < 2:
        raise ConfigError([("too_few_step_sizes",
                            "a convergence study needs at least 2 step sizes")])
    if len(set(dts)) < len(dts):
        raise ConfigError([("repeated_step_size",
                            f"step sizes dt = {dts} repeat a value")])
    if spec.analytic is None:
        raise ConfigError([("sampled_step_study",
                            "step-size study needs an analytic maneuver")])

    solutions = {}
    for dt in dts:
        try:
            solutions[dt] = solve(replace(spec, dt=dt), cfg)
        except SolverAbort as err:
            if not isinstance(err.cause, NonFiniteState):
                raise

    channels = ("delta_l", "delta_m", "delta_n", "thrust")
    pairs = []
    for fine, coarse in combinations(sorted(dts), 2):
        # a pair with a diverged run keeps every metric inf
        metrics = dict.fromkeys(channels, math.inf)
        if fine in solutions and coarse in solutions:
            a, b = solutions[coarse], solutions[fine]
            for ch in channels:
                ca = getattr(a, ch)
                cb = np.interp(a.t, b.t, getattr(b, ch))
                peak = max(float(np.max(np.abs(ca))),
                           float(np.max(np.abs(getattr(b, ch)))), 1e-30)
                metrics[ch] = float(np.max(np.abs(ca - cb))) / peak
        pairs.append(PairComparison(dt_coarse=coarse, dt_fine=fine,
                                    metrics=metrics))
    return pairs
