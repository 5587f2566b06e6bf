"""Direct 6-DOF simulation: integrate the equations of motion forward
under given control histories.

Used as the round-trip oracle for the inverse solver. The state is kept
in body axes (velocity components u, v, w rather than wind-axes speed
and airflow angles), deliberately the other formulation than the inverse
path, so a successful round trip cross-validates both. Gravity enters
as the explicit weight resolution along body axes; thrust acts along
the body x axis only.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import aero, dynamics, kinematics
from .atmosphere import density
from .errors import FlightMechanicsError, NonFiniteState, SolverAbort
from .model import ISA, AircraftConfig, FlightState
from .numerics import UniformGrid, rk4_step

__all__ = ["ControlHistory", "ForwardHistory", "simulate"]


@dataclass(frozen=True)
class ControlHistory:
    """Per-station surface deflections (rad) and thrust (N)."""

    grid: UniformGrid
    delta_l: np.ndarray
    delta_m: np.ndarray
    delta_n: np.ndarray
    thrust: np.ndarray


@dataclass
class ForwardHistory:
    """Per-station simulated state of the direct 6-DOF run. The 12 columns
    from ``u`` to ``zg`` are views of one ``(n, 12)`` record block."""

    grid: UniformGrid
    t: np.ndarray
    u: np.ndarray
    v_side: np.ndarray
    w: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    xg: np.ndarray
    yg: np.ndarray
    zg: np.ndarray


# one station of the record block: the 12 states
_STATION_RECORD = struct.Struct("12d")
# two consecutive stations of the control table, each
# (delta_l, delta_m, delta_n, thrust)
_CONTROL_ROWS = struct.Struct("8d")


def simulate(initial: FlightState, controls, cfg: AircraftConfig, coeffs,
             fold=None):
    """Integrate the body-axes equations of motion under the controls.

    The twelve-variable state is (u, v, w, p, q, r, phi, theta, psi,
    x_g, y_g, z_g), from the speed, airflow angles, body rates, attitude
    and ground position of ``initial``, advanced with fixed-step RK4 on
    the control grid; controls are interpolated linearly between
    stations for the half-step stage evaluations. ``coeffs`` is the
    coefficient set flown: a solved ``hist`` flies ``hist.state_at(0)``
    and ``hist.controls()`` with ``hist.reference.coeffs``.

    ``controls`` is a ``ControlHistory``, or an iterator over a run's
    parts in station order on its grid, read as the flight reaches them.
    The flown ``ForwardHistory`` parts go to ``fold``, whose result is
    returned (by default ``next``: the first part, all of a whole run). A
    kernel error or non-finite state raises ``SolverAbort`` at its step.
    """
    if isinstance(controls, ControlHistory):
        controls = iter((controls,))
    return (fold or next)(_flight(initial, controls, cfg, coeffs))


def _flight(initial, controls, cfg, coeffs):
    """The parts of ``simulate``'s flight. A part of stations s..e-1
    stacks its control columns (maybe strided views) into a float64 table,
    32 B a station, with rows s-2, s-1 and e of the parts around it, as
    ``int((t - t0) / dt)`` can round one row low at a step's k1 and lands
    on row i + 1 at its k4. A stage unpacks rows i and i + 1 from the
    table's buffer; a station packs its state into an (e - s, 12) block."""
    inertia = dynamics.inertia_system(cfg)
    part = next(controls)
    grid = part.grid
    n = grid.count
    dt = grid.dt
    t0 = grid.t0

    mass = cfg.mass
    g = ISA.g
    s_ref = cfg.wing_area
    span = cfg.span_ref
    chord = cfg.chord_ref
    c_lift0 = coeffs.c_lift0
    c_lift_alpha = coeffs.c_lift_alpha
    c_drag0 = coeffs.c_drag0
    k_drag = coeffs.k_drag
    c_side_beta = coeffs.c_side_beta

    unpack_rows = _CONTROL_ROWS.unpack_from
    row_bytes = _CONTROL_ROWS.size // 2
    inv_dt = 1.0 / dt
    last = n - 2

    def rates(t, y):
        (u, v_side, w, p, q, r, phi, theta, psi, xg, yg, zg) = y
        x = (t - t0) * inv_dt
        i = int(x)
        if i > last:  # the last step's k4: rows i and i + 1 still exist
            i = last
        frac = x - i
        dl0, dm0, dn0, th0, dl1, dm1, dn1, th1 = unpack_rows(
            table, row_bytes * (i - base))
        delta_l = dl0 + (dl1 - dl0) * frac
        delta_m = dm0 + (dm1 - dm0) * frac
        delta_n = dn0 + (dn1 - dn0) * frac
        thrust = th0 + (th1 - th0) * frac

        v, alpha, beta = kinematics.airflow_from_body(u, v_side, w)
        rho = density(zg)
        qbar = 0.5 * rho * v * v

        c_lift = c_lift0 + c_lift_alpha * alpha
        c_drag = c_drag0 + k_drag * c_lift * c_lift
        c_side = c_side_beta * beta
        body = aero.body_force_coefficients(c_drag, c_side, c_lift,
                                            alpha, beta)
        moments = aero.moment_coefficients(alpha, beta, p, q, r, v, span,
                                           delta_l, delta_m, delta_n, coeffs)
        fx, fy, fz, ml, mm, mn = aero.dimensionalize(qbar, s_ref, chord,
                                                     body, moments)

        st, ct = math.sin(theta), math.cos(theta)
        sp, cp = math.sin(phi), math.cos(phi)
        u_dot = (fx + thrust - mass * g * st) / mass + v_side * r - w * q
        v_dot = (fy + mass * g * ct * sp) / mass + w * p - u * r
        w_dot = (fz + mass * g * ct * cp) / mass + u * q - v_side * p

        p_dot, q_dot, r_dot = dynamics.angular_accels_forward(
            p, q, r, ml, mm, mn, inertia)
        phi_dot, theta_dot, psi_dot = kinematics.euler_rates_from_body(
            phi, theta, p, q, r)
        theta_w, psi_w = kinematics.path_angles_from_attitude(
            alpha, beta, phi, theta, psi)
        xg_dot, yg_dot, zg_dot = kinematics.ground_velocity_from_path(
            v, theta_w, psi_w)
        return (u_dot, v_dot, w_dot, p_dot, q_dot, r_dot,
                phi_dot, theta_dot, psi_dot, xg_dot, yg_dot, zg_dot)

    u0, v0, w0 = kinematics.velocity_triplet(initial.v, initial.alpha,
                                             initial.beta)
    y = (u0, v0, w0, initial.p, initial.q, initial.r,
         initial.phi, initial.theta, initial.psi,
         initial.xg, initial.yg, initial.zg)

    names = ("u", "v_side", "w", "p", "q", "r", "phi", "theta", "psi",
             "xg", "yg", "zg")
    pack_station = _STATION_RECORD.pack_into
    carry = np.empty((0, 4))  # rows s-2 and s-1 of the table
    s = 0
    while part is not None:
        ahead = next(controls, None)
        c, k = len(carry), len(part.thrust)
        e = s + k
        rows = np.empty((c + k + (ahead is not None), 4))
        rows[:c] = carry
        np.stack((part.delta_l, part.delta_m, part.delta_n, part.thrust),
                 axis=1, out=rows[c:c + k])
        if ahead is not None:
            rows[-1] = (ahead.delta_l[0], ahead.delta_m[0],
                        ahead.delta_n[0], ahead.thrust[0])
        # row 0 is station base; struct reads a memoryview the fastest
        table, base = memoryview(rows), s - c
        carry = rows[max(c + k - 2, 0):c + k]
        block = np.empty((k, len(names)))
        if s == 0:
            pack_station(block, 0, *y)
        for i in range(max(s - 1, 0), e - 1):
            t_n = t0 + i * dt
            try:
                y, _ = rk4_step(rates, t_n, y, dt)
                if not all(map(math.isfinite, y)):
                    raise NonFiniteState("forward state went non-finite")
                pack_station(block, _STATION_RECORD.size * (i + 1 - s), *y)
            except FlightMechanicsError as err:
                raise SolverAbort("forward simulation", i + 1, err) from err
        yield ForwardHistory(grid=grid, t=grid.times(s, e),
                             **dict(zip(names, block.T)))
        part, s = ahead, e
