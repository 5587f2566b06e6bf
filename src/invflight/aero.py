"""Aerodynamic coefficient build-up and dimensionalization.

Force coefficients are built in the wind-axes sense (lift, drag, side
force) and rotated into body axes through alpha and beta. Moment
coefficients are affine in the surface deflections. The equilibrium
lift reference shifts the zero of the lift curve to the trim point so
that the solved angle of attack measures the departure from equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import BeyondStall, ZeroVelocity
from .model import ISA, AeroCoefficients, AircraftConfig

__all__ = [
    "STALL_ALPHA",
    "EquilibriumReference",
    "dynamic_pressure",
    "drag_coefficient",
    "body_force_coefficients",
    "body_force_coefficient_rates",
    "moment_coefficients",
    "dimensionalize",
    "equilibrium_reference",
]

# Linear lift is unreliable past roughly this angle of attack.
STALL_ALPHA = math.radians(15.0)


@dataclass(frozen=True)
class EquilibriumReference:
    """Lift-curve reference shifted to the trim (lift = weight) point.

    ``coeffs`` is the aircraft coefficient set with the lift-curve zero
    moved there (``c_lift0 = c_lift0_equib``), so that an angle of attack
    measured with it is the departure from equilibrium. alpha_shift
    converts that (procedure) angle of attack into the conventional one
    measured from the zero-lift axis origin:
    alpha_actual = alpha_procedure + alpha_equib - |alpha_zero_lift|.
    """

    qbar: float            # dynamic pressure of the trim point, Pa
    c_lift0_equib: float   # lift coefficient carrying the weight at trim
    alpha_equib: float     # trim angle of attack, rad
    alpha_zero_lift: float  # angle of zero lift of the actual airfoil, rad
    coeffs: AeroCoefficients  # the aircraft set, c_lift0 = c_lift0_equib

    @property
    def alpha_shift(self) -> float:
        return self.alpha_equib - abs(self.alpha_zero_lift)


def dynamic_pressure(rho: float, v: float) -> float:
    """0.5 * rho * V^2 (Pa)."""
    return 0.5 * rho * v * v


def drag_coefficient(c_lift: float, coeffs: AeroCoefficients) -> float:
    """Drag polar: parasite drag plus the lift-quadratic term."""
    return coeffs.c_drag0 + coeffs.k_drag * c_lift * c_lift


def body_force_coefficients(c_drag, c_side, c_lift, alpha, beta):
    """Rotate (drag, side, lift) into body-axes force coefficients.

    Returns (c_x, c_y, c_z). At alpha = beta = 0 this degenerates to
    (-c_drag, c_side, -c_lift).
    """
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    c_x = -c_drag * ca * cb - c_side * ca * sb + c_lift * sa
    c_y = -c_drag * sb + c_side * cb
    c_z = -c_drag * sa * cb - c_side * sa * sb - c_lift * ca
    return c_x, c_y, c_z


def body_force_coefficient_rates(c_drag, c_side, c_lift,
                                 c_drag_dot, c_side_dot, c_lift_dot,
                                 alpha, beta, alpha_dot, beta_dot):
    """Time derivatives of the body-axes force coefficients.

    Chain rule applied to body_force_coefficients for given coefficient
    rates and angle rates. Returns (c_x_dot, c_y_dot, c_z_dot).
    """
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    # derivatives of the trig products
    d_ca_cb = -sa * alpha_dot * cb - ca * sb * beta_dot
    d_ca_sb = -sa * alpha_dot * sb + ca * cb * beta_dot
    d_sa_cb = ca * alpha_dot * cb - sa * sb * beta_dot
    d_sa_sb = ca * alpha_dot * sb + sa * cb * beta_dot

    c_x_dot = (-c_drag_dot * ca * cb - c_drag * d_ca_cb
               - c_side_dot * ca * sb - c_side * d_ca_sb
               + c_lift_dot * sa + c_lift * ca * alpha_dot)
    c_y_dot = (-c_drag_dot * sb - c_drag * cb * beta_dot
               + c_side_dot * cb - c_side * sb * beta_dot)
    c_z_dot = (-c_drag_dot * sa * cb - c_drag * d_sa_cb
               - c_side_dot * sa * sb - c_side * d_sa_sb
               - c_lift_dot * ca + c_lift * sa * alpha_dot)
    return c_x_dot, c_y_dot, c_z_dot


def moment_coefficients(alpha, beta, p, q, r, v, span,
                        delta_l, delta_m, delta_n,
                        coeffs: AeroCoefficients):
    """Moment coefficient build-up, affine in the deflections.

    Roll and yaw carry sideslip, the rate terms p*span/V and r*span/V,
    and both lateral surfaces; pitch carries alpha, the bare pitch rate
    and the elevator. Requires V > 0.

    Returns (c_roll, c_pitch, c_yaw).
    """
    pb_v = p * span / v
    rb_v = r * span / v
    c_roll = (coeffs.c_roll_beta * beta + coeffs.c_roll_p * pb_v
              + coeffs.c_roll_r * rb_v + coeffs.c_roll_dl * delta_l
              + coeffs.c_roll_dn * delta_n)
    c_pitch = (coeffs.c_pitch0 + coeffs.c_pitch_alpha * alpha
               + coeffs.c_pitch_q * q + coeffs.c_pitch_dm * delta_m)
    c_yaw = (coeffs.c_yaw_beta * beta + coeffs.c_yaw_p * pb_v
             + coeffs.c_yaw_r * rb_v + coeffs.c_yaw_dl * delta_l
             + coeffs.c_yaw_dn * delta_n)
    return c_roll, c_pitch, c_yaw


def dimensionalize(qbar, s_ref, chord_ref, body_coeffs, moment_coeffs):
    """Convert coefficients to forces (N) and moments (N m).

    Forces scale with qbar*S; all three moments scale additionally with
    the longitudinal reference length. Returns (x, y, z, l, m, n).
    """
    c_x, c_y, c_z = body_coeffs
    c_roll, c_pitch, c_yaw = moment_coeffs
    qs = qbar * s_ref
    qsd = qs * chord_ref
    return (c_x * qs, c_y * qs, c_z * qs,
            c_roll * qsd, c_pitch * qsd, c_yaw * qsd)


def equilibrium_reference(cfg: AircraftConfig, rho: float,
                          v: float) -> EquilibriumReference:
    """The 1-g trim point of the aircraft at air density ``rho`` and
    speed ``v``, and its lift curve shifted there.

    The reference lift coefficient carries the weight at the dynamic
    pressure; the trim angle of attack follows from the lift slope. A
    dynamic pressure of zero (``ZeroVelocity``) and a trim angle past
    ``STALL_ALPHA``, where the linear lift curve ends (``BeyondStall``),
    are refused.
    """
    aero = cfg.aero
    qbar = dynamic_pressure(rho, v)
    if not qbar > 0.0:
        raise ZeroVelocity(f"dynamic pressure {qbar} Pa at {v} m/s "
                           "carries no weight")
    c_lift0_equib = cfg.mass * ISA.g / (qbar * cfg.wing_area)
    alpha_equib = c_lift0_equib / aero.c_lift_alpha
    if abs(alpha_equib) > STALL_ALPHA:
        raise BeyondStall("trim alpha %.4g deg is beyond stall"
                          % math.degrees(alpha_equib))
    return EquilibriumReference(
        qbar=qbar, c_lift0_equib=c_lift0_equib, alpha_equib=alpha_equib,
        alpha_zero_lift=-aero.c_lift0 / aero.c_lift_alpha,
        coeffs=replace(aero, c_lift0=c_lift0_equib))
