"""Wind-axes translational force equations and body-axes moment equations.

The translational channel is solved in wind axes, which keeps the large
rigid-rotation terms out of the numerically sensitive accelerations:
the axial balance yields thrust, the lateral and normal balances yield
the sideslip and angle-of-attack rates. Their hard-coded time
derivatives supply the marching scheme with thrust rate and the airflow
angle accelerations, including the density chain term for non-level
trajectories.

The rotational channel is formulated in body axes where the inertia
entries are constant. It runs in both directions: angular accelerations
from applied moments (forward simulation) and required moments, hence
surface deflections, from angular accelerations (inverse solution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAxialProjection,
    SideslipSingularity,
    SingularControlMatrix,
    SingularInertia,
    ZeroVelocity,
)
from .model import AeroCoefficients, AircraftConfig

__all__ = [
    "InertiaSystem",
    "inertia_system",
    "gyro_terms",
    "angular_accels_forward",
    "controls_from_angular_accels",
    "thrust_from_force_balance",
    "thrust_rate",
    "sideslip_rate",
    "sideslip_accel",
    "aoa_rate",
    "aoa_accel",
]

_AXIAL_TOL = 1e-12


@dataclass(frozen=True)
class InertiaSystem:
    """Precomputed inertia couplings for the moment equations.

    ``coupling`` maps the gyroscopic-plus-moment terms to angular
    accelerations (scaled by 1/t0); ``coupling_inv`` is its exact
    inverse scaled by t0, recomputed once per aircraft. Both directions
    therefore use the same matrix and are mutually consistent by
    construction.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    t0: float
    coupling: tuple
    coupling_inv: tuple


def inertia_system(cfg: AircraftConfig) -> InertiaSystem:
    """Build the inertia couplings for an aircraft.

    The coefficient matrix carries an asymmetric roll-row third entry,
    f*d - e*b. That is not the adjugate entry f*d + e*b, so the matrix
    is not the exact inverse (scaled by t0) of the inertia tensor: with
    i_zx != 0 the roll acceleration departs from the textbook Euler
    equation. For zero i_yz and i_xy the difference is a few-percent
    roll/yaw cross coupling. Forward and inverse stay mutually
    consistent because the inverse map is derived from the same matrix.
    """
    a, b, c = cfg.i_roll, cfg.i_pitch, cfg.i_yaw
    d, e, f = cfg.i_yz, cfg.i_zx, cfg.i_xy
    t0 = cfg.inertia_determinant
    if abs(t0) <= 1e-9 * abs(a * b * c):
        raise SingularInertia("inertia coupling determinant is zero")
    coupling = (
        (b * c - d * d, f * c + e * d, f * d - e * b),
        (f * c + e * d, a * c - e * e, a * d + e * f),
        (f * d + b * e, a * d + f * e, a * b - f * f),
    )
    k = np.asarray(coupling, dtype=float)
    det = float(np.linalg.det(k))
    if abs(det) <= 1e-12 * max(abs(t0) ** 2, 1e-30):
        raise SingularInertia("inertia coupling matrix is not invertible")
    inv = np.linalg.inv(k) * t0
    return InertiaSystem(a=a, b=b, c=c, d=d, e=e, f=f, t0=t0,
                         coupling=tuple(map(tuple, coupling)),
                         coupling_inv=tuple(map(tuple, inv.tolist())))


def gyro_terms(p, q, r, inertia: InertiaSystem):
    """Rate-only (gyroscopic) parts of the three moment aggregates."""
    a, b, c = inertia.a, inertia.b, inertia.c
    d, e, f = inertia.d, inertia.e, inertia.f
    g1 = (b - c) * q * r + (e * q - f * r) * p + (q * q - r * r) * d
    g2 = (c - a) * r * p + (f * r - d * p) * q + (r * r - p * p) * e
    g3 = (a - b) * p * q + (d * p - e * q) * r + (p * p - q * q) * f
    return g1, g2, g3


def angular_accels_forward(p, q, r, roll_moment, pitch_moment, yaw_moment,
                           inertia: InertiaSystem):
    """Angular accelerations from applied moments (forward direction)."""
    g1, g2, g3 = gyro_terms(p, q, r, inertia)
    t1 = g1 + roll_moment
    t2 = g2 + pitch_moment
    t3 = g3 + yaw_moment
    k = inertia.coupling
    inv_t0 = 1.0 / inertia.t0
    p_dot = (k[0][0] * t1 + k[0][1] * t2 + k[0][2] * t3) * inv_t0
    q_dot = (k[1][0] * t1 + k[1][1] * t2 + k[1][2] * t3) * inv_t0
    r_dot = (k[2][0] * t1 + k[2][1] * t2 + k[2][2] * t3) * inv_t0
    return p_dot, q_dot, r_dot


def controls_from_angular_accels(p_dot, q_dot, r_dot, p, q, r,
                                 alpha, beta, v, qbar,
                                 inertia: InertiaSystem,
                                 coeffs: AeroCoefficients,
                                 s_ref, span_ref, chord_ref):
    """Surface deflections that realize the given angular accelerations.

    Inverts the moment equations for the three moment aggregates,
    removes the gyroscopic parts to obtain the required aerodynamic
    moments, nondimensionalizes, strips the non-control contributions,
    and solves the elevator scalar and the aileron/rudder 2x2 system.

    State arguments are scalars or equal-shape arrays (one entry per
    station); a check fails if any entry fails it.

    Returns (delta_l, delta_m, delta_n) in radians.
    """
    if np.any(np.less_equal(v, 0.0)):
        raise ZeroVelocity("control recovery needs V > 0")
    qsd = qbar * s_ref * chord_ref
    if np.any(np.less_equal(qsd, 0.0)):
        raise SingularControlMatrix(
            "dynamic pressure * reference area * length must be positive")

    ki = inertia.coupling_inv
    t1 = ki[0][0] * p_dot + ki[0][1] * q_dot + ki[0][2] * r_dot
    t2 = ki[1][0] * p_dot + ki[1][1] * q_dot + ki[1][2] * r_dot
    t3 = ki[2][0] * p_dot + ki[2][1] * q_dot + ki[2][2] * r_dot
    g1, g2, g3 = gyro_terms(p, q, r, inertia)

    c_roll_req = (t1 - g1) / qsd
    c_pitch_req = (t2 - g2) / qsd
    c_yaw_req = (t3 - g3) / qsd

    if coeffs.c_pitch_dm == 0.0:
        raise SingularControlMatrix("elevator effectiveness is zero")
    delta_m = (c_pitch_req - coeffs.c_pitch0 - coeffs.c_pitch_alpha * alpha
               - coeffs.c_pitch_q * q) / coeffs.c_pitch_dm

    pb_v = p * span_ref / v
    rb_v = r * span_ref / v
    rhs_roll = c_roll_req - (coeffs.c_roll_beta * beta
                             + coeffs.c_roll_p * pb_v
                             + coeffs.c_roll_r * rb_v)
    rhs_yaw = c_yaw_req - (coeffs.c_yaw_beta * beta
                           + coeffs.c_yaw_p * pb_v
                           + coeffs.c_yaw_r * rb_v)
    det = coeffs.control_determinant
    if det == 0.0:
        raise SingularControlMatrix(
            "aileron/rudder effectiveness determinant is zero")
    delta_l = (rhs_roll * coeffs.c_yaw_dn - rhs_yaw * coeffs.c_roll_dn) / det
    delta_n = (coeffs.c_roll_dl * rhs_yaw - coeffs.c_yaw_dl * rhs_roll) / det
    return delta_l, delta_m, delta_n


# ----------------------------------------------------------------------
# Wind-axes translational channel.
#
# Gravity projections used below (weight acts along +z_g), obtained by
# rotating the body-axes weight components through alpha and beta:
#   on x_w: ct*sp*sb - st*ca*cb + ct*cp*sa*cb
#           (identically -sin(theta_w); enters the axial balance as -mg*W1)
#   on y_w: ct*sp*cb + st*ca*sb - sa*ct*cp*sb   (enters with +mg)
#   on z_w: st*sa + ct*cp*ca                    (enters with +mg)
# ----------------------------------------------------------------------


def thrust_from_force_balance(*, mass, g, s_ref, qbar, v_dot,
                              alpha, beta, theta, phi, c_x, c_y, c_z):
    """Thrust from the axial (flight-path) force balance."""
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    axial = ca * cb
    if abs(axial) < _AXIAL_TOL:
        raise DegenerateAxialProjection(
            "cos(alpha)*cos(beta) ~ 0; thrust unresolvable")
    f1 = c_x * ca * cb + c_y * sb + c_z * sa * cb
    w1 = ct * sp * sb - st * ca * cb + ct * cp * sa * cb
    return (-qbar * s_ref * f1 - mass * g * w1 + mass * v_dot) / axial


def thrust_rate(mass, g, s_ref, qbar, qbar_dot, v_ddot, thrust,
                alpha, beta, theta, phi,
                alpha_dot, beta_dot, theta_dot, phi_dot,
                c_x, c_y, c_z, c_x_dot, c_y_dot, c_z_dot):
    """Time derivative of the axial force balance, solved for the
    thrust rate. ``thrust`` must satisfy the balance itself."""
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    axial = ca * cb
    if abs(axial) < _AXIAL_TOL:
        raise DegenerateAxialProjection(
            "cos(alpha)*cos(beta) ~ 0; thrust rate unresolvable")

    d_ca_cb = -sa * alpha_dot * cb - ca * sb * beta_dot
    d_sa_cb = ca * alpha_dot * cb - sa * sb * beta_dot
    d_ct_sp = -st * theta_dot * sp + ct * cp * phi_dot
    d_ct_cp = -st * theta_dot * cp - ct * sp * phi_dot

    f1 = c_x * ca * cb + c_y * sb + c_z * sa * cb
    f1_dot = (c_x_dot * ca * cb + c_x * d_ca_cb
              + c_y_dot * sb + c_y * cb * beta_dot
              + c_z_dot * sa * cb + c_z * d_sa_cb)
    w1_dot = (d_ct_sp * sb + ct * sp * cb * beta_dot
              - ct * theta_dot * ca * cb - st * d_ca_cb
              + d_ct_cp * sa * cb + ct * cp * d_sa_cb)
    num_dot = (-qbar_dot * s_ref * f1 - qbar * s_ref * f1_dot
               - mass * g * w1_dot + mass * v_ddot)
    return (num_dot - thrust * d_ca_cb) / axial


def sideslip_rate(*, mass, g, s_ref, qbar, v, thrust,
                  alpha, beta, theta, phi, p, r, c_x, c_y, c_z):
    """Sideslip rate from the lateral (flight-path) force balance."""
    if v <= 0.0:
        raise ZeroVelocity("sideslip rate needs V > 0")
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    w2 = ct * sp * cb + st * ca * sb
    f2 = c_y * cb - c_x * ca * sb - c_z * sa * sb
    r2 = -r * ca + p * sa
    w3 = sa * ct * cp * sb
    rhs = (mass * g * w2 - thrust * ca * sb + qbar * s_ref * f2
           + mass * v * r2 - mass * g * w3)
    return rhs / (mass * v)


def sideslip_accel(mass, g, s_ref, qbar, qbar_dot, v, v_dot,
                   thrust, thrust_dot, alpha, beta, theta, phi,
                   alpha_dot, beta_dot, theta_dot, phi_dot,
                   p, r, p_dot, r_dot, c_x, c_y, c_z,
                   c_x_dot, c_y_dot, c_z_dot):
    """Time derivative of the lateral force balance, solved for the
    sideslip acceleration."""
    if v <= 0.0:
        raise ZeroVelocity("sideslip acceleration needs V > 0")
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)

    d_ca_sb = -sa * alpha_dot * sb + ca * cb * beta_dot
    d_sa_sb = ca * alpha_dot * sb + sa * cb * beta_dot
    d_ct_sp = -st * theta_dot * sp + ct * cp * phi_dot
    d_ct_cp = -st * theta_dot * cp - ct * sp * phi_dot

    f2 = c_y * cb - c_x * ca * sb - c_z * sa * sb
    r2 = -r * ca + p * sa

    w2_dot = (d_ct_sp * cb - ct * sp * sb * beta_dot
              + ct * theta_dot * ca * sb + st * d_ca_sb)
    f2_dot = (c_y_dot * cb - c_y * sb * beta_dot
              - c_x_dot * ca * sb - c_x * d_ca_sb
              - c_z_dot * sa * sb - c_z * d_sa_sb)
    r2_dot = (-r_dot * ca + r * sa * alpha_dot
              + p_dot * sa + p * ca * alpha_dot)
    w3_dot = (ca * alpha_dot * ct * cp * sb + sa * d_ct_cp * sb
              + sa * ct * cp * cb * beta_dot)

    rhs_dot = (mass * g * w2_dot
               - thrust_dot * ca * sb - thrust * d_ca_sb
               + qbar_dot * s_ref * f2 + qbar * s_ref * f2_dot
               + mass * v_dot * r2 + mass * v * r2_dot
               - mass * g * w3_dot)
    return (rhs_dot - mass * v_dot * beta_dot) / (mass * v)


def aoa_rate(*, mass, g, s_ref, qbar, v, thrust,
             alpha, beta, theta, phi, p, q, r, c_x, c_y, c_z):
    """Angle-of-attack rate from the normal (flight-path) force balance."""
    if v <= 0.0:
        raise ZeroVelocity("angle-of-attack rate needs V > 0")
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    if abs(cb) < _AXIAL_TOL:
        raise SideslipSingularity("cos(beta) ~ 0")
    st, ct = math.sin(theta), math.cos(theta)
    cp = math.cos(phi)
    w4 = st * sa + ct * cp * ca
    r3 = q * cb - r * sb * sa - p * sb * ca
    rhs = (mass * g * w4 + qbar * s_ref * c_z * ca
           - (thrust + qbar * s_ref * c_x) * sa + mass * v * r3)
    return rhs / (mass * v * cb)


def aoa_accel(mass, g, s_ref, qbar, qbar_dot, v, v_dot,
              thrust, thrust_dot, alpha, beta, theta, phi,
              alpha_dot, beta_dot, theta_dot, phi_dot,
              p, q, r, p_dot, q_dot, r_dot,
              c_x, c_y, c_z, c_x_dot, c_y_dot, c_z_dot):
    """Time derivative of the normal force balance, solved for the
    angle-of-attack acceleration."""
    if v <= 0.0:
        raise ZeroVelocity("angle-of-attack acceleration needs V > 0")
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    if abs(cb) < _AXIAL_TOL:
        raise SideslipSingularity("cos(beta) ~ 0")
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)

    d_ct_cp = -st * theta_dot * cp - ct * sp * phi_dot
    d_sb_sa = cb * beta_dot * sa + sb * ca * alpha_dot
    d_sb_ca = cb * beta_dot * ca - sb * sa * alpha_dot

    r3 = q * cb - r * sb * sa - p * sb * ca
    w4_dot = (ct * theta_dot * sa + st * ca * alpha_dot
              + d_ct_cp * ca - ct * cp * sa * alpha_dot)
    r3_dot = (q_dot * cb - q * sb * beta_dot
              - r_dot * sb * sa - r * d_sb_sa
              - p_dot * sb * ca - p * d_sb_ca)

    rhs_dot = (mass * g * w4_dot
               + qbar_dot * s_ref * c_z * ca + qbar * s_ref * c_z_dot * ca
               - qbar * s_ref * c_z * sa * alpha_dot
               - (thrust_dot + qbar_dot * s_ref * c_x
                  + qbar * s_ref * c_x_dot) * sa
               - (thrust + qbar * s_ref * c_x) * ca * alpha_dot
               + mass * v_dot * r3 + mass * v * r3_dot)
    return (rhs_dot - mass * v_dot * alpha_dot * cb
            + mass * v * alpha_dot * sb * beta_dot) / (mass * v * cb)

