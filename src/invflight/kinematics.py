"""Angle, rate and velocity transformations among body, wind, local-level
and ground frames, with the analytic time derivatives the marching scheme
needs.

The attitude/path coupling relates the Euler attitude (phi, theta, psi)
to the flight-path direction (theta_w, psi_w) through alpha and beta:

    cos(theta_w) sin(psi_w - psi) = sin(beta) cos(phi)
                                    - cos(beta) sin(alpha) sin(phi)
    sin(theta_w) = cos(beta) cos(alpha) sin(theta)
                   - (sin(beta) sin(phi)
                      + cos(beta) sin(alpha) cos(phi)) cos(theta)

Its first and second time derivatives are hard-coded in closed form
(attitude_rates / attitude_accels below); they are exercised against
finite-difference oracles in the test suite.
"""

from __future__ import annotations

import math

from .errors import (
    DegenerateCoefficient,
    GimbalSingularity,
    NoSolution,
    VerticalFlight,
    ZeroVelocity,
)

__all__ = [
    "body_rates_from_euler",
    "euler_rates_from_body",
    "body_rate_derivatives",
    "ground_velocity_from_path",
    "path_angles_from_attitude",
    "attitude_rates",
    "attitude_accels",
    "velocity_triplet",
    "airflow_from_body",
]

_GIMBAL_TOL = 1e-9


def body_rates_from_euler(phi, theta, phi_dot, theta_dot, psi_dot):
    """Body angular rates (p, q, r) from Euler angle rates."""
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    p = phi_dot - st * psi_dot
    q = sp * ct * psi_dot + cp * theta_dot
    r = cp * ct * psi_dot - sp * theta_dot
    return p, q, r


def euler_rates_from_body(phi, theta, p, q, r):
    """Euler angle rates from body rates; exact inverse of
    body_rates_from_euler away from the gimbal singularity."""
    sp, cp = math.sin(phi), math.cos(phi)
    ct = math.cos(theta)
    if abs(ct) < _GIMBAL_TOL:
        raise GimbalSingularity(
            f"pitch {math.degrees(theta):.3f} deg: cos(theta) ~ 0")
    psi_dot = (sp * q + cp * r) / ct
    theta_dot = cp * q - sp * r
    phi_dot = p + math.sin(theta) * psi_dot
    return phi_dot, theta_dot, psi_dot


def body_rate_derivatives(phi, theta, phi_dot, theta_dot, psi_dot,
                          phi_ddot, theta_ddot, psi_ddot):
    """Time derivatives (p_dot, q_dot, r_dot) of the body rates.

    Chain rule applied to body_rates_from_euler.
    """
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    p_dot = phi_ddot - ct * theta_dot * psi_dot - st * psi_ddot
    q_dot = ((cp * phi_dot * ct - sp * st * theta_dot) * psi_dot
             + sp * ct * psi_ddot - sp * phi_dot * theta_dot
             + cp * theta_ddot)
    r_dot = ((-sp * phi_dot * ct - cp * st * theta_dot) * psi_dot
             + cp * ct * psi_ddot - cp * phi_dot * theta_dot
             - sp * theta_ddot)
    return p_dot, q_dot, r_dot


def ground_velocity_from_path(v, theta_w, psi_w):
    """Ground-axes velocity components from speed and path angles."""
    ctw = math.cos(theta_w)
    return (v * ctw * math.cos(psi_w),
            v * ctw * math.sin(psi_w),
            -v * math.sin(theta_w))


def velocity_triplet(v, alpha, beta):
    """Body-axes velocity components (u, v_side, w) from V, alpha, beta."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    return v * ca * cb, v * sb, v * sa * cb


def airflow_from_body(u, v_side, w):
    """Speed, angle of attack and sideslip from body-axes velocity."""
    v = math.sqrt(u * u + v_side * v_side + w * w)
    if v <= 0.0:
        raise ZeroVelocity("velocity magnitude is zero")
    alpha = math.atan2(w, u)
    s = v_side / v
    s = s if s > -1.0 else -1.0  # min(1.0, max(-1.0, s)) without calls
    return v, alpha, math.asin(s if s < 1.0 else 1.0)


# ----------------------------------------------------------------------
# Attitude/path coupling and its time derivatives.
#
# The two coupling relations are written through three trig aggregates:
#   lat  = sin(beta) cos(phi) - cos(beta) sin(alpha) sin(phi)
#   vert = sin(beta) sin(phi) + cos(beta) sin(alpha) cos(phi)
#   ax   = cos(beta) cos(alpha)
# so that
#   cos(theta_w) sin(psi_w - psi) = lat
#   sin(theta_w) = ax sin(theta) - vert cos(theta)
# Each aggregate and its first two time derivatives are assembled by the
# chain and product rules from (value, d/dt, d2/dt2) of the individual
# trig factors.
# ----------------------------------------------------------------------


def _aggregates(alpha, beta, phi, alpha_dot, beta_dot, phi_dot,
                alpha_ddot, beta_ddot, phi_ddot):
    """(lat, lat', lat'', vert, vert', vert'', ax, ax', ax'')."""
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    sp, cp = math.sin(phi), math.cos(phi)
    # first and second derivatives of each trig factor
    sa1 = ca * alpha_dot
    sa2 = ca * alpha_ddot - sa * alpha_dot * alpha_dot
    ca1 = -sa * alpha_dot
    ca2 = -sa * alpha_ddot - ca * alpha_dot * alpha_dot
    sb1 = cb * beta_dot
    sb2 = cb * beta_ddot - sb * beta_dot * beta_dot
    cb1 = -sb * beta_dot
    cb2 = -sb * beta_ddot - cb * beta_dot * beta_dot
    sp1 = cp * phi_dot
    sp2 = cp * phi_ddot - sp * phi_dot * phi_dot
    cp1 = -sp * phi_dot
    cp2 = -sp * phi_ddot - cp * phi_dot * phi_dot
    # the product cos(beta) sin(alpha)
    m0 = cb * sa
    m1 = cb1 * sa + cb * sa1
    m2 = cb2 * sa + 2.0 * cb1 * sa1 + cb * sa2
    return (sb * cp - m0 * sp,
            (sb1 * cp + sb * cp1) - (m1 * sp + m0 * sp1),
            ((sb2 * cp + 2.0 * sb1 * cp1 + sb * cp2)
             - (m2 * sp + 2.0 * m1 * sp1 + m0 * sp2)),
            sb * sp + m0 * cp,
            (sb1 * sp + sb * sp1) + (m1 * cp + m0 * cp1),
            ((sb2 * sp + 2.0 * sb1 * sp1 + sb * sp2)
             + (m2 * cp + 2.0 * m1 * cp1 + m0 * cp2)),
            cb * ca,
            cb1 * ca + cb * ca1,
            cb2 * ca + 2.0 * cb1 * ca1 + cb * ca2)


def path_angles_from_attitude(alpha, beta, phi, theta, psi):
    """Flight-path angles implied by the attitude and airflow angles.

    For alpha = beta = 0 this returns exactly (theta, psi) regardless of
    bank. The azimuth uses the arcsine branch, so the heading offset
    |psi_w - psi| must stay below 90 deg.
    """
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    sp, cp = math.sin(phi), math.cos(phi)
    cb_sa = cb * sa
    lat = sb * cp - cb_sa * sp
    vert = sb * sp + cb_sa * cp
    ax = cb * ca
    st, ct = math.sin(theta), math.cos(theta)
    s = ax * st - vert * ct
    s = s if s > -1.0 else -1.0  # clamped inline, as in airflow_from_body
    theta_w = math.asin(s if s < 1.0 else 1.0)
    ctw = math.cos(theta_w)
    if ctw < _GIMBAL_TOL:
        raise VerticalFlight("flight path is vertical; azimuth undefined")
    arg = lat / ctw
    if abs(arg) > 1.0 + 1e-12:
        raise NoSolution("no heading satisfies the lateral coupling")
    arg = arg if arg > -1.0 else -1.0
    psi_w = psi + math.asin(arg if arg < 1.0 else 1.0)
    return theta_w, psi_w


def attitude_rates(*, alpha, beta, phi, alpha_dot, beta_dot, phi_dot,
                   theta, psi, theta_w, psi_w, theta_w_dot, psi_w_dot):
    """Pitch and heading rates from the differentiated coupling relations.

    The vertical relation is solved for theta_dot, the lateral one for
    psi_dot; everything else (airflow angles, bank, path angles and all
    their rates) must be known.
    """
    lat, lat1, _, vert, vert1, _, ax, ax1, _ = _aggregates(
        alpha, beta, phi, alpha_dot, beta_dot, phi_dot, 0, 0, 0)
    st, ct = math.sin(theta), math.cos(theta)
    stw, ctw = math.sin(theta_w), math.cos(theta_w)

    denom = ax * ct + vert * st
    if abs(denom) < _GIMBAL_TOL:
        raise DegenerateCoefficient(
            "pitch-rate coefficient vanished in the vertical coupling")
    theta_dot = (ctw * theta_w_dot - ax1 * st + vert1 * ct) / denom

    d = psi_w - psi
    sd, cd = math.sin(d), math.cos(d)
    ccd = ctw * cd
    if ccd < _GIMBAL_TOL:
        raise DegenerateCoefficient(
            "heading offset from the velocity vector reached 90 deg")
    psi_dot = psi_w_dot - (lat1 + stw * theta_w_dot * sd) / ccd
    return theta_dot, psi_dot


def attitude_accels(alpha, beta, phi, alpha_dot, beta_dot, phi_dot,
                    alpha_ddot, beta_ddot, phi_ddot, theta, psi,
                    theta_dot, psi_dot, theta_w, psi_w,
                    theta_w_dot, psi_w_dot, theta_w_ddot, psi_w_ddot):
    """Pitch and heading accelerations from the twice-differentiated
    coupling relations, solved for (theta_ddot, psi_ddot)."""
    _, _, lat2, vert, vert1, vert2, ax, ax1, ax2 = _aggregates(
        alpha, beta, phi, alpha_dot, beta_dot, phi_dot,
        alpha_ddot, beta_ddot, phi_ddot)
    st, ct = math.sin(theta), math.cos(theta)
    stw, ctw = math.sin(theta_w), math.cos(theta_w)

    denom = ax * ct + vert * st
    if abs(denom) < _GIMBAL_TOL:
        raise DegenerateCoefficient(
            "pitch-acceleration coefficient vanished in the vertical coupling")
    theta_ddot = (ctw * theta_w_ddot - stw * theta_w_dot * theta_w_dot
                  - ax2 * st + vert2 * ct
                  - 2.0 * theta_dot * (ax1 * ct + vert1 * st)
                  + theta_dot * theta_dot * (ax * st - vert * ct)
                  ) / denom

    d = psi_w - psi
    sd, cd = math.sin(d), math.cos(d)
    ccd = ctw * cd
    if ccd < _GIMBAL_TOL:
        raise DegenerateCoefficient(
            "heading offset from the velocity vector reached 90 deg")
    d_dot = psi_w_dot - psi_dot
    d_ddot = (lat2
              + (ctw * theta_w_dot * theta_w_dot + stw * theta_w_ddot) * sd
              + 2.0 * stw * theta_w_dot * cd * d_dot
              + ctw * sd * d_dot * d_dot) / ccd
    psi_ddot = psi_w_ddot - d_ddot
    return theta_ddot, psi_ddot
