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
    beta = math.asin(min(1.0, max(-1.0, v_side / v)))
    return v, alpha, beta


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
# Each aggregate and its first two time derivatives are assembled from
# (value, d/dt, d2/dt2) triples of the individual trig factors.
# ----------------------------------------------------------------------


def _sin_chain(x, xd, xdd):
    s, c = math.sin(x), math.cos(x)
    return s, c * xd, c * xdd - s * xd * xd


def _cos_chain(x, xd, xdd):
    s, c = math.sin(x), math.cos(x)
    return c, -s * xd, -s * xdd - c * xd * xd


def _mul(a, b):
    return (a[0] * b[0],
            a[1] * b[0] + a[0] * b[1],
            a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2])


def _aggregates(alpha, beta, phi, alpha_dot, beta_dot, phi_dot,
                alpha_ddot, beta_ddot, phi_ddot):
    sa = _sin_chain(alpha, alpha_dot, alpha_ddot)
    ca = _cos_chain(alpha, alpha_dot, alpha_ddot)
    sb = _sin_chain(beta, beta_dot, beta_ddot)
    cb = _cos_chain(beta, beta_dot, beta_ddot)
    sp = _sin_chain(phi, phi_dot, phi_ddot)
    cp = _cos_chain(phi, phi_dot, phi_ddot)
    cb_sa = _mul(cb, sa)
    lat = tuple(x - y for x, y in zip(_mul(sb, cp), _mul(cb_sa, sp)))
    vert = tuple(x + y for x, y in zip(_mul(sb, sp), _mul(cb_sa, cp)))
    ax = _mul(cb, ca)
    return lat, vert, ax


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
    theta_w = math.asin(min(1.0, max(-1.0, s)))
    ctw = math.cos(theta_w)
    if ctw < _GIMBAL_TOL:
        raise VerticalFlight("flight path is vertical; azimuth undefined")
    arg = lat / ctw
    if abs(arg) > 1.0 + 1e-12:
        raise NoSolution("no heading satisfies the lateral coupling")
    psi_w = psi + math.asin(min(1.0, max(-1.0, arg)))
    return theta_w, psi_w


def attitude_rates(*, alpha, beta, phi, alpha_dot, beta_dot, phi_dot,
                   theta, psi, theta_w, psi_w, theta_w_dot, psi_w_dot):
    """Pitch and heading rates from the differentiated coupling relations.

    The vertical relation is solved for theta_dot, the lateral one for
    psi_dot; everything else (airflow angles, bank, path angles and all
    their rates) must be known.
    """
    lat, vert, ax = _aggregates(alpha, beta, phi,
                                alpha_dot, beta_dot, phi_dot, 0, 0, 0)
    st, ct = math.sin(theta), math.cos(theta)
    stw, ctw = math.sin(theta_w), math.cos(theta_w)

    denom = ax[0] * ct + vert[0] * st
    if abs(denom) < _GIMBAL_TOL:
        raise DegenerateCoefficient(
            "pitch-rate coefficient vanished in the vertical coupling")
    theta_dot = (ctw * theta_w_dot - ax[1] * st + vert[1] * ct) / denom

    d = psi_w - psi
    sd, cd = math.sin(d), math.cos(d)
    ccd = ctw * cd
    if ccd < _GIMBAL_TOL:
        raise DegenerateCoefficient(
            "heading offset from the velocity vector reached 90 deg")
    psi_dot = psi_w_dot - (lat[1] + stw * theta_w_dot * sd) / ccd
    return theta_dot, psi_dot


def attitude_accels(*, alpha, beta, phi, alpha_dot, beta_dot, phi_dot,
                    alpha_ddot, beta_ddot, phi_ddot, theta, psi,
                    theta_dot, psi_dot, theta_w, psi_w,
                    theta_w_dot, psi_w_dot, theta_w_ddot, psi_w_ddot):
    """Pitch and heading accelerations from the twice-differentiated
    coupling relations, solved for (theta_ddot, psi_ddot)."""
    lat, vert, ax = _aggregates(alpha, beta, phi,
                                alpha_dot, beta_dot, phi_dot,
                                alpha_ddot, beta_ddot, phi_ddot)
    st, ct = math.sin(theta), math.cos(theta)
    stw, ctw = math.sin(theta_w), math.cos(theta_w)

    denom = ax[0] * ct + vert[0] * st
    if abs(denom) < _GIMBAL_TOL:
        raise DegenerateCoefficient(
            "pitch-acceleration coefficient vanished in the vertical coupling")
    theta_ddot = (ctw * theta_w_ddot - stw * theta_w_dot * theta_w_dot
                  - ax[2] * st + vert[2] * ct
                  - 2.0 * theta_dot * (ax[1] * ct + vert[1] * st)
                  + theta_dot * theta_dot * (ax[0] * st - vert[0] * ct)
                  ) / denom

    d = psi_w - psi
    sd, cd = math.sin(d), math.cos(d)
    ccd = ctw * cd
    if ccd < _GIMBAL_TOL:
        raise DegenerateCoefficient(
            "heading offset from the velocity vector reached 90 deg")
    d_dot = psi_w_dot - psi_dot
    d_ddot = (lat[2]
              + (ctw * theta_w_dot * theta_w_dot + stw * theta_w_ddot) * sd
              + 2.0 * stw * theta_w_dot * cd * d_dot
              + ctw * sd * d_dot * d_dot) / ccd
    psi_ddot = psi_w_ddot - d_ddot
    return theta_ddot, psi_ddot
