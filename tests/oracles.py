"""Shared oracles: finite-difference checks, synthetic smooth motions, the
pass-by-pass angular-acceleration cascade and a textbook 6-DOF.

The differentiated flight equations are verified against their parent
algebraic relations along closed-form sinusoidal motions. Where a parent
relation constrains one of its own inputs (the lateral balance fixes the
roll rate needed for a prescribed sideslip rate, the normal balance the
pitch rate), the motion is made exactly consistent by solving the affine
dependence of the parent on that input.

``swept_stage_rates`` runs the solver's cascade the long way, one
kernel pass per sweep, for the closed-form closure to be checked against.

``chained_aggregates`` assembles the attitude/path coupling aggregates
by multiplying (value, d/dt, d2/dt2) triples of the trig factors, for
the flat scalar form in ``kinematics._aggregates`` to be checked against
bit for bit.

``loop_rk4_step`` is the RK4 step with its stage states and update
formed by loops over ``zip``, for the straight-line ``numerics.rk4_step``
to be checked against bit for bit.

``TextbookSixDof`` flies solved control histories through the body-axes
equations of motion written from the textbook, with none of the
package's physics, so it can check the inverse solver's answers.
"""

from __future__ import annotations

import math

import numpy as np

from invflight import aero, dynamics, kinematics, mirage_iii
from invflight.model import (
    ISA,
    AeroCoefficients,
    AircraftConfig,
    FlightEnvironment,
    FlightState,
)


class Sine:
    """A smooth scalar signal mean + amp*sin(w*t + phase)."""

    def __init__(self, mean, amp, w, phase=0.0):
        self.mean = mean
        self.amp = amp
        self.w = w
        self.phase = phase

    def __call__(self, t):
        return self.mean + self.amp * math.sin(self.w * t + self.phase)

    def d1(self, t):
        return self.amp * self.w * math.cos(self.w * t + self.phase)

    def d2(self, t):
        return -self.amp * self.w ** 2 * math.sin(self.w * t + self.phase)

    def d3(self, t):
        return -self.amp * self.w ** 3 * math.cos(self.w * t + self.phase)


def d1_5pt(f, t, h=1e-3):
    """Fourth-order central first derivative of a callable."""
    return (-f(t + 2 * h) + 8 * f(t + h)
            - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


def d2_5pt(f, t, h=1e-3):
    """Fourth-order central second derivative of a callable."""
    return (-f(t + 2 * h) + 16 * f(t + h) - 30 * f(t)
            + 16 * f(t - h) - f(t - 2 * h)) / (12 * h * h)


def d1_central(f, t, h):
    return (f(t + h) - f(t - h)) / (2 * h)


def d2_central(f, t, h):
    return (f(t + h) - 2 * f(t) + f(t - h)) / (h * h)


def convergence_order(f_exact, f_fd, ts, h=2e-3):
    """Observed order of an FD oracle against an analytic value.

    ``f_exact(t)`` is the analytic derivative under test; ``f_fd(t, h)``
    the finite-difference estimate from the parent. Returns the minimum
    observed order over the probe times (capped handling for errors at
    roundoff level).
    """
    worst = math.inf
    for t in ts:
        e1 = abs(f_fd(t, h) - f_exact(t))
        e2 = abs(f_fd(t, h / 2) - f_exact(t))
        if e2 < 1e-13 * max(1.0, abs(f_exact(t))):
            continue  # already at roundoff; treat as converged
        worst = min(worst, math.log2(e1 / e2))
    return worst


class AttitudeMotion:
    """Free smooth attitude/airflow motion for the coupling oracles."""

    def __init__(self):
        self.alpha = Sine(0.05, 0.04, 1.1, 0.4)
        self.beta = Sine(0.01, 0.05, 0.7, 1.3)
        self.phi = Sine(0.15, 0.45, 0.6, 0.7)
        self.theta = Sine(0.10, 0.08, 0.9, 2.1)
        self.psi = Sine(-0.05, 0.12, 0.8, 0.3)


class WindChannelMotion:
    """Exactly consistent motion for the translational-channel oracles.

    All signals are free sinusoids except the roll and pitch rates,
    which are solved from the lateral and normal force balances so that
    the sideslip and angle-of-attack rates along the motion equal the
    time derivatives of the prescribed sideslip/angle-of-attack signals.
    """

    def __init__(self, coeffs=None):
        cfg = mirage_iii()
        self.coeffs = coeffs if coeffs is not None else cfg.aero
        self.mass = cfg.mass
        self.g = 9.81
        self.s_ref = cfg.wing_area
        self.alpha = Sine(0.09, 0.05, 1.1, 0.4)
        self.beta = Sine(0.02, 0.05, 0.7, 1.3)
        self.theta = Sine(0.08, 0.06, 0.9, 2.1)
        self.phi = Sine(0.2, 0.5, 0.6, 0.7)
        self.v = Sine(190.0, 12.0, 0.5, 0.9)
        self.rho = Sine(0.5, 0.05, 0.3, 0.2)
        self.thrust = Sine(12000.0, 3000.0, 0.8, 1.7)
        self.r = Sine(0.05, 0.2, 1.2, 0.5)

    def qbar(self, t):
        return 0.5 * self.rho(t) * self.v(t) ** 2

    def qbar_dot(self, t):
        return (0.5 * self.rho.d1(t) * self.v(t) ** 2
                + self.rho(t) * self.v(t) * self.v.d1(t))

    def force_coeffs(self, t):
        c = self.coeffs
        c_lift = c.c_lift0 + c.c_lift_alpha * self.alpha(t)
        c_drag = c.c_drag0 + c.k_drag * c_lift ** 2
        c_side = c.c_side_beta * self.beta(t)
        return aero.body_force_coefficients(c_drag, c_side, c_lift,
                                            self.alpha(t), self.beta(t))

    def force_coeff_rates(self, t, h=1e-3):
        return tuple(
            d1_5pt(lambda u, i=i: self.force_coeffs(u)[i], t, h)
            for i in range(3))

    def common(self, t):
        c_x, c_y, c_z = self.force_coeffs(t)
        return dict(mass=self.mass, g=self.g, s_ref=self.s_ref,
                    qbar=self.qbar(t), alpha=self.alpha(t),
                    beta=self.beta(t), theta=self.theta(t),
                    phi=self.phi(t), c_x=c_x, c_y=c_y, c_z=c_z)

    def p(self, t):
        """Roll rate that makes the lateral balance yield beta.d1(t)."""
        kw = self.common(t)
        kw.update(v=self.v(t), thrust=self.thrust(t), r=self.r(t))
        base = dynamics.sideslip_rate(p=0.0, **kw)
        slope = dynamics.sideslip_rate(p=1.0, **kw) - base
        return (self.beta.d1(t) - base) / slope

    def q(self, t):
        """Pitch rate that makes the normal balance yield alpha.d1(t)."""
        kw = self.common(t)
        kw.update(v=self.v(t), thrust=self.thrust(t), r=self.r(t),
                  p=self.p(t))
        base = dynamics.aoa_rate(q=0.0, **kw)
        slope = dynamics.aoa_rate(q=1.0, **kw) - base
        return (self.alpha.d1(t) - base) / slope

    def balance_thrust(self, t):
        """Thrust closing the axial balance along the motion."""
        kw = self.common(t)
        return dynamics.thrust_from_force_balance(v_dot=self.v.d1(t), **kw)

    def rate_kwargs(self, t):
        """Full keyword set for the differentiated-channel calls."""
        kw = self.common(t)
        cx_d, cy_d, cz_d = self.force_coeff_rates(t)
        kw.update(
            qbar_dot=self.qbar_dot(t),
            v=self.v(t), v_dot=self.v.d1(t),
            thrust=self.thrust(t), thrust_dot=self.thrust.d1(t),
            alpha_dot=self.alpha.d1(t), beta_dot=self.beta.d1(t),
            theta_dot=self.theta.d1(t), phi_dot=self.phi.d1(t),
            p=self.p(t), q=self.q(t), r=self.r(t),
            p_dot=d1_5pt(self.p, t, 1e-4),
            q_dot=d1_5pt(self.q, t, 1e-4),
            r_dot=self.r.d1(t),
            c_x_dot=cx_d, c_y_dot=cy_d, c_z_dot=cz_d)
        return kw



def swept_stage_rates(row, state, seed, cfg, coeffs, sweeps):
    """The twelve stage rates with the angular-acceleration cascade run
    pass by pass through the four public kernels.

    ``row`` is one half-step row of ``KinematicProfiles.stage_rows()``,
    ``state`` the twelve-variable march state and ``seed`` the
    (p', q', r') the first pass starts from; each of the ``sweeps``
    passes feeds the previous pass's body-rate derivatives back in.
    """
    (alpha, beta, theta, psi, thrust,
     alpha_dot, beta_dot, theta_dot, psi_dot, p, q, r) = state
    (v, v_dot, v_ddot, theta_w, theta_w_dot, theta_w_ddot,
     psi_w, psi_w_dot, psi_w_ddot, phi, phi_dot, phi_ddot,
     rho, rho_dot) = row[:14]
    qbar = 0.5 * rho * v * v
    qbar_dot = 0.5 * rho_dot * v * v + rho * v * v_dot
    c_lift = coeffs.c_lift0 + coeffs.c_lift_alpha * alpha
    c_lift_dot = coeffs.c_lift_alpha * alpha_dot
    c_drag = coeffs.c_drag0 + coeffs.k_drag * c_lift * c_lift
    c_drag_dot = 2.0 * coeffs.k_drag * c_lift * c_lift_dot
    c_side = coeffs.c_side_beta * beta
    c_side_dot = coeffs.c_side_beta * beta_dot
    c_x, c_y, c_z = aero.body_force_coefficients(c_drag, c_side, c_lift,
                                                 alpha, beta)
    c_x_dot, c_y_dot, c_z_dot = aero.body_force_coefficient_rates(
        c_drag, c_side, c_lift, c_drag_dot, c_side_dot, c_lift_dot,
        alpha, beta, alpha_dot, beta_dot)
    balance = dict(mass=cfg.mass, g=ISA.g, s_ref=cfg.wing_area, qbar=qbar,
                   qbar_dot=qbar_dot, thrust=thrust, alpha=alpha, beta=beta,
                   theta=theta, phi=phi, alpha_dot=alpha_dot,
                   beta_dot=beta_dot, theta_dot=theta_dot, phi_dot=phi_dot,
                   c_x=c_x, c_y=c_y, c_z=c_z, c_x_dot=c_x_dot,
                   c_y_dot=c_y_dot, c_z_dot=c_z_dot)
    thrust_dot = dynamics.thrust_rate(v_ddot=v_ddot, **balance)
    balance.update(v=v, v_dot=v_dot, thrust_dot=thrust_dot, p=p, r=r)

    p_dot, q_dot, r_dot = seed
    for _ in range(sweeps):
        beta_ddot = dynamics.sideslip_accel(p_dot=p_dot, r_dot=r_dot,
                                            **balance)
        alpha_ddot = dynamics.aoa_accel(q=q, p_dot=p_dot, q_dot=q_dot,
                                        r_dot=r_dot, **balance)
        theta_ddot, psi_ddot = kinematics.attitude_accels(
            alpha=alpha, beta=beta, phi=phi, alpha_dot=alpha_dot,
            beta_dot=beta_dot, phi_dot=phi_dot, alpha_ddot=alpha_ddot,
            beta_ddot=beta_ddot, phi_ddot=phi_ddot, theta=theta, psi=psi,
            theta_dot=theta_dot, psi_dot=psi_dot, theta_w=theta_w,
            psi_w=psi_w, theta_w_dot=theta_w_dot, psi_w_dot=psi_w_dot,
            theta_w_ddot=theta_w_ddot, psi_w_ddot=psi_w_ddot)
        p_dot, q_dot, r_dot = kinematics.body_rate_derivatives(
            phi, theta, phi_dot, theta_dot, psi_dot,
            phi_ddot, theta_ddot, psi_ddot)
    return (alpha_dot, beta_dot, theta_dot, psi_dot, thrust_dot,
            alpha_ddot, beta_ddot, theta_ddot, psi_ddot,
            p_dot, q_dot, r_dot)


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


def chained_aggregates(alpha, beta, phi, alpha_dot, beta_dot, phi_dot,
                       alpha_ddot, beta_ddot, phi_ddot):
    """The (lat, vert, ax) triples of ``kinematics._aggregates``, each
    built from products of trig-factor triples."""
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


def _axpy(y, k, s):
    return tuple([yi + ki * s for yi, ki in zip(y, k)])


def loop_rk4_step(f, t, y, dt, k1=None):
    """``numerics.rk4_step`` with per-element loops, as the package once
    wrote it; ``zip`` truncates a rate sequence of the wrong length."""
    half = 0.5 * dt
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + half, _axpy(y, k1, half))
    k3 = f(t + half, _axpy(y, k2, half))
    k4 = f(t + dt, _axpy(y, k3, dt))
    sixth = dt / 6.0
    y_new = tuple([yi + sixth * (a + 2.0 * (b + c) + d)
                   for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])
    return y_new, (k1, k2, k3, k4)


def _mat_vec(m, v):
    """3x3 matrix (rows) times a 3-vector."""
    return tuple(row[0] * v[0] + row[1] * v[1] + row[2] * v[2] for row in m)


def _mat_t_vec(m, v):
    """Transpose of a 3x3 matrix (rows) times a 3-vector."""
    return tuple(m[0][j] * v[0] + m[1][j] * v[1] + m[2][j] * v[2]
                 for j in range(3))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


class TextbookSixDof:
    """Direct 6-DOF flight of control histories, written from the textbook.

    Rigid body over a flat, non-rotating Earth in body axes (Stevens,
    Lewis & Johnson, *Aircraft Control and Simulation*, 3rd ed., Wiley
    2016, ch. 1 and 2):

        v_b' = (F_aero + F_thrust) / m + C_bn g_n - w x v_b
        w'   = I^-1 (M - w x I w)
        (phi, theta, psi)' from the body rates (3-2-1 Euler sequence)
        p_n' = C_bn^T v_b

    From the package it takes only the data classes. The wind-to-body
    rotation of drag, side force and lift, the moment build-up (as the
    ``AeroCoefficients`` docstring defines it: beta, p*b/V, r*b/V and the
    surfaces on roll and yaw; alpha, bare q and elevator on pitch), the
    full inertia tensor, the troposphere and the RK4 step are its own.
    Products of inertia enter the tensor with the textbook sign,
    I_zx = integral of z x dm. All three moments scale with
    q S chord_ref, the package's reference-length convention (span_ref
    equals chord_ref for the Mirage-III). Thrust acts along body x.
    """

    def __init__(self, cfg: AircraftConfig, coeffs: AeroCoefficients,
                 env: FlightEnvironment = ISA):
        self.cfg = cfg
        self.coeffs = coeffs
        self.env = env
        self.inertia = ((cfg.i_roll, -cfg.i_xy, -cfg.i_zx),
                        (-cfg.i_xy, cfg.i_pitch, -cfg.i_yz),
                        (-cfg.i_zx, -cfg.i_yz, cfg.i_yaw))
        self.inertia_inv = tuple(map(tuple, np.linalg.inv(self.inertia)))

    def density(self, altitude):
        """Troposphere: rho = rho_sl (T / T_sl)^(g / (L R) - 1)."""
        env = self.env
        temp = env.temp_sl - env.lapse_rate * altitude
        exponent = env.g / (env.lapse_rate * env.gas_constant) - 1.0
        return env.rho_sl * (temp / env.temp_sl) ** exponent

    def rates(self, x, delta_l, delta_m, delta_n, thrust):
        """Time derivative of the state (u, v, w, p, q, r, phi, theta,
        psi, x_g, y_g, z_g) under the given controls."""
        cfg, c, g = self.cfg, self.coeffs, self.env.g
        vel, omega = x[0:3], x[3:6]
        u, v, w = vel
        p, q, r = omega
        phi, theta, psi = x[6:9]
        speed = math.sqrt(u * u + v * v + w * w)
        alpha = math.atan2(w, u)
        beta = math.asin(v / speed)
        qs = 0.5 * self.density(-x[11]) * speed * speed * cfg.wing_area

        sa, ca = math.sin(alpha), math.cos(alpha)
        sb, cb = math.sin(beta), math.cos(beta)
        wind_to_body = ((ca * cb, -ca * sb, -sa),
                        (sb, cb, 0.0),
                        (sa * cb, -sa * sb, ca))
        c_lift = c.c_lift0 + c.c_lift_alpha * alpha
        c_drag = c.c_drag0 + c.k_drag * c_lift * c_lift
        c_side = c.c_side_beta * beta
        fx, fy, fz = _mat_vec(wind_to_body, (-qs * c_drag, qs * c_side,
                                             -qs * c_lift))
        fx += thrust

        pb_v = p * cfg.span_ref / speed
        rb_v = r * cfg.span_ref / speed
        qsd = qs * cfg.chord_ref
        moment = (qsd * (c.c_roll_beta * beta + c.c_roll_p * pb_v
                         + c.c_roll_r * rb_v + c.c_roll_dl * delta_l
                         + c.c_roll_dn * delta_n),
                  qsd * (c.c_pitch0 + c.c_pitch_alpha * alpha
                         + c.c_pitch_q * q + c.c_pitch_dm * delta_m),
                  qsd * (c.c_yaw_beta * beta + c.c_yaw_p * pb_v
                         + c.c_yaw_r * rb_v + c.c_yaw_dl * delta_l
                         + c.c_yaw_dn * delta_n))

        sp, cp = math.sin(phi), math.cos(phi)
        st, ct = math.sin(theta), math.cos(theta)
        ss, cs = math.sin(psi), math.cos(psi)
        ground_to_body = (
            (ct * cs, ct * ss, -st),
            (sp * st * cs - cp * ss, sp * st * ss + cp * cs, sp * ct),
            (cp * st * cs + sp * ss, cp * st * ss - sp * cs, cp * ct))

        m = cfg.mass
        wv = _cross(omega, vel)
        vel_dot = (fx / m - g * st - wv[0],
                   fy / m + g * sp * ct - wv[1],
                   fz / m + g * cp * ct - wv[2])
        gyro = _cross(omega, _mat_vec(self.inertia, omega))
        omega_dot = _mat_vec(self.inertia_inv,
                             [mo - gy for mo, gy in zip(moment, gyro)])
        psi_dot = (q * sp + r * cp) / ct
        euler_dot = (p + st * psi_dot, q * cp - r * sp, psi_dot)
        return (vel_dot + omega_dot + euler_dot
                + _mat_t_vec(ground_to_body, vel))

    def fly(self, initial: FlightState, dt, delta_l, delta_m, delta_n,
            thrust, position0):
        """Fly per-station controls (rad, N) from ``initial`` with RK4.

        The controls are sampled every ``dt`` and interpolated linearly
        at the half steps. Returns the (stations, 12) state history.
        """
        controls = np.column_stack((delta_l, delta_m, delta_n, thrust))
        mids = (0.5 * (controls[:-1] + controls[1:])).tolist()
        controls = controls.tolist()
        ca, sa = math.cos(initial.alpha), math.sin(initial.alpha)
        cb, sb = math.cos(initial.beta), math.sin(initial.beta)
        x = (initial.v * ca * cb, initial.v * sb, initial.v * sa * cb,
             initial.p, initial.q, initial.r,
             initial.phi, initial.theta, initial.psi,
             *map(float, position0))
        out = np.empty((len(controls), 12))
        out[0] = x
        h = 0.5 * dt
        for i in range(len(controls) - 1):
            k1 = self.rates(x, *controls[i])
            k2 = self.rates([a + h * b for a, b in zip(x, k1)], *mids[i])
            k3 = self.rates([a + h * b for a, b in zip(x, k2)], *mids[i])
            k4 = self.rates([a + dt * b for a, b in zip(x, k3)],
                            *controls[i + 1])
            x = [a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
            out[i + 1] = x
        if not np.all(np.isfinite(out)):
            raise ArithmeticError("textbook 6-DOF state went non-finite")
        return out
