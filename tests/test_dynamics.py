import math
import random
from dataclasses import replace

import numpy as np
import pytest

from invflight import SingularControlMatrix, SingularInertia, ZeroVelocity
from invflight.aero import (
    body_force_coefficients,
    drag_coefficient,
    equilibrium_reference,
)
from invflight.dynamics import (
    angular_accels_forward,
    aoa_accel,
    aoa_rate,
    controls_from_angular_accels,
    gyro_terms,
    inertia_system,
    sideslip_accel,
    sideslip_rate,
    thrust_from_force_balance,
    thrust_rate,
)

from oracles import WindChannelMotion, d1_central, d1_5pt

G = 9.81


def _trim_setup(mirage, rho=0.412, v=200.0):
    qbar = 0.5 * rho * v * v
    c_lift = mirage.mass * G / (qbar * mirage.wing_area)
    coeffs = replace(mirage.aero, c_lift0=c_lift)
    c_drag = drag_coefficient(c_lift, coeffs)
    cx, cy, cz = body_force_coefficients(c_drag, 0.0, c_lift, 0.0, 0.0)
    return qbar, coeffs, (cx, cy, cz)


class TestThrustBalance:
    def test_level_trim_equals_drag(self, mirage):
        qbar, coeffs, (cx, cy, cz) = _trim_setup(mirage)
        thrust = thrust_from_force_balance(
            mass=mirage.mass, g=G, s_ref=mirage.wing_area, qbar=qbar,
            v_dot=0.0, alpha=0.0, beta=0.0, theta=0.0, phi=0.0,
            c_x=cx, c_y=cy, c_z=cz)
        c_drag = drag_coefficient(coeffs.c_lift0, coeffs)
        assert thrust == pytest.approx(qbar * mirage.wing_area * c_drag)
        # frozen trim oracle
        assert thrust == pytest.approx(11572.0, abs=20.0)

    def test_linear_in_acceleration(self, mirage):
        qbar, _, (cx, cy, cz) = _trim_setup(mirage)
        common = dict(mass=mirage.mass, g=G, s_ref=mirage.wing_area,
                      qbar=qbar, alpha=0.0, beta=0.0, theta=0.0, phi=0.0,
                      c_x=cx, c_y=cy, c_z=cz)
        t0 = thrust_from_force_balance(v_dot=0.0, **common)
        t1 = thrust_from_force_balance(v_dot=1.0, **common)
        assert t1 - t0 == pytest.approx(mirage.mass, rel=1e-12)

    def test_acceleration_slope_with_airflow_angles(self, mirage):
        qbar, _, (cx, cy, cz) = _trim_setup(mirage)
        alpha, beta = 0.12, -0.2
        common = dict(mass=mirage.mass, g=G, s_ref=mirage.wing_area,
                      qbar=qbar, alpha=alpha, beta=beta, theta=0.1, phi=0.4,
                      c_x=cx, c_y=cy, c_z=cz)
        t0 = thrust_from_force_balance(v_dot=0.0, **common)
        t1 = thrust_from_force_balance(v_dot=1.0, **common)
        assert t1 - t0 == pytest.approx(
            mirage.mass / (math.cos(alpha) * math.cos(beta)), rel=1e-12)

    def test_gravity_projection_is_path_elevation(self, mirage):
        # wings-level inverted flight on a level path leaves no gravity in
        # the axial balance: thrust reduces to drag over cos(alpha)
        qbar, coeffs, _ = _trim_setup(mirage)
        alpha = -0.2
        theta = -alpha  # level path when inverted
        c_lift = coeffs.c_lift0 + coeffs.c_lift_alpha * alpha
        c_drag = drag_coefficient(c_lift, coeffs)
        cx, cy, cz = body_force_coefficients(c_drag, 0.0, c_lift, alpha, 0.0)
        thrust = thrust_from_force_balance(
            mass=mirage.mass, g=G, s_ref=mirage.wing_area, qbar=qbar,
            v_dot=0.0, alpha=alpha, beta=0.0, theta=theta, phi=math.pi,
            c_x=cx, c_y=cy, c_z=cz)
        assert thrust == pytest.approx(
            qbar * mirage.wing_area * c_drag / math.cos(alpha), rel=1e-12)


class TestAirflowRates:
    def test_trim_is_fixed_point(self, mirage):
        qbar, _, (cx, cy, cz) = _trim_setup(mirage)
        thrust = qbar * mirage.wing_area * (-cx)
        common = dict(mass=mirage.mass, g=G, s_ref=mirage.wing_area,
                      qbar=qbar, v=200.0, thrust=thrust, alpha=0.0, beta=0.0,
                      theta=0.0, phi=0.0, c_x=cx, c_y=cy, c_z=cz)
        assert sideslip_rate(p=0.0, r=0.0, **common) == \
            pytest.approx(0.0, abs=1e-15)
        assert aoa_rate(p=0.0, q=0.0, r=0.0, **common) == \
            pytest.approx(0.0, abs=1e-12)

    def test_zero_sideslip_cancellation(self, mirage):
        # beta = 0, no side force, wings level: every lateral term carries
        # a zero factor
        qbar, coeffs, _ = _trim_setup(mirage)
        alpha = 0.05
        c_lift = coeffs.c_lift0 + coeffs.c_lift_alpha * alpha
        c_drag = drag_coefficient(c_lift, coeffs)
        cx, cy, cz = body_force_coefficients(c_drag, 0.0, c_lift, alpha, 0.0)
        out = sideslip_rate(mass=mirage.mass, g=G, s_ref=mirage.wing_area,
                            qbar=qbar, v=200.0, thrust=9000.0, alpha=alpha,
                            beta=0.0, theta=0.0, phi=0.0, p=0.0, r=0.0,
                            c_x=cx, c_y=cy, c_z=cz)
        assert out == 0.0

    def test_aoa_restoring_sign_above_trim(self, mirage):
        # lift grows past the trim value, so the flight path curves up and
        # the angle of attack is driven back down
        qbar, coeffs, _ = _trim_setup(mirage)
        alpha = 0.01
        c_lift = coeffs.c_lift0 + coeffs.c_lift_alpha * alpha
        c_drag = drag_coefficient(c_lift, coeffs)
        cx, cy, cz = body_force_coefficients(c_drag, 0.0, c_lift, alpha, 0.0)
        thrust = qbar * mirage.wing_area * c_drag
        out = aoa_rate(mass=mirage.mass, g=G, s_ref=mirage.wing_area,
                       qbar=qbar, v=200.0, thrust=thrust, alpha=alpha,
                       beta=0.0, theta=0.0, phi=0.0, p=0.0, q=0.0, r=0.0,
                       c_x=cx, c_y=cy, c_z=cz)
        assert out < 0.0


class TestDifferentiatedChannel:
    """The hard-coded time derivatives against consistent-motion oracles."""

    def test_thrust_rate_matches_balance_derivative(self):
        m = WindChannelMotion()
        for t in (0.3, 1.4, 2.8):
            kw = m.rate_kwargs(t)
            kw["thrust"] = m.balance_thrust(t)
            kw["v_ddot"] = m.v.d2(t)
            for key in ("v", "v_dot", "thrust_dot", "p", "q", "r",
                        "p_dot", "q_dot", "r_dot"):
                kw.pop(key)
            analytic = thrust_rate(**kw)
            fd = d1_5pt(m.balance_thrust, t)
            assert analytic == pytest.approx(fd, rel=1e-7)

    def test_thrust_rate_convergence_order(self):
        m = WindChannelMotion()
        t = 1.4
        kw = m.rate_kwargs(t)
        kw["thrust"] = m.balance_thrust(t)
        kw["v_ddot"] = m.v.d2(t)
        for key in ("v", "v_dot", "thrust_dot", "p", "q", "r",
                    "p_dot", "q_dot", "r_dot"):
            kw.pop(key)
        analytic = thrust_rate(**kw)
        e1 = abs(d1_central(m.balance_thrust, t, 2e-3) - analytic)
        e2 = abs(d1_central(m.balance_thrust, t, 1e-3) - analytic)
        assert math.log2(e1 / e2) > 1.9

    def test_sideslip_accel_matches_true_second_derivative(self):
        m = WindChannelMotion()
        for t in (0.3, 1.4, 2.8):
            kw = m.rate_kwargs(t)
            kw.pop("q")
            kw.pop("q_dot")
            analytic = sideslip_accel(**kw)
            assert analytic == pytest.approx(m.beta.d2(t), abs=2e-7)

    def test_sideslip_parent_consistency_and_order(self):
        m = WindChannelMotion()

        def parent(t):
            kw = m.common(t)
            kw.update(v=m.v(t), thrust=m.thrust(t), r=m.r(t), p=m.p(t))
            return sideslip_rate(**kw)

        t = 1.4
        # the solved roll rate makes the lateral balance reproduce the
        # prescribed sideslip rate along the motion
        assert parent(t) == pytest.approx(m.beta.d1(t), abs=1e-12)
        kw = m.rate_kwargs(t)
        kw.pop("q")
        kw.pop("q_dot")
        analytic = sideslip_accel(**kw)
        e1 = abs(d1_central(parent, t, 2e-3) - analytic)
        e2 = abs(d1_central(parent, t, 1e-3) - analytic)
        assert math.log2(e1 / e2) > 1.9

    def test_aoa_accel_matches_true_second_derivative(self):
        m = WindChannelMotion()
        for t in (0.3, 1.4, 2.8):
            analytic = aoa_accel(**m.rate_kwargs(t))
            assert analytic == pytest.approx(m.alpha.d2(t), abs=2e-7)

    def test_aoa_parent_consistency_and_order(self):
        m = WindChannelMotion()

        def parent(t):
            kw = m.common(t)
            kw.update(v=m.v(t), thrust=m.thrust(t), r=m.r(t), p=m.p(t),
                      q=m.q(t))
            return aoa_rate(**kw)

        t = 1.4
        assert parent(t) == pytest.approx(m.alpha.d1(t), abs=1e-12)
        analytic = aoa_accel(**m.rate_kwargs(t))
        e1 = abs(d1_central(parent, t, 2e-3) - analytic)
        e2 = abs(d1_central(parent, t, 1e-3) - analytic)
        assert math.log2(e1 / e2) > 1.9

    def test_derivatives_vanish_at_trim(self, mirage):
        qbar, _, (cx, cy, cz) = _trim_setup(mirage)
        thrust = qbar * mirage.wing_area * (-cx)
        zero_rates = dict(alpha_dot=0.0, beta_dot=0.0, theta_dot=0.0,
                          phi_dot=0.0, c_x_dot=0.0, c_y_dot=0.0,
                          c_z_dot=0.0, qbar_dot=0.0)
        common = dict(mass=mirage.mass, g=G, s_ref=mirage.wing_area,
                      qbar=qbar, alpha=0.0, beta=0.0, theta=0.0, phi=0.0,
                      c_x=cx, c_y=cy, c_z=cz)
        t_dot = thrust_rate(v_ddot=0.0, thrust=thrust, **zero_rates,
                            **common)
        assert t_dot == pytest.approx(0.0, abs=1e-12)
        b_dd = sideslip_accel(v=200.0, v_dot=0.0, thrust=thrust,
                              thrust_dot=0.0, p=0.0, r=0.0, p_dot=0.0,
                              r_dot=0.0, **zero_rates, **common)
        assert b_dd == pytest.approx(0.0, abs=1e-15)
        a_dd = aoa_accel(v=200.0, v_dot=0.0, thrust=thrust, thrust_dot=0.0,
                         p=0.0, q=0.0, r=0.0, p_dot=0.0, q_dot=0.0,
                         r_dot=0.0, **zero_rates, **common)
        assert a_dd == pytest.approx(0.0, abs=1e-15)


class TestMomentEquations:
    def test_rest_state_no_moments(self, mirage):
        inertia = inertia_system(mirage)
        assert angular_accels_forward(0, 0, 0, 0, 0, 0, inertia) == (0, 0, 0)

    def test_pure_pitch_moment_decouples(self, mirage):
        inertia = inertia_system(mirage)
        p_dot, q_dot, r_dot = angular_accels_forward(0, 0, 0, 0, 1000.0, 0,
                                                     inertia)
        assert q_dot == pytest.approx(1000.0 / 54000.0, rel=1e-12)
        assert p_dot == pytest.approx(0.0, abs=1e-15)
        assert r_dot == pytest.approx(0.0, abs=1e-15)

    def test_spherical_inertia_decouples(self, mirage):
        sphere = replace(mirage, i_roll=5e4, i_pitch=5e4, i_yaw=5e4,
                         i_yz=0.0, i_zx=0.0, i_xy=0.0)
        inertia = inertia_system(sphere)
        p_dot, q_dot, r_dot = angular_accels_forward(0, 0, 0, 2000.0, 0, 0,
                                                     inertia)
        assert p_dot == pytest.approx(2000.0 / 5e4)
        assert (q_dot, r_dot) == (0.0, 0.0)

    def test_singular_inertia_rejected(self, mirage):
        e = math.sqrt(mirage.i_roll * mirage.i_yaw)
        with pytest.raises(SingularInertia):
            inertia_system(replace(mirage, i_zx=e))

    def test_gyro_terms_match_rigid_body_for_symmetric_aircraft(self,
                                                                mirage):
        # with zero y-z and x-y products the aggregates equal the inertia
        # tensor applied to the angular accelerations of a torque-free
        # check state: g1 = (B-C) q r + E p q, etc.
        inertia = inertia_system(mirage)
        rng = random.Random(5)
        a, b, c = mirage.i_roll, mirage.i_pitch, mirage.i_yaw
        e = mirage.i_zx
        for _ in range(50):
            p = rng.uniform(-3, 3)
            q = rng.uniform(-3, 3)
            r = rng.uniform(-3, 3)
            g1, g2, g3 = gyro_terms(p, q, r, inertia)
            assert g1 == pytest.approx((b - c) * q * r + e * p * q)
            assert g2 == pytest.approx((c - a) * r * p + e * (r * r - p * p))
            assert g3 == pytest.approx((a - b) * p * q - e * q * r)


class TestControlRecovery:
    def test_rest_state_zero_deflections(self, mirage):
        inertia = inertia_system(mirage)
        out = controls_from_angular_accels(
            0, 0, 0, p=0, q=0, r=0, alpha=0.0, beta=0.0, v=200.0,
            qbar=8240.0, inertia=inertia, coeffs=mirage.aero,
            s_ref=mirage.wing_area, span_ref=mirage.span_ref,
            chord_ref=mirage.chord_ref)
        assert out == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_pitch_trim_deflection(self, mirage):
        inertia = inertia_system(mirage)
        _, dm, _ = controls_from_angular_accels(
            0, 0, 0, p=0, q=0, r=0, alpha=0.05, beta=0.0, v=200.0,
            qbar=8240.0, inertia=inertia, coeffs=mirage.aero,
            s_ref=mirage.wing_area, span_ref=mirage.span_ref,
            chord_ref=mirage.chord_ref)
        assert dm == pytest.approx(-0.0188888889, rel=1e-8)

    def test_forward_inverse_round_trip(self, mirage):
        from invflight.aero import dimensionalize, moment_coefficients
        inertia = inertia_system(mirage)
        rng = random.Random(17)
        for _ in range(100):
            state = dict(
                p=rng.uniform(-3, 3), q=rng.uniform(-3, 3),
                r=rng.uniform(-3, 3), alpha=rng.uniform(-0.3, 0.4),
                beta=rng.uniform(-0.4, 0.4), v=rng.uniform(80.0, 300.0))
            qbar = 0.5 * rng.uniform(0.3, 1.2) * state["v"] ** 2
            accels = (rng.uniform(-5, 5), rng.uniform(-5, 5),
                      rng.uniform(-5, 5))
            dl, dm, dn = controls_from_angular_accels(
                *accels, qbar=qbar, inertia=inertia, coeffs=mirage.aero,
                s_ref=mirage.wing_area, span_ref=mirage.span_ref,
                chord_ref=mirage.chord_ref, **state)
            moments = moment_coefficients(
                state["alpha"], state["beta"], state["p"], state["q"],
                state["r"], state["v"], mirage.span_ref, dl, dm, dn,
                mirage.aero)
            _, _, _, ml, mm, mn = dimensionalize(
                qbar, mirage.wing_area, mirage.chord_ref,
                (0, 0, 0), moments)
            back = angular_accels_forward(state["p"], state["q"], state["r"],
                                          ml, mm, mn, inertia)
            for got, want in zip(back, accels):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def _stations(self, rng, n=200):
        """Random station arrays in ``controls_from_angular_accels``
        order, with zero rates and signed zeros among them."""
        cols = [rng.uniform(-5, 5, n) for _ in range(3)]
        cols += [rng.uniform(-3, 3, n) for _ in range(3)]
        cols += [rng.uniform(-0.3, 0.4, n), rng.uniform(-0.4, 0.4, n)]
        v = rng.uniform(80.0, 300.0, n)
        cols += [v, 0.5 * rng.uniform(0.3, 1.2, n) * v * v]
        for col in cols[:8]:
            col[:40] = 0.0
            col[40:60] = -0.0
        return cols

    def test_array_form_equals_scalar_calls(self, mirage):
        # the solver recovers a block of stations per call; each entry
        # must be the scalar call's result to the bit
        inertia = inertia_system(mirage)
        refs = (mirage.wing_area, mirage.span_ref, 3.5)
        cols = self._stations(np.random.default_rng(12))
        got = controls_from_angular_accels(*cols, inertia, mirage.aero,
                                           *refs)
        want = np.array([controls_from_angular_accels(
            *(float(c[i]) for c in cols), inertia, mirage.aero, *refs)
            for i in range(len(cols[0]))]).T
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))

    @pytest.mark.parametrize("column,value,error", [
        (8, 0.0, ZeroVelocity), (8, -1.0, ZeroVelocity),
        (9, 0.0, SingularControlMatrix), (9, -1.0, SingularControlMatrix),
    ])
    def test_array_checks_see_every_entry(self, mirage, column, value,
                                          error):
        inertia = inertia_system(mirage)
        cols = self._stations(np.random.default_rng(13))
        cols[column][137] = value
        with pytest.raises(error):
            controls_from_angular_accels(
                *cols, inertia, mirage.aero, mirage.wing_area,
                mirage.span_ref, mirage.chord_ref)


class TestCruiseTrim:
    def test_mirage_cruise(self, mirage):
        # the trim point of the shared relation, flown level: thrust
        # from the axial force balance at the trim lift
        ref = equilibrium_reference(mirage, 0.412, 200.0)
        c_drag = drag_coefficient(ref.c_lift0_equib, ref.coeffs)
        cx, cy, cz = body_force_coefficients(c_drag, 0.0, ref.c_lift0_equib,
                                             0.0, 0.0)
        thrust = thrust_from_force_balance(
            mass=mirage.mass, g=G, s_ref=mirage.wing_area, qbar=ref.qbar,
            v_dot=0.0, alpha=0.0, beta=0.0, theta=0.0, phi=0.0,
            c_x=cx, c_y=cy, c_z=cz)
        assert ref.c_lift0_equib == pytest.approx(0.245, abs=1e-3)
        assert thrust == pytest.approx(11572.0, abs=20.0)
