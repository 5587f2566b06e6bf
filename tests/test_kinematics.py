import math
import random

import numpy as np
import pytest

from invflight import (
    DegenerateCoefficient,
    GimbalSingularity,
    TrajectorySpec,
    VerticalFlight,
    ZeroVelocity,
    setup,
)
from invflight import kinematics
from invflight.kinematics import (
    airflow_from_body,
    attitude_accels,
    attitude_rates,
    body_rate_derivatives,
    body_rates_from_euler,
    euler_rates_from_body,
    ground_velocity_from_path,
    path_angles_from_attitude,
    velocity_triplet,
)
from invflight.model import AnalyticChannel, AnalyticManeuver

from oracles import (
    AttitudeMotion,
    chained_aggregates,
    d1_5pt,
    d2_5pt,
    d1_central,
)


class TestEulerBodyRates:
    def test_all_zero(self):
        assert body_rates_from_euler(0, 0, 0, 0, 0) == (0, 0, 0)

    def test_pure_yaw(self):
        p, q, r = body_rates_from_euler(0, 0, 0, 0, 1.0)
        assert (p, q, r) == (0.0, 0.0, 1.0)

    def test_pitch_rate_at_90_bank(self):
        p, q, r = body_rates_from_euler(math.pi / 2, 0, 0, 1.0, 0)
        assert p == 0.0
        assert q == pytest.approx(0.0, abs=1e-12)
        assert r == pytest.approx(-1.0)

    def test_inverse_of_simple_case(self):
        assert euler_rates_from_body(0, 0, 0, 0, 1.0) == \
            pytest.approx((0.0, 0.0, 1.0))

    def test_round_trip_random(self):
        rng = random.Random(42)
        for _ in range(200):
            phi = rng.uniform(-math.pi, math.pi)
            theta = rng.uniform(-math.radians(80), math.radians(80))
            rates = tuple(rng.uniform(-3, 3) for _ in range(3))
            pqr = body_rates_from_euler(phi, theta, *rates)
            back = euler_rates_from_body(phi, theta, *pqr)
            assert back == pytest.approx(rates, abs=1e-12)

    def test_gimbal_singularity(self):
        with pytest.raises(GimbalSingularity):
            euler_rates_from_body(0.3, math.pi / 2, 0.1, 0.2, 0.3)


class TestBodyRateDerivatives:
    def test_all_zero(self):
        assert body_rate_derivatives(0, 0, 0, 0, 0, 0, 0, 0) == (0, 0, 0)

    def test_heading_acceleration_at_rest(self):
        p_dot, q_dot, r_dot = body_rate_derivatives(0, 0, 0, 0, 0, 0, 0, 1.0)
        assert (p_dot, q_dot, r_dot) == pytest.approx((0.0, 0.0, 1.0))

    def test_matches_finite_difference_along_motion(self):
        m = AttitudeMotion()

        def rates(t):
            return body_rates_from_euler(m.phi(t), m.theta(t), m.phi.d1(t),
                                         m.theta.d1(t), m.psi.d1(t))

        for t in (0.0, 0.9, 2.7):
            analytic = body_rate_derivatives(
                m.phi(t), m.theta(t), m.phi.d1(t), m.theta.d1(t),
                m.psi.d1(t), m.phi.d2(t), m.theta.d2(t), m.psi.d2(t))
            for i in range(3):
                fd = d1_5pt(lambda u, i=i: rates(u)[i], t)
                assert analytic[i] == pytest.approx(fd, abs=1e-9)

    def test_second_order_convergence(self):
        m = AttitudeMotion()
        t = 1.3

        def rates(u):
            return body_rates_from_euler(m.phi(u), m.theta(u), m.phi.d1(u),
                                         m.theta.d1(u), m.psi.d1(u))

        analytic = body_rate_derivatives(
            m.phi(t), m.theta(t), m.phi.d1(t), m.theta.d1(t), m.psi.d1(t),
            m.phi.d2(t), m.theta.d2(t), m.psi.d2(t))
        for i in range(3):
            e1 = abs(d1_central(lambda u, i=i: rates(u)[i], t, 2e-3)
                     - analytic[i])
            e2 = abs(d1_central(lambda u, i=i: rates(u)[i], t, 1e-3)
                     - analytic[i])
            assert math.log2(e1 / e2) > 1.9


def straight_line(z_rate):
    """A trajectory at rest in x and y, moving at ``z_rate`` in z."""
    def channel(offset, rate):
        return AnalyticChannel(
            f=lambda t: offset + rate * np.asarray(t, dtype=float),
            d1=lambda t: np.full_like(np.asarray(t, dtype=float), rate),
            d2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            d3=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    return TrajectorySpec(
        duration=1.0, dt=0.1, analytic=AnalyticManeuver(
            x=channel(0.0, 0.0), y=channel(0.0, 0.0),
            z=channel(-5000.0, z_rate), phi=channel(0.0, 0.0)))


class TestPathGroundVelocity:
    def test_vertical_flight_rejected(self):
        # a vertical climb has no path azimuth
        with pytest.raises(VerticalFlight, match="station 0"):
            setup(straight_line(-100.0))

    def test_zero_velocity_rejected(self):
        # a hover has no path direction at all
        with pytest.raises(ZeroVelocity, match="station 0"):
            setup(straight_line(0.0))

    def test_pure_climb(self):
        assert ground_velocity_from_path(100.0, math.pi / 2, 0.3) == \
            pytest.approx((0.0, 0.0, -100.0), abs=1e-12)


class TestVelocityTriplet:
    def test_straight(self):
        assert velocity_triplet(200.0, 0.0, 0.0) == (200.0, 0.0, 0.0)

    def test_45_degrees_aoa(self):
        u, v, w = velocity_triplet(100.0, math.pi / 4, 0.0)
        assert u == pytest.approx(70.71067812)
        assert v == 0.0
        assert w == pytest.approx(70.71067812)
        assert w / u == pytest.approx(math.tan(math.pi / 4))

    def test_round_trip_and_norm(self):
        rng = random.Random(3)
        for _ in range(200):
            v = rng.uniform(1.0, 400.0)
            alpha = rng.uniform(-1.2, 1.2)
            beta = rng.uniform(-1.2, 1.2)
            u, vs, w = velocity_triplet(v, alpha, beta)
            assert u * u + vs * vs + w * w == pytest.approx(v * v, rel=1e-12)
            back = airflow_from_body(u, vs, w)
            assert back == pytest.approx((v, alpha, beta), abs=1e-12)


def _same_float(a, b):
    """Equal as IEEE values: NaN matches NaN, and +0.0 differs from -0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestUnitClamps:
    """The arcsine arguments are clamped to [-1, 1] without builtin calls;
    the result must be the float ``min(1.0, max(-1.0, x))`` gives."""

    @pytest.mark.parametrize("u, v_side, w", [
        (0.0, 5.0, 0.0), (0.0, -5.0, 0.0),   # ratio exactly +-1
        (1.0, 0.0, 0.0), (1.0, -0.0, 0.0),   # +-0.0 keep their sign
        (1e-300, 1.0, 0.0), (math.inf, 1.0, 0.0), (math.nan, 0.0, 0.0),
        (3.0, -4.0, 12.0)])
    def test_airflow_matches_builtin_clamp(self, u, v_side, w):
        v = math.sqrt(u * u + v_side * v_side + w * w)
        want = (v, math.atan2(w, u),
                math.asin(min(1.0, max(-1.0, v_side / v))))
        got = airflow_from_body(u, v_side, w)
        assert all(map(_same_float, got, want)), (got, want)

    def test_nan_ratio_gives_negative_right_angle_sideslip(self):
        # max(-1.0, nan) is -1.0, so a NaN ratio is clamped to -1
        assert airflow_from_body(math.nan, 0.0, 0.0)[2] == -math.pi / 2

    def test_path_angles_match_builtin_clamp(self):
        def builtin(alpha, beta, phi, theta, psi):
            sa, ca = math.sin(alpha), math.cos(alpha)
            sb, cb = math.sin(beta), math.cos(beta)
            sp, cp = math.sin(phi), math.cos(phi)
            lat = sb * cp - cb * sa * sp
            vert = sb * sp + cb * sa * cp
            s = cb * ca * math.sin(theta) - vert * math.cos(theta)
            theta_w = math.asin(min(1.0, max(-1.0, s)))
            arg = lat / math.cos(theta_w)
            return theta_w, psi + math.asin(min(1.0, max(-1.0, arg)))

        rng = random.Random(11)
        for _ in range(500):
            args = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                    rng.uniform(-3.2, 3.2), rng.uniform(-1.2, 1.2),
                    rng.uniform(-3.2, 3.2))
            assert path_angles_from_attitude(*args) == builtin(*args)

    @pytest.mark.parametrize("alpha, theta", [(math.nan, 0.0),
                                              (0.0, math.pi / 2)])
    def test_vertical_path_still_raises(self, alpha, theta):
        # a NaN airflow angle clamps the path elevation to -90 deg, and a
        # 90 deg pitch at zero airflow angles puts it at +90 deg
        with pytest.raises(VerticalFlight):
            path_angles_from_attitude(alpha, 0.0, 0.3, theta, 0.1)


class TestAttitudePathCoupling:
    def test_zero_airflow_angles_identity(self):
        for phi in (0.0, 0.7, -2.0, 3.0):
            tw, pw = path_angles_from_attitude(0.0, 0.0, phi, 0.23, -0.55)
            assert (tw, pw) == pytest.approx((0.23, -0.55), abs=1e-15)

    def test_zero_bank_zero_sideslip_offset(self):
        # elevation equals pitch minus angle of attack
        tw, pw = path_angles_from_attitude(0.05, 0.0, 0.0, 0.15, 0.0)
        assert tw == pytest.approx(0.10)
        assert pw == pytest.approx(0.0, abs=1e-15)

    def test_origin(self):
        assert path_angles_from_attitude(0, 0, 0, 0, 0) == \
            pytest.approx((0.0, 0.0))


class TestAggregates:
    """The flat aggregates against their triple-chain construction."""

    @staticmethod
    def flat(*args):
        lat, vert, ax = chained_aggregates(*args)
        return lat + vert + ax

    def test_equal_to_chained_at_random_points(self):
        rng = random.Random(11)
        for _ in range(500):
            angles = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
            rates = [rng.uniform(-3.0, 3.0) for _ in range(6)]
            args = angles + rates
            assert kinematics._aggregates(*args) == self.flat(*args)

    def test_equal_to_chained_with_zero_second_derivatives(self):
        # attitude_rates passes integer zeros for the second derivatives
        rng = random.Random(12)
        points = [(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                  (-0.0, 0.0, -0.0, -0.0, 0.0, -0.0)]
        points += [tuple(rng.uniform(-1.0, 1.0) for _ in range(6))
                   for _ in range(200)]
        for point in points:
            args = point + (0, 0, 0)
            got = kinematics._aggregates(*args)
            assert got == self.flat(*args)
            # signed zeros too
            assert [math.copysign(1.0, x) for x in got] == \
                [math.copysign(1.0, x) for x in self.flat(*args)]


class TestAttitudeRateEquations:
    def _path_signals(self, m):
        def tw(t):
            return path_angles_from_attitude(m.alpha(t), m.beta(t), m.phi(t),
                                             m.theta(t), m.psi(t))[0]

        def pw(t):
            return path_angles_from_attitude(m.alpha(t), m.beta(t), m.phi(t),
                                             m.theta(t), m.psi(t))[1]

        return tw, pw

    def test_static_state_gives_zero_rates(self):
        out = attitude_rates(alpha=0.02, beta=0.01, phi=0.3,
                             alpha_dot=0, beta_dot=0, phi_dot=0,
                             theta=0.1, psi=0.0,
                             theta_w=path_angles_from_attitude(
                                 0.02, 0.01, 0.3, 0.1, 0.0)[0],
                             psi_w=path_angles_from_attitude(
                                 0.02, 0.01, 0.3, 0.1, 0.0)[1],
                             theta_w_dot=0.0, psi_w_dot=0.0)
        assert out == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_rates_recover_true_motion(self):
        m = AttitudeMotion()
        tw, pw = self._path_signals(m)
        for t in (0.2, 1.1, 2.9):
            out = attitude_rates(
                alpha=m.alpha(t), beta=m.beta(t), phi=m.phi(t),
                alpha_dot=m.alpha.d1(t), beta_dot=m.beta.d1(t),
                phi_dot=m.phi.d1(t), theta=m.theta(t), psi=m.psi(t),
                theta_w=tw(t), psi_w=pw(t),
                theta_w_dot=d1_5pt(tw, t), psi_w_dot=d1_5pt(pw, t))
            assert out[0] == pytest.approx(m.theta.d1(t), abs=1e-8)
            assert out[1] == pytest.approx(m.psi.d1(t), abs=1e-8)

    def test_accels_recover_true_motion(self):
        m = AttitudeMotion()
        tw, pw = self._path_signals(m)
        for t in (0.2, 1.1, 2.9):
            out = attitude_accels(
                alpha=m.alpha(t), beta=m.beta(t), phi=m.phi(t),
                alpha_dot=m.alpha.d1(t), beta_dot=m.beta.d1(t),
                phi_dot=m.phi.d1(t),
                alpha_ddot=m.alpha.d2(t), beta_ddot=m.beta.d2(t),
                phi_ddot=m.phi.d2(t),
                theta=m.theta(t), psi=m.psi(t),
                theta_dot=m.theta.d1(t), psi_dot=m.psi.d1(t),
                theta_w=tw(t), psi_w=pw(t),
                theta_w_dot=d1_5pt(tw, t), psi_w_dot=d1_5pt(pw, t),
                theta_w_ddot=d2_5pt(tw, t), psi_w_ddot=d2_5pt(pw, t))
            assert out[0] == pytest.approx(m.theta.d2(t), abs=1e-5)
            assert out[1] == pytest.approx(m.psi.d2(t), abs=1e-5)

    def test_heading_offset_limit_raises(self):
        with pytest.raises(DegenerateCoefficient):
            attitude_rates(alpha=0.0, beta=0.0, phi=0.0,
                           alpha_dot=0, beta_dot=0, phi_dot=0,
                           theta=0.0, psi=0.0, theta_w=0.0,
                           psi_w=math.pi / 2, theta_w_dot=0, psi_w_dot=0)
