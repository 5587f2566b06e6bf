import math
from dataclasses import replace

import pytest

from invflight import BeyondStall, ZeroVelocity
from invflight.aero import (
    body_force_coefficients,
    body_force_coefficient_rates,
    dimensionalize,
    drag_coefficient,
    dynamic_pressure,
    equilibrium_reference,
    moment_coefficients,
)

from oracles import Sine, d1_5pt


class TestDynamicPressure:
    def test_zero_speed_limit(self):
        assert dynamic_pressure(1.225, 0.0) == 0.0

    def test_cruise_value(self):
        assert dynamic_pressure(0.412, 200.0) == pytest.approx(8240.0)

    def test_unit_case(self):
        assert dynamic_pressure(1.225, 1.0) == pytest.approx(0.6125)


class TestLiftDragSide:
    def test_drag_polar(self, mirage):
        assert drag_coefficient(0.0, mirage.aero) == 0.015
        assert drag_coefficient(0.245, mirage.aero) == pytest.approx(0.03901)
        # even function of lift
        assert drag_coefficient(-0.245, mirage.aero) == \
            drag_coefficient(0.245, mirage.aero)


class TestBodyForceCoefficients:
    def test_degenerate_at_zero_angles(self):
        cx, cy, cz = body_force_coefficients(0.039, 0.0, 0.245, 0.0, 0.0)
        assert (cx, cy, cz) == (-0.039, 0.0, -0.245)

    def test_pure_alpha_rotation(self):
        cx, cy, cz = body_force_coefficients(0.0, 0.0, 1.0, math.pi / 2, 0.0)
        assert cx == pytest.approx(1.0)
        assert cz == pytest.approx(0.0, abs=1e-12)

    def test_general_case_frozen_oracle(self):
        # frozen from an independent evaluation of the rotation formulas
        cx, cy, cz = body_force_coefficients(0.04, -0.012, 0.30, 0.05, 0.02)
        assert cx == pytest.approx(-0.0247085858, abs=1e-9)
        assert cy == pytest.approx(-0.0127975467, abs=1e-9)
        assert cz == pytest.approx(-0.3016118509, abs=1e-9)

    def test_zero_sideslip_is_alpha_rotation(self):
        alpha = 0.17
        cd, cl = 0.05, 0.4
        cx, cy, cz = body_force_coefficients(cd, 0.0, cl, alpha, 0.0)
        assert cy == 0.0
        ca, sa = math.cos(alpha), math.sin(alpha)
        assert cx == pytest.approx(-cd * ca + cl * sa)
        assert cz == pytest.approx(-cd * sa - cl * ca)

    def test_rates_match_finite_difference(self):
        alpha = Sine(0.06, 0.05, 1.1, 0.2)
        beta = Sine(0.01, 0.04, 0.8, 1.0)
        cd = Sine(0.04, 0.01, 0.5, 0.3)
        cc = Sine(-0.01, 0.02, 0.9, 2.0)
        cl = Sine(0.3, 0.1, 0.7, 0.5)

        def coeffs(t):
            return body_force_coefficients(cd(t), cc(t), cl(t),
                                           alpha(t), beta(t))

        for t in (0.0, 0.7, 2.3):
            rates = body_force_coefficient_rates(
                cd(t), cc(t), cl(t), cd.d1(t), cc.d1(t), cl.d1(t),
                alpha(t), beta(t), alpha.d1(t), beta.d1(t))
            for i in range(3):
                fd = d1_5pt(lambda u, i=i: coeffs(u)[i], t)
                assert rates[i] == pytest.approx(fd, abs=1e-9)


class TestMomentCoefficients:
    def test_all_zero_inputs(self, mirage):
        out = moment_coefficients(0, 0, 0, 0, 0, 200.0, 5.25,
                                  0, 0, 0, mirage.aero)
        assert out == (0.0, 0.0, 0.0)

    def test_pitch_from_alpha(self, mirage):
        _, c_pitch, _ = moment_coefficients(0.05, 0, 0, 0, 0, 200.0, 5.25,
                                            0, 0, 0, mirage.aero)
        assert c_pitch == pytest.approx(-0.0085)

    def test_lateral_from_sideslip(self, mirage):
        c_roll, _, c_yaw = moment_coefficients(0, 0.1, 0, 0, 0, 200.0, 5.25,
                                               0, 0, 0, mirage.aero)
        assert c_roll == pytest.approx(-0.005)
        assert c_yaw == pytest.approx(0.015)

    def test_exactly_affine_in_deflections(self, mirage):
        # unit finite differences recover the control derivatives exactly
        base = moment_coefficients(0.03, 0.05, 0.4, 0.1, -0.2, 180.0, 5.25,
                                   0.0, 0.0, 0.0, mirage.aero)
        for k, (field_roll, field_pitch, field_yaw) in {
            0: ("c_roll_dl", None, "c_yaw_dl"),
            1: (None, "c_pitch_dm", None),
            2: ("c_roll_dn", None, "c_yaw_dn"),
        }.items():
            deltas = [0.0, 0.0, 0.0]
            deltas[k] = 1.0
            out = moment_coefficients(0.03, 0.05, 0.4, 0.1, -0.2, 180.0,
                                      5.25, *deltas, mirage.aero)
            diffs = tuple(o - b for o, b in zip(out, base))
            expect = tuple(
                getattr(mirage.aero, f) if f else 0.0
                for f in (field_roll, field_pitch, field_yaw))
            assert diffs == expect


class TestDimensionalize:
    def test_zero_coefficients(self):
        assert dimensionalize(8240.0, 36.0, 5.25, (0, 0, 0), (0, 0, 0)) == \
            (0, 0, 0, 0, 0, 0)

    def test_trim_normal_force_carries_weight(self):
        # frozen arithmetic; the trim identity makes it approximately -m*g
        _, _, z, _, _, _ = dimensionalize(8240.0, 36.0, 5.25,
                                          (0.0, 0.0, -0.245), (0, 0, 0))
        assert z == pytest.approx(-72676.8)
        assert abs(z + 7400 * 9.81) <= 0.002 * 7400 * 9.81

    def test_roll_moment_arithmetic(self):
        _, _, _, roll, _, _ = dimensionalize(8240.0, 36.0, 5.25,
                                             (0, 0, 0), (0.01, 0, 0))
        assert roll == pytest.approx(15573.6)

    def test_linear_in_coefficients_and_qbar(self):
        one = dimensionalize(1000.0, 36.0, 5.25,
                             (0.1, -0.2, 0.3), (0.01, 0.02, -0.03))
        two = dimensionalize(2000.0, 36.0, 5.25,
                             (0.1, -0.2, 0.3), (0.01, 0.02, -0.03))
        scaled = dimensionalize(1000.0, 36.0, 5.25,
                                (0.2, -0.4, 0.6), (0.02, 0.04, -0.06))
        assert two == tuple(2 * x for x in one)
        assert scaled == pytest.approx(tuple(2 * x for x in one))


class TestEquilibriumReference:
    # the Mirage-III at 200 m/s in air of 0.412 kg/m^3: qbar = 8,240 Pa
    def test_mirage_cruise_reference(self, mirage):
        ref = equilibrium_reference(mirage, 0.412, 200.0)
        assert ref.qbar == pytest.approx(8240.0, rel=1e-15)
        assert ref.c_lift0_equib == pytest.approx(0.245, abs=1e-3)
        assert ref.alpha_equib == pytest.approx(0.111, abs=2e-4)
        assert math.degrees(ref.alpha_equib) == pytest.approx(6.36, abs=0.02)
        assert ref.alpha_zero_lift == 0.0
        assert ref.alpha_shift == ref.alpha_equib
        # the trim-shifted set differs from the aircraft's in c_lift0 only
        assert ref.coeffs == replace(mirage.aero,
                                     c_lift0=ref.c_lift0_equib)

    def test_lift_weight_identity_exact(self, mirage):
        ref = equilibrium_reference(mirage, 0.412, 200.0)
        assert ref.c_lift0_equib * ref.qbar * 36.0 == pytest.approx(
            7400.0 * 9.81, rel=1e-15)

    def test_doubling_pressure_halves_reference(self, mirage):
        one = equilibrium_reference(mirage, 0.412, 200.0)
        two = equilibrium_reference(mirage, 0.824, 200.0)
        assert two.qbar == 2 * one.qbar
        assert two.c_lift0_equib == pytest.approx(one.c_lift0_equib / 2)
        assert two.alpha_equib == pytest.approx(one.alpha_equib / 2)

    def test_cambered_airfoil_shift(self, mirage):
        cambered = replace(mirage, aero=replace(mirage.aero, c_lift0=0.1))
        ref = equilibrium_reference(cambered, 0.412, 200.0)
        assert ref.alpha_zero_lift == pytest.approx(-0.1 / 2.204)
        assert ref.alpha_shift == pytest.approx(
            ref.alpha_equib - 0.1 / 2.204)
        assert ref.coeffs.c_lift0 == ref.c_lift0_equib

    @pytest.mark.parametrize("speed, error", [(1e-200, ZeroVelocity),
                                              (80.0, BeyondStall)])
    def test_start_without_lift_or_past_stall_is_refused(self, mirage,
                                                         speed, error):
        # the dynamic pressure underflows to 0 at 1e-200 m/s; 80 m/s at
        # 10 km needs 39.7 deg
        with pytest.raises(error):
            equilibrium_reference(mirage, 0.412, speed)
