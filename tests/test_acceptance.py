"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion (use ``pytest -s`` to see the lines as the
suite runs). The heavy production-resolution solve is shared across
criteria through module-scoped fixtures.
"""

import math
import random
import time

import numpy as np
import pytest

from invflight import density, maneuver_spec, mirage_iii, simulate, solve
from invflight.aero import dimensionalize, moment_coefficients
from invflight.dynamics import (
    angular_accels_forward,
    aoa_accel,
    aoa_rate,
    controls_from_angular_accels,
    inertia_system,
    sideslip_accel,
    sideslip_rate,
    thrust_rate,
)
from invflight.kinematics import (
    attitude_accels,
    attitude_rates,
    body_rate_derivatives,
    body_rates_from_euler,
    path_angles_from_attitude,
)
from invflight.numerics import (
    fd_first_derivative,
    fd_second_derivative,
    rk4_step,
)

from oracles import (
    AttitudeMotion,
    TextbookSixDof,
    WindChannelMotion,
    d1_central,
    d1_5pt,
    d2_5pt,
    d2_central,
)

DEG = 180.0 / math.pi
# Round-trip position bound: 0.5 % of the 1200 m maneuver length.
ROUND_TRIP_TOL_M = 0.005 * 1200.0


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def cfg():
    return mirage_iii()


@pytest.fixture(scope="module")
def solves(cfg):
    """Mirage roll solutions at the four study step sizes."""
    out = {}
    start = time.perf_counter()
    out[1e-4] = solve(maneuver_spec("mirage-roll", 1e-4), cfg)
    out["runtime_1e-4"] = time.perf_counter() - start
    for dt in (2e-4, 1e-3, 1e-2):
        out[dt] = solve(maneuver_spec("mirage-roll", dt), cfg)
    return out


@pytest.fixture(scope="module")
def level_run(cfg):
    return solve(maneuver_spec("level", 1e-3), cfg)


def test_criterion_1_atmosphere():
    rho_sl = density(0.0)
    rho_10k = density(-10000.0)
    ok_sl = rho_sl == 1.225
    ok_10k = abs(rho_10k - 0.412) <= 0.0025 * 0.412
    report(1, ok_sl and ok_10k,
           f"rho(0)={rho_sl}, rho(-10km)={rho_10k:.6f} "
           f"(0.412 within 0.25%)")
    assert ok_sl, f"sea-level density {rho_sl} != 1.225"
    assert ok_10k, f"10 km density {rho_10k} off 0.412 by more than 0.25%"


def test_criterion_2_trim_identities(solves):
    hist = solves[1e-4]
    ref = hist.reference
    alpha_equib_deg = math.degrees(ref.alpha_equib)
    ok_cl = abs(ref.c_lift0_equib - 0.245) <= 1e-3
    ok_alpha = abs(alpha_equib_deg - 6.36) <= 0.02
    ok_init = (hist.delta_l[0] == 0.0 and hist.delta_m[0] == 0.0
               and hist.delta_n[0] == 0.0
               and hist.alpha_dot[0] == 0.0 and hist.beta_dot[0] == 0.0)
    ok = ok_cl and ok_alpha and ok_init
    report(2, ok,
           f"c_lift0_equib={ref.c_lift0_equib:.6f} (0.245+-0.001), "
           f"alpha_equib={alpha_equib_deg:.4f} deg (6.36+-0.02), "
           f"initial deflections/airflow rates all zero: {ok_init}")
    assert ok_cl, f"c_lift0_equib {ref.c_lift0_equib} outside 0.245+-0.001"
    assert ok_alpha, f"alpha_equib {alpha_equib_deg} deg outside 6.36+-0.02"
    assert ok_init, "initialization is not the equilibrium state"


def _round_trip(hist, run_yg, run_zg, run_phi):
    """Criterion 6.2's deviations of a forward flight from a solved
    history, and whether they are within its tolerances."""
    dev_y = float(np.abs(run_yg - hist.yg).max())
    dev_z = float(np.abs(run_zg - hist.zg).max())
    phi_end = math.degrees(float(run_phi[-1]))
    ok = (dev_y < ROUND_TRIP_TOL_M and dev_z < ROUND_TRIP_TOL_M
          and abs(phi_end - 360.0) <= 2.0)
    return dev_y, dev_z, phi_end, ok


def test_criterion_3_roll_maneuver_extremes(cfg, solves):
    hist = solves[1e-4]
    runtime = solves["runtime_1e-4"]
    max_dn = float(np.abs(hist.delta_n).max()) * DEG
    alpha = hist.alpha_actual * DEG
    ok_stations = hist.grid.count == 60001
    ok_runtime = runtime < 60.0
    ok_dn = abs(max_dn - 45.8) <= 1.0
    ok_alpha = alpha.min() >= -6.05 - 0.2 and alpha.max() <= 6.36 + 0.2
    ok_thrust = bool(np.all(hist.thrust > 0.0))
    ok_path = bool(np.all(hist.theta_w == 0.0)
                   and np.all(hist.psi_w == 0.0))

    # The rudder follows from the yaw balance alone, so the solved peak
    # is right if the solved controls fly the maneuver. The textbook
    # 6-DOF, which shares no code with the solver, flies the 1e-3 solve
    # as solved and with the rudder scaled up to the former 49.9 deg
    # target (48.9 and 49.9 deg peaks) against criterion 6.2's bounds.
    flown = solves[1e-3]
    oracle = TextbookSixDof(cfg, flown.reference.coeffs)
    solved_peak = float(np.abs(flown.delta_n).max()) * DEG
    trips = {}
    for peak in (solved_peak, 48.9, 49.9):
        run = oracle.fly(flown.state_at(0), flown.grid.dt, flown.delta_l,
                         flown.delta_m, flown.delta_n * (peak / solved_peak),
                         flown.thrust, (flown.xg[0], flown.yg[0],
                                        flown.zg[0]))
        trips[peak] = _round_trip(flown, run[:, 10], run[:, 11], run[:, 6])
    ok_closes = trips[solved_peak][3]
    ok_scaled_miss = not trips[48.9][3] and not trips[49.9][3]
    evidence = "; ".join(
        f"rudder peak {peak:.2f} deg: y={dev_y:.2f} m, z={dev_z:.2f} m, "
        f"bank end {phi_end:.2f} deg"
        for peak, (dev_y, dev_z, phi_end, _) in trips.items())

    ok = (ok_stations and ok_runtime and ok_dn and ok_alpha and ok_thrust
          and ok_path and ok_closes and ok_scaled_miss)
    report(3, ok,
           f"stations={hist.grid.count}, runtime={runtime:.1f}s (<60), "
           f"max|delta_n|={max_dn:.2f} deg (need 45.8+-1.0), "
           f"alpha_actual in [{alpha.min():.3f}, {alpha.max():.3f}] deg "
           f"(need within [-6.25, 6.56]), thrust>0: {ok_thrust}, "
           f"path angles identically zero: {ok_path}; textbook 6-DOF at "
           f"1e-3 (need the solved rudder to close and the scaled ones "
           f"to miss, <{ROUND_TRIP_TOL_M:.1f} m, 360+-2 deg): {evidence}")
    assert ok_stations, f"{hist.grid.count} stations, expected 60001"
    assert ok_runtime, f"runtime {runtime:.1f} s exceeds 60 s"
    assert ok_alpha, (f"alpha_actual range [{alpha.min():.3f}, "
                      f"{alpha.max():.3f}] deg outside [-6.25, 6.56]")
    assert ok_thrust, "thrust not positive at every station"
    assert ok_path, "flight-path angles drifted from zero"
    assert ok_closes, ("the textbook 6-DOF does not fly the solved "
                       f"controls along the maneuver: {evidence}")
    assert ok_scaled_miss, ("the textbook 6-DOF also flies a rudder "
                            f"scaled to a 48.9-49.9 deg peak: {evidence}")
    assert ok_dn, (
        f"max|delta_n| = {max_dn:.2f} deg outside 45.8 +- 1.0 deg; the "
        f"textbook 6-DOF flies the 1e-3 controls: {evidence}")


def _pair_metrics(a, b):
    metrics = {}
    for ch in ("delta_l", "delta_m", "delta_n", "thrust"):
        ca = getattr(a, ch)
        cb = np.interp(a.t, b.t, getattr(b, ch))
        peak = max(float(np.abs(ca).max()),
                   float(np.abs(getattr(b, ch)).max()), 1e-30)
        metrics[ch] = float(np.abs(ca - cb).max()) / peak
    return metrics


def test_criterion_4_step_size_insensitivity(solves):
    fine = [1e-4, 2e-4, 1e-3]
    worst = 0.0
    worst_pair = None
    for i in range(len(fine)):
        for j in range(i + 1, len(fine)):
            metrics = _pair_metrics(solves[fine[j]], solves[fine[i]])
            for ch, value in metrics.items():
                if value > worst:
                    worst, worst_pair = value, (fine[i], fine[j], ch)
    coarse_metrics = _pair_metrics(solves[1e-2], solves[1e-4])
    coarse_worst = max(coarse_metrics.values())
    ok_fine = worst < 0.01
    ok_coarse = coarse_worst > 0.01
    report(4, ok_fine and ok_coarse,
           f"worst pairwise deviation among (1e-4, 2e-4, 1e-3): "
           f"{100 * worst:.3f}% {worst_pair} (<1%); "
           f"1e-2 deviates by {100 * coarse_worst:.1f}% (detected)")
    assert ok_fine, (f"controls at fine steps deviate by {100 * worst:.2f}% "
                     f"on {worst_pair}")
    assert ok_coarse, "the 1e-2 run was not detected as deviating"


def test_criterion_5_symmetries_and_bank_endpoints(solves):
    hist = solves[1e-4]
    theta = hist.theta
    psi = hist.psi
    theta_sym = float(np.abs(theta - theta[::-1]).max())
    psi_anti = float(np.abs(psi + psi[::-1]).max())
    theta_peak = float(np.abs(theta).max())
    psi_peak = float(np.abs(psi).max())
    ok_theta = theta_sym <= 0.10 * theta_peak and theta.min() >= -1e-6
    ok_psi = psi_anti <= 0.10 * psi_peak
    n = hist.grid.count - 1
    phi0 = hist.phi[0]
    phi3 = hist.phi[n // 2]
    phi6 = hist.phi[n]
    ok_phi = (phi0 == 0.0 and abs(phi3 - math.pi) <= 1e-12
              and abs(phi6 - 2 * math.pi) <= 1e-12)
    ok = ok_theta and ok_psi and ok_phi
    report(5, ok,
           f"pitch symmetric to {100 * theta_sym / theta_peak:.2f}% of "
           f"peak and positive; heading antisymmetric to "
           f"{100 * psi_anti / psi_peak:.2f}% of peak; bank endpoints "
           f"(0, pi, 2pi) exact")
    assert ok_theta, "pitch history is not symmetric-positive"
    assert ok_psi, "heading history is not antisymmetric"
    assert ok_phi, f"bank endpoints {phi0}, {phi3}, {phi6} not exact"


def test_criterion_6_1_moment_round_trip(cfg):
    inertia = inertia_system(cfg)
    rng = random.Random(99)
    worst = 0.0
    for _ in range(200):
        state = dict(p=rng.uniform(-3, 3), q=rng.uniform(-3, 3),
                     r=rng.uniform(-3, 3), alpha=rng.uniform(-0.3, 0.4),
                     beta=rng.uniform(-0.4, 0.4),
                     v=rng.uniform(80.0, 300.0))
        qbar = 0.5 * rng.uniform(0.3, 1.2) * state["v"] ** 2
        accels = (rng.uniform(-5, 5), rng.uniform(-5, 5),
                  rng.uniform(-5, 5))
        dl, dm, dn = controls_from_angular_accels(
            *accels, qbar=qbar, inertia=inertia, coeffs=cfg.aero,
            s_ref=cfg.wing_area, span_ref=cfg.span_ref,
            chord_ref=cfg.chord_ref, **state)
        moments = moment_coefficients(
            state["alpha"], state["beta"], state["p"], state["q"],
            state["r"], state["v"], cfg.span_ref, dl, dm, dn, cfg.aero)
        _, _, _, ml, mm, mn = dimensionalize(qbar, cfg.wing_area,
                                             cfg.chord_ref, (0, 0, 0),
                                             moments)
        back = angular_accels_forward(state["p"], state["q"], state["r"],
                                      ml, mm, mn, inertia)
        for got, want in zip(back, accels):
            worst = max(worst, abs(got - want) / max(abs(want), 1e-9))
    ok = worst < 1e-9
    report("6.1", ok,
           f"forward/inverse moment round trip worst relative error "
           f"{worst:.2e} (<1e-9)")
    assert ok


def test_criterion_6_2_full_round_trip(cfg, solves):
    hist = solves[1e-3]
    run = simulate(hist.state_at(0), hist.controls(), cfg,
                   hist.reference.coeffs)
    dev_y, dev_z, phi_end, ok = _round_trip(hist, run.yg, run.zg, run.phi)
    report("6.2", ok,
           f"round-trip deviations y={dev_y:.3f} m, z={dev_z:.3f} m "
           f"(<{ROUND_TRIP_TOL_M:.1f} m); bank ends at {phi_end:.3f} deg "
           "(360+-2)")
    assert ok


def _order_from_errors(fd_fn, exact, h=2e-3):
    e1 = abs(fd_fn(h) - exact)
    e2 = abs(fd_fn(h / 2) - exact)
    if e2 < 1e-13 * max(1.0, abs(exact)):
        return 2.0  # at roundoff, accept
    return math.log2(e1 / e2)


def test_criterion_6_3_differentiated_equations():
    t = 1.4
    orders = {}

    m = WindChannelMotion()
    kw = m.rate_kwargs(t)
    kw_thrust = {k: v for k, v in kw.items()
                 if k not in ("v", "v_dot", "thrust_dot", "p", "q", "r",
                              "p_dot", "q_dot", "r_dot")}
    kw_thrust["thrust"] = m.balance_thrust(t)
    kw_thrust["v_ddot"] = m.v.d2(t)
    value = thrust_rate(**kw_thrust)
    orders["axial"] = _order_from_errors(
        lambda h: d1_central(m.balance_thrust, t, h), value)

    def beta_parent(u):
        base = m.common(u)
        base.update(v=m.v(u), thrust=m.thrust(u), r=m.r(u), p=m.p(u))
        return sideslip_rate(**base)

    kw_beta = {k: v for k, v in kw.items() if k not in ("q", "q_dot")}
    orders["lateral"] = _order_from_errors(
        lambda h: d1_central(beta_parent, t, h), sideslip_accel(**kw_beta))

    def alpha_parent(u):
        base = m.common(u)
        base.update(v=m.v(u), thrust=m.thrust(u), r=m.r(u), p=m.p(u),
                    q=m.q(u))
        return aoa_rate(**base)

    orders["normal"] = _order_from_errors(
        lambda h: d1_central(alpha_parent, t, h), aoa_accel(**kw))

    att = AttitudeMotion()

    def body_rates(u):
        return body_rates_from_euler(att.phi(u), att.theta(u),
                                     att.phi.d1(u), att.theta.d1(u),
                                     att.psi.d1(u))

    derivs = body_rate_derivatives(
        att.phi(t), att.theta(t), att.phi.d1(t), att.theta.d1(t),
        att.psi.d1(t), att.phi.d2(t), att.theta.d2(t), att.psi.d2(t))
    for i, name in enumerate(("roll_rate", "pitch_rate", "yaw_rate")):
        orders[name] = _order_from_errors(
            lambda h, i=i: d1_central(lambda u: body_rates(u)[i], t, h),
            derivs[i])

    def tw(u):
        return path_angles_from_attitude(att.alpha(u), att.beta(u),
                                         att.phi(u), att.theta(u),
                                         att.psi(u))[0]

    def pw(u):
        return path_angles_from_attitude(att.alpha(u), att.beta(u),
                                         att.phi(u), att.theta(u),
                                         att.psi(u))[1]

    rates = attitude_rates(
        alpha=att.alpha(t), beta=att.beta(t), phi=att.phi(t),
        alpha_dot=att.alpha.d1(t), beta_dot=att.beta.d1(t),
        phi_dot=att.phi.d1(t), theta=att.theta(t), psi=att.psi(t),
        theta_w=tw(t), psi_w=pw(t),
        theta_w_dot=d1_5pt(tw, t), psi_w_dot=d1_5pt(pw, t))
    orders["pitch_coupling"] = _order_from_errors(
        lambda h: d1_central(att.theta, t, h), rates[0])
    orders["heading_coupling"] = _order_from_errors(
        lambda h: d1_central(att.psi, t, h), rates[1])

    accels = attitude_accels(
        alpha=att.alpha(t), beta=att.beta(t), phi=att.phi(t),
        alpha_dot=att.alpha.d1(t), beta_dot=att.beta.d1(t),
        phi_dot=att.phi.d1(t), alpha_ddot=att.alpha.d2(t),
        beta_ddot=att.beta.d2(t), phi_ddot=att.phi.d2(t),
        theta=att.theta(t), psi=att.psi(t), theta_dot=att.theta.d1(t),
        psi_dot=att.psi.d1(t), theta_w=tw(t), psi_w=pw(t),
        theta_w_dot=d1_5pt(tw, t), psi_w_dot=d1_5pt(pw, t),
        theta_w_ddot=d2_5pt(tw, t), psi_w_ddot=d2_5pt(pw, t))
    orders["pitch_coupling_2nd"] = _order_from_errors(
        lambda h: d2_central(att.theta, t, h), accels[0])
    orders["heading_coupling_2nd"] = _order_from_errors(
        lambda h: d2_central(att.psi, t, h), accels[1])

    worst = min(orders.values())
    ok = worst >= 1.9
    report("6.3", ok,
           "differentiated equations vs central-difference oracles, "
           f"observed orders {{{', '.join(f'{k}: {v:.2f}' for k, v in orders.items())}}}")
    assert ok, f"worst observed order {worst:.2f} < 1.9: {orders}"


def test_criterion_6_4_stencils_and_rk4():
    h = 0.3
    t = h * np.arange(8) - 0.7
    quad = 2.0 * t * t - 3.0 * t + 1.0
    cubic = t ** 3 - t
    ok_fd1 = np.allclose(fd_first_derivative(quad, h), 4.0 * t - 3.0,
                         rtol=0, atol=1e-11)
    ok_fd2 = np.allclose(fd_second_derivative(cubic, h), 6.0 * t,
                         rtol=0, atol=1e-10)

    def poly_rate(u, y):
        return (3 * u * u - 2 * u + 5,)

    y1, _ = rk4_step(poly_rate, 0.2, (1.0,), 0.4)
    exact = 1.0 + (0.6 ** 3 - 0.6 ** 2 + 5 * 0.6) \
        - (0.2 ** 3 - 0.2 ** 2 + 5 * 0.2)
    ok_rk4_poly = abs(y1[0] - exact) < 1e-13

    e_full = abs(rk4_step(lambda u, y: (y[0],), 0.0, (1.0,), 0.1)[0][0]
                 - math.exp(0.1))
    e_half = abs(rk4_step(lambda u, y: (y[0],), 0.0, (1.0,), 0.05)[0][0]
                 - math.exp(0.05))
    local_order = math.log2(e_full / e_half)
    ok_rk4_exp = e_full < 1e-7 and local_order > 4.7

    ok = ok_fd1 and ok_fd2 and ok_rk4_poly and ok_rk4_exp
    report("6.4", ok,
           f"stencils exact on degree<=2/3 polynomials: "
           f"{ok_fd1 and ok_fd2}; single-step integrator exact on cubic "
           f"rates: {ok_rk4_poly}; exponential local error "
           f"{e_full:.2e} at order {local_order:.2f}")
    assert ok


def test_criterion_6_5_level_equilibrium(level_run):
    hist = level_run
    worst = 0.0
    for arr in (hist.alpha, hist.beta, hist.p, hist.q, hist.r, hist.theta,
                hist.psi, hist.delta_l, hist.delta_m, hist.delta_n):
        worst = max(worst, float(np.abs(arr).max()))
    thrust_drift = float(np.abs(hist.thrust - hist.thrust[0]).max())
    ok = worst <= 1e-6 and thrust_drift <= 1e-6
    report("6.5", ok,
           f"level run stays at equilibrium: worst perturbation "
           f"{worst:.2e}, thrust drift {thrust_drift:.2e} N (<1e-6)")
    assert ok


def test_criterion_7_thrust_shape(solves):
    hist = solves[1e-4]
    thrust = hist.thrust
    t0 = float(thrust[0])
    t_mid = float(thrust[(hist.grid.count - 1) // 2])
    t_end = float(thrust[-1])
    peak_to_trough = float(thrust.max() - thrust.min())
    sym = float(np.abs(thrust - thrust[::-1]).max())
    near = 0.15 * peak_to_trough
    ok_initial = abs(t0 - 11600.0) <= 200.0
    ok_dip = float(thrust.min()) < t0 - near
    ok_recover = abs(t_mid - t0) <= near
    ok_end = abs(t_end - t0) <= near
    ok_sym = sym <= near
    ok_limit = float(thrust.max()) < 71000.0
    ok = (ok_initial and ok_dip and ok_recover and ok_end and ok_sym
          and ok_limit)
    report(7, ok,
           f"thrust starts at {t0:.0f} N (11600+-200), dips to "
           f"{thrust.min():.0f} N, recovers to {t_mid:.0f} N at "
           f"mid-maneuver, ends at {t_end:.0f} N; symmetry defect "
           f"{sym:.0f} N vs budget {near:.0f} N; max {thrust.max():.0f} N "
           f"< 71 kN")
    assert ok_initial and ok_dip and ok_recover and ok_end
    assert ok_sym and ok_limit
