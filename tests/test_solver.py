import math
from dataclasses import fields, replace

import numpy as np
import pytest

from invflight import (
    AltitudeOutOfRange,
    ConfigError,
    FlightState,
    TrajectorySpec,
    VerticalFlight,
    ZeroVelocity,
    convergence_study,
    initialize,
    maneuver_spec,
    setup,
    solve,
)
from invflight import aero, solver
from invflight.atmosphere import density, density_gradient
from invflight.model import AnalyticChannel, AnalyticManeuver, SampledManeuver
from invflight.numerics import (
    fd_first_derivative,
    fd_second_derivative,
    fd_third_derivative,
)
from invflight.solver import MANEUVERS

from oracles import Sine, TextbookSixDof, swept_stage_rates
import tracing


def channel_from_sine(s):
    return AnalyticChannel(
        f=lambda t: s.mean + s.amp * np.sin(s.w * np.asarray(t) + s.phase),
        d1=lambda t: s.amp * s.w * np.cos(s.w * np.asarray(t) + s.phase),
        d2=lambda t: -s.amp * s.w ** 2 * np.sin(s.w * np.asarray(t)
                                                + s.phase),
        d3=lambda t: -s.amp * s.w ** 3 * np.cos(s.w * np.asarray(t)
                                                + s.phase),
    )


def constant_channel(value):
    return AnalyticChannel(
        f=lambda t: np.full_like(np.asarray(t, dtype=float), value),
        d1=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        d2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        d3=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def helix_spec(radius=2000.0, omega=0.05, sink=10.0, depth=5000.0,
               duration=6.0, dt=1e-2, phase=0.0):
    """A helix flown counter-clockwise seen from above, whose path
    azimuth is ``omega * t + phase + pi/2``."""
    def make(f, d1, d2, d3):
        return AnalyticChannel(f=f, d1=d1, d2=d2, d3=d3)

    w = omega

    def ang(t):
        return w * np.asarray(t) + phase

    x = make(lambda t: radius * np.cos(ang(t)),
             lambda t: -radius * w * np.sin(ang(t)),
             lambda t: -radius * w ** 2 * np.cos(ang(t)),
             lambda t: radius * w ** 3 * np.sin(ang(t)))
    y = make(lambda t: radius * np.sin(ang(t)),
             lambda t: radius * w * np.cos(ang(t)),
             lambda t: -radius * w ** 2 * np.sin(ang(t)),
             lambda t: -radius * w ** 3 * np.cos(ang(t)))
    z = make(lambda t: -depth - sink * np.asarray(t, dtype=float),
             lambda t: np.full_like(np.asarray(t, dtype=float), -sink),
             lambda t: np.zeros_like(np.asarray(t, dtype=float)),
             lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    return TrajectorySpec(duration=duration, dt=dt, name="helix",
                          analytic=AnalyticManeuver(
                              x=x, y=y, z=z, phi=constant_channel(0.0)))


def sampled_helix_spec(dt=0.01, n=601, **shape):
    """``helix_spec`` sampled at its stations, as a maneuver file gives it."""
    t = dt * np.arange(n)
    helix = helix_spec(dt=dt, **shape).analytic
    return TrajectorySpec(
        duration=dt * (n - 1), dt=dt, name="helix-sampled",
        samples=SampledManeuver(t=t, x=helix.x.f(t), y=helix.y.f(t),
                                z=helix.z.f(t), phi=np.zeros(n)))


def sampled_weave_spec(dt=0.01, n=601):
    """A climbing, accelerating weave sampled at its stations: every
    profile varies."""
    t = dt * np.arange(n)
    return TrajectorySpec(
        duration=dt * (n - 1), dt=dt, name="weave-sampled",
        samples=SampledManeuver(
            t=t, x=150.0 * t + 2.0 * t * t, y=300.0 * np.sin(0.5 * t),
            z=-6000.0 + 40.0 * np.sin(0.7 * t) - 3.0 * t,
            phi=0.3 * np.sin(0.9 * t)))


def stage_table(profiles):
    """The blocks of ``stage_rows()`` joined, each shared row once."""
    blocks = list(profiles.stage_rows())
    return np.concatenate([blocks[0]] + [b[1:] for b in blocks[1:]])


def profile_columns(profiles):
    """The half-step profiles by name, columns of ``stage_table``."""
    return dict(zip(TestStageTable.COLUMNS, stage_table(profiles).T))


class TestSetup:
    def test_roll_maneuver_level_profile(self):
        prof = profile_columns(setup(maneuver_spec("mirage-roll", 1e-3)))
        assert np.all(prof["v"] == 200.0)
        for name in ("v_dot", "v_ddot", "theta_w", "theta_w_dot",
                     "theta_w_ddot", "psi_w", "psi_w_dot", "psi_w_ddot"):
            assert np.all(prof[name] == 0.0), name

    def test_roll_bank_endpoints(self):
        prof = profile_columns(setup(maneuver_spec("mirage-roll", 1e-3)))
        phi, phi_dot = prof["phi"], prof["phi_dot"]
        mid = (len(phi) - 1) // 2
        assert phi[0] == 0.0
        assert phi[mid] == pytest.approx(math.pi, abs=1e-12)
        assert phi[-1] == pytest.approx(2 * math.pi, abs=1e-12)
        assert phi_dot[0] == pytest.approx(0.0, abs=1e-12)
        assert phi_dot[-1] == pytest.approx(0.0, abs=1e-12)

    def test_constraints_copied_exactly(self):
        prof = setup(maneuver_spec("mirage-roll", 1e-3))
        t = prof.stations.times()
        cols = {k: a[::2] for k, a in profile_columns(prof).items()}
        assert np.array_equal(cols["xg"], 200.0 * t)
        assert np.all(cols["yg"] == 0.0)
        assert np.all(cols["zg"] == -10000.0)

    def test_helix_profiles(self):
        prof = profile_columns(setup(helix_spec()))
        v_expected = math.hypot(2000.0 * 0.05, 10.0)
        assert prof["v"] == pytest.approx(
            np.full_like(prof["v"], v_expected), rel=1e-12)
        tw_expected = math.asin(10.0 / v_expected)
        assert prof["theta_w"] == pytest.approx(
            np.full_like(prof["theta_w"], tw_expected), rel=1e-12)
        # circular ground track: azimuth rate equals the turn rate
        assert prof["psi_w_dot"] == pytest.approx(
            np.full_like(prof["psi_w_dot"], 0.05), rel=1e-9)
        assert np.max(np.abs(prof["v_dot"])) < 1e-9
        assert np.max(np.abs(prof["theta_w_ddot"])) < 1e-9

    def test_altitude_range_enforced(self):
        spec = TrajectorySpec(
            duration=1.0, dt=0.1, name="too-high",
            analytic=AnalyticManeuver(
                x=channel_from_sine(Sine(0.0, 0.0, 1.0)),
                y=constant_channel(0.0),
                z=constant_channel(-12000.0),
                phi=constant_channel(0.0)))
        # degenerate x would also be zero velocity; give it motion
        spec = TrajectorySpec(
            duration=1.0, dt=0.1, name="too-high",
            analytic=AnalyticManeuver(
                x=AnalyticChannel(
                    f=lambda t: 100.0 * np.asarray(t, dtype=float),
                    d1=lambda t: np.full_like(np.asarray(t, float), 100.0),
                    d2=lambda t: np.zeros_like(np.asarray(t, float)),
                    d3=lambda t: np.zeros_like(np.asarray(t, float))),
                y=constant_channel(0.0),
                z=constant_channel(-12000.0),
                phi=constant_channel(0.0)))
        with pytest.raises(AltitudeOutOfRange, match="station 0"):
            setup(spec)

    @pytest.mark.parametrize("spec", [
        helix_spec(depth=-0.004, sink=0.0),
        sampled_helix_spec(depth=-0.004, sink=0.0)],
        ids=["analytic", "sampled"])
    def test_altitude_message_shows_the_violation(self, spec):
        # 4 mm below sea level: one decimal would print "-0.0"
        with pytest.raises(AltitudeOutOfRange) as info:
            setup(spec)
        assert str(info.value) == ("altitude -0.004 m outside "
                                   "[0, 11000] m at station 0")

    def test_refusals_keep_the_whole_runs_order(self, monkeypatch):
        # a vertical climb at station 20 and zero speed from station 40:
        # the 7-station blocks meet the vertical path first, but a check
        # of the whole run refuses the zero speed, and so does setup
        def half_step(t):
            return np.rint(np.asarray(t, dtype=float) / 0.005)

        def zero(t):
            return np.zeros_like(np.asarray(t, dtype=float))

        x = AnalyticChannel(
            f=lambda t: 100.0 * np.asarray(t, dtype=float),
            d1=lambda t: np.where((half_step(t) == 40)
                                  | (half_step(t) >= 80), 0.0, 100.0),
            d2=zero, d3=zero)
        z = AnalyticChannel(
            f=lambda t: -5000.0 - 10.0 * np.asarray(t, dtype=float),
            d1=lambda t: np.where(half_step(t) >= 80, 0.0, -10.0),
            d2=zero, d3=zero)
        spec = TrajectorySpec(
            duration=1.0, dt=0.01, name="stop", analytic=AnalyticManeuver(
                x=x, y=constant_channel(0.0), z=z,
                phi=constant_channel(0.0)))
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        with pytest.raises(ZeroVelocity, match="^zero speed at station 40$"):
            setup(spec)
        spec = replace(spec, duration=0.35)  # ends before station 40
        with pytest.raises(VerticalFlight,
                           match="^vertical flight path at station 20$"):
            setup(spec)

    @pytest.mark.parametrize("spec", [
        maneuver_spec("mirage-roll", 1e-3),
        sampled_helix_spec(dt=1e-3, n=6001)],
        ids=["roll", "sampled-helix"])
    def test_transient_memory(self, spec):
        # setup keeps no array: 992 B traced on the roll and 1,176 B on
        # the sampled helix, the profiles included, where keeping the
        # (3, n) block of station coordinates took 147,552 and 147,888 B,
        # and keeping the (2n-1, 14) stage table too about 248 B a
        # station. Its refusal pass holds one block's temporaries at a
        # time, so its peak does not grow with the run
        [(kept, peak)] = tracing.readings(setup, spec)
        assert kept < 4096
        # in half-step arrays of one block (2 points a station, 8 B
        # each): 9.1 on the roll and 6.0 on the sampled helix
        assert (peak - kept) / (16 * solver.STATION_BLOCK) < 16

    def test_sampled_midpoints_are_station_means(self):
        table = stage_table(setup(sampled_weave_spec()))
        assert np.array_equal(table[1::2],
                              0.5 * (table[:-2:2] + table[2::2]))

    def test_sampled_stations_are_station_grid_profiles(self):
        # every profile of a sampled spec is computed on the station grid
        # (the even rows), in this operation order
        spec = sampled_weave_spec()
        s, dt = spec.samples, spec.dt
        d1, d2 = fd_first_derivative, fd_second_derivative
        xd, yd, zd = (d1(a, dt) for a in (s.x, s.y, s.z))
        xdd, ydd, zdd = (d2(a, dt) for a in (s.x, s.y, s.z))
        xddd, yddd, zddd = (fd_third_derivative(a, dt)
                            for a in (s.x, s.y, s.z))
        v = np.sqrt(xd * xd + yd * yd + zd * zd)
        v_dot, v_ddot = d1(v, dt), d2(v, dt)
        stw = np.clip(-zd / v, -1.0, 1.0)
        theta_w = np.arcsin(stw)
        ctw = np.cos(theta_w)
        psi_w = np.unwrap(np.arctan2(yd, xd))
        spw, cpw = np.sin(psi_w), np.cos(psi_w)
        vctw = v * ctw
        theta_w_dot = -(zdd + v_dot * stw) / vctw
        psi_w_dot = (cpw * ydd - spw * xdd) / vctw
        expected = dict(
            v=v, v_dot=v_dot, v_ddot=v_ddot, theta_w=theta_w,
            theta_w_dot=theta_w_dot,
            theta_w_ddot=-(zddd + v_ddot * stw
                           + 2.0 * v_dot * ctw * theta_w_dot
                           - v * stw * theta_w_dot * theta_w_dot) / vctw,
            psi_w=psi_w, psi_w_dot=psi_w_dot,
            psi_w_ddot=((-spw * ydd - cpw * xdd) * psi_w_dot
                        + cpw * yddd - spw * xddd
                        - psi_w_dot * (v_dot * ctw - v * stw * theta_w_dot)
                        ) / vctw,
            phi=s.phi, phi_dot=d1(s.phi, dt), phi_ddot=d2(s.phi, dt),
            rho=density(s.z), rho_dot=density_gradient(s.z) * zd,
            xg=s.x, yg=s.y, zg=s.z)
        table = stage_table(setup(spec))
        assert len(expected) == len(TestStageTable.COLUMNS)
        for k, name in enumerate(TestStageTable.COLUMNS):
            assert np.array_equal(table[::2, k], expected[name]), name

    def test_s_turn_profile_derivative_chains(self):
        # weaving climb: nonconstant speed, elevation and azimuth rates;
        # every profile derivative channel must match a finite difference
        # of its parent channel
        v0, amp_y, w_y = 150.0, 300.0, 0.5
        amp_z, w_z = 40.0, 0.7
        x = AnalyticChannel(
            f=lambda t: v0 * np.asarray(t, dtype=float),
            d1=lambda t: np.full_like(np.asarray(t, float), v0),
            d2=lambda t: np.zeros_like(np.asarray(t, float)),
            d3=lambda t: np.zeros_like(np.asarray(t, float)))
        y = channel_from_sine(Sine(0.0, amp_y, w_y))
        z_osc = channel_from_sine(Sine(0.0, amp_z, w_z))
        z = AnalyticChannel(
            f=lambda t: -6000.0 + z_osc.f(t),
            d1=z_osc.d1, d2=z_osc.d2, d3=z_osc.d3)
        phi = channel_from_sine(Sine(0.0, 0.3, 0.9))
        spec = TrajectorySpec(duration=6.0, dt=0.01, name="s-turn",
                              analytic=AnalyticManeuver(x=x, y=y, z=z,
                                                        phi=phi))
        prof = profile_columns(setup(spec))
        half = 0.005
        pairs = [
            ("theta_w", "theta_w_dot", 1e-5),
            ("theta_w_dot", "theta_w_ddot", 1e-4),
            ("psi_w", "psi_w_dot", 1e-5),
            ("psi_w_dot", "psi_w_ddot", 1e-4),
            ("phi", "phi_dot", 1e-5),
            ("phi_dot", "phi_ddot", 1e-4),
            ("rho", "rho_dot", 1e-6),
            ("v", "v_dot", 1e-4),
            ("v_dot", "v_ddot", 1e-3),
        ]
        for name, child_name, atol in pairs:
            parent, child = prof[name], prof[child_name]
            fd = fd_first_derivative(parent, half)
            scale = max(float(np.abs(child).max()), 1.0)
            assert np.max(np.abs(fd[2:-2] - child[2:-2])) < atol * scale

    def test_sampled_input_matches_analytic(self):
        # a sampled version of a smooth trajectory reproduces the analytic
        # profiles to stencil accuracy
        pa = profile_columns(setup(helix_spec(dt=0.01)))
        ps = profile_columns(setup(sampled_helix_spec(dt=0.01)))
        assert ps["v"] == pytest.approx(pa["v"], rel=1e-6)
        assert ps["theta_w"] == pytest.approx(pa["theta_w"], abs=1e-7)
        assert ps["psi_w_dot"] == pytest.approx(pa["psi_w_dot"], rel=1e-5)


class TestStageTable:
    # the stage rate function's unpack order, then the station coordinates
    COLUMNS = ("v", "v_dot", "v_ddot", "theta_w", "theta_w_dot",
               "theta_w_ddot", "psi_w", "psi_w_dot", "psi_w_ddot",
               "phi", "phi_dot", "phi_ddot", "rho", "rho_dot",
               "xg", "yg", "zg")

    @pytest.mark.parametrize("spec", [maneuver_spec("mirage-roll", 1e-2),
                                      sampled_helix_spec()],
                             ids=["roll", "sampled"])
    def test_layout(self, spec, monkeypatch):
        # stations s..s+k come as one C-contiguous float64 table of the
        # half-step rows 2s..2s+2k, and the next block starts at its last
        # row (601 stations: 86 blocks of 7, the last of 5)
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        blocks = list(setup(spec).stage_rows())
        assert [len(b) // 2 for b in blocks] == [7] * 85 + [5]
        row = solver._STAGE_ROW
        for table in blocks:
            assert isinstance(table, np.ndarray)
            assert table.dtype == np.float64
            assert table.flags.c_contiguous
            assert table.shape == (len(table), len(self.COLUMNS))
            # the packed read of the rate function, at the row stride,
            # sees the row's first 14 values
            for i in (0, 1, len(table) // 2, len(table) - 1):
                assert row.unpack_from(table, table.strides[0] * i) == \
                    tuple(table[i, :14].tolist())
        for a, b in zip(blocks, blocks[1:]):
            assert a[-1].tobytes() == b[0].tobytes()

    SPECS = {"roll": lambda: maneuver_spec("mirage-roll", 1e-2),
             "helix": helix_spec, "sampled-helix": sampled_helix_spec,
             "sampled-weave": sampled_weave_spec}

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_blocks_join_into_the_whole_run_table(self, name, monkeypatch):
        # 601 stations in one block, and in blocks of 7 with each shared
        # row taken once, give the same table bit for bit
        spec = self.SPECS[name]()
        n = spec.station_count
        monkeypatch.setattr(solver, "STATION_BLOCK", n)
        [whole] = setup(spec).stage_rows()
        assert whole.shape == (2 * n - 1, len(self.COLUMNS))
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        assert stage_table(setup(spec)).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("name", ["turn-180-in-block",
                                      "turn-180-at-boundary", "minus-zero"])
    def test_azimuth_is_np_unwrap(self, name, monkeypatch):
        # the blocks' azimuth is np.unwrap's over the whole run, bit for
        # bit: across +-180 deg inside a block or at its last row, and
        # with a -0.0 start (np.unwrap keeps the first point as it is)
        if name == "minus-zero":
            spec = TrajectorySpec(
                duration=6.0, dt=1e-2, name=name, analytic=AnalyticManeuver(
                    x=solver._linear(200.0), y=solver._linear(-0.0),
                    z=solver._linear(0.0, -10000.0), phi=solver._linear(0.0)))
        else:
            spec = TestBlockedSolve.SPECS[name]()
        man, tf = spec.analytic, 0.5 * spec.dt * np.arange(
            2 * spec.station_count - 1)
        want = np.unwrap(np.arctan2(man.y.d1(tf), man.x.d1(tf)))
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        psi_w = profile_columns(setup(spec))["psi_w"]
        assert psi_w.tobytes() == want.tobytes()
        assert np.signbit(psi_w[0]) == (name == "minus-zero")

    def test_no_array_is_kept(self):
        # the profiles hold no array: the march reads the stage table,
        # station coordinates included, a block at a time
        prof = setup(maneuver_spec("mirage-roll", 1e-2))
        arrays = [f.name for f in fields(prof)
                  if isinstance(getattr(prof, f.name), np.ndarray)]
        assert arrays == []


class TestInitialize:
    # the march's twelve-value state, in march order
    START = ("alpha", "beta", "theta", "psi", "thrust", "alpha_dot",
             "beta_dot", "theta_dot", "psi_dot", "p", "q", "r")

    def start(self, profiles, cfg):
        init = initialize(profiles, cfg)
        assert len(init.y0) == len(self.START)
        return dict(zip(self.START, init.y0)), init.reference

    @pytest.mark.parametrize("spec", [
        maneuver_spec("mirage-roll", 1e-4), maneuver_spec("mirage-roll", 1e-2),
        sampled_helix_spec(dt=1e-3, n=6001)],
        ids=["roll-1e-4", "roll-1e-2", "sampled-helix"])
    def test_one_station_table_is_the_first_blocks_row_0(self, spec):
        # initialize reads station 0 from a one-station table, which must
        # be the row the march's first block starts from
        profiles = setup(spec)
        one = profiles._block(0, 1, [-0.0])
        assert one.shape == (3, len(TestStageTable.COLUMNS))
        assert one[0].tobytes() == next(profiles.stage_rows())[0].tobytes()

    def test_march_builds_each_block_once(self, mirage, monkeypatch):
        # the 601 stations in 7-station blocks: initialize builds a
        # one-station table (3 half-step rows), then the march builds each
        # block's 15 rows (11 for the last 5 stations) once
        real, built = solver.KinematicProfiles._block, []

        def counted(profiles, s, *rest):
            table = real(profiles, s, *rest)
            if table is not None:  # not the refusal pass
                built.append((s, len(table)))
            return table

        monkeypatch.setattr(solver.KinematicProfiles, "_block", counted)
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        solve(maneuver_spec("mirage-roll", 1e-2), mirage)
        assert built == [(0, 3), *((s, 15) for s in range(0, 595, 7)),
                         (595, 11)]

    def test_roll_maneuver_equilibrium_start(self, mirage):
        spec = maneuver_spec("mirage-roll", 1e-2)
        s, ref = self.start(setup(spec), mirage)
        assert (s["alpha"], s["beta"]) == (0.0, 0.0)
        assert (s["theta"], s["psi"]) == (0.0, 0.0)
        assert (s["p"], s["q"], s["r"]) == pytest.approx((0.0, 0.0, 0.0),
                                                         abs=1e-15)
        assert (s["alpha_dot"], s["beta_dot"]) == (0.0, 0.0)
        assert (s["theta_dot"], s["psi_dot"]) == pytest.approx((0.0, 0.0),
                                                               abs=1e-15)
        assert s["thrust"] == pytest.approx(11572.0, abs=20.0)
        assert ref.c_lift0_equib == pytest.approx(0.245, abs=1e-3)
        # the march starts from it, and the recovery pass finds the
        # moments balanced there with zero deflections
        hist = solve(spec, mirage)
        assert tuple(getattr(hist, k)[0] for k in self.START) == \
            tuple(s.values())
        assert hist.reference == ref
        assert (hist.delta_l[0], hist.delta_m[0], hist.delta_n[0]) == \
            pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_climb_start_adds_weight_component(self, mirage):
        gamma = 0.05
        v0 = 200.0
        cg, sg = math.cos(gamma), math.sin(gamma)
        climb = TrajectorySpec(
            duration=2.0, dt=0.01, name="climb",
            analytic=AnalyticManeuver(
                x=AnalyticChannel(
                    f=lambda t: v0 * cg * np.asarray(t, dtype=float),
                    d1=lambda t: np.full_like(np.asarray(t, float), v0 * cg),
                    d2=lambda t: np.zeros_like(np.asarray(t, float)),
                    d3=lambda t: np.zeros_like(np.asarray(t, float))),
                y=constant_channel(0.0),
                z=AnalyticChannel(
                    f=lambda t: -5000.0 - v0 * sg * np.asarray(t, float),
                    d1=lambda t: np.full_like(np.asarray(t, float),
                                              -v0 * sg),
                    d2=lambda t: np.zeros_like(np.asarray(t, float)),
                    d3=lambda t: np.zeros_like(np.asarray(t, float))),
                phi=constant_channel(0.0)))
        start, _ = self.start(setup(climb), mirage)
        assert start["theta"] == pytest.approx(gamma, rel=1e-12)

        level = TrajectorySpec(
            duration=2.0, dt=0.01, name="level-5km",
            analytic=AnalyticManeuver(
                x=AnalyticChannel(
                    f=lambda t: v0 * np.asarray(t, dtype=float),
                    d1=lambda t: np.full_like(np.asarray(t, float), v0),
                    d2=lambda t: np.zeros_like(np.asarray(t, float)),
                    d3=lambda t: np.zeros_like(np.asarray(t, float))),
                y=constant_channel(0.0),
                z=constant_channel(-5000.0),
                phi=constant_channel(0.0)))
        start_level, _ = self.start(setup(level), mirage)
        extra = start["thrust"] - start_level["thrust"]
        assert extra == pytest.approx(mirage.mass * 9.81 * sg, rel=1e-3)

        # banked, heading off north: with zero airflow angles the start
        # attitude is the path direction itself, exactly
        chi, bank = 0.6, 0.3
        banked = TrajectorySpec(
            duration=2.0, dt=0.01, name="banked-climb",
            analytic=AnalyticManeuver(
                x=AnalyticChannel(
                    f=lambda t: v0 * cg * math.cos(chi) * np.asarray(t, float),
                    d1=lambda t: np.full_like(np.asarray(t, float),
                                              v0 * cg * math.cos(chi)),
                    d2=lambda t: np.zeros_like(np.asarray(t, float)),
                    d3=lambda t: np.zeros_like(np.asarray(t, float))),
                y=AnalyticChannel(
                    f=lambda t: v0 * cg * math.sin(chi) * np.asarray(t, float),
                    d1=lambda t: np.full_like(np.asarray(t, float),
                                              v0 * cg * math.sin(chi)),
                    d2=lambda t: np.zeros_like(np.asarray(t, float)),
                    d3=lambda t: np.zeros_like(np.asarray(t, float))),
                z=climb.analytic.z,
                phi=constant_channel(bank)))
        prof = setup(banked)
        columns = profile_columns(prof)
        theta_w0 = float(columns["theta_w"][0])
        psi_w0 = float(columns["psi_w"][0])
        assert (theta_w0, psi_w0) == pytest.approx((gamma, chi), rel=1e-12)
        start, _ = self.start(prof, mirage)
        assert (start["theta"], start["psi"]) == (theta_w0, psi_w0)
        # the bank is a constraint: the solved station 0 holds it exactly
        assert solve(banked, mirage).phi[0] == bank


class TestSolve:
    def test_level_flight_stays_at_equilibrium(self, mirage):
        hist = solve(maneuver_spec("level", 1e-3), mirage)
        for arr in (hist.alpha, hist.beta, hist.p, hist.q, hist.r,
                    hist.theta, hist.psi, hist.delta_l, hist.delta_m,
                    hist.delta_n):
            assert np.max(np.abs(arr)) <= 1e-6
        assert np.max(np.abs(hist.thrust - hist.thrust[0])) <= 1e-6
        assert not hist.stall.any()
        assert not hist.reverse_thrust.any()

    def test_stall_flags_keep_their_bits(self, mirage):
        # a pull-up of up to 25 m/s^2 takes alpha_actual past 15 deg, so
        # some stations stall and some do not; solve forms |alpha_actual|
        # in place, which must flag what the whole-array expression flags
        t = 1e-2 * np.arange(601)
        spec = TrajectorySpec(
            duration=6.0, dt=1e-2, name="pull-up", samples=SampledManeuver(
                t=t, x=200.0 * t, y=np.zeros(601),
                z=-10000.0 + 100.0 * np.sin(0.5 * t), phi=np.zeros(601)))
        hist = solve(spec, mirage)
        want = (np.abs(hist.alpha + hist.reference.alpha_shift)
                > aero.STALL_ALPHA)
        assert 0 < want.sum() < hist.grid.count
        assert hist.stall.dtype == want.dtype
        assert hist.stall.tobytes() == want.tobytes()

    def test_peak_memory_per_station(self, mirage):
        # traced peak of the whole solve: about 1,590 B a station when
        # the stage table was a list of float tuples and each station
        # went through 21 scalar stores, about 830 B with the packed
        # table and record block while the half-step profiles were kept
        # beside the table, about 720 B once they were its columns but
        # setup still held them all as temporaries, about 510 B once
        # setup wrote each into its column as it is computed, about 490 B
        # once the deflections were recovered after the march, with the
        # stage table gone, about 462 B once the record block and the
        # station block carried only what is read (no thrust rate, no
        # ground velocities), about 472 B once the stage table came a
        # block at a time: this run's one block is built before the
        # record block, 480 B before the stage table and each part carried
        # the station coordinates, 512 B since, and 443 B in the default
        # blocks of 512 (2-vCPU AVX-512 Xeon; at dt 1e-2: traced, a 1e-3
        # solve takes half a minute)
        spec = maneuver_spec("mirage-roll", 1e-2)
        [(_, peak)] = tracing.readings(lambda spec: solve(spec, mirage),
                                          spec)
        assert peak / spec.station_count < 527

    def test_peak_memory_per_station_in_blocks(self, mirage, monkeypatch):
        # the march holds one block of stage rows at a time, so what a solve
        # allocates above the solution it keeps is 90 B a station with
        # 64-station blocks (peak 311 B, kept 221 B; 2-vCPU AVX-512 Xeon);
        # a solve that builds the whole (2n-1, 14) table reads 247 B
        monkeypatch.setattr(solver, "STATION_BLOCK", 64)
        spec = maneuver_spec("mirage-roll", 1e-2)
        [(kept, peak)] = tracing.readings(lambda spec: solve(spec, mirage),
                                          spec)
        assert (peak - kept) / spec.station_count < 128

    def test_roll_maneuver_sanity(self, mirage):
        hist = solve(maneuver_spec("mirage-roll", 1e-3), mirage)
        assert hist.grid.count == 6001
        # path angles are algebraic outputs and never drift
        assert np.all(hist.theta_w == 0.0)
        assert np.all(hist.psi_w == 0.0)
        # constraint channels reproduce the prescription exactly
        assert np.array_equal(hist.xg, 200.0 * hist.t)
        assert np.all(hist.zg == -10000.0)
        assert np.all(hist.thrust > 0.0)
        assert not hist.reverse_thrust.any()
        assert not hist.stall.any()
        # the roll actually happens
        assert hist.phi[-1] == pytest.approx(2 * math.pi, abs=1e-12)
        assert 0.0 <= hist.rate_gap < 0.2

    def test_station_records_are_consistent(self, mirage):
        hist = solve(maneuver_spec("mirage-roll", 1e-2), mirage)
        state = hist.state_at(3)
        for f in fields(FlightState):
            assert getattr(state, f.name) == getattr(hist, f.name)[3], f.name
        controls = hist.controls()
        assert controls.grid.count == hist.grid.count
        assert np.array_equal(controls.delta_n, hist.delta_n)

    def test_station_controls_follow_the_moment_balance(self, mirage):
        # the march recovers the deflections with a positional call; the
        # Mirage-III has span_ref == chord_ref, so a distinct chord keeps
        # two swapped reference lengths from passing
        from invflight import dynamics

        cfg = replace(mirage, chord_ref=3.5)
        spec = maneuver_spec("mirage-roll", 1e-2)
        hist = solve(spec, cfg)
        rho = profile_columns(setup(spec))["rho"][::2]
        inertia = dynamics.inertia_system(cfg)
        coeffs = hist.reference.coeffs
        for i in range(hist.grid.count):
            v = float(hist.v[i])
            want = dynamics.controls_from_angular_accels(
                p_dot=float(hist.p_dot[i]), q_dot=float(hist.q_dot[i]),
                r_dot=float(hist.r_dot[i]), p=float(hist.p[i]),
                q=float(hist.q[i]), r=float(hist.r[i]),
                alpha=float(hist.alpha[i]), beta=float(hist.beta[i]),
                v=v, qbar=0.5 * float(rho[i]) * v * v, inertia=inertia,
                coeffs=coeffs, s_ref=cfg.wing_area, span_ref=cfg.span_ref,
                chord_ref=cfg.chord_ref)
            got = (hist.delta_l[i], hist.delta_m[i], hist.delta_n[i])
            assert got == want, i

    def test_deflections_are_recovered_after_the_march(self, mirage,
                                                       monkeypatch):
        # the march never reads the deflections back: one recovery call
        # per block of stations, station 0 included, not one per station
        # (601 here, 2 blocks at the default 512)
        from invflight import dynamics

        real = dynamics.controls_from_angular_accels
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(dynamics, "controls_from_angular_accels",
                            counting)
        spec = maneuver_spec("mirage-roll", 1e-2)
        solve(spec, mirage)
        assert len(calls) == len(range(0, spec.station_count - 1,
                                       solver.STATION_BLOCK))

    def test_solution_satisfies_governing_relations_pointwise(self, mirage):
        # residual check independent of the marching scheme: the solved
        # histories must sit on the algebraic coupling manifold and
        # satisfy the force balances station by station
        from invflight import density, dynamics, kinematics
        from invflight.aero import body_force_coefficients, drag_coefficient

        dt = 1e-3
        hist = solve(maneuver_spec("mirage-roll", dt), mirage)
        coeffs = hist.reference.coeffs
        rho = float(density(hist.zg[0]))
        beta_dot_fd = fd_first_derivative(hist.beta, dt)
        worst_coupling = 0.0
        worst_axial = 0.0
        worst_lateral = 0.0
        for i in range(0, hist.grid.count, 25):
            al, be = float(hist.alpha[i]), float(hist.beta[i])
            ph, th, ps = (float(hist.phi[i]), float(hist.theta[i]),
                          float(hist.psi[i]))
            tw, pw = kinematics.path_angles_from_attitude(al, be, ph, th, ps)
            worst_coupling = max(worst_coupling,
                                 abs(tw - hist.theta_w[i]),
                                 abs(pw - hist.psi_w[i]))
            v = float(hist.v[i])
            qbar = 0.5 * rho * v * v
            c_lift = coeffs.c_lift0 + coeffs.c_lift_alpha * al
            c_drag = drag_coefficient(c_lift, coeffs)
            c_side = coeffs.c_side_beta * be
            cx, cy, cz = body_force_coefficients(c_drag, c_side, c_lift,
                                                 al, be)
            t_bal = dynamics.thrust_from_force_balance(
                mass=mirage.mass, g=9.81, s_ref=mirage.wing_area,
                qbar=qbar, v_dot=0.0, alpha=al, beta=be, theta=th, phi=ph,
                c_x=cx, c_y=cy, c_z=cz)
            worst_axial = max(worst_axial, abs(hist.thrust[i] - t_bal))
            bd = dynamics.sideslip_rate(
                mass=mirage.mass, g=9.81, s_ref=mirage.wing_area,
                qbar=qbar, v=v, thrust=float(hist.thrust[i]), alpha=al,
                beta=be, theta=th, phi=ph, p=float(hist.p[i]),
                r=float(hist.r[i]), c_x=cx, c_y=cy, c_z=cz)
            worst_lateral = max(worst_lateral, abs(bd - beta_dot_fd[i]))
        assert worst_coupling < 1e-8
        assert worst_axial < 1e-5       # N, against a ~10 kN channel
        assert worst_lateral < 5e-4     # limited by the checking stencil


def banked_climbing_turn(dt=1e-2, duration=3.0, phase=0.0):
    """Coordinated climbing turn: 200 m/s on a 4 km radius, 45.5 deg bank,
    climbing 10 m/s."""
    spec = helix_spec(radius=4000.0, omega=0.05, sink=-10.0, depth=5000.0,
                      duration=duration, dt=dt, phase=phase)
    bank = math.atan(200.0 * 0.05 / 9.81)
    return replace(spec, name="banked-climb", analytic=replace(
        spec.analytic, phi=constant_channel(bank)))


def turn_across_180(t_cross, sampled=False):
    """``banked_climbing_turn`` over 6 s whose path azimuth passes +-180
    deg at ``t_cross``, analytic or sampled at its stations."""
    spec = banked_climbing_turn(duration=6.0,
                                phase=math.pi / 2 - 0.05 * t_cross)
    if not sampled:
        return spec
    man, t = spec.analytic, spec.dt * np.arange(spec.station_count)
    return replace(spec, analytic=None, samples=SampledManeuver(
        t=t, x=man.x.f(t), y=man.y.f(t), z=man.z.f(t), phi=man.phi.f(t)))


class TestBlockedSolve:
    """A solve fed 7-station blocks is the whole-run solve, bit for bit
    (601 stations, the whole run marched as one block)."""

    # station 343 ends the 49th block of 7; the half-step row (analytic)
    # or station (sampled) after the crossing is 347, 343 or 344
    SPECS = {
        "roll": lambda: maneuver_spec("mirage-roll", 1e-2),
        "helix": helix_spec, "sampled-helix": sampled_helix_spec,
        # the weave's march gives up at station 86
        "sampled-weave": lambda: sampled_weave_spec(n=81),
        "turn-180-in-block": lambda: turn_across_180(3.4675),
        "turn-180-at-boundary": lambda: turn_across_180(3.4275),
        "sampled-turn-180-at-boundary": lambda: turn_across_180(
            3.425, sampled=True),
        "sampled-turn-180-after-boundary": lambda: turn_across_180(
            3.435, sampled=True),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_seven_station_blocks(self, mirage, monkeypatch, name):
        spec = self.SPECS[name]()
        monkeypatch.setattr(solver, "STATION_BLOCK", spec.station_count)
        whole = solve(spec, mirage)
        if name.startswith(("turn", "sampled-turn")):
            psi_w = np.rad2deg(whole.psi_w)
            assert psi_w.min() < 180.0 < psi_w.max()
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        blocked = solve(spec, mirage)
        for f in fields(whole):
            want = getattr(whole, f.name)
            if isinstance(want, np.ndarray):
                got = getattr(blocked, f.name)
                assert got.dtype == want.dtype, f.name
                assert got.tobytes() == want.tobytes(), f.name
        assert np.float64(blocked.rate_gap).tobytes() == \
            np.float64(whole.rate_gap).tobytes()

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_solve_is_the_march_parts_joined(self, mirage, monkeypatch,
                                             name):
        # parts of at most 7 stations, the last one 8, joined in order,
        # are the default-block solve, which is the 7-station one
        spec = self.SPECS[name]()
        whole = solve(spec, mirage)
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        parts = list(solver.march(spec, mirage))
        sizes = [len(part.t) for part in parts]
        assert max(sizes[:-1], default=7) <= 7 and sizes[-1] <= 8
        assert sum(sizes) == whole.grid.count
        for f in fields(whole):
            want = getattr(whole, f.name)
            if isinstance(want, np.ndarray):
                got = np.concatenate([getattr(p, f.name) for p in parts])
                assert got.dtype == want.dtype, f.name
                assert got.tobytes() == want.tobytes(), f.name
        gaps = [part.rate_gap for part in parts]
        assert gaps == sorted(gaps)  # a running maximum
        assert np.float64(gaps[-1]).tobytes() == \
            np.float64(whole.rate_gap).tobytes()


class TestCascadeClosure:
    """The closed-form cascade passes against the pass-by-pass oracle."""

    @staticmethod
    def stage_calls(spec, cfg, monkeypatch):
        """Every stage evaluation of a solve marched in one block as
        (time, state, seed), and the arguments its rate function was
        built from."""
        built = {}
        calls = []
        make = solver._make_rate_function

        def recording(rows, t0, half_dt, cfg_, coeffs, lag):
            built.update(rows=rows, t0=t0, half_dt=half_dt, coeffs=coeffs)
            rates = make(rows, t0, half_dt, cfg_, coeffs, lag)

            def record(t, state):
                calls.append((t, tuple(state), tuple(lag)))
                return rates(t, state)

            return record

        monkeypatch.setattr(solver, "_make_rate_function", recording)
        monkeypatch.setattr(solver, "STATION_BLOCK", spec.station_count)
        solve(spec, cfg)
        monkeypatch.undo()
        return built, calls

    def test_four_stage_evaluations_per_step(self, mirage, monkeypatch):
        # the re-evaluation at each new station is the next step's k1
        spec = maneuver_spec("mirage-roll", 1e-2)
        _, calls = self.stage_calls(spec, mirage, monkeypatch)
        assert len(calls) == 4 * (spec.station_count - 1) + 1

    @pytest.mark.parametrize("maneuver", ["roll", "banked-climb"])
    def test_all_stage_rates_match_swept_cascade(self, mirage, monkeypatch,
                                                 maneuver):
        spec = (maneuver_spec("mirage-roll", 1e-2) if maneuver == "roll"
                else banked_climbing_turn())
        built, calls = self.stage_calls(spec, mirage, monkeypatch)
        rows, t0, half_dt = built["rows"], built["t0"], built["half_dt"]
        calls = calls[::7]
        for sweeps in (1, 2, 4, 8):
            monkeypatch.setattr(solver, "CASCADE_SWEEPS", sweeps)
            lag = [0.0, 0.0, 0.0]
            rates = solver._make_rate_function(rows, t0, half_dt, mirage,
                                               built["coeffs"], lag)
            got, want = [], []
            for t, state, seed in calls:
                lag[:] = seed
                got.append(rates(t, state))
                row = rows[int(round((t - t0) / half_dt))]
                want.append(swept_stage_rates(row, state, seed, mirage,
                                              built["coeffs"], sweeps))
            got, want = np.array(got), np.array(want)
            # each rate channel relative to its peak over the stages
            peak = np.max(np.abs(want), axis=0)
            assert np.all(peak > 0.0)
            err = np.max(np.abs(got - want), axis=0) / peak
            assert np.all(err <= 1e-12), (sweeps, err)


class TestConvergenceStudy:
    def test_requires_at_least_two_steps(self, mirage):
        with pytest.raises(ConfigError):
            convergence_study(maneuver_spec("mirage-roll", 1e-3), mirage,
                              [1e-3])

    def test_fine_steps_agree(self, mirage):
        pairs = convergence_study(maneuver_spec("mirage-roll", 1e-3),
                                  mirage, [1e-3, 2e-3])
        assert len(pairs) == 1
        pair = pairs[0]
        assert not pair.diverged
        assert pair.dt_coarse == 2e-3
        assert pair.worst < 0.05

    def test_diverged_run_is_marked_not_raised(self, mirage, monkeypatch):
        import invflight.solver as solver_mod
        from invflight import NonFiniteState, SolverAbort

        real_solve = solver_mod.solve

        def flaky_solve(spec, cfg):
            if spec.dt == 2e-2:
                raise SolverAbort("marching loop", 5,
                                  NonFiniteState("synthetic blow-up"))
            return real_solve(spec, cfg)

        monkeypatch.setattr(solver_mod, "solve", flaky_solve)
        pairs = solver_mod.convergence_study(
            maneuver_spec("mirage-roll", 1e-2), mirage, [1e-2, 2e-2])
        assert [(p.dt_fine, p.dt_coarse) for p in pairs] == [(1e-2, 2e-2)]
        assert pairs[0].diverged
        assert all(m == math.inf for m in pairs[0].metrics.values())

    def test_maneuver_library_entries(self):
        assert set(MANEUVERS) == {"mirage-roll", "level"}
        spec = maneuver_spec("mirage-roll", 1e-4)
        assert spec.station_count == 60001
        with pytest.raises(ConfigError):
            maneuver_spec("barrel", 1e-3)


def sin4_bump(t, start, width):
    """0 outside [start, start + width], rising to 1 and back as sin^4:
    twice continuously differentiable, as the jerk stencils need."""
    u = np.clip((t - start) / width, 0.0, 1.0)
    return np.sin(np.pi * u) ** 4


@pytest.fixture(scope="module")
def known_controls(mirage):
    """Chosen controls flown through the textbook 6-DOF, and the controls
    that solving every 4th station of that flight recovers.

    The flight starts at the ``level`` solve's station 0 (1-g trim, 10 km,
    200 m/s) and runs 6 s at dt 2.5e-4 with trim plus sin^4 bumps: aileron
    +2 deg over 1-3 s and -2 deg over 3.5-5.5 s, elevator +0.3 deg over
    1-3.5 s, rudder +1 deg over 2-4 s and thrust +10 % over 0.5-5.5 s. The
    bank reaches -16.3 deg. i_zx = 0: at the Mirage's 1,800 kg m^2 the
    aileron comes out 0.34 % off, from the solver's inertia coupling term
    that the textbook inverse of the tensor does not share.
    """
    cfg = replace(mirage, i_zx=0.0)
    level = solve(maneuver_spec("level", 1e-2), cfg)
    start = level.state_at(0)
    dt = 2.5e-4
    t = dt * np.arange(24001)
    deg = math.pi / 180.0
    flown = {
        "thrust": level.thrust[0] * (1.0 + 0.1 * sin4_bump(t, 0.5, 5.0)),
        "delta_l": 2.0 * deg * (sin4_bump(t, 1.0, 2.0)
                                - sin4_bump(t, 3.5, 2.0)),
        "delta_m": 0.3 * deg * sin4_bump(t, 1.0, 2.5),
        "delta_n": 1.0 * deg * sin4_bump(t, 2.0, 2.0),
    }
    run = TextbookSixDof(cfg, level.reference.coeffs).fly(
        start, dt, flown["delta_l"], flown["delta_m"], flown["delta_n"],
        flown["thrust"], (start.xg, start.yg, start.zg))
    keep = slice(None, None, 4)
    spec = TrajectorySpec(
        duration=6.0, dt=4 * dt, name="known-controls",
        samples=SampledManeuver(t=t[keep], x=run[keep, 9], y=run[keep, 10],
                                z=run[keep, 11], phi=run[keep, 6]))
    return solve(spec, cfg), {k: v[keep] for k, v in flown.items()}


class TestKnownControls:
    """The inverse recovers controls that a flight independent of its
    physics was flown with (the method of manufactured solutions)."""

    # each recovered control's largest error as a share of the flown
    # excursion (peak to peak), with a margin of 2: measured 2.4e-4,
    # 5.0e-4, 2.70e-3 and 8.14e-3 on a 2-vCPU AVX-512 Xeon
    BOUNDS = {"thrust": 5e-4, "delta_l": 1e-3, "delta_m": 6e-3,
              "delta_n": 1.7e-2}

    @pytest.mark.parametrize("control", sorted(BOUNDS))
    def test_recovered_control_is_the_flown_one(self, known_controls,
                                                 control):
        hist, flown = known_controls
        want = flown[control]
        err = np.max(np.abs(getattr(hist, control) - want)) / np.ptp(want)
        assert err <= self.BOUNDS[control], (control, err)
