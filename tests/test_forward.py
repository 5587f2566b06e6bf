import ast
import inspect
import math
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import oracles
from invflight import (
    AltitudeOutOfRange,
    FlightState,
    NonFiniteState,
    SolverAbort,
    forward,
    maneuver_spec,
    simulate,
    solve,
)
from invflight.forward import ControlHistory
from invflight.numerics import UniformGrid


def constant_controls(grid, delta_l=0.0, delta_m=0.0, delta_n=0.0,
                      thrust=0.0):
    n = grid.count
    return ControlHistory(grid=grid,
                          delta_l=np.full(n, delta_l),
                          delta_m=np.full(n, delta_m),
                          delta_n=np.full(n, delta_n),
                          thrust=np.full(n, thrust))


def zero_aero(cfg):
    aero = cfg.aero
    fields = {name: 0.0 for name in aero.__dataclass_fields__}
    fields["c_lift_alpha"] = 1e-12  # keep the config valid
    fields["c_pitch_dm"] = -0.45
    fields["c_roll_dl"] = -0.3
    fields["c_yaw_dn"] = -0.085
    return replace(cfg, aero=replace(aero, **fields))


class TestBallistic:
    def test_gravity_only_fall(self, mirage):
        cfg = zero_aero(mirage)
        grid = UniformGrid(0.0, 1e-3, 6001)
        initial = FlightState(v=100.0, zg=-10000.0)
        run = simulate(initial, constant_controls(grid), cfg,
                       coeffs=cfg.aero)
        g = 9.81
        # vertical speed grows like g*t while the attitude stays frozen
        w_expected = g * run.t
        assert run.w == pytest.approx(w_expected, abs=1e-6)
        assert np.max(np.abs(run.u - 100.0)) < 1e-9
        assert np.max(np.abs(run.theta)) == 0.0

    def test_energy_conserved(self, mirage):
        cfg = zero_aero(mirage)
        grid = UniformGrid(0.0, 1e-3, 6001)
        run = simulate(FlightState(v=100.0, zg=-10000.0),
                       constant_controls(grid), cfg, coeffs=cfg.aero)
        speed_sq = run.u ** 2 + run.v_side ** 2 + run.w ** 2
        energy = 0.5 * speed_sq + 9.81 * (-run.zg)
        assert np.max(np.abs(energy - energy[0])) < 1e-6 * energy[0]


class TestFailureStation:
    def test_leaving_the_atmosphere_names_the_station(self, mirage):
        # with zero thrust and zero aerodynamics the aircraft falls from
        # 100 m; RK4 integrates the parabola exactly, so the first step
        # whose end lies below sea level is the failing one
        cfg = zero_aero(mirage)
        grid = UniformGrid(0.0, 1e-2, 601)
        altitude = 100.0 - 0.5 * 9.81 * grid.times() ** 2
        station = int(np.argmax(altitude < 0.0))
        assert altitude[station - 1] > 0.1 and altitude[station] < -0.1
        with pytest.raises(SolverAbort) as info:
            simulate(FlightState(v=100.0, zg=-100.0),
                     constant_controls(grid), cfg, coeffs=cfg.aero)
        err = info.value
        assert (err.phase, err.station) == ("forward simulation", station)
        assert isinstance(err.cause, AltitudeOutOfRange)
        assert str(err).startswith(
            f"forward simulation failed at station {station}: altitude ")

    def test_non_finite_state_names_the_station_once(self, mirage,
                                                     monkeypatch):
        def blow_up(f, t, y, dt):
            return (math.nan,) * len(y), None

        monkeypatch.setattr(forward, "rk4_step", blow_up)
        grid = UniformGrid(0.0, 1e-2, 11)
        with pytest.raises(SolverAbort) as info:
            simulate(FlightState(v=200.0, zg=-10000.0),
                     constant_controls(grid), mirage, coeffs=mirage.aero)
        assert isinstance(info.value.cause, NonFiniteState)
        assert str(info.value) == ("forward simulation failed at station 1:"
                                   " forward state went non-finite")


class TestTrimFlight:
    def test_constant_trim_controls_hold_level_flight(self, mirage):
        rho = 0.4121482546010361
        v0 = 200.0
        qbar = 0.5 * rho * v0 * v0
        c_lift0 = mirage.mass * 9.81 / (qbar * mirage.wing_area)
        coeffs = replace(mirage.aero, c_lift0=c_lift0)
        c_drag = coeffs.c_drag0 + coeffs.k_drag * c_lift0 ** 2
        thrust = qbar * mirage.wing_area * c_drag
        grid = UniformGrid(0.0, 1e-3, 6001)
        run = simulate(FlightState(v=v0, zg=-10000.0),
                       constant_controls(grid, thrust=thrust), mirage,
                       coeffs=coeffs)
        assert np.max(np.abs(run.zg + 10000.0)) < 1.0
        assert np.max(np.abs(run.yg)) < 1.0
        speed = np.sqrt(run.u ** 2 + run.v_side ** 2 + run.w ** 2)
        assert np.max(np.abs(speed - v0)) < 0.05

    def test_longitudinal_lateral_decoupling(self, mirage):
        # pitch-only excitation leaves the lateral channel identically
        # at rest
        rho = 0.4121482546010361
        v0 = 200.0
        qbar = 0.5 * rho * v0 * v0
        c_lift0 = mirage.mass * 9.81 / (qbar * mirage.wing_area)
        coeffs = replace(mirage.aero, c_lift0=c_lift0)
        grid = UniformGrid(0.0, 1e-3, 2001)
        controls = constant_controls(grid, delta_m=0.02, thrust=12000.0)
        run = simulate(FlightState(v=v0, zg=-10000.0), controls, mirage,
                       coeffs=coeffs)
        for arr in (run.v_side, run.p, run.r, run.phi, run.psi, run.yg):
            assert np.max(np.abs(arr)) < 1e-9
        # and the longitudinal channel did move
        assert np.max(np.abs(run.q)) > 1e-4


RECORD_COLUMNS = ("u", "v_side", "w", "p", "q", "r", "phi", "theta", "psi",
                  "xg", "yg", "zg")
CONTROL_COLUMNS = ("delta_l", "delta_m", "delta_n", "thrust")


class TestControlTable:
    def _fly_both(self, hist, controls, mirage):
        """Runs of ``controls`` and of contiguous copies of them."""
        copies = replace(controls, **{
            k: np.ascontiguousarray(getattr(controls, k))
            for k in CONTROL_COLUMNS})
        return [simulate(hist.state_at(0), c, mirage,
                         coeffs=hist.reference.coeffs)
                for c in (controls, copies)]

    def test_strided_views_fly_as_contiguous_copies(self, mirage):
        # the solved controls are strided views of the solve's record
        # block, as the replayed ones are of the history file's block
        hist = solve(maneuver_spec("mirage-roll", 1e-2), mirage)
        controls = hist.controls()
        assert not controls.delta_l.flags.c_contiguous
        views, copies = self._fly_both(hist, controls, mirage)
        for name in RECORD_COLUMNS:
            assert np.array_equal(getattr(views, name),
                                  getattr(copies, name)), name

    def test_two_stations_read_the_last_row(self, mirage):
        # the final k4 falls on the last station; the clamp makes it read
        # rows 0 and 1, the whole table, and not past its end
        hist = solve(maneuver_spec("mirage-roll", 1e-2), mirage)
        controls = ControlHistory(
            grid=UniformGrid(hist.grid.t0, hist.grid.dt, 2),
            **{k: getattr(hist, k)[:2] for k in CONTROL_COLUMNS})
        views, copies = self._fly_both(hist, controls, mirage)
        assert views.u.shape == (2,)
        for name in RECORD_COLUMNS:
            assert np.array_equal(getattr(views, name),
                                  getattr(copies, name)), name


@pytest.fixture(scope="module")
def roll_1e2(mirage):
    return solve(maneuver_spec("mirage-roll", 1e-2), mirage)


class TestParts:
    # the dt 1e-2 roll's 601 stations as 86 parts of 7 (the last of 6)
    # and as one part of a 2,048-station block, and its first 2 stations
    # as 2 parts of 1
    @pytest.mark.parametrize("stations, size, sizes", [
        (601, 7, [7] * 85 + [6]),
        (601, 2048, [601]),
        (2, 1, [1, 1]),
    ])
    def test_parts_fly_the_whole_runs_bits(self, mirage, roll_1e2,
                                           stations, size, sizes):
        hist = roll_1e2
        grid = UniformGrid(hist.grid.t0, hist.grid.dt, stations)
        cols = [getattr(hist, k)[:stations] for k in CONTROL_COLUMNS]
        parts = [ControlHistory(grid, *(c[s:s + size] for c in cols))
                 for s in range(0, stations, size)]
        start, coeffs = hist.state_at(0), hist.reference.coeffs
        whole = simulate(start, ControlHistory(grid, *cols), mirage, coeffs)
        flown = simulate(start, iter(parts), mirage, coeffs, fold=list)
        assert [len(part.u) for part in flown] == sizes
        for name in ("t",) + RECORD_COLUMNS:
            got = np.concatenate([getattr(part, name) for part in flown])
            assert got.tobytes() == getattr(whole, name).tobytes(), name
        assert all(part.grid == whole.grid == grid for part in flown)


class TestRoundTrip:
    def test_roll_maneuver_round_trip(self, mirage):
        hist = solve(maneuver_spec("mirage-roll", 1e-3), mirage)
        run = simulate(hist.state_at(0), hist.controls(), mirage,
                       coeffs=hist.reference.coeffs)
        assert np.max(np.abs(run.yg - hist.yg)) < 1.0
        assert np.max(np.abs(run.zg - hist.zg)) < 1.0
        assert np.max(np.abs(run.phi - hist.phi)) < math.radians(0.5)
        assert run.phi[-1] == pytest.approx(2 * math.pi, abs=math.radians(0.5))


def _package_modules_used(obj, seen):
    """Modules of the package objects named in ``obj``'s source,
    following the names the oracles module defines itself."""
    used = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(obj)))):
        name = getattr(node, "id", None)
        if name in seen or name not in vars(oracles):
            continue
        seen.add(name)
        target = vars(oracles)[name]
        home = (target.__name__ if inspect.ismodule(target)
                else getattr(target, "__module__", ""))
        if home == oracles.__name__:
            used |= _package_modules_used(target, seen)
        elif home.startswith("invflight"):
            used.add(home)
    return used


class TestTextbookOracle:
    def test_takes_only_the_data_classes(self):
        used = _package_modules_used(oracles.TextbookSixDof, set())
        assert used == {"invflight.model"}

    def test_matches_forward_without_cross_inertia(self, mirage):
        # With i_zx = 0 the package's inertia coupling is the exact
        # inverse of the tensor, so two independently written simulators
        # must fly the same controls to roundoff.
        cfg = replace(mirage, i_zx=0.0)
        hist = solve(maneuver_spec("mirage-roll", 1e-2), cfg)
        coeffs = hist.reference.coeffs
        start = hist.state_at(0)
        run = simulate(start, hist.controls(), cfg, coeffs=coeffs)
        states = oracles.TextbookSixDof(cfg, coeffs).fly(
            start, hist.grid.dt, hist.delta_l, hist.delta_m, hist.delta_n,
            hist.thrust, (start.xg, start.yg, start.zg))
        for got, want in ((states[:, 10], run.yg), (states[:, 11], run.zg)):
            assert np.max(np.abs(got - want)) < 1e-9
        for got, want in ((states[:, 3], run.p), (states[:, 6], run.phi),
                          (states[:, 7], run.theta), (states[:, 8], run.psi)):
            assert np.max(np.abs(got - want)) < 1e-12
