import hashlib
import math
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from invflight import cli, dynamics, solver
from invflight.cli import (
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_NUMERICAL,
    EXIT_OK,
    HISTORY_COLUMNS,
    HISTORY_HEADER,
    _fmt,
    _history_columns,
    main,
    read_history,
    write_history,
)
from invflight.errors import (
    AltitudeOutOfRange,
    ConfigFileError,
    ZeroVelocity,
)
from invflight.model import AnalyticManeuver, load_sampled_maneuver

import tracing

CONFIG = str(Path(__file__).resolve().parents[1] / "src" / "invflight"
             / "mirage3.cfg")


def run(*argv):
    return main(list(argv))


def history_columns(path, unit):
    """The columns of a history file by field name, its streamed blocks
    read to the end and joined."""
    _, blocks = read_history(path, unit)
    data = np.concatenate(list(blocks))
    return {field: data[:, j]
            for j, (_, field, _) in enumerate(HISTORY_COLUMNS)}


@pytest.fixture(scope="module")
def roll_1e3(mirage):
    return solver.solve(solver.maneuver_spec("mirage-roll", 1e-3), mirage)


# sampled trajectories that the set-up refuses at station 0, with the
# code the CLI reports them under: (x_g, z_g) against time
OUT_OF_ENVELOPE = {
    "below_sea_level": ("altitude_out_of_range",
                        lambda t: (200.0 * t, 100.0)),
    "above_tropopause": ("altitude_out_of_range",
                         lambda t: (200.0 * t, -12000.0)),
    "hover": ("zero_velocity", lambda t: (0.0, -10000.0)),
    "vertical_climb": ("vertical_flight",
                       lambda t: (0.0, -10000.0 - 100.0 * t)),
    # level at 10 km, where the 1-g trim needs 254,382 and 39.7 deg
    "stall_at_1_m_s": ("beyond_stall", lambda t: (1.0 * t, -10000.0)),
    "stall_at_80_m_s": ("beyond_stall", lambda t: (80.0 * t, -10000.0)),
}


def out_of_envelope_file(tmp_path, case):
    track = OUT_OF_ENVELOPE[case][1]
    man = tmp_path / f"{case}.dat"
    man.write_text("".join("%g %g 0 %g 0\n" % (0.01 * i, *track(0.01 * i))
                           for i in range(101)))
    return man


class TestTrim:
    def test_mirage_cruise_report(self, capsys):
        assert run("trim", "--altitude", "10000", "--speed", "200") == EXIT_OK
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["rho_kg_m3"]) == pytest.approx(0.412, abs=1.1e-3)
        assert float(values["c_lift"]) == pytest.approx(0.245, abs=1e-3)
        assert float(values["alpha_equib_deg"]) == pytest.approx(6.36,
                                                                 abs=0.02)
        assert float(values["thrust_n"]) == pytest.approx(11572.0, abs=20.0)

    def test_sea_level_cruise(self, capsys):
        assert run("trim", "--altitude", "0", "--speed", "200") == EXIT_OK
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["rho_kg_m3"]) == 1.225
        assert float(values["c_lift"]) == pytest.approx(0.0824, abs=2e-4)

    def test_zero_speed_is_input_error(self, capsys):
        assert run("trim", "--speed", "0") == EXIT_INPUT

    def test_explicit_config_file(self, capsys):
        assert run("trim", "--config", CONFIG) == EXIT_OK

    @pytest.mark.parametrize("option", ["--speed", "--altitude"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_option_is_input_error(self, capsys, option, value):
        # a NaN once printed a NaN report and exited 0
        assert run("trim", option, value) == EXIT_INPUT
        err = capsys.readouterr()
        assert f"[non_finite] {option} {value} is not finite" in err.err
        assert err.out == ""


    @pytest.mark.parametrize("altitude", ["20000", "-5"])
    def test_altitude_outside_density_range_is_input_error(self, capsys,
                                                           altitude):
        # once exited 2, a numerical failure
        assert run("trim", "--altitude", altitude) == EXIT_INPUT
        err = capsys.readouterr()
        assert "[altitude_out_of_range]" in err.err
        assert err.out == ""

    @pytest.mark.parametrize("speed", ["1e-3", "130", "1e-160"])
    def test_trim_beyond_stall_is_input_error(self, capsys, speed):
        # --speed 1e-3 once printed alpha_equib_deg = 2.54e+11 and exit 0;
        # 130 m/s at 10 km needs 15.05 deg; at 1e-160 m/s the lift
        # coefficient overflows to inf
        assert run("trim", "--speed", speed) == EXIT_INPUT
        err = capsys.readouterr()
        assert "[beyond_stall]" in err.err
        assert err.out == ""

    def test_underflowing_dynamic_pressure_is_input_error(self, capsys):
        # q = 0.5 rho V^2 is 0.0 at 1e-200 m/s: once exit 2, a numerical
        # failure
        assert run("trim", "--speed", "1e-200") == EXIT_INPUT
        err = capsys.readouterr()
        assert "[zero_velocity] dynamic pressure 0.0 Pa" in err.err
        assert err.out == ""

    def test_high_speed_limit(self, capsys):
        # the induced drag vanishes: thrust tends to q S C_D0
        assert run("trim", "--speed", "2000") == EXIT_OK
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["c_lift"]) == pytest.approx(0.00245, abs=1e-4)
        qs = float(values["qbar_pa"]) * 36.0
        assert float(values["thrust_n"]) == pytest.approx(qs * 0.015,
                                                          rel=1e-3)

    def test_trim_is_the_level_solve_start(self, capsys, mirage):
        # one trim relation: the report and the start of a level solve at
        # the same altitude and speed agree to the last digit
        assert run("trim", "--altitude", "10000", "--speed", "200") == EXIT_OK
        trim = dict(line.split(" = ") for line in
                    capsys.readouterr().out.strip().splitlines())
        hist = solver.solve(solver.maneuver_spec("level", 1e-2), mirage)
        assert hist.thrust[0] == 11554.751843686146
        assert trim["thrust_n"] == _fmt(hist.thrust[0])
        assert trim["c_lift"] == _fmt(hist.reference.c_lift0_equib)
        assert trim["alpha_equib_deg"] == _fmt(
            math.degrees(hist.reference.alpha_equib))
        assert trim["qbar_pa"] == _fmt(hist.reference.qbar)


class TestInverse:
    def test_level_maneuver_zero_deflections(self, tmp_path, capsys):
        out = tmp_path / "lvl"
        assert run("inverse", "--maneuver", "level", "--dt", "1e-3",
                   "--out", str(out)) == EXIT_OK
        cols = history_columns(out / "history.csv", "deg")
        for name in ("delta_l", "delta_m", "delta_n"):
            assert np.all(cols[name] == 0.0)
        summary = (out / "summary.txt").read_text()
        assert "delta_n_max_abs = 0" in summary
        assert "reverse_thrust_stations = 0" in summary

    def test_history_format(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-2",
                   "--out", str(out)) == EXIT_OK
        text = (out / "history.csv").read_text().splitlines()
        assert text[0] == HISTORY_HEADER
        assert len(text) == 1 + 601

    def test_deterministic_outputs(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("inverse", "--maneuver", "mirage-roll", "--dt",
                       "1e-2", "--out", str(out)) == EXIT_OK
        assert (a / "history.csv").read_bytes() == \
            (b / "history.csv").read_bytes()
        assert (a / "summary.txt").read_bytes() == \
            (b / "summary.txt").read_bytes()

    # sha256 of the dt 1e-2 roll's outputs. A change that claims to keep
    # every output byte-identical must keep these. They were taken on an
    # AVX-512 Xeon with numpy 2.4.6; another host may differ in the last
    # printed digit, because the set-up's array density uses numpy's
    # vectorised power, not libm's pow (the atmosphere.density FOUND in
    # CHANGES.md)
    PINNED_ON = "numpy 2.4.6, AVX512_SKX"
    PINNED_SHA256 = {
        "history.csv":
            "d5c0065a66c2ee2ff552754a152279d72132021dceccd037cbaed2965deacc63",
        "summary.txt":
            "a2c1855804d775d3f7ad7eaf89ab0bba1a49f3cfb03432c981ce269d2e8687ea",
        "forward.txt":
            "a53fd94eba1a94473e7d9f61a82444316dd05ef3928632582061971020da6487",
    }

    def test_roll_outputs_are_pinned(self, tmp_path, capsys):
        assert run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-2",
                   "--out", str(tmp_path)) == EXIT_OK
        assert run("forward", "--history", str(tmp_path / "history.csv"),
                   "--out", str(tmp_path)) == EXIT_OK
        # a failure names this host's numpy and SIMD targets, which set
        # the last bits of the set-up's array transcendentals
        features = np._core._multiarray_umath.__cpu_features__
        host = (f"numpy {np.__version__}, SIMD "
                + " ".join(k for k, on in features.items() if on))
        for name, digest in self.PINNED_SHA256.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, (f"{name} on {host}; pinned on "
                                   f"{self.PINNED_ON}")

    def test_angle_unit_is_formatting_only(self, tmp_path, capsys):
        d = tmp_path / "deg"
        r = tmp_path / "rad"
        run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-2",
            "--out", str(d), "--angles", "deg")
        run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-2",
            "--out", str(r), "--angles", "rad")
        cd = history_columns(d / "history.csv", "deg")
        cr = history_columns(r / "history.csv", "rad")
        for name in ("delta_n", "theta", "alpha_actual", "thrust", "p"):
            assert cr[name] == pytest.approx(cd[name], rel=1e-8, abs=1e-12)

    def test_non_finite_inputs_are_input_errors(self, tmp_path, capsys):
        # the yaw data never enters the march, so before validation a NaN
        # here ran to exit 0 with a NaN rudder column
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("".join(
            "C_n_beta = nan\n" if line.startswith("C_n_beta") else line
            for line in Path(CONFIG).read_text().splitlines(keepends=True)))
        assert run("inverse", "--maneuver", "level", "--dt", "1e-2",
                   "--config", str(cfg), "--out", str(tmp_path)) == EXIT_INPUT
        assert "[non_finite] c_yaw_beta = nan" in capsys.readouterr().err
        man = tmp_path / "man.dat"
        man.write_text("".join(
            "%g %s 0 -10000 0\n" % (0.01 * i, "nan" if i == 48 else 2.0 * i)
            for i in range(101)))
        assert run("inverse", "--maneuver-file", str(man),
                   "--out", str(tmp_path)) == EXIT_INPUT
        assert "line 49: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "history.csv").exists()

    def test_four_sample_rows_is_input_error(self, tmp_path, capsys):
        # four rows pass the parser, but the sampled set-up differentiates
        # three times, and that stencil needs five
        man = tmp_path / "man.dat"
        man.write_text("".join("%g %g 0 -10000 0\n" % (0.01 * i, 2.0 * i)
                               for i in range(4)))
        assert run("inverse", "--maneuver-file", str(man),
                   "--out", str(tmp_path)) == EXIT_INPUT
        assert "only 4 sample rows; at least 5" in capsys.readouterr().err
        assert not (tmp_path / "history.csv").exists()

    def test_non_finite_dt_is_input_error(self, tmp_path, capsys):
        assert run("inverse", "--maneuver", "level", "--dt", "nan",
                   "--out", str(tmp_path)) == EXIT_INPUT
        assert "--dt nan is not finite" in capsys.readouterr().err
        assert not (tmp_path / "history.csv").exists()

    def test_negative_zero_is_written_as_zero(self, tmp_path, mirage):
        hist = solver.solve(solver.maneuver_spec("level", 1e-2), mirage)
        hist.delta_l[3] = -0.0
        hist.beta[5] = -0.0
        write_history([hist], tmp_path / "h.csv", "deg")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        names = HISTORY_HEADER.split(",")
        assert lines[4].split(",")[names.index("delta_l")] == "0"
        assert lines[6].split(",")[names.index("beta")] == "0"

    @pytest.mark.parametrize("case", sorted(OUT_OF_ENVELOPE))
    def test_out_of_envelope_trajectory_is_input_error(self, tmp_path,
                                                       capsys, case):
        # once exited 2, a numerical failure, before the march had begun
        man = out_of_envelope_file(tmp_path, case)
        assert run("inverse", "--maneuver-file", str(man),
                   "--out", str(tmp_path)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"[{OUT_OF_ENVELOPE[case][0]}]" in err
        assert "at station 0" in err
        assert not (tmp_path / "history.csv").exists()

    def test_history_is_written_block_by_block(self, tmp_path, monkeypatch,
                                               roll_1e3):
        # blocks of 7 rows split the 6,001 stations unevenly; -0.0 and
        # every flag value must come out as a row-by-row write gives them
        hist = replace(roll_1e3, beta=roll_1e3.beta.copy(),
                       stall=roll_1e3.stall.copy(),
                       reverse_thrust=roll_1e3.reverse_thrust.copy())
        hist.beta[[0, 6, 7, 6000]] = -0.0
        hist.stall[[5, 7, 13]] = True
        hist.reverse_thrust[[6, 7, 14]] = True
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        write_history([hist], tmp_path / "h.csv", "deg")
        cols = _history_columns(hist, "deg", slice(None))
        fields = [field for _, field, _ in HISTORY_COLUMNS]
        want = [HISTORY_HEADER + "\n"] + [
            ",".join([_fmt(cols[f][i]) for f in fields[:-1]]
                     + [str(cols["flags"][i])]) + "\n"
            for i in range(hist.grid.count)]
        names = HISTORY_HEADER.split(",")
        assert (tmp_path / "h.csv").read_bytes() == \
            "".join(want).encode("utf-8")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[8].split(",")[names.index("beta")] == "0"
        assert [line.rsplit(",", 1)[1] for line in lines[6:9]] == \
            ["1", "2", "3"]

    def test_history_writer_memory_does_not_grow_with_rows(
            self, tmp_path, monkeypatch, mirage, roll_1e3):
        # 90,021 and 93,190 B traced for 601 and 6,001 rows; the whole
        # file used to be formatted in memory first: about 1 kB a row,
        # 6 MB traced for these 6,001 rows
        short = solver.solve(solver.maneuver_spec("mirage-roll", 1e-2),
                             mirage)
        monkeypatch.setattr(solver, "STATION_BLOCK", 256)
        peaks = [peak for _, peak in tracing.readings(
            lambda hist: write_history([hist], tmp_path / "h.csv", "deg"),
            short, roll_1e3)]
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_history_writer_peak_memory_per_block_row(
            self, tmp_path, monkeypatch, roll_1e3):
        # traced peak of writing the 6,001 rows in blocks of 2,048, the
        # block the per-row bound was set at: 1,367 B a block row when each
        # block became 21 lists of Python floats and a list of row strings,
        # 275 B (2-vCPU AVX-512 Xeon) with one (2048, 21) float64 block
        # beside the 12 columns it computes (the angles and the flags),
        # bound with a 20 % margin. In the default blocks of 512 the fixed
        # part weighs more a row, 311 B, but the peak is 159,161 B against
        # 293,294 and 563,233 B in blocks of 1,024 and 2,048; bound with
        # the same margin
        path = tmp_path / "h.csv"

        def write(block):
            monkeypatch.setattr(solver, "STATION_BLOCK", block)
            write_history([roll_1e3], path, "deg")

        [(_, default_peak), (_, peak)] = tracing.readings(
            write, solver.STATION_BLOCK, 2048)
        assert peak / 2048 < 330
        assert default_peak < 192_000

    def test_streamed_outputs_are_the_whole_runs(self, tmp_path, capsys,
                                                 monkeypatch):
        # the 601 stations reach the writer and the summary as 85 parts of
        # 7 stations and one of 6; the files and lines are the whole run's
        assert run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-2",
                   "--out", str(tmp_path / "whole")) == EXIT_OK
        whole_lines = capsys.readouterr().out.replace(
            str(tmp_path / "whole"), str(tmp_path / "parts"))
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        real, sizes = solver.march, []

        def counted(*args):
            for part in real(*args):
                sizes.append(len(part.t))
                yield part

        monkeypatch.setattr(solver, "march", counted)
        assert run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-2",
                   "--out", str(tmp_path / "parts")) == EXIT_OK
        assert sizes == [7] * 85 + [6]
        assert capsys.readouterr().out == whole_lines
        for name in ("history.csv", "summary.txt"):
            got = (tmp_path / "parts" / name).read_bytes()
            assert got == (tmp_path / "whole" / name).read_bytes(), name
            assert hashlib.sha256(got).hexdigest() == \
                self.PINNED_SHA256[name], name

    def test_failure_after_a_written_part_leaves_no_history(
            self, tmp_path, capsys, monkeypatch):
        # the march fails in its fourth part of 7 stations, after three
        # parts went to the history file: the partial file is removed
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        real_columns, formatted = cli._history_columns, []

        def counting(*args):
            formatted.append(None)
            return real_columns(*args)

        real, calls, seen = dynamics.sideslip_accel, [], []

        def failing(*args):
            calls.append(None)
            if len(calls) == 4 * 25:
                seen.append((len(formatted),
                             (tmp_path / "history.csv").exists()))
                raise ZeroVelocity("synthetic zero speed")
            return real(*args)

        monkeypatch.setattr(cli, "_history_columns", counting)
        monkeypatch.setattr(dynamics, "sideslip_accel", failing)
        assert run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-2",
                   "--out", str(tmp_path)) == EXIT_NUMERICAL
        assert "marching loop failed at station 25" in \
            capsys.readouterr().err
        assert seen == [(3, True)]
        assert not (tmp_path / "history.csv").exists()
        assert not (tmp_path / "summary.txt").exists()

    def test_inverse_peak_memory_growth_per_station(self, tmp_path, capsys,
                                                    monkeypatch):
        # the march streams its parts to the files and setup keeps no
        # array, so nothing alive at the peak grows with the run:
        # 115,600 -> 119,828 B traced from 101 to 401 stations in blocks of
        # 25, 13-14 B a station alone, in this file and in the whole suite
        # (2-vCPU AVX-512 Xeon). Keeping setup's (3, n) ground block, 24 B
        # a station, took 119,486 -> 131,013 B here, 38 B a station, and
        # keeping the whole solution until the files were written
        # 148,791 -> 217,490 B, 229 B a station
        monkeypatch.setattr(solver, "STATION_BLOCK", 25)
        given = ["inverse", "--maneuver", "level", "--out", str(tmp_path)]

        def inverse(dt):
            assert run(*given, "--dt", dt) == EXIT_OK

        per_station, peaks = tracing.growth(
            inverse, [("6e-2", 101), ("1.5e-2", 401)])
        assert per_station <= 24, peaks

    def test_unknown_maneuver_is_input_error(self, tmp_path, capsys):
        assert run("inverse", "--maneuver", "loop", "--out",
                   str(tmp_path)) == EXIT_INPUT

    def test_sampled_maneuver_file(self, tmp_path, capsys):
        man = tmp_path / "man.dat"
        dt = 0.01
        rows = []
        for i in range(201):
            t = dt * i
            rows.append("%.6f %.8f 0 -10000 0" % (t, 200.0 * t))
        man.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run("inverse", "--maneuver-file", str(man), "--out",
                   str(out)) == EXIT_OK
        cols = history_columns(out / "history.csv", "deg")
        assert np.max(np.abs(cols["delta_n"])) < 1e-6
        assert cols["thrust"][0] == pytest.approx(11555.0, abs=25.0)
        # an explicitly conflicting step size is an input error
        assert run("inverse", "--maneuver-file", str(man), "--dt", "0.02",
                   "--out", str(out)) == EXIT_INPUT

    @pytest.mark.parametrize("t0, dt, digits", [(1000, 1e-3, 3),
                                                (100000, 1e-4, 4)])
    def test_dt_matches_a_spacing_read_far_from_time_zero(
            self, tmp_path, capsys, monkeypatch, t0, dt, digits):
        # times from t = 1000 s read as a spacing of 0.0009999999999763531;
        # the loader took it as uniform (within 1e-9 s), but --dt 1e-3 was
        # once refused as dt_conflict (within 1e-12 of dt). From t = 100000 s
        # the first step reads 0.00010000000474974513, and dt taken from it
        # once refused the file as grid_mismatch; dt is now the mean step.
        # The history then wrote t to 9 digits, every row as 100000, and
        # its replay was refused as "history time column is not uniform".
        # The replay then took its step from the first step of the history,
        # 4.7e-12 s off the solve's from t = 100000 s; it now flies the
        # solve's own step
        man = tmp_path / "man.dat"
        man.write_text("".join(f"{t0 + dt * i:.{digits}f} {200 * dt * i!r} "
                               "0 -10000 0\n" for i in range(201)))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("inverse", "--maneuver-file", str(man), "--dt", repr(dt),
                   "--out", str(a)) == EXIT_OK
        assert run("inverse", "--maneuver-file", str(man),
                   "--out", str(b)) == EXIT_OK
        assert (a / "history.csv").read_bytes() == \
            (b / "history.csv").read_bytes()
        flown = []
        simulate = cli.fwd.simulate

        def spy(initial, controls, cfg, coeffs, fold):
            run = simulate(initial, controls, cfg, coeffs, fold)
            flown.append(run.grid.dt)
            return run

        monkeypatch.setattr(cli.fwd, "simulate", spy)
        assert run("forward", "--history", str(b / "history.csv"),
                   "--out", str(b)) == EXIT_OK
        assert "verdict = match\n" in (b / "forward.txt").read_text()
        assert flown == [load_sampled_maneuver(man).dt]


class TestRoundTrip:
    def test_replay_flies_the_solved_start_grid_and_lift_curve(
            self, tmp_path, capsys, monkeypatch, mirage):
        # the replay once rebuilt the trim from the scalar density of
        # z_g[0]: at this altitude it flew C_L0 0.18778274896969127
        # against the solver's 0.18778274896969133
        man = tmp_path / "level.dat"
        z0 = -7801.854785303742
        man.write_text("".join(f"{0.01 * i!r} {2.0 * i!r} 0 {z0!r} 0\n"
                               for i in range(201)))
        flown = []

        def spy(initial, controls, cfg, coeffs, fold):
            run = fly(initial, controls, cfg, coeffs, fold)
            flown.append((initial, run.grid, coeffs))
            return run

        fly = cli.fwd.simulate
        monkeypatch.setattr(cli.fwd, "simulate", spy)
        assert run("roundtrip", "--maneuver-file", str(man), "--out",
                   str(tmp_path / "rt")) == EXIT_OK
        hist = solver.solve(load_sampled_maneuver(man), mirage)
        [(initial, grid, coeffs)] = flown
        assert initial == hist.state_at(0)
        assert grid == hist.grid
        assert coeffs == hist.reference.coeffs

    def test_level_round_trip_matches(self, tmp_path, capsys):
        out = tmp_path / "rt"
        assert run("roundtrip", "--maneuver", "level", "--dt", "1e-3",
                   "--out", str(out)) == EXIT_OK
        report = dict(line.split(" = ") for line in
                      (out / "roundtrip.txt").read_text().splitlines())
        assert report["verdict"] == "match"
        assert float(report["max_dev_y_m"]) < 1e-6
        assert float(report["max_dev_z_m"]) < 1e-6

    def test_roll_round_trip_matches(self, tmp_path, capsys):
        out = tmp_path / "rt"
        assert run("roundtrip", "--maneuver", "mirage-roll", "--dt", "1e-3",
                   "--out", str(out)) == EXIT_OK
        report = dict(line.split(" = ") for line in
                      (out / "roundtrip.txt").read_text().splitlines())
        assert report["verdict"] == "match"
        assert abs(float(report["phi_end_deg"]) - 360.0) < 2.0

    def test_march_failure_after_a_flown_part_leaves_no_files(
            self, tmp_path, capsys, monkeypatch):
        # the march fails in its fourth part of 7 stations, met as the
        # flight reads ahead: three parts were written and two flown (13
        # steps). It stays a numerical failure, not a forward mismatch,
        # and leaves neither the partial history nor a report
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        real_columns, formatted = cli._history_columns, []

        def counting(*args):
            formatted.append(None)
            return real_columns(*args)

        real_step, steps = cli.fwd.rk4_step, []

        def stepping(*args):
            steps.append(None)
            return real_step(*args)

        real, calls, seen = dynamics.sideslip_accel, [], []

        def failing(*args):
            calls.append(None)
            if len(calls) == 4 * 25:
                seen.append((len(formatted), len(steps),
                             (tmp_path / "history.csv").exists()))
                raise ZeroVelocity("synthetic zero speed")
            return real(*args)

        monkeypatch.setattr(cli, "_history_columns", counting)
        monkeypatch.setattr(cli.fwd, "rk4_step", stepping)
        monkeypatch.setattr(dynamics, "sideslip_accel", failing)
        assert run("roundtrip", "--maneuver", "mirage-roll", "--dt", "1e-2",
                   "--out", str(tmp_path)) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: marching loop failed at station 25" in err
        assert "forward run failed" not in err
        assert seen == [(3, 13, True)]
        assert not (tmp_path / "history.csv").exists()
        assert not (tmp_path / "roundtrip.txt").exists()

    def test_forward_failure_writes_the_whole_history(self, tmp_path, capsys,
                                                      monkeypatch):
        # the flight fails at its station 10, in its second part of 7,
        # while 83 of the 86 parts are still to be marched: they are
        # marched and written, so the history is the inverse run's, and
        # the report names the failure
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        given = ["--maneuver", "mirage-roll", "--dt", "1e-2"]
        assert run("inverse", *given, "--out",
                   str(tmp_path / "inv")) == EXIT_OK
        real, calls = cli.fwd.density, []

        def failing(z):
            calls.append(None)
            if len(calls) == 4 * 10:
                raise AltitudeOutOfRange("synthetic altitude")
            return real(z)

        monkeypatch.setattr(cli.fwd, "density", failing)
        out = tmp_path / "rt"
        assert run("roundtrip", *given, "--out", str(out)) == EXIT_MISMATCH
        assert len(calls) == 4 * 10
        assert (out / "history.csv").read_bytes() == \
            (tmp_path / "inv" / "history.csv").read_bytes()
        report = dict(line.split(" = ") for line in
                      (out / "roundtrip.txt").read_text().splitlines())
        assert report == {"verdict": "mismatch", "forward_failure":
                          "forward simulation failed at station 10: "
                          "synthetic altitude"}
        assert "forward run failed: forward simulation failed at station " \
            "10" in capsys.readouterr().err

    def test_round_trip_peak_memory_growth_per_station(self, tmp_path, capsys,
                                                       monkeypatch):
        # the round trip writes each part of the march, and flies and
        # judges it once the next is marched, so of what is alive at its
        # peak only the track's segment lengths, 8 B a station, grow with
        # the run: 137,732 -> 143,837 B traced from 101 to 301 stations
        # alone, 31 B a station, 32 B in this file and 36 B in the whole
        # suite (2-vCPU AVX-512 Xeon). Gathering the whole solution with
        # ``solve`` first took 123,431 -> 168,644 B alone, 226 B a station.
        # Both runs are parts of 25 stations and a last one of 26
        monkeypatch.setattr(solver, "STATION_BLOCK", 25)
        given = ["roundtrip", "--maneuver", "level", "--out", str(tmp_path)]

        def round_trip(dt):
            assert run(*given, "--dt", dt) == EXIT_OK

        per_station, peaks = tracing.growth(
            round_trip, [("6e-2", 101), ("2e-2", 301)])
        assert per_station <= 64, peaks

    def test_out_of_envelope_trajectory_is_input_error(self, tmp_path,
                                                       capsys):
        man = out_of_envelope_file(tmp_path, "vertical_climb")
        assert run("roundtrip", "--maneuver-file", str(man),
                   "--out", str(tmp_path)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "[vertical_flight] vertical flight path at station 0" in err
        assert not (tmp_path / "roundtrip.txt").exists()

    @pytest.mark.parametrize("option", ["--pos-tol-frac", "--phi-tol-deg"])
    def test_negative_tolerance_is_input_error(self, tmp_path, capsys,
                                               option):
        # a negative tolerance once made every replay a mismatch (exit 3)
        assert run("roundtrip", "--maneuver", "level", "--dt", "1e-2",
                   option, "-1", "--out", str(tmp_path)) == EXIT_INPUT
        assert f"{option} -1.0 must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "roundtrip.txt").exists()


class TestForward:
    def test_replay_matches(self, tmp_path, capsys):
        out = tmp_path / "inv"
        run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-3",
            "--out", str(out), "--angles", "rad")
        assert run("forward", "--history", str(out / "history.csv"),
                   "--angles", "rad", "--out", str(out)) == EXIT_OK
        report = dict(line.split(" = ") for line in
                      (out / "forward.txt").read_text().splitlines())
        assert report["verdict"] == "match"

    def test_corrupted_rudder_detected(self, tmp_path, capsys):
        out = tmp_path / "inv"
        run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-3",
            "--out", str(out), "--angles", "rad")
        lines = (out / "history.csv").read_text().splitlines()
        names = lines[0].split(",")
        idx = names.index("delta_n")
        corrupted = [lines[0]]
        for line in lines[1:]:
            parts = line.split(",")
            parts[idx] = "0"
            corrupted.append(",".join(parts))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(corrupted) + "\n")
        status = run("forward", "--history", str(bad), "--angles", "rad",
                     "--out", str(tmp_path))
        assert status == EXIT_MISMATCH

    # one column of the dt 1e-2 roll history scaled, and the channels
    # then over their bounds
    @pytest.mark.parametrize("column, factor, over", [
        # 1.3 times the thrust runs the roll ahead of its track; the
        # verdict once tested only y, z and the bank, and read match
        # with x off by 6.55 m against the 6.0 m bound
        ("T", 1.3, "x"),
        # phi 3.45 deg (bound 2 deg), y 7.81 m and z 12.7 m (bound 6 m);
        # at x 1.03 the elevator and the rudder still match, with y
        # 1.80 m and z 4.63 m
        ("delta_l", 1.01, "phi"),
        ("delta_m", 1.10, "y"),
        ("delta_n", 1.10, "y z phi"),
    ])
    def test_along_track_deviation_is_in_the_verdict(self, tmp_path,
                                                     capsys, column,
                                                     factor, over):
        out = tmp_path / "inv"
        run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-2",
            "--out", str(out))
        lines = (out / "history.csv").read_text().splitlines()
        idx = lines[0].split(",").index(column)
        pushed = [lines[0]]
        for line in lines[1:]:
            parts = line.split(",")
            parts[idx] = repr(factor * float(parts[idx]))
            pushed.append(",".join(parts))
        bad = tmp_path / "pushed.csv"
        bad.write_text("\n".join(pushed) + "\n")
        assert run("forward", "--history", str(bad), "--out",
                   str(tmp_path)) == EXIT_MISMATCH
        report = dict(line.split(" = ") for line in
                      (tmp_path / "forward.txt").read_text().splitlines())
        assert report["verdict"] == "mismatch"
        tol = float(report["pos_tol_m"])
        dev = {c: float(report[f"max_dev_{c}_m"]) for c in "xyz"}
        failing = {c for c, d in dev.items() if d > tol}
        if float(report["max_dev_phi_deg"]) > float(report["phi_tol_deg"]):
            failing.add("phi")
        assert failing == set(over.split())

    @staticmethod
    def replay_with_first_row(tmp_path, column, entry):
        """Exit status of ``forward`` on a dt 1e-2 ``level`` history whose
        first row holds ``entry`` in ``column``."""
        out = tmp_path / "inv"
        run("inverse", "--maneuver", "level", "--dt", "1e-2",
            "--out", str(out))
        lines = (out / "history.csv").read_text().splitlines()
        first = lines[1].split(",")
        first[lines[0].split(",").index(column)] = entry
        bad = tmp_path / "bad_start.csv"
        bad.write_text("\n".join([lines[0], ",".join(first)] + lines[2:])
                       + "\n")
        return run("forward", "--history", str(bad), "--out", str(tmp_path))

    @pytest.mark.parametrize("speed, code", [("80", "beyond_stall"),
                                             ("0", "zero_velocity")])
    def test_start_without_trim_is_input_error(self, tmp_path, capsys,
                                               speed, code):
        # the replay shifts the lift curve to the 1-g trim of its first
        # row, as the inverse does; 0 m/s once raised ZeroDivisionError
        assert self.replay_with_first_row(tmp_path, "V", speed) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"[{code}]" in err
        assert "at station 0" in err
        assert not (tmp_path / "forward.txt").exists()

    def test_start_outside_the_atmosphere_is_input_error(self, tmp_path,
                                                         capsys):
        # the first row's density was taken outside the refusal, so this
        # exited 2 as a numerical failure that named no row
        assert self.replay_with_first_row(tmp_path, "z_g", "100") == \
            EXIT_INPUT
        err = capsys.readouterr().err
        assert ("[altitude_out_of_range] altitude -100.0 m outside "
                "[0, 11000] m at station 0") in err
        assert "numerical failure" not in err
        assert not (tmp_path / "forward.txt").exists()

    def test_forward_failure_names_the_station(self, tmp_path, capsys):
        # the level history flown from 10 m with the elevator held nose
        # down meets the sea before its end
        out = tmp_path / "inv"
        run("inverse", "--maneuver", "level", "--dt", "1e-2",
            "--out", str(out), "--angles", "rad")
        lines = (out / "history.csv").read_text().splitlines()
        names = lines[0].split(",")
        iz, im = names.index("z_g"), names.index("delta_m")
        dive = [lines[0]]
        for line in lines[1:]:
            parts = line.split(",")
            parts[iz], parts[im] = "-10", "0.05"
            dive.append(",".join(parts))
        bad = tmp_path / "dive.csv"
        bad.write_text("\n".join(dive) + "\n")
        assert run("forward", "--history", str(bad), "--angles", "rad",
                   "--out", str(tmp_path)) == EXIT_MISMATCH
        report = dict(line.split(" = ") for line in
                      (tmp_path / "forward.txt").read_text().splitlines())
        assert report["verdict"] == "mismatch"
        head, _, cause = report["forward_failure"].partition(": ")
        assert head.startswith("forward simulation failed at station ")
        assert 0 < int(head.rsplit(" ", 1)[1]) < len(lines) - 1
        assert cause.startswith("altitude ")
        assert "forward run failed: " + report["forward_failure"] in \
            capsys.readouterr().err

    def test_replay_frees_each_block_once_its_part_is_flown(
            self, tmp_path, capsys, monkeypatch, roll_1e3):
        # the dt 1e-3 roll history is n blocks of at most ``STATION_BLOCK``
        # rows (12 at the default 512); after each flown part the flight
        # holds that part's block and the next, and as a block is read
        # only the one before it is alive (the judge once kept the last
        # judged part's block: [0, 1] as block 2 was read)
        path = tmp_path / "h.csv"
        write_history([roll_1e3], path, "deg")
        real_read, real_simulate = cli.read_history, cli.fwd.simulate
        refs, alive, at_read = [], [], []

        def alive_blocks():
            return [i for i, ref in enumerate(refs) if ref() is not None]

        def read_history(*args):
            grid, blocks = real_read(*args)

            def tracked():
                for block in blocks:
                    at_read.append(alive_blocks())
                    refs.append(weakref.ref(block))
                    yield block

            return grid, tracked()

        def simulate(initial, controls, cfg, coeffs, fold):
            def flown(parts):
                for part in parts:
                    yield part
                    alive.append(alive_blocks())

            return real_simulate(initial, controls, cfg, coeffs,
                                 lambda parts: fold(flown(parts)))

        monkeypatch.setattr(cli, "read_history", read_history)
        monkeypatch.setattr(cli.fwd, "simulate", simulate)
        assert run("forward", "--history", str(path),
                   "--out", str(tmp_path)) == EXIT_OK
        n = -(-len(roll_1e3.t) // solver.STATION_BLOCK)
        assert n >= 3
        assert alive == [[i, i + 1] for i in range(n - 1)] + [[n - 1]]
        assert at_read == [[]] + [[i] for i in range(n - 1)]

    def test_replay_peak_memory_per_station(self, tmp_path, capsys,
                                            monkeypatch, mirage):
        # the replay reads, flies and judges the history a block at a
        # time and folds the path length part by part, so of what is alive
        # at its peak only the time column with its steps (read for the
        # grid, freed before the flight) grows with the run: 146,947 ->
        # 151,781 B traced from 601 to 2,401 stations, 2.7 B a station
        # (2-vCPU AVX-512 Xeon). Keeping the track's segment lengths,
        # 8 B a station, for one sum read 10.8 B; reading the whole file
        # into one (n, 21) block and flying whole columns read 216 B
        monkeypatch.setattr(solver, "STATION_BLOCK", 64)
        paths = []
        for dt in (1e-2, 2.5e-3):
            paths.append(tmp_path / f"level-{dt}.csv")
            write_history([solver.solve(solver.maneuver_spec("level", dt),
                                        mirage)], paths[-1], "deg")
        replay = ("forward", "--out", str(tmp_path), "--history")

        def forward(path):
            assert run(*replay, str(path)) == EXIT_OK

        per_station, peaks = tracing.growth(
            forward, [(paths[0], 601), (paths[1], 2401)])
        assert per_station <= 6, peaks

    def test_non_finite_tolerances_are_input_errors(self, tmp_path, capsys):
        # a history flown with half its rudder mismatches at the default
        # tolerances; NaN tolerances once made every comparison false and
        # reported it as a match
        out = tmp_path / "inv"
        run("inverse", "--maneuver", "mirage-roll", "--dt", "1e-3",
            "--out", str(out), "--angles", "rad")
        lines = (out / "history.csv").read_text().splitlines()
        idx = lines[0].split(",").index("delta_n")
        halved = [lines[0]]
        for line in lines[1:]:
            parts = line.split(",")
            parts[idx] = repr(0.5 * float(parts[idx]))
            halved.append(",".join(parts))
        bad = tmp_path / "half.csv"
        bad.write_text("\n".join(halved) + "\n")
        replay = ("forward", "--history", str(bad), "--angles", "rad",
                  "--out", str(tmp_path))
        assert run(*replay) == EXIT_MISMATCH
        capsys.readouterr()
        assert run(*replay, "--pos-tol-frac", "nan",
                   "--phi-tol-deg", "nan") == EXIT_INPUT
        err = capsys.readouterr().err
        assert "--pos-tol-frac nan is not finite" in err
        assert "--phi-tol-deg nan is not finite" in err


@pytest.fixture(scope="module")
def level_1e2(mirage):
    return solver.solve(solver.maneuver_spec("level", 1e-2), mirage)


class TestReadHistory:
    @pytest.mark.parametrize("unit", ["deg", "rad"])
    def test_columns_are_views_of_one_block(self, tmp_path, monkeypatch,
                                            mirage, unit):
        # the 601 rows stream as 85 blocks of 7 and one of 6, each one
        # (k, 21) float64 array whose columns the replay takes as views;
        # joined, they are the whole file as np.loadtxt reads it
        hist = solver.solve(solver.maneuver_spec("mirage-roll", 1e-2),
                            mirage)
        path = tmp_path / "h.csv"
        write_history([hist], path, unit)
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        grid, blocks = read_history(path, unit)
        blocks = list(blocks)
        assert grid == hist.grid
        assert [len(b) for b in blocks] == [7] * 85 + [6]
        for b in blocks:
            assert b.dtype == np.float64 and b.flags.c_contiguous
            assert b.shape[1] == len(HISTORY_COLUMNS)
        got = np.concatenate(blocks)
        block = np.loadtxt(path, delimiter=",", skiprows=1)
        scale = 180.0 / np.pi if unit == "deg" else 1.0
        for j, (name, field, angle) in enumerate(HISTORY_COLUMNS):
            want = block[:, j] / scale if angle else block[:, j]
            assert np.array_equal(got[:, j], want), name

    @pytest.mark.parametrize("column,entry,problem", [
        ("y_g", "nan", "non-finite entry"),
        ("t", "nan", "non-finite entry"),
        # a column that the replay does not fly is still checked
        ("theta_w", "nan", "non-finite entry"),
        ("T", "-inf", "non-finite entry"),
        ("delta_n", "x", "non-numeric entry"),
        ("flags", None, "expected 21 columns, got 20"),
    ])
    def test_bad_entry_is_input_error_naming_the_line(
            self, tmp_path, capsys, level_1e2, column, entry, problem):
        # a NaN in y_g or t once replayed to max_dev_y_m = nan, verdict
        # match and exit 0; an 'x' or a 20-field row escaped as a
        # ValueError traceback
        path = tmp_path / "h.csv"
        write_history([level_1e2], path, "rad")
        lines = path.read_text().splitlines()
        parts = lines[6].split(",")
        idx = HISTORY_HEADER.split(",").index(column)
        if entry is None:
            del parts[idx]
        else:
            parts[idx] = entry
        lines[6] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigFileError, match=f"line 7: {problem}"):
            history_columns(path, "rad")
        assert run("forward", "--history", str(path), "--angles", "rad",
                   "--out", str(tmp_path)) == EXIT_INPUT
        assert f"line 7: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "forward.txt").exists()

    @pytest.mark.parametrize("column,entry,problem", [
        ("theta_w", "nan", "line 40: non-finite entry"),
        ("delta_n", "x", "line 40: non-numeric entry"),
        ("flags", None, "line 40: expected 21 columns, got 20"),
        ("t", "0.3805", "line 40: times do not increase uniformly"),
    ])
    def test_bad_entry_past_the_first_block_is_input_error(
            self, tmp_path, capsys, monkeypatch, level_1e2, column, entry,
            problem):
        # line 40 is station 38, in the sixth block of 7 rows: a bad
        # entry there stops the replay once the flight reaches it, after
        # 5 blocks were read, and leaves no report; a time off the grid
        # fails before any flight
        path = tmp_path / "h.csv"
        write_history([level_1e2], path, "rad")
        lines = path.read_text().splitlines()
        parts = lines[39].split(",")
        idx = HISTORY_HEADER.split(",").index(column)
        if entry is None:
            del parts[idx]
        else:
            parts[idx] = entry
        lines[39] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        simulate, read = cli.fwd.simulate, []

        def spy(initial, controls, cfg, coeffs, fold):
            def counted():
                for part in controls:
                    read.append(len(part.thrust))
                    yield part
            return simulate(initial, counted(), cfg, coeffs, fold)

        monkeypatch.setattr(cli.fwd, "simulate", spy)
        with pytest.raises(ConfigFileError, match=problem):
            history_columns(path, "rad")
        assert run("forward", "--history", str(path), "--angles", "rad",
                   "--out", str(tmp_path)) == EXIT_INPUT
        assert problem in capsys.readouterr().err
        assert read == ([] if column == "t" else [7] * 5)
        assert not (tmp_path / "forward.txt").exists()

    def test_bad_entry_after_a_failed_flight_is_input_error(
            self, tmp_path, capsys, monkeypatch, level_1e2):
        # flown from 10 m with the elevator held nose down, the level
        # history meets the sea in its first blocks; its last row, which
        # the flight never reaches, is still read, and its bad entry
        # makes the replay an input error, not a mismatch
        path = tmp_path / "h.csv"
        write_history([level_1e2], path, "rad")
        lines = path.read_text().splitlines()
        names = lines[0].split(",")
        iz, im = names.index("z_g"), names.index("delta_m")
        dive = [lines[0]]
        for line in lines[1:]:
            parts = line.split(",")
            parts[iz], parts[im] = "-10", "0.05"
            dive.append(",".join(parts))
        dive[-1] = dive[-1].replace(",0.05,", ",x,")
        path.write_text("\n".join(dive) + "\n")
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        assert run("forward", "--history", str(path), "--angles", "rad",
                   "--out", str(tmp_path)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"line {len(dive)}: non-numeric entry" in err
        assert "forward run failed" not in err
        assert not (tmp_path / "forward.txt").exists()

    @pytest.mark.parametrize("case", ["missing", "renamed"])
    def test_line_1_must_be_the_header(self, tmp_path, capsys, level_1e2,
                                       case):
        # a history without its header once lost station 0 and replayed
        # to verdict = match, exit 0 (the dt 1e-2 roll: path 1198 m, not
        # 1200 m); other names were read by position, also exit 0
        path = tmp_path / "h.csv"
        write_history([level_1e2], path, "rad")
        lines = path.read_text().splitlines()
        if case == "missing":
            del lines[0]
        else:
            lines[0] = lines[0].replace("delta_l,delta_m", "delta_m,delta_l")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigFileError,
                           match="line 1: not the history header"):
            read_history(path, "rad")
        assert run("forward", "--history", str(path), "--angles", "rad",
                   "--out", str(tmp_path)) == EXIT_INPUT
        assert "line 1: not the history header" in capsys.readouterr().err
        assert not (tmp_path / "forward.txt").exists()

    def test_header_without_data_rows_is_input_error(self, tmp_path,
                                                     capsys):
        # numpy warned "input contained no data" on stderr, and the
        # message then counted 0 columns in a 21-column header
        path = tmp_path / "h.csv"
        path.write_text(HISTORY_HEADER + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigFileError, match="no data rows"):
                read_history(path, "rad")
            assert run("forward", "--history", str(path), "--angles", "rad",
                       "--out", str(tmp_path)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "no data rows" in err
        assert "Warning" not in err
        assert not (tmp_path / "forward.txt").exists()

    def test_one_data_row_is_input_error(self, tmp_path, capsys, level_1e2):
        # a replay needs a time step, so at least two stations
        path = tmp_path / "h.csv"
        write_history([level_1e2], path, "rad")
        path.write_text("".join(path.read_text().splitlines(True)[:2]))
        assert run("forward", "--history", str(path), "--angles", "rad",
                   "--out", str(tmp_path)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}: a step needs 2 rows, got 1" in err
        assert not (tmp_path / "forward.txt").exists()


class TestConverge:
    def test_single_step_size_is_usage_error(self, tmp_path, capsys):
        assert run("converge", "--maneuver", "mirage-roll", "--dt", "1e-3",
                   "--out", str(tmp_path)) == EXIT_INPUT

    def test_angles_is_not_an_option(self, tmp_path, capsys):
        # the study writes no angle, so it once accepted and ignored it
        with pytest.raises(SystemExit) as info:
            run("converge", "--maneuver", "level", "--dt", "1e-2", "--dt",
                "2e-2", "--angles", "rad", "--out", str(tmp_path))
        assert info.value.code == 2
        assert "unrecognized arguments: --angles rad" in \
            capsys.readouterr().err
        assert not (tmp_path / "convergence.txt").exists()

    def test_table_written(self, tmp_path, capsys):
        out = tmp_path / "cv"
        assert run("converge", "--maneuver", "mirage-roll", "--dt", "2e-3",
                   "--dt", "4e-3", "--out", str(out)) == EXIT_OK
        text = (out / "convergence.txt").read_text()
        assert text.startswith("dt_coarse,dt_fine,")
        assert "verdict," in text

    def test_diverged_run_makes_the_study_sensitive(self, tmp_path, capsys,
                                                    monkeypatch):
        # every metric of a diverged pair is inf, which no threshold passes
        from invflight import NonFiniteState, SolverAbort

        real_solve = solver.solve

        def flaky_solve(spec, cfg):
            if spec.dt == 2e-2:
                raise SolverAbort("marching loop", 5,
                                  NonFiniteState("synthetic blow-up"))
            return real_solve(spec, cfg)

        monkeypatch.setattr(solver, "solve", flaky_solve)
        assert run("converge", "--maneuver", "level", "--dt", "1e-2", "--dt",
                   "2e-2", "--threshold", "1e300",
                   "--out", str(tmp_path)) == EXIT_OK
        assert (tmp_path / "convergence.txt").read_text().splitlines()[1:] \
            == ["0.02,0.01,inf,inf,inf,inf,yes",
                "verdict,sensitive,threshold,1e+300"]

    def test_missing_config_file_is_input_error(self, tmp_path, capsys):
        assert run("converge", "--maneuver", "mirage-roll", "--dt", "1e-3",
                   "--dt", "2e-3", "--config",
                   str(tmp_path / "nope.cfg")) == EXIT_INPUT

    @pytest.mark.parametrize("extra", [("--dt", "nan"),
                                       ("--threshold", "nan")])
    def test_non_finite_option_is_input_error(self, tmp_path, capsys,
                                              extra):
        # a NaN threshold once made every study "sensitive"
        assert run("converge", "--maneuver", "mirage-roll", "--dt", "1e-2",
                   "--dt", "2e-2", *extra,
                   "--out", str(tmp_path)) == EXIT_INPUT
        assert f"{extra[0]} nan is not finite" in capsys.readouterr().err
        assert not (tmp_path / "convergence.txt").exists()

    @pytest.mark.parametrize("threshold", ["-1", "0"])
    def test_non_positive_threshold_is_input_error(self, tmp_path, capsys,
                                                   threshold):
        # --threshold -1 once reported "sensitive" with every deviation 0
        assert run("converge", "--maneuver", "level", "--dt", "1e-2",
                   "--dt", "2e-2", "--threshold", threshold,
                   "--out", str(tmp_path)) == EXIT_INPUT
        assert "--threshold" in capsys.readouterr().err
        assert not (tmp_path / "convergence.txt").exists()

    def test_repeated_step_size_is_input_error(self, tmp_path, capsys):
        # a run compared with itself was once reported "insensitive"
        assert run("converge", "--maneuver", "level", "--dt", "1e-2",
                   "--dt", "0.01", "--out", str(tmp_path)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "[repeated_step_size] step sizes dt = [0.01, 0.01]" in err
        assert not (tmp_path / "convergence.txt").exists()


class TestRefusedStart:
    @pytest.fixture
    def small_wing(self, tmp_path):
        # S = 6 m^2: the 1-g trim of the level start needs 38.16 deg
        cfg = tmp_path / "small_wing.cfg"
        cfg.write_text(Path(CONFIG).read_text().replace(
            "S = 36 ", "S = 6 "))
        return cfg

    @pytest.mark.parametrize("subcommand", ["inverse", "roundtrip",
                                            "converge", "forward"])
    def test_start_past_stall_is_input_error_in_every_subcommand(
            self, tmp_path, capsys, small_wing, subcommand):
        # converge once let the refusal through as a numerical failure,
        # exit 2, where the other subcommands exited 1
        if subcommand == "forward":
            run("inverse", "--maneuver", "level", "--dt", "1e-2",
                "--out", str(tmp_path))
            given = ["--history", str(tmp_path / "history.csv")]
        else:
            given = ["--maneuver", "level", "--dt", "1e-2"]
            if subcommand == "converge":
                given += ["--dt", "2e-2"]
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(subcommand, *given, "--config", str(small_wing),
                   "--out", str(out)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "[beyond_stall]" in err
        assert "at station 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["inverse", "roundtrip",
                                            "converge"])
    def test_late_exit_from_the_atmosphere_is_refused_before_the_march(
            self, tmp_path, capsys, monkeypatch, subcommand):
        # a climb at 10 m/s from 10,989.975 m leaves the 0-11 km band at
        # t = 1.0025 s: half step 201, station 100 at dt 1e-2, in the
        # fifteenth block of 7 stations. Setup checks every block before
        # the march computes its first stage
        monkeypatch.setattr(solver, "STATION_BLOCK", 7)
        monkeypatch.setitem(solver.MANEUVERS, "late-exit", AnalyticManeuver(
            x=solver._linear(200.0), y=solver._linear(0.0),
            z=solver._linear(-10.0, -10989.975), phi=solver._linear(0.0)))
        real, stages = dynamics.thrust_rate, []

        def counting(*args):
            stages.append(None)
            return real(*args)

        monkeypatch.setattr(dynamics, "thrust_rate", counting)
        given = ["--maneuver", "late-exit", "--dt", "1e-2"]
        if subcommand == "converge":
            given += ["--dt", "2e-2"]
        out = tmp_path / "out"
        assert run(subcommand, *given, "--out", str(out)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "[altitude_out_of_range]" in err
        assert err.rstrip().endswith("at station 100")
        assert not out.exists()
        assert stages == []

    def test_failure_inside_the_march_stays_numerical(self, tmp_path,
                                                      capsys, monkeypatch):
        # main reads a bare refusal as one raised before any integration;
        # the march must keep wrapping the errors it meets in SolverAbort
        real = dynamics.sideslip_accel
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == 10:
                raise ZeroVelocity("synthetic zero speed")
            return real(*args)

        monkeypatch.setattr(dynamics, "sideslip_accel", failing)
        assert run("inverse", "--maneuver", "level", "--dt", "1e-2",
                   "--out", str(tmp_path)) == EXIT_NUMERICAL
        assert "numerical failure: marching loop failed at station " in \
            capsys.readouterr().err
        assert not (tmp_path / "history.csv").exists()
