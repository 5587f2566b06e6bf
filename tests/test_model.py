import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from invflight import (
    ConfigError,
    ConfigFileError,
    TrajectorySpec,
    load_config,
    load_sampled_maneuver,
    validate_config,
)
from invflight.model import CONFIG_KEYS, SampledManeuver


class TestValidateConfig:
    def test_mirage_dataset_is_valid(self, mirage):
        assert validate_config(mirage) is mirage

    def test_idempotent_and_side_effect_free(self, mirage):
        first = validate_config(mirage)
        second = validate_config(first)
        assert second == mirage

    def test_zero_control_derivatives_rejected(self, mirage):
        bad = replace(mirage, aero=replace(mirage.aero,
                                           c_roll_dl=0.0, c_roll_dn=0.0))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert "singular_control_matrix" in err.value.codes

    def test_singular_inertia_rejected(self, mirage):
        # with zero y-z and x-y products the coupling scalar reduces to
        # i_pitch * (i_roll*i_yaw - i_zx^2), zeroed by i_zx = sqrt(A*C)
        e = math.sqrt(mirage.i_roll * mirage.i_yaw)
        assert e == pytest.approx(73484.69, abs=0.01)
        bad = replace(mirage, i_zx=e)
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert "singular_inertia" in err.value.codes

    def test_all_violations_reported_together(self, mirage):
        bad = replace(mirage, mass=-1.0,
                      aero=replace(mirage.aero, c_lift_alpha=-2.0))
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert "non_positive_mass" in err.value.codes
        assert "non_positive_lift_slope" in err.value.codes

    def test_non_finite_fields_rejected(self, mirage):
        bad = replace(mirage, mass=math.inf,
                      aero=replace(mirage.aero, c_yaw_beta=math.nan))
        with pytest.raises(ConfigError, match="c_yaw_beta = nan") as err:
            validate_config(bad)
        assert err.value.codes.count("non_finite") == 2

    def test_inertia_determinant_mirage(self, mirage):
        # D = F = 0 reduction: A*B*C - B*E^2
        expected = (mirage.i_roll * mirage.i_pitch * mirage.i_yaw
                    - mirage.i_pitch * mirage.i_zx ** 2)
        assert mirage.inertia_determinant == expected


class TestConfigFile:
    def test_packaged_mirage_values_are_pinned(self, mirage):
        # the values criterion 3's 45.8 deg rudder peak rests on: the yaw
        # balance needs mass (trim), the inertias, the x-z product and
        # the rudder's yaw effectiveness
        assert (mirage.mass, mirage.i_roll, mirage.i_pitch, mirage.i_yaw,
                mirage.i_zx, mirage.aero.c_yaw_dn) == (
                    7400.0, 90000.0, 54000.0, 60000.0, 1800.0, -0.085)

    def test_unknown_key_cites_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m = 7400\nbogus = 1\n")
        with pytest.raises(ConfigFileError, match=r"line 2.*bogus"):
            load_config(path)

    def test_bad_number_cites_key_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m = heavy\n")
        with pytest.raises(ConfigFileError, match=r"line 1.*'m'"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m = 7400\nm = 7500\n")
        with pytest.raises(ConfigFileError, match="duplicate"):
            load_config(path)

    def test_missing_keys_reported(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("m = 7400\n")
        with pytest.raises(ConfigFileError, match="missing keys"):
            load_config(path)

    def test_every_package_data_file_is_listed(self):
        # an install copies only the .py files of the package unless
        # pyproject.toml lists the others, and the built-in aircraft is one
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            listed = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
        package = root / "src" / "invflight"
        shipped = {str(f.relative_to(package)) for f in package.rglob("*")
                   if f.is_file() and f.suffix not in (".py", ".pyc")}
        # each shipped file is listed, and each listed file is shipped
        assert shipped == set(listed["invflight"])

    def test_key_table_covers_all_fields(self, mirage):
        # every config field is reachable from a file key
        assert len(CONFIG_KEYS) == 10 + 19


class TestTrajectorySpec:
    def test_non_positive_dt_rejected(self):
        spec = TrajectorySpec(duration=1.0, dt=0.0)
        with pytest.raises(ConfigError) as err:
            spec.validate()
        assert "non_positive_dt" in err.value.codes

    def test_too_few_stations_rejected(self):
        spec = TrajectorySpec(duration=0.2, dt=0.1)
        with pytest.raises(ConfigError) as err:
            spec.validate()
        assert "too_few_stations" in err.value.codes

    def test_too_few_samples_rejected(self):
        # the third-derivative stencil of the sampled set-up needs 5 rows
        t = 0.1 * np.arange(4)
        spec = TrajectorySpec(
            duration=0.3, dt=0.1, samples=SampledManeuver(
                t=t, x=150.0 * t, y=0.0 * t, z=-5000.0 + 0.0 * t,
                phi=0.0 * t))
        with pytest.raises(ConfigError, match="4 sample rows") as err:
            spec.validate()
        assert err.value.codes == ["too_few_samples"]

    @pytest.mark.parametrize("duration", [1.0, 3.0])
    def test_sample_count_must_match_the_grid(self, duration):
        # 21 rows at dt 0.1 span 2 s; the set-up once broadcast them into
        # the grid's station arrays and raised a raw numpy ValueError
        t = 0.1 * np.arange(21)
        spec = TrajectorySpec(
            duration=duration, dt=0.1, samples=SampledManeuver(
                t=t, x=150.0 * t, y=0.0 * t, z=-5000.0 + 0.0 * t,
                phi=0.0 * t))
        with pytest.raises(ConfigError, match="21 sample rows") as err:
            spec.validate()
        assert err.value.codes == ["sample_count_mismatch"]

    def test_duration_must_be_step_multiple(self):
        spec = TrajectorySpec(duration=1.05, dt=0.1)
        with pytest.raises(ConfigError) as err:
            spec.validate()
        assert "grid_mismatch" in err.value.codes


class TestSampledManeuverFile:
    def _write(self, path, rows):
        path.write_text("\n".join(rows) + "\n")

    def test_load_and_grid(self, tmp_path):
        path = tmp_path / "man.dat"
        rows = ["%g %g 0 -5000 0" % (0.1 * i, 150.0 * 0.1 * i)
                for i in range(11)]
        self._write(path, rows)
        spec = load_sampled_maneuver(path)
        assert spec.station_count == 11
        assert spec.dt == pytest.approx(0.1)
        assert np.allclose(spec.samples.x, 15.0 * np.arange(11))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "man.dat"
        self._write(path, ["0 1 2 3", "1 2 3 4"])
        with pytest.raises(ConfigFileError, match="5 columns"):
            load_sampled_maneuver(path)

    def test_non_uniform_times(self, tmp_path):
        path = tmp_path / "man.dat"
        self._write(path, ["0 0 0 -5000 0", "0.1 1 0 -5000 0",
                           "0.25 2 0 -5000 0", "0.3 3 0 -5000 0",
                           "0.4 4 0 -5000 0"])
        with pytest.raises(ConfigFileError,
                           match="line 3: times do not increase uniformly"):
            load_sampled_maneuver(path)

    @pytest.mark.parametrize("times, line", [
        ("0 0.1 0.25 0.3 0.4", 5),  # comment and blank lines count
        ("0 0 0 0 0", 4),  # no step strays from a mean of 0; none is > 0
    ])
    def test_non_uniform_times_name_the_files_line(self, tmp_path, times,
                                                   line):
        rows = ["%s %d 0 -5000 0" % (t, i)
                for i, t in enumerate(times.split())]
        rows[1] += "  # the second sample"
        path = tmp_path / "man.dat"
        self._write(path, ["# t x y z phi", rows[0], ""] + rows[1:])
        with pytest.raises(ConfigFileError, match=(
                f"line {line}: times do not increase uniformly")):
            load_sampled_maneuver(path)

    def test_non_finite_entry_cites_line(self, tmp_path):
        path = tmp_path / "man.dat"
        rows = ["%g %g 0 -5000 0" % (0.1 * i, 15.0 * i) for i in range(6)]
        rows[3] = "0.3 nan 0 -5000 0"
        self._write(path, rows)
        with pytest.raises(ConfigFileError, match="line 4: non-finite"):
            load_sampled_maneuver(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "man.dat"
        self._write(path, ["0 0 0 -5000 0", "0.1 1 0 -5000 0"])
        with pytest.raises(ConfigFileError, match="at least 5"):
            load_sampled_maneuver(path)

    @pytest.mark.parametrize("layout", ["spaces", "commas", "mixed",
                                        "comments"])
    def test_separators_give_the_same_samples(self, tmp_path, layout):
        values = [[0.1 * i, 150.0 * 0.1 * i, 1.0 / 3.0, -5000.0 - i,
                   0.01 * i] for i in range(11)]
        rows = ["%r %r\t%r  %r %r" % tuple(v) for v in values]
        if layout == "commas":
            rows = ["%r,%r,%r,%r,%r" % tuple(v) for v in values]
        elif layout == "mixed":
            rows = ["%r, %r ,%r\t%r,  %r" % tuple(v) for v in values]
        elif layout == "comments":
            rows = (["# t x_g y_g z_g phi", ""]
                    + [r + "  # station" for r in rows])
        self._write(tmp_path / "man.dat", rows)
        s = load_sampled_maneuver(tmp_path / "man.dat").samples
        got = np.column_stack((s.t, s.x, s.y, s.z, s.phi))
        assert np.array_equal(got, np.array(values))

    def test_non_numeric_entry_cites_line(self, tmp_path):
        path = tmp_path / "man.dat"
        rows = ["%g,%g,0,-5000,0" % (0.1 * i, 15.0 * i) for i in range(6)]
        rows[4] = "0.4,60,zero,-5000,0"
        self._write(path, ["# header"] + rows)
        with pytest.raises(ConfigFileError, match="line 6: non-numeric"):
            load_sampled_maneuver(path)

    @pytest.mark.parametrize("text", ["", "# t x_g y_g z_g phi\n"])
    def test_empty_file_counts_zero_rows_without_a_warning(self, tmp_path,
                                                           text):
        path = tmp_path / "man.dat"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigFileError, match="only 0 sample rows"):
                load_sampled_maneuver(path)
