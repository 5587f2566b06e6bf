import math

import numpy as np
import pytest

from invflight import AltitudeOutOfRange, density, density_gradient


def test_sea_level_density_exact():
    assert density(0.0) == 1.225


def test_density_at_10km():
    assert density(-10000.0) == pytest.approx(0.412, abs=0.25e-2 * 0.412)


def test_density_at_5km():
    # frozen from an independent high-precision evaluation of the
    # gradient-layer relation
    assert density(-5000.0) == pytest.approx(0.736, abs=0.002)


def test_density_strictly_decreasing_with_altitude():
    z = -np.linspace(0.0, 11000.0, 551)
    rho = density(z)
    assert np.all(np.diff(rho) < 0.0)


@pytest.mark.parametrize("z_g", [1.0, 10.0, -11001.0, -50000.0])
def test_out_of_range_rejected(z_g):
    with pytest.raises(AltitudeOutOfRange):
        density(z_g)


def test_range_boundaries_accepted():
    assert density(-11000.0) > 0.0
    assert density(-0.0) == 1.225


def test_gradient_matches_finite_difference():
    for z in (-100.0, -3000.0, -10500.0):
        h = 1e-3
        fd = (density(z + h) - density(z - h)) / (2 * h)
        assert density_gradient(z) == pytest.approx(fd, rel=1e-8)


def test_gradient_positive():
    # z_g grows downward, toward denser air
    assert density_gradient(-5000.0) > 0.0


# the scalar path (a Python float, the forward simulator's call) must give
# what the array path gives for the same altitude
SCALAR_ALTITUDES = [0.0, -0.0, -5000.0, -11000.0,
                    *np.linspace(0.0, -11000.0, 1101).tolist()]


@pytest.mark.parametrize("fn", [density, density_gradient])
def test_scalar_path_equals_array_path(fn):
    array = fn(np.array(SCALAR_ALTITUDES))
    scalar = np.array([fn(z) for z in SCALAR_ALTITUDES])
    # Both evaluate the same expression, but numpy's vectorised power is
    # not libm's pow: on an AVX-512 host it differs in the last bits at
    # about one altitude in twenty (2 ulp at most, measured).
    np.testing.assert_array_max_ulp(scalar, array, maxulp=2)
    assert all(type(fn(z)) is float for z in SCALAR_ALTITUDES[:4])


@pytest.mark.parametrize("fn", [density, density_gradient])
def test_numpy_scalar_equals_float(fn):
    for z in SCALAR_ALTITUDES:
        assert fn(np.float64(z)) == fn(z)


@pytest.mark.parametrize("fn", [density, density_gradient])
@pytest.mark.parametrize("z_g, alt", [(10.0, "-10.0"),
                                      (-11000.5, "11000.5"),
                                      # one decimal would read as inside
                                      (0.004, "-0.004"),
                                      (-11000.04, "11000.04")])
def test_out_of_range_message(fn, z_g, alt):
    text = f"altitude {alt} m outside [0, 11000] m"
    for arg in (z_g, np.array([-5.0, z_g])):
        with pytest.raises(AltitudeOutOfRange) as info:
            fn(arg)
        assert str(info.value) == text


@pytest.mark.parametrize("fn", [density, density_gradient])
def test_nan_scalar_passes_as_nan(fn):
    assert math.isnan(fn(math.nan))


def test_keyword_name_is_z_g():
    assert density(z_g=-5000.0) == density(-5000.0)
    assert density_gradient(z_g=-5000.0) == density_gradient(-5000.0)
