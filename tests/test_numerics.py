import math
import struct

import numpy as np
import pytest

from invflight import GridTooShort
from invflight.numerics import (
    UniformGrid,
    fd_first_derivative,
    fd_second_derivative,
    fd_third_derivative,
    rk4_step,
)

from oracles import loop_rk4_step


def grid_times(dt, n, t0=0.0):
    return t0 + dt * np.arange(n)


@pytest.mark.parametrize("t0", [0.0, 1000.0, 100000.0])
@pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-2])
def test_grid_times_built_in_place_keep_their_bits(t0, dt):
    # ``times`` builds t in one array (arange, *= dt, += t0): the same
    # IEEE operations as the whole-array expression, so the same bytes
    want = grid_times(dt, 120_001, t0)
    got = UniformGrid(t0, dt, 120_001).times()
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestStencils:
    def test_constant_signal(self):
        v = np.full(10, 3.7)
        assert np.max(np.abs(fd_first_derivative(v, 0.1))) < 1e-12
        assert np.max(np.abs(fd_second_derivative(v, 0.1))) < 1e-11

    def test_quadratic_exact_everywhere(self):
        t = grid_times(0.37, 9, t0=-1.2)
        v = t * t
        assert fd_first_derivative(v, 0.37) == pytest.approx(2 * t, rel=1e-12)
        assert fd_second_derivative(v, 0.37) == pytest.approx(
            np.full(9, 2.0), rel=1e-12)

    def test_cubic_second_derivative_exact(self):
        # the 4-point boundary formulas come from a cubic fit, and the
        # central formula is exact on cubics too
        t = grid_times(0.25, 8, t0=0.5)
        v = t ** 3
        assert fd_second_derivative(v, 0.25) == pytest.approx(6 * t,
                                                              rel=1e-10)

    def test_cubic_first_derivative_has_quadratic_stencil_error(self):
        # the 3-point formulas are exact through degree 2 only; on a cubic
        # the central stencil error is exactly h^2 * f'''/6
        h = 0.25
        t = grid_times(h, 8)
        v = t ** 3
        d = fd_first_derivative(v, h)
        assert d[1:-1] == pytest.approx(3 * t[1:-1] ** 2 + h * h, rel=1e-12)

    def test_second_order_convergence_on_smooth_signal(self):
        errs = []
        for dt in (1e-2, 5e-3):
            t = grid_times(dt, 101)
            d = fd_first_derivative(np.sin(t), dt)
            errs.append(np.max(np.abs(d - np.cos(t))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_third_derivative_cubic(self):
        t = grid_times(0.2, 9)
        d3 = fd_third_derivative(t ** 3, 0.2)
        assert d3[1:-1] == pytest.approx(np.full(7, 6.0), rel=1e-9)

    def test_third_derivative_constant(self):
        assert np.all(fd_third_derivative(np.full(6, 2.0), 0.1) == 0.0)

    def test_third_derivative_sine(self):
        dt = 1e-3
        t = grid_times(dt, 2001)
        d3 = fd_third_derivative(np.sin(t), dt)
        assert np.max(np.abs(d3[2:-2] + np.cos(t[2:-2]))) < 1e-5

    def test_grid_too_short(self):
        with pytest.raises(GridTooShort):
            fd_first_derivative(np.arange(3.0), 0.1)
        with pytest.raises(GridTooShort):
            fd_second_derivative(np.arange(3.0), 0.1)
        with pytest.raises(GridTooShort):
            fd_third_derivative(np.arange(4.0), 0.1)


class TestRK4:
    def test_zero_rate(self):
        y, stages = rk4_step(lambda t, y: (0.0,), 0.0, (1.5,), 0.1)
        assert y == (1.5,)

    def test_exact_on_cubic_time_polynomials(self):
        # pure time dependence reduces RK4 to Simpson quadrature
        def f(t, y):
            return (3 * t * t - 4 * t + 2,)

        y, _ = rk4_step(f, 0.3, (0.0,), 0.5)
        t0, t1 = 0.3, 0.8
        exact = (t1 ** 3 - 2 * t1 ** 2 + 2 * t1) - \
                (t0 ** 3 - 2 * t0 ** 2 + 2 * t0)
        assert y[0] == pytest.approx(exact, rel=1e-14)

    def test_exponential_single_step(self):
        y, _ = rk4_step(lambda t, y: (y[0],), 0.0, (1.0,), 0.1)
        assert y[0] == pytest.approx(1.105170918, abs=1e-7)

    def test_stage_average_identity(self):
        y0 = (1.0, -2.0)
        dt = 0.37

        def f(t, y):
            return (y[1], -y[0] + math.sin(t))

        y1, (k1, k2, k3, k4) = rk4_step(f, 0.2, y0, dt)
        for i in range(2):
            avg = (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) / 6.0
            assert avg == pytest.approx((y1[i] - y0[i]) / dt, rel=1e-13)

    def test_fourth_order_global_convergence(self):
        def integrate(dt):
            y = (1.0,)
            t = 0.0
            while t < 1.0 - 1e-12:
                y, _ = rk4_step(lambda t, y: (y[0],), t, y, dt)
                t += dt
            return y[0]

        e1 = abs(integrate(0.05) - math.e)
        e2 = abs(integrate(0.025) - math.e)
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_given_first_stage_is_the_same_step(self):
        def f(t, y):
            return (y[1], -y[0] + math.sin(t))

        y0 = (1.0, -2.0)
        calls = []

        def counted(t, y):
            calls.append(t)
            return f(t, y)

        assert rk4_step(counted, 0.2, y0, 0.37, f(0.2, y0)) == \
            rk4_step(f, 0.2, y0, 0.37)
        assert calls == [0.2 + 0.185, 0.2 + 0.185, 0.2 + 0.37]

    def test_stage_order_is_sequential(self):
        calls = []

        def f(t, y):
            calls.append(t)
            return (0.0,)

        rk4_step(f, 1.0, (0.0,), 0.2)
        assert calls == [1.0, 1.1, 1.1, 1.2]


def _bits(values):
    """The bytes of a float sequence: equal bits, signs of zero included."""
    return struct.pack(f"{len(values)}d", *values)


def _random_floats(rng, n):
    """n finite floats: mostly of comparable size, so that a change in
    the order of operations shows in the rounding, some across 400
    decades, and +-0.0 and subnormals."""
    out = rng.uniform(-2.0, 2.0, n)
    wide = rng.random(n) < 0.15
    out[wide] *= 10.0 ** rng.uniform(-200, 200, int(wide.sum()))
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.3e-310]
    picks = rng.random(n) < 0.2
    out[picks] = rng.choice(special, int(picks.sum()))
    return tuple(out.tolist())


class TestRK4StraightLine:
    @pytest.mark.parametrize("n", [1, 2, 12, 13])
    @pytest.mark.parametrize("given_k1", [False, True])
    def test_bit_identical_to_the_loop_form(self, n, given_k1):
        rng = np.random.default_rng(1400 + n)
        for dt in (1e-4, 1e-3, 0.37, 5e-324) * 25:
            y = _random_floats(rng, n)
            rates = [_random_floats(rng, n) for _ in range(4)]

            def rate_fn(record):
                calls = iter(rates[1:] if given_k1 else rates)

                def f(t, state):
                    record.append((t, state))
                    return next(calls)
                return f

            k1 = rates[0] if given_k1 else None
            seen, want_seen = [], []
            got = rk4_step(rate_fn(seen), 0.3, y, dt, k1)
            want = loop_rk4_step(rate_fn(want_seen), 0.3, y, dt, k1)
            assert _bits(got[0]) == _bits(want[0])
            assert [_bits(k) for k in got[1]] == [_bits(k) for k in want[1]]
            # the stage states the rate function was handed
            assert [t for t, _ in seen] == [t for t, _ in want_seen]
            assert [_bits(s) for _, s in seen] == \
                [_bits(s) for _, s in want_seen]
            assert all(type(s) is tuple for _, s in seen)
            assert type(got[0]) is tuple

    @pytest.mark.parametrize("n, length", [(1, 2), (2, 1), (12, 11),
                                           (12, 13), (13, 0)])
    def test_rate_of_the_wrong_length_is_an_error(self, n, length):
        # the loop form's zip truncated such a rate without a word
        y = tuple(float(i) for i in range(n))
        with pytest.raises(ValueError, match="values to unpack"):
            rk4_step(lambda t, state: (1.0,) * length, 0.0, y, 0.1)
        with pytest.raises(ValueError, match="values to unpack"):
            rk4_step(lambda t, state: (1.0,) * n, 0.0, y, 0.1,
                     (1.0,) * length)
