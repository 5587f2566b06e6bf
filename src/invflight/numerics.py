"""Finite-difference stencils and the fixed-step RK4 kernel.

All stencils are second-order accurate: central differences at interior
stations, one-sided 3-point (first derivative) and 4-point (second
derivative) formulas at the two boundary stations. The 4-point boundary
formulas come from a cubic fit; a quadratic fit would lose an order.

Both marches take one RK4 step per station, so ``rk4_step`` forms its
stage states and update with straight-line code generated per state
length, not with per-element loops over ``zip`` and their interpreter
overhead, by the loop's operations in the loop's order: the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooShort

__all__ = [
    "UniformGrid",
    "fd_first_derivative",
    "fd_second_derivative",
    "fd_third_derivative",
    "rk4_step",
]


@dataclass(frozen=True)
class UniformGrid:
    """Uniformly spaced time stations."""

    t0: float
    dt: float
    count: int

    def times(self, start=0, stop=None) -> np.ndarray:
        """``t0 + dt * arange(start, stop)`` in one array: the same bits in
        any range (``stop`` defaults to ``count``)."""
        t = np.arange(start, self.count if stop is None else stop, dtype=float)
        t *= self.dt
        t += self.t0
        return t


def fd_first_derivative(values, dt: float) -> np.ndarray:
    """Second-order first derivative of a uniformly sampled signal.

    Central at interior stations, one-sided 3-point at the ends.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise GridTooShort(f"{v.size} samples; need at least 4")
    out = np.empty_like(v)
    inv2h = 1.0 / (2.0 * dt)
    out[1:-1] = (v[2:] - v[:-2]) * inv2h
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) * inv2h
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) * inv2h
    return out


def fd_second_derivative(values, dt: float) -> np.ndarray:
    """Second-order second derivative of a uniformly sampled signal.

    Central at interior stations, one-sided 4-point at the ends.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise GridTooShort(f"{v.size} samples; need at least 4")
    out = np.empty_like(v)
    inv_h2 = 1.0 / (dt * dt)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) * inv_h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) * inv_h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) * inv_h2
    return out


def fd_third_derivative(values, dt: float) -> np.ndarray:
    """Third derivative as first derivative of the second derivative."""
    v = np.asarray(values, dtype=float)
    if v.size < 5:
        raise GridTooShort(f"{v.size} samples; need at least 5")
    return fd_first_derivative(fd_second_derivative(v, dt), dt)


_COMBINERS = {}


def _combiners(n):
    """``axpy(y, a, s)`` -> ``(y0 + a0 * s, ...)`` and ``update(y, a, b, c,
    d, h)`` -> ``(y0 + h * (a0 + 2.0 * (b0 + c0) + d0), ...)`` for states
    of length ``n``, written out term by term and built once per length.
    Unpacking a sequence of another length raises ``ValueError``."""
    def row(v):  # "[y0, y1, ...] = y", then the next line's indent
        return f"[{', '.join(f'{v}{i}' for i in range(n))}] = {v}\n "

    def out(form):
        terms = "".join(form.format(i=i) + ", " for i in range(n))
        return f"return ({terms})\n"

    scope = {}
    exec("def axpy(y, a, s):\n " + row("y") + row("a")
         + out("y{i} + a{i} * s")
         + "def update(y, a, b, c, d, h):\n " + "".join(map(row, "yabcd"))
         + out("y{i} + h * (a{i} + 2.0 * (b{i} + c{i}) + d{i})"), scope)
    return _COMBINERS.setdefault(n, (scope["axpy"], scope["update"]))


def rk4_step(f, t, y, dt, k1=None):
    """One classical fourth-order Runge-Kutta step.

    ``y`` is a sequence of floats; ``f(t, y)`` returns the rate sequence,
    of the same length (another length raises ``ValueError``). Stages are
    evaluated strictly in order (the rate function may keep internal
    stage-lagged values). A caller that already holds ``f(t, y)`` passes
    it as ``k1`` and the step makes three calls instead of four; that is
    only the same step if evaluating ``f(t, y)`` now would return ``k1``
    and leave the same internal state behind. Returns
    ``(y_new, (k1, k2, k3, k4))`` so the caller can form weighted stage
    averages; by construction (k1 + 2 k2 + 2 k3 + k4)/6 equals
    (y_new - y_old)/dt. The stage states and ``y_new`` come from the
    straight-line ``_combiners`` of ``len(y)`` (see the module docstring).
    """
    axpy, update = _COMBINERS.get(len(y)) or _combiners(len(y))
    half = 0.5 * dt
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + half, axpy(y, k1, half))
    k3 = f(t + half, axpy(y, k2, half))
    k4 = f(t + dt, axpy(y, k3, dt))
    return update(y, k1, k2, k3, k4, dt / 6.0), (k1, k2, k3, k4)
