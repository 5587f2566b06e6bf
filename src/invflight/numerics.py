"""Finite-difference stencils and the fixed-step RK4 kernel.

All stencils are second-order accurate: central differences at interior
stations, one-sided 3-point (first derivative) and 4-point (second
derivative) formulas at the two boundary stations. The 4-point boundary
formulas come from a cubic fit; a quadratic fit would lose an order.
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

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.count)


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


def _axpy(y, k, s):
    return tuple([yi + ki * s for yi, ki in zip(y, k)])


def rk4_step(f, t, y, dt, k1=None):
    """One classical fourth-order Runge-Kutta step.

    ``y`` is a sequence of floats; ``f(t, y)`` returns the rate sequence.
    Stages are evaluated strictly in order (the rate function may keep
    internal stage-lagged values). A caller that already holds
    ``f(t, y)`` passes it as ``k1`` and the step makes three calls
    instead of four; that is only the same step if evaluating ``f(t, y)``
    now would return ``k1`` and leave the same internal state behind.
    Returns ``(y_new, (k1, k2, k3, k4))`` so the caller can form weighted
    stage averages; by construction (k1 + 2 k2 + 2 k3 + k4)/6 equals
    (y_new - y_old)/dt.
    """
    half = 0.5 * dt
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + half, _axpy(y, k1, half))
    k3 = f(t + half, _axpy(y, k2, half))
    k4 = f(t + dt, _axpy(y, k3, dt))
    sixth = dt / 6.0
    y_new = tuple([yi + sixth * (a + 2.0 * (b + c) + d)
                   for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])
    return y_new, (k1, k2, k3, k4)
