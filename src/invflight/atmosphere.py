"""Gradient-layer (troposphere) air density versus altitude.

The model is valid from sea level up to about 11 km, where the linear
temperature lapse ends. Altitude is expressed through the ground-axes
vertical coordinate z_g, which points down: altitude = -z_g.
"""

from __future__ import annotations

import numpy as np

from .errors import AltitudeOutOfRange
from .model import ISA

__all__ = ["TROPOPAUSE_ALTITUDE", "density", "density_gradient"]

TROPOPAUSE_ALTITUDE = 11_000.0  # m


def _check_range(z_g):
    if isinstance(z_g, float):
        # scalar path of the forward simulator; NaN passes as with numpy
        alt = -z_g
        if alt < 0.0 or alt > TROPOPAUSE_ALTITUDE:
            _raise_out_of_range(alt)
        return
    alt = -np.asarray(z_g, dtype=float)
    bad = (alt < 0.0) | (alt > TROPOPAUSE_ALTITUDE)
    if np.any(bad):
        _raise_out_of_range(
            float(np.atleast_1d(alt)[np.argmax(np.atleast_1d(bad))]))


def _raise_out_of_range(alt):
    raise AltitudeOutOfRange(
        f"altitude {alt:.1f} m outside [0, {TROPOPAUSE_ALTITUDE:.0f}] m")


def density(z_g):
    """Air density (kg/m^3) at ground-axes vertical coordinate z_g (m).

    Uses the gradient-layer relation rho = rho_sl * (T/T_sl)**n with
    n = g/(L*R) - 1, written directly in terms of z_g:

        rho = rho_sl * (1 + (L/T_sl) * z_g) ** (g/(L*R) - 1)

    Strictly decreasing with altitude over the valid range. Accepts
    scalars or numpy arrays; raises AltitudeOutOfRange outside
    [0, 11000] m altitude.
    """
    _check_range(z_g)
    n = ISA.g / (ISA.lapse_rate * ISA.gas_constant) - 1.0
    return ISA.rho_sl * (1.0 + (ISA.lapse_rate / ISA.temp_sl) * z_g) ** n


def density_gradient(z_g):
    """d(rho)/d(z_g) (kg/m^3 per m), the chain-rule factor for rho_dot.

    Positive: z_g increases downward, where the air is denser.
    """
    _check_range(z_g)
    n = ISA.g / (ISA.lapse_rate * ISA.gas_constant) - 1.0
    scale = ISA.lapse_rate / ISA.temp_sl
    return ISA.rho_sl * n * scale * (1.0 + scale * z_g) ** (n - 1.0)
