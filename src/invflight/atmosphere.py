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

# the gradient-layer exponent g/(L*R) - 1 and scale L/T_sl, from ISA once
_EXPONENT = ISA.g / (ISA.lapse_rate * ISA.gas_constant) - 1.0
_SCALE = ISA.lapse_rate / ISA.temp_sl


def _check_range(z_g):
    alt = -np.asarray(z_g, dtype=float)
    bad = (alt < 0.0) | (alt > TROPOPAUSE_ALTITUDE)
    if np.any(bad):
        _raise_out_of_range(
            float(np.atleast_1d(alt)[np.argmax(np.atleast_1d(bad))]))


def _raise_out_of_range(alt, where=""):
    text = f"{alt:.1f}"
    if 0.0 <= float(text) <= TROPOPAUSE_ALTITUDE:  # rounded into the range
        text = f"{alt}"
    raise AltitudeOutOfRange(f"altitude {text} m outside "
                             f"[0, {TROPOPAUSE_ALTITUDE:.0f}] m{where}")


def density(z_g):
    """Air density (kg/m^3) at ground-axes vertical coordinate z_g (m).

    Uses the gradient-layer relation rho = rho_sl * (T/T_sl)**n with
    n = g/(L*R) - 1, written directly in terms of z_g:

        rho = rho_sl * (1 + (L/T_sl) * z_g) ** (g/(L*R) - 1)

    n and L/T_sl are computed once, at import, from ``ISA``. Strictly
    decreasing with altitude. Takes scalars or numpy arrays; raises
    AltitudeOutOfRange outside [0, 11000] m altitude. A float (the
    forward simulator's call) is checked inline; NaN passes, as in arrays.
    """
    if isinstance(z_g, float):
        alt = -z_g
        if alt < 0.0 or alt > TROPOPAUSE_ALTITUDE:
            _raise_out_of_range(alt)
    else:
        _check_range(z_g)
    return ISA.rho_sl * (1.0 + _SCALE * z_g) ** _EXPONENT


def density_gradient(z_g):
    """d(rho)/d(z_g) (kg/m^3 per m), the chain-rule factor for rho_dot.

    Positive: z_g increases downward, where the air is denser.
    """
    _check_range(z_g)
    return (ISA.rho_sl * _EXPONENT * _SCALE
            * (1.0 + _SCALE * z_g) ** (_EXPONENT - 1.0))
