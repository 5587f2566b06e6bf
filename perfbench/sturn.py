"""Seeded coordinated S-turn maneuver files for the sturn-roundtrip workload.

The heading rate follows psi_dot(t) = W sin^3(2 pi t / T): a turn one way,
then the other, starting and ending wings level with zero roll rate. The
flight-path angle gamma and the airspeed V are constant, and the bank is
the coordinated value phi = atan(V psi_dot / g). Ground positions are the
integral of the velocity, taken with three-point Gauss-Legendre quadrature
on every sample interval, so the file carries no quadrature noise that the
solver's finite-difference stencils would amplify.

The program only ever sees the written file; the seed stays here.
"""

from __future__ import annotations

import math

import numpy as np

DURATION_S = 12.0
DT_S = 1e-3
G = 9.81  # the solver's fixed gravity

# parameter ranges (uniform draws)
SPEED_M_S = (180.0, 220.0)
ALTITUDE_M = (4000.0, 8000.0)
GAMMA_DEG = (-3.0, 3.0)
PEAK_TURN_RATE_DEG_S = (3.0, 6.0)


def parameters(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "speed": float(rng.uniform(*SPEED_M_S)),
        "altitude": float(rng.uniform(*ALTITUDE_M)),
        "gamma": math.radians(rng.uniform(*GAMMA_DEG)),
        "turn_rate": math.radians(rng.uniform(*PEAK_TURN_RATE_DEG_S)),
        "sign": float(rng.choice((-1.0, 1.0))),
    }


def _heading(t, turn_rate, sign):
    """psi(t) and psi_dot(t) for psi_dot = sign * W sin^3(2 pi t / T)."""
    w = 2.0 * math.pi / DURATION_S
    c = np.cos(w * t)
    psi = sign * turn_rate / w * (2.0 / 3.0 - c + c ** 3 / 3.0)
    psi_dot = sign * turn_rate * np.sin(w * t) ** 3
    return psi, psi_dot


def samples(p: dict) -> np.ndarray:
    """Rows of (t, x_g, y_g, z_g, phi) on the uniform DT_S grid for the
    parameters ``p`` (as returned by ``parameters``)."""
    n = int(round(DURATION_S / DT_S)) + 1
    t = DT_S * np.arange(n)
    horizontal = p["speed"] * math.cos(p["gamma"])

    # Gauss-Legendre nodes on each interval [t_k, t_k + dt]
    nodes = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
    weights = np.array([5.0, 8.0, 5.0]) / 18.0
    tq = t[:-1, None] + 0.5 * DT_S * (1.0 + nodes[None, :])
    psi_q, _ = _heading(tq, p["turn_rate"], p["sign"])
    dx = DT_S * (np.cos(psi_q) @ weights) * horizontal
    dy = DT_S * (np.sin(psi_q) @ weights) * horizontal
    x = np.concatenate(([0.0], np.cumsum(dx)))
    y = np.concatenate(([0.0], np.cumsum(dy)))
    z = -p["altitude"] - p["speed"] * math.sin(p["gamma"]) * t

    _, psi_dot = _heading(t, p["turn_rate"], p["sign"])
    phi = np.arctan(p["speed"] * psi_dot / G)
    return np.column_stack((t, x, y, z, phi))


def write(p: dict, path) -> None:
    rows = samples(p)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# t x_g y_g z_g phi (seeded coordinated S-turn)\n")
        for row in rows:
            fh.write("%.6f %.17g %.17g %.17g %.17g\n" % tuple(row))
