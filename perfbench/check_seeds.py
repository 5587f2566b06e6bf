"""Check that the S-turn envelope of sturn-roundtrip solves cleanly.

    python3 perfbench/check_seeds.py [first_seed] [count]

Run from the root of a source checkout. For seeds first .. first+count-1
(default 0 .. 19) and for the 16 corners of the parameter ranges, writes
the maneuver file, runs ``invflight roundtrip`` on it and applies the
benchmark's output check (finite history with zero flags, verdict
``match``). Prints one line per case with the peak |alpha_actual| and
the largest track deviation; exits 1 if any case fails.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

import run
import sturn


def cases(first: int, count: int):
    for seed in range(first, first + count):
        yield f"seed {seed}", sturn.parameters(seed)
    for speed, alt, gamma, rate in itertools.product(
            sturn.SPEED_M_S, sturn.ALTITUDE_M, sturn.GAMMA_DEG,
            sturn.PEAK_TURN_RATE_DEG_S):
        yield (f"corner V={speed:g} h={alt:g} gamma={gamma:g} W={rate:g}",
               {"speed": speed, "altitude": alt,
                "gamma": math.radians(gamma),
                "turn_rate": math.radians(rate), "sign": 1.0})


def main(argv) -> int:
    first = int(argv[0]) if argv else 0
    count = int(argv[1]) if len(argv) > 1 else 20
    work = run.WORK / "check-seeds"
    work.mkdir(parents=True, exist_ok=True)
    path, out = work / "maneuver.dat", work / "out"
    failed = 0
    for label, params in cases(first, count):
        sturn.write(params, path)
        op = run.check_op("sturn-roundtrip",
                          run.run_op(run.workload_argv("sturn-roundtrip",
                                                       path), out), out)
        alpha = math.nan
        if (out / "history.csv").is_file():
            alpha = float(np.abs(np.loadtxt(out / "history.csv",
                                            delimiter=",", skiprows=1,
                                            usecols=6)).max())
        failed += not op["ok"]
        print(f"{label:44s} {'ok  ' if op['ok'] else 'FAIL'} "
              f"max|alpha_actual| = {alpha:6.2f} deg  "
              f"track_dev = {op['track_dev_m']:.4f} m  "
              f"{op['problem'] or ''}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
