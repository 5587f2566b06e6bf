"""Regenerate micro_state.json: the arguments of one cascade sweep at the
mid-roll station t = 3 s of the production roll (dt = 1e-4).

The solve is run with capturing wrappers on the four cascade functions;
the first call of each after the RK4 step that starts at t = 3 s (its
first stage, first sweep) is recorded, and the solve is then abandoned.

    PYTHONPATH=src python3 perfbench/make_micro_state.py perfbench/micro_state.json
"""

import json
import sys

from invflight import dynamics, kinematics, solver
from invflight.model import mirage_iii

T_CAPTURE = 3.0
DT = 1e-4


class Captured(Exception):
    pass


def main(out_path: str) -> None:
    state = {}
    armed = [False]

    def capture(name, fn):
        def wrapper(*args, **kwargs):
            if armed[0] and name not in state:
                state[name] = list(args) if args else kwargs
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in ((dynamics, "sideslip_accel"),
                         (dynamics, "aoa_accel"),
                         (kinematics, "attitude_accels"),
                         (kinematics, "body_rate_derivatives")):
        setattr(module, attr, capture(f"{module.__name__.split('.')[-1]}."
                                      f"{attr}", getattr(module, attr)))
    rk4_step = solver.rk4_step

    def step(f, t, y, dt):
        if abs(t - T_CAPTURE) < 0.5 * DT:
            armed[0] = True
        result = rk4_step(f, t, y, dt)
        if armed[0]:
            raise Captured
        return result

    solver.rk4_step = step
    try:
        solver.solve(solver.maneuver_spec("mirage-roll", DT), mirage_iii())
    except Captured:
        pass
    if len(state) != 4:
        sys.exit(f"captured only {sorted(state)}")
    state["atmosphere.density"] = {"z_g": -10000.0}
    state["t_s"] = T_CAPTURE
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
