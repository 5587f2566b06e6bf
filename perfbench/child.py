"""Child-process entry points of the benchmark, one fresh interpreter each.

    child.py setup <workload> <input>    pre-march calls, then print the clock
    child.py trace <out_prefix> <cli args...>
                                         one traced CLI operation
    child.py micro <state.json> <seconds>
                                         per-call costs at a fixed state

Only the standard library is imported before ``invflight.cli``, so the
clock readings printed here bracket the package import as a user pays it.
``time.perf_counter`` is CLOCK_MONOTONIC on Linux, shared with the parent.
"""

import json
import os
import sys
import time


def setup(workload: str, path: str) -> None:
    import invflight.cli as cli
    from invflight import solver

    if workload == "roll-replay":
        cli.read_history(path, "deg")
    else:
        if workload == "roll-inverse":
            spec = solver.maneuver_spec("mirage-roll", 1e-4)
        else:
            spec = cli.load_sampled_maneuver(path)
        profiles = solver.setup(spec)
        solver.initialize(profiles, cli.validate_config(cli.mirage_iii()))
        profiles.stage_rows()
    print(repr(time.perf_counter()))


def trace(prefix: str, argv: list) -> int:
    t0 = time.perf_counter()
    import invflight.cli as cli
    t1 = time.perf_counter()
    from invflight import aero, dynamics, forward, kinematics, solver
    from tracer import Tracer  # beside this file

    tracer = Tracer()
    tracer.install({"solver": solver, "dynamics": dynamics,
                    "kinematics": kinematics, "aero": aero,
                    "forward": forward, "cli": cli})
    status = cli.main(argv)
    t_end = time.perf_counter()
    summary = tracer.finish(prefix + ".npz", op_id=os.getpid())
    summary.update(status=status, import_s=t1 - t0, main_end=t_end)
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return status


def _per_call_ns(call, seconds: float, repeats: int = 5) -> float:
    """Per-call cost of the fastest of ``repeats`` timed loops (the least
    disturbed by other work on the host, as timeit advises)."""
    clock = time.perf_counter
    n = 1
    while True:  # size one loop to about seconds / repeats
        t = clock()
        for _ in range(n):
            call()
        if clock() - t > 0.02:
            break
        n *= 4
    n = max(1, int(n * (seconds / repeats) / max(clock() - t, 1e-9)))
    samples = []
    for _ in range(repeats):
        t = clock()
        for _ in range(n):
            call()
        samples.append((clock() - t) / n * 1e9)
    return min(samples)


def _call_site(fn, args):
    """A zero-argument function calling ``fn`` at fixed arguments, spelled
    as explicit keywords the way the solver's call sites pass them."""
    if isinstance(args, dict):
        spelled = ", ".join(f"{k}={v!r}" for k, v in args.items())
    else:
        spelled = ", ".join(repr(v) for v in args)
    scope = {"fn": fn}
    exec(f"def call():\n    return fn({spelled})\n", scope)
    return scope["call"]


def micro(state_path: str, seconds: float) -> None:
    from invflight import atmosphere, dynamics, kinematics

    with open(state_path, encoding="utf-8") as fh:
        state = json.load(fh)
    calls = {
        "micro.dynamics.sideslip_accel_ns": _call_site(
            dynamics.sideslip_accel, state["dynamics.sideslip_accel"]),
        "micro.dynamics.aoa_accel_ns": _call_site(
            dynamics.aoa_accel, state["dynamics.aoa_accel"]),
        "micro.kinematics.attitude_accels_ns": _call_site(
            kinematics.attitude_accels, state["kinematics.attitude_accels"]),
        "micro.kinematics.body_rate_derivatives_ns": _call_site(
            kinematics.body_rate_derivatives,
            state["kinematics.body_rate_derivatives"]),
        "micro.atmosphere.density_ns": _call_site(
            atmosphere.density, state["atmosphere.density"]),
    }
    sweep_parts = list(calls.values())[:4]

    def sweep():
        for call in sweep_parts:
            call()

    calls["micro.cascade_sweep_ns"] = sweep
    share = seconds / len(calls)
    print(json.dumps({name: _per_call_ns(call, share)
                      for name, call in calls.items()}))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif mode == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    elif mode == "micro":
        micro(sys.argv[2], float(sys.argv[3]))
    else:
        sys.exit(f"unknown mode {mode!r}")
