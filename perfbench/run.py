"""invflight benchmark: one user running the CLI, one operation at a time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the directory holding ``src/``).
Every operation is a fresh interpreter running ``invflight.cli.main``,
as a user runs it, so import cost and peak memory count for each one.
Traffic is a closed loop with a single client.

Workloads:
    roll-inverse     inverse --maneuver mirage-roll --dt 1e-4 (60,001
                     stations): the paper's production solve.
    roll-replay      forward --history H, where H is the 60,001-row history
                     one untimed roll-inverse run writes (kept per source
                     hash under .perfbench/cache): the solver does no work.
    sturn-roundtrip  roundtrip --maneuver-file F, F a seeded coordinated
                     S-turn of 12 s at dt = 1e-3 (see sturn.py): the
                     sampled set-up path, then solver and forward oracle.

The roll maneuver is the paper's fixed case, so ``--seed`` only changes
the S-turn. With ``--trace 0`` the operations run untraced for
``--seconds`` and the end-to-end metrics are printed; with ``--trace 1``
one untraced and one traced operation run, and the per-layer metrics
(including the micro-benchmarks at the mid-roll state) are printed. The
last stdout line is the result object; the line before it holds the run
metadata and per-operation samples.

The end-to-end times are host-normalised (see ``run_op``), because a
shared host can change speed by up to half within minutes. Every process
of a run is pinned to one CPU, so the reference slices timed between an
operation's own slices see the same CPU it does.

Every operation's output is checked; a failed check counts the operation
as failed. Exit status is 2 when the checkout has no ``src/invflight``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import math
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import sturn

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("roll-inverse", "roll-replay", "sturn-roundtrip")
ROLL_STATIONS = 60001
STURN_STATIONS = int(round(sturn.DURATION_S / sturn.DT_S)) + 1
HISTORY_COLUMNS = 21

# summary.txt extremes of the roll solve at dt = 1e-4 (N and deg), as the
# seed code produces them; max|delta_n| is the observed 45.7987 deg (the
# known red of acceptance criterion 3), not the paper's 49.9 deg.
ROLL_REFERENCE = {
    "thrust_min_n": 4857.0142,
    "thrust_max_n": 11554.7524,
    "delta_l_max_abs": 23.2911128,
    "delta_m_max_abs": 31.1059629,
    "delta_n_max_abs": 45.7986952,
}
ROLL_REL_TOL = 1e-6  # the summary prints 9 significant digits

SETUP_REPEATS = 7
OP_TIMEOUT_S = 150.0
# host-speed reference: an operation runs in slices of SLICE_PERIOD_S
# wall seconds; between two slices it is stopped and one reference slice
# (REF_EVALS pure-Python evaluations, the kind of work the solver does)
# is timed on the same CPU. REF_NOMINAL_S is that slice's time on a quiet
# 2-vCPU Xeon host; it only sets the scale of the normalised seconds.
SLICE_PERIOD_S = 0.1
REF_EVALS = 4000
REF_NOMINAL_S = 1.8e-3
# share of the traced wall time that the top-level spans plus the import
# may leave unaccounted (interpreter start, argument parsing, exit)
TRACE_SLACK = 0.05
MICRO_SECONDS = 3.0
CORRUPT_RUDDER_SCALE = 0.5

OP_CODE = ("import sys\nfrom invflight.cli import main\n"
           "sys.exit(main(sys.argv[1:]))")


# ----------------------------------------------------------------------
# processes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Run in each child before exec: the child gets SIGKILL if the
    benchmark dies first, so one left stopped between two slices never
    outlives it."""
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def _reference_term(*, a, b, c, d, e):
    sa, ca = math.sin(a), math.cos(a)
    sb, cb = math.sin(b), math.cos(b)
    return (c * sa * cb - d * ca * sb + e * sa * sb) / (1.0 + c * c)


def reference_slice() -> float:
    """Seconds that REF_EVALS keyword-argument float evaluations take."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(REF_EVALS):
        x = i * 1e-4
        s += _reference_term(a=x, b=0.5 * x, c=1.5, d=s * 1e-9, e=2.0)
    return time.perf_counter() - t0


def _wait(proc: subprocess.Popen, timeout: float, sliced: bool) -> dict:
    """Wait for ``proc`` to exit; return its exit code, rusage, the
    intervals it was stopped and the reference slice times. Sliced, it
    runs in slices of SLICE_PERIOD_S and between two slices it is stopped
    while one reference slice is timed. The process is killed after
    ``timeout`` seconds or on any error."""
    deadline = time.perf_counter() + timeout
    pauses, refs = [], []
    pidfd = os.pidfd_open(proc.pid)  # readable once the process has exited
    poller = select.poll()
    poller.register(pidfd, select.POLLIN)
    try:
        while True:
            exited = poller.poll(SLICE_PERIOD_S * 1e3)
            if not exited:
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"operation ran past {timeout} s")
                if not sliced:
                    continue
                os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                proc.returncode = os.waitstatus_to_exitcode(status)
                return {"exit": proc.returncode, "usage": usage,
                        "pauses": pauses, "refs": refs}
            p0 = time.perf_counter()
            refs.append(reference_slice())
            os.kill(proc.pid, signal.SIGCONT)
            pauses.append((p0, time.perf_counter()))
    except BaseException:
        if proc.returncode is None:
            proc.kill()  # SIGKILL also ends a stopped process
            proc.wait()
        raise
    finally:
        os.close(pidfd)


def _normalised(seconds: float, refs: list) -> float:
    """``seconds`` at the nominal host speed: scaled by the nominal over
    the mean reference slice time measured while they elapsed."""
    return seconds * REF_NOMINAL_S / statistics.fmean(refs)


def run_op(argv: list, out_dir: Path, script=None) -> dict:
    """One CLI operation in a fresh interpreter, with its wall time from
    spawn to exit, CPU time and peak resident memory.

    An untraced operation (``script`` None) runs sliced (``_wait``):
    ``wall_s`` leaves out the stopped intervals, and ``norm_wall_s`` is
    ``wall_s`` at the nominal host speed. A slow spell of the host slows
    the reference slices as much as the operation around them, so the
    normalised time stays put where the raw one drifts. A traced
    operation is not stopped, because its spans would count the pauses.
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    cmd = ([sys.executable, str(HERE / "child.py"), *script] if script
           else [sys.executable, "-c", OP_CODE])
    with open(out_dir.parent / (out_dir.name + ".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([*cmd, *argv, "--out", str(out_dir)],
                                cwd=ROOT, env=_env(),
                                stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=_die_with_parent)
        run = _wait(proc, OP_TIMEOUT_S, sliced=not script)
        wall = time.perf_counter() - t0
    wall -= sum(p1 - p0 for p0, p1 in run["pauses"])
    usage = run["usage"]
    return {"t0": t0, "wall_s": wall, "exit": run["exit"],
            "norm_wall_s": (_normalised(wall, run["refs"]) if run["refs"]
                            else None),
            "ref_slices": len(run["refs"]),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def run_child(args: list) -> str:
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            preexec_fn=_die_with_parent)
    try:
        out, _ = proc.communicate(timeout=OP_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}")
    return out.decode()


# ----------------------------------------------------------------------
# output checks


def _read_kv(path: Path) -> dict:
    pairs = (line.split(" = ", 1) for line in
             path.read_text(encoding="utf-8").splitlines() if " = " in line)
    return {k.strip(): v.strip() for k, v in pairs}


def _check_history(path: Path, rows: int):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (rows, HISTORY_COLUMNS):
        return (f"history shape {data.shape}, expected "
                f"{(rows, HISTORY_COLUMNS)}")
    if not np.isfinite(data).all():
        return "non-finite value in history"
    if np.any(data[:, -1] != 0):
        return f"{int(np.count_nonzero(data[:, -1]))} flagged stations"
    return None


def _check_verdict(path: Path):
    """(problem or None, largest x/y/z deviation in metres, 0 if none)."""
    if not path.is_file():
        return f"{path.name} missing", 0.0
    kv = _read_kv(path)
    if kv.get("verdict") != "match":
        return f"verdict {kv.get('verdict')!r}", 0.0
    dev = max(float(kv[f"max_dev_{a}_m"]) for a in "xyz")
    return None, dev


def check_op(workload: str, op: dict, out: Path) -> dict:
    """Attach ok / problem / track_dev_m to ``op``."""
    problem, dev = None, 0.0
    if op["exit"] != 0:
        problem = f"exit code {op['exit']}"
    elif workload == "roll-inverse":
        problem = _check_history(out / "history.csv", ROLL_STATIONS)
        if problem is None:
            summary = _read_kv(out / "summary.txt")
            for key, ref in ROLL_REFERENCE.items():
                got = float(summary[key])
                if abs(got - ref) > ROLL_REL_TOL * abs(ref):
                    problem = f"{key} = {got}, expected {ref}"
                    break
    elif workload == "roll-replay":
        problem, dev = _check_verdict(out / "forward.txt")
    else:
        problem = _check_history(out / "history.csv", STURN_STATIONS)
        if problem is None:
            problem, dev = _check_verdict(out / "roundtrip.txt")
    op.update(ok=problem is None, problem=problem, track_dev_m=dev)
    return op


# ----------------------------------------------------------------------
# inputs


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "invflight").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def roll_history() -> Path:
    """The roll-inverse history of this source tree, made once (untimed)."""
    cache = WORK / "cache" / src_digest()[:16]
    path = cache / "history.csv"
    if path.is_file():
        return path
    tmp = cache / "fill"
    op = check_op("roll-inverse", run_op(workload_argv("roll-inverse"), tmp),
                  tmp)
    if not op["ok"]:
        raise RuntimeError(f"roll-inverse for the replay input failed: "
                           f"{op['problem']}")
    os.replace(tmp / "history.csv", path)
    shutil.rmtree(tmp)
    return path


def make_input(workload: str, seed: int):
    if workload == "roll-replay":
        return roll_history()
    if workload == "sturn-roundtrip":
        path = WORK / workload / f"sturn-{seed}.dat"
        path.parent.mkdir(parents=True, exist_ok=True)
        sturn.write(sturn.parameters(seed), path)
        return path
    return None


def workload_argv(workload: str, path=None) -> list:
    if workload == "roll-inverse":
        return ["inverse", "--maneuver", "mirage-roll", "--dt", "1e-4"]
    if workload == "roll-replay":
        return ["forward", "--history", str(path)]
    return ["roundtrip", "--maneuver-file", str(path)]


def stations(workload: str) -> int:
    """Stations marched or replayed by one operation."""
    if workload == "sturn-roundtrip":
        return 2 * STURN_STATIONS  # marched, then replayed
    return ROLL_STATIONS


def corrupt_rudder(src: Path, dst: Path, scale: float) -> None:
    """Copy a history file with its delta_n column scaled."""
    with open(src, encoding="utf-8") as fh:
        header = fh.readline()
        idx = header.strip().split(",").index("delta_n")
        lines = [header]
        for line in fh:
            parts = line.rstrip("\n").split(",")
            parts[idx] = "%.9g" % (float(parts[idx]) * scale)
            lines.append(",".join(parts) + "\n")
    dst.write_text("".join(lines), encoding="utf-8")


# ----------------------------------------------------------------------
# measurement


def measure_setup(workload: str, path) -> tuple:
    """Seconds from spawning a fresh interpreter to the end of the
    workload's pre-march calls, once per repeat, and the reference slices
    timed before that end. Each child runs sliced like an untraced
    operation; one set-up spans only a few slices, so the normalisation
    pools the slices of all repeats."""
    samples, refs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "setup", workload,
             str(path)], cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
            preexec_fn=_die_with_parent)
        with proc.stdout:
            run = _wait(proc, OP_TIMEOUT_S, sliced=True)
            out = proc.stdout.read().decode()
        if run["exit"] != 0:
            raise RuntimeError(f"setup child exited {run['exit']}")
        done = float(out.strip().splitlines()[-1])
        before = [(p0, p1, ref) for (p0, p1), ref
                  in zip(run["pauses"], run["refs"]) if p1 <= done]
        samples.append(done - t0 - sum(p1 - p0 for p0, p1, _ in before))
        refs.extend(ref for *_, ref in before)
    return samples, refs


def measure_ops(workload: str, argv: list, seconds: float) -> list:
    """Operations back to back within ``seconds``: another one starts only
    if it would end inside the window, judged by the last one's duration
    (the first always runs)."""
    ops = []
    out = WORK / workload / "op"
    begin = time.perf_counter()
    while True:
        op = check_op(workload, run_op(argv, out), out)
        ops.append(op)
        if time.perf_counter() - begin + op["wall_s"] > seconds:
            return ops


def end_to_end(workload: str, ops: list, setup: list, setup_refs: list
               ) -> dict:
    wall = statistics.median(op["norm_wall_s"] for op in ops)
    ok = sum(op["ok"] for op in ops)
    return {
        "norm_wall_s": (wall, "s"),
        "norm_stations_per_s": (stations(workload) / wall, "1/s"),
        "setup_s": (_normalised(statistics.median(setup), setup_refs), "s"),
        "peak_rss_mb": (statistics.median(op["rss_mb"] for op in ops), "MB"),
        "ok_frac": (ok / len(ops), "ratio"),
    }


def traced_op(workload: str, argv: list) -> tuple:
    """One operation under the tracer; returns (op, span summary)."""
    out = WORK / workload / "traced"
    prefix = str(WORK / workload / "spans")
    op = check_op(workload, run_op(argv, out, ["trace", prefix]), out)
    with open(prefix + ".json", encoding="utf-8") as fh:
        summary = json.load(fh)
    summary["wall_s"] = summary["main_end"] - op["t0"]
    return op, summary


def per_layer(workload: str, summary: dict, untraced: dict, traced: dict,
              micro: dict) -> dict:
    layers, counts = summary["layers"], summary["counts"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def busy(name):
        return layers.get(name, {}).get("busy_s", 0.0)

    def own(name):
        return layers.get(name, {}).get("self_s", 0.0)

    m = {"wall_s": (untraced["wall_s"], "s"),
         "cpu_s": (untraced["cpu_s"], "s"),
         "stations_per_s": (stations(workload) / untraced["wall_s"], "1/s")}
    for name in ("setup", "initialize", "stage_rows", "solve"):
        m[f"solver.{name}.busy_s"] = (busy(f"solver.{name}"), "s")
    m["solver.march.self_s"] = (own("solver.rk4_step"), "s")
    m["solver.rk4_step.calls"] = (calls("solver.rk4_step"), "count")
    evals = calls("dynamics.thrust_rate")
    sweeps = calls("dynamics.sideslip_accel")
    m["solver.rate_evals"] = (evals, "count")
    m["solver.cascade_sweeps"] = (sweeps, "count")
    m["solver.sweeps_per_eval"] = (sweeps / evals if evals else 0.0,
                                   "ratio")
    for name in ("dynamics.thrust_rate", "dynamics.sideslip_accel",
                 "dynamics.aoa_accel",
                 "dynamics.controls_from_angular_accels",
                 "dynamics.angular_accels_forward",
                 "kinematics.attitude_accels",
                 "kinematics.body_rate_derivatives",
                 "kinematics.euler_rates_from_body",
                 "kinematics.path_angles_from_attitude",
                 "kinematics.ground_velocity_from_path",
                 "kinematics.airflow_from_body",
                 "aero.body_force_coefficients",
                 "aero.body_force_coefficient_rates",
                 "aero.moment_coefficients", "aero.dimensionalize",
                 "atmosphere.density", "numerics.rk4_step", "numerics.fd"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
    sim = busy("forward.simulate")
    m["forward.simulate.busy_s"] = (sim, "s")
    m["forward.simulate.self_s"] = (own("forward.simulate"), "s")
    m["forward.stations_per_s"] = (
        counts.get("forward.stations", 0) / sim if sim else 0.0, "1/s")
    m["forward.track_dev_m"] = (traced["track_dev_m"], "m")
    m["cli.write_history.busy_s"] = (busy("cli.write_history"), "s")
    m["cli.write_history.bytes"] = (counts.get("cli.write_history.bytes", 0),
                                    "bytes")
    m["cli.read_history.busy_s"] = (busy("cli.read_history"), "s")
    m["cli.read_history.bytes"] = (counts.get("cli.read_history.bytes", 0),
                                   "bytes")
    m["cli.write_summary.busy_s"] = (busy("cli.write_summary"), "s")
    m["model.load_sampled_maneuver.busy_s"] = (
        busy("model.load_sampled_maneuver"), "s")
    m["model.load_sampled_maneuver.rows"] = (
        counts.get("model.load_sampled_maneuver.rows", 0), "count")
    m["import_s"] = (summary["import_s"], "s")
    m["trace.spans"] = (summary["spans"], "count")
    m["trace.coverage_frac"] = (
        (summary["import_s"] + summary["top_level_s"]) / summary["wall_s"],
        "ratio")
    m["trace_overhead_frac"] = (summary["wall_s"] / untraced["wall_s"] - 1.0,
                                "ratio")
    for name, value in micro.items():
        m[name] = (value, "ns")
    return m


def self_test(history: Path) -> dict:
    """A replay of the roll history with its rudder column scaled must be
    counted as a failed operation."""
    bad = WORK / "roll-replay" / "corrupted.csv"
    corrupt_rudder(history, bad, CORRUPT_RUDDER_SCALE)
    out = WORK / "roll-replay" / "selftest"
    op = check_op("roll-replay", run_op(workload_argv("roll-replay", bad),
                                        out), out)
    return {"corrupted_rudder_scale": CORRUPT_RUDDER_SCALE,
            "counted_failed": not op["ok"], "problem": op["problem"]}


# ----------------------------------------------------------------------
# metadata


def metadata(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():  # git would otherwise search parent dirs
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in (SRC / "invflight").rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines,
    }


def _op_record(op: dict) -> dict:
    return {k: op[k] for k in ("wall_s", "norm_wall_s", "ref_slices",
                               "cpu_s", "rss_mb", "exit", "ok", "problem",
                               "track_dev_m")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end on SIGTERM through the same clean-up as on an error: the
    # running child is killed and waited for, even when it is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "invflight" / "cli.py").is_file():
        print(f"no invflight sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2

    (WORK / args.workload).mkdir(parents=True, exist_ok=True)
    meta = metadata(args)
    meta["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["cpu"]})  # children inherit it
    # compile the package once so no sample pays for writing bytecode
    subprocess.run([sys.executable, "-c", "import invflight.cli"],
                   cwd=ROOT, env=_env(), check=True)
    path = make_input(args.workload, args.seed)
    if args.workload == "sturn-roundtrip":
        meta["sturn"] = sturn.parameters(args.seed)
    argv = workload_argv(args.workload, path)

    if args.trace == 0:
        setup, refs = measure_setup(args.workload, path)
        meta["setup"] = {"raw_s": setup, "ref_slices": len(refs)}
        ops = measure_ops(args.workload, argv, args.seconds)
        metrics = end_to_end(args.workload, ops, setup, refs)
        correct = all(op["ok"] for op in ops)
    else:
        untraced = check_op(args.workload,
                            run_op(argv, WORK / args.workload / "op"),
                            WORK / args.workload / "op")
        traced, summary = traced_op(args.workload, argv)
        micro = json.loads(run_child(["micro", str(HERE / "micro_state.json"),
                                      str(MICRO_SECONDS)]))
        metrics = per_layer(args.workload, summary, untraced, traced, micro)
        ops = [untraced, traced]
        coverage = metrics["trace.coverage_frac"][0]
        meta["tracing"] = {"status": summary["status"],
                         "coverage_ok": coverage >= 1.0 - TRACE_SLACK,
                         "slack": TRACE_SLACK,
                         "spans_file": str(WORK.relative_to(ROOT) / args.workload
                                           / "spans.npz")}
        correct = (untraced["ok"] and traced["ok"]
                   and meta["tracing"]["coverage_ok"])
        if args.workload == "roll-replay":
            meta["self_test"] = self_test(path)
            correct = correct and meta["self_test"]["counted_failed"]

    meta["ops"] = [_op_record(op) for op in ops]
    failed = sum(not op["ok"] for op in ops)
    result = {"correct": bool(correct), "attempted": len(ops),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (WORK / args.workload / "result.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
