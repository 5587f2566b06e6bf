"""Command-line front end.

Subcommands:
    inverse     solve a maneuver for the control time histories
    forward     re-fly a solved history through the direct simulator
    roundtrip   inverse followed by forward, with a deviation report
    trim        steady level flight numbers for a given altitude/speed
    converge    solve at several step sizes and compare

Outputs are deterministic: fixed column order, fixed 9-significant-digit
formatting (15 for the history's t), so identical runs produce
byte-identical files. The angle unit flag affects formatting only
(angular rates p, q, r are always rad/s).

Exit codes: 0 success, 1 input error (a start that the set-up or the
1-g trim refuses included, in every subcommand), 2 numerical failure,
3 round-trip mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import aero, solver
from . import forward as fwd
from .atmosphere import density
from .errors import (
    AltitudeOutOfRange,
    BeyondStall,
    ConfigError,
    ConfigFileError,
    FlightMechanicsError,
    VerticalFlight,
    ZeroVelocity,
)
from .model import (
    AircraftConfig,
    FlightState,
    load_config,
    load_numeric_text,
    load_sampled_maneuver,
    mirage_iii,
    off_spacing,
    time_step,
    validate_config,  # not called here: perfbench/child.py reads it from cli
)
from .numerics import UniformGrid

__all__ = ["main", "run_inverse", "run_forward", "run_roundtrip", "run_trim",
           "run_converge"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_MISMATCH = 3

# the history file's columns: (header name, SolutionHistory field, is an
# angle, which the angle-unit preference converts; rates stay rad/s)
HISTORY_COLUMNS = (
    ("t", "t", False), ("x_g", "xg", False), ("y_g", "yg", False),
    ("z_g", "zg", False), ("V", "v", False), ("alpha_proc", "alpha", True),
    ("alpha_actual", "alpha_actual", True), ("beta", "beta", True),
    ("p", "p", False), ("q", "q", False), ("r", "r", False),
    ("phi", "phi", True), ("theta", "theta", True), ("psi", "psi", True),
    ("theta_w", "theta_w", True), ("psi_w", "psi_w", True),
    ("delta_l", "delta_l", True), ("delta_m", "delta_m", True),
    ("delta_n", "delta_n", True), ("T", "thrust", False),
    ("flags", "flags", False),
)
HISTORY_HEADER = ",".join(name for name, _, _ in HISTORY_COLUMNS)

FLAG_STALL = 1
FLAG_REVERSE_THRUST = 2


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize negative zero
    return "%.9g" % x


def _key_values(items) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items)


def _write_report(path, items):
    """Write ``key = value`` lines, one per item."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_key_values(items))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_spec(args, dt):
    """The trajectory of ``--maneuver`` (at ``dt``, default 1e-4 s) or of
    ``--maneuver-file`` (at its own spacing, which ``dt`` must match)."""
    if (args.maneuver is None) == (args.maneuver_file is None):
        raise ConfigError([("bad_maneuver",
                            "give exactly one of --maneuver/--maneuver-file")])
    if args.maneuver is not None:
        return solver.maneuver_spec(args.maneuver, 1e-4 if dt is None else dt)
    spec = load_sampled_maneuver(args.maneuver_file)
    if dt is not None and off_spacing(dt, spec.dt):
        raise ConfigError([("dt_conflict",
                            f"--dt {dt} conflicts with the sample "
                            f"spacing {spec.dt}")])
    return spec


def _angle_scale(unit: str) -> float:
    return 180.0 / math.pi if unit == "deg" else 1.0


def _history_columns(hist: solver.SolutionHistory, unit: str, rows):
    """The history file's columns by field name, for the stations ``rows``."""
    s = _angle_scale(unit)
    cols = {
        # ``hist.alpha_actual`` of these rows, without a full-length copy
        "alpha_actual": (hist.alpha[rows] + hist.reference.alpha_shift) * s,
        "flags": (FLAG_STALL * hist.stall[rows]
                  + FLAG_REVERSE_THRUST * hist.reverse_thrust[rows]),
    }
    for _, field, angle in HISTORY_COLUMNS:
        if field not in cols:
            col = getattr(hist, field)[rows]
            cols[field] = col * s if angle else col
    return cols


# one history row: t to 15 significant digits, so a grid time t0 + i*dt
# prints as its decimal however far from 0 it lies (any 15-digit decimal
# survives a double); the other values as ``_fmt`` writes them, then flags
_HISTORY_ROW = "%.15g" + ",%.9g" * (len(HISTORY_COLUMNS) - 2) + ",%d\n"


def _write_rows(fh, hist, unit: str):
    """Write the history rows of ``hist``, a run's part or all of it, to
    the history file ``fh``."""
    # the writer's memory is one (block, 21) float64 array of stations,
    # formatted and written 16 rows a ``%`` (flags print through ``%d``)
    block = solver.STATION_BLOCK
    buf = np.empty((0, len(HISTORY_COLUMNS)))
    for start in range(0, len(hist.t), block):
        cols = _history_columns(hist, unit, slice(start, start + block))
        k = len(cols["t"])
        if k > len(buf):
            buf = np.empty((k, len(HISTORY_COLUMNS)))
        rows = np.stack([cols[f] for _, f, _ in HISTORY_COLUMNS],
                        axis=1, out=buf[:k])
        del cols  # the next block's columns are built without these
        rows += 0.0  # turns -0.0 into 0.0, as ``_fmt`` does
        for lo in range(0, k, 16):
            group = rows[lo:lo + 16]
            fh.write(_HISTORY_ROW * len(group)
                     % tuple(group.ravel().tolist()))


def write_history(parts, path, unit: str):
    """Write the history file of one run from ``parts``, its
    ``SolutionHistory`` parts in station order (a whole history is one
    part), each read once, in turn."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HISTORY_HEADER + "\n")
        for hist in parts:
            _write_rows(fh, hist, unit)
            del hist  # the next part is marched without this one


def _max_abs(a):
    return np.abs(a).max()


# the summary's extremes and counts, in file order: key -> (SolutionHistory
# field, is an angle, reduction over a part, fold across parts). Each
# gives the same bits over any partition of the stations
_SUMMARY_FOLDS = {
    "thrust_min_n": ("thrust", False, np.min, np.minimum),
    "thrust_max_n": ("thrust", False, np.max, np.maximum),
    "delta_l_max_abs": ("delta_l", True, _max_abs, np.maximum),
    "delta_m_max_abs": ("delta_m", True, _max_abs, np.maximum),
    "delta_n_max_abs": ("delta_n", True, _max_abs, np.maximum),
    "alpha_actual_min": ("alpha_actual", True, np.min, np.minimum),
    "alpha_actual_max": ("alpha_actual", True, np.max, np.maximum),
    "beta_min": ("beta", True, np.min, np.minimum),
    "beta_max": ("beta", True, np.max, np.maximum),
    "theta_w_max_abs": ("theta_w", True, _max_abs, np.maximum),
    "psi_w_max_abs": ("psi_w", True, _max_abs, np.maximum),
    "stall_stations": ("stall", False, np.sum, np.add),
    "reverse_thrust_stations": ("reverse_thrust", False, np.sum, np.add),
}


class RunSummary:
    """What the summary file and the closing lines of an inverse run
    report, folded from the run's parts as they pass."""

    def __init__(self):
        self.values = {}
        self.head = self.rate_gap = None

    def fold(self, parts):
        """Pass ``parts`` on, each folded in before it is passed."""
        for part in parts:
            if self.head is None:
                self.head = (part.maneuver, part.grid, part.reference,
                             part.thrust[0])
            alpha_actual = part.alpha_actual  # one part-long temporary
            for key, (field, _, reduce, fold) in _SUMMARY_FOLDS.items():
                x = reduce(alpha_actual if field == "alpha_actual"
                           else getattr(part, field))
                self.values[key] = (fold(self.values[key], x)
                                    if key in self.values else x)
            self.rate_gap = part.rate_gap
            yield part

    def text(self, key, unit: str) -> str:
        """A folded value as the summary prints it."""
        x = self.values[key]
        if isinstance(x, np.integer):
            return str(int(x))
        angle = _SUMMARY_FOLDS[key][1]
        return _fmt(float(x) * _angle_scale(unit) if angle else float(x))


def write_summary(summary: RunSummary, path, unit: str):
    maneuver, grid, ref, thrust0 = summary.head
    _write_report(path, [
        ("maneuver", maneuver),
        ("dt_s", _fmt(grid.dt)),
        ("stations", str(grid.count)),
        ("angle_unit", unit),
        ("c_lift0_equib", _fmt(ref.c_lift0_equib)),
        ("alpha_equib_deg", _fmt(math.degrees(ref.alpha_equib))),
        ("alpha_shift_deg", _fmt(math.degrees(ref.alpha_shift))),
        ("thrust_initial_n", _fmt(thrust0)),
        *((key, summary.text(key, unit)) for key in _SUMMARY_FOLDS),
    ])


def read_history(path, unit: str):
    """The grid of a history file, and an iterator over its data rows in
    ``(k, 21)`` float64 blocks of at most ``STATION_BLOCK`` rows, angles
    in radians, each read when reached. Line 1 must be ``HISTORY_HEADER``.
    The time column, 8 B a station, is read now for the grid, so a short
    or non-uniform file fails before any flight. Every entry is checked;
    a bad one is an error naming its line."""
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\r\n") != HISTORY_HEADER:
            raise ConfigFileError(f"{path}: line 1: not the history header")
        firsts = (line.partition(",")[0] for line in fh)  # the t field
        t = load_numeric_text(path, firsts, len(HISTORY_COLUMNS), ",", skip=1,
                              usecols=(0,))[:, 0]
    if not len(t):
        raise ConfigFileError(f"{path}: no data rows after the header")
    scale = [_angle_scale(unit) if angle else 1.0
             for _, _, angle in HISTORY_COLUMNS]

    def blocks():
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            for line in fh:  # a block's first line, then the rest of it
                block = load_numeric_text(
                    path, chain((line,), islice(fh, solver.STATION_BLOCK - 1)),
                    len(HISTORY_COLUMNS), ",", skip=1)
                if len(block):
                    block /= scale  # in place; x / 1.0 is x
                    yield block

    return UniformGrid(float(t[0]), time_step(path, t, 1), len(t)), blocks()


# the columns that a replay flies, and those of the track it is judged by
_CONTROLS = ("delta_l", "delta_m", "delta_n", "thrust")
_TRACK = ("xg", "yg", "zg", "phi")


def _refly(initial, parts, coeffs, cfg, args, path) -> int:
    """Fly ``parts``, the run's parts in station order as pairs of a
    ``ControlHistory`` and the track's columns by field name, from
    ``initial`` with ``coeffs``; write the track's deviation to ``path``.
    A failed flight mismatches."""
    tracks = []  # the parts read and not yet judged
    dev, path_length = [0.0] * len(_TRACK), 0.0  # a sum of part sums

    def controls():
        for flown, track in parts:
            tracks.append(track)
            yield flown

    def judge(flown):
        """Fold the flown parts into the largest deviations (exact under any
        partition) and the path length. Returns the last part: its grid."""
        nonlocal path_length
        before = [np.empty(0)] * 3  # x, y, z of the last station
        for run in flown:
            cols = tracks.pop(0)
            for j, k in enumerate(_TRACK):
                dev[j] = max(dev[j], float(
                    np.abs(getattr(run, k) - cols[k]).max()))
            dx, dy, dz = (np.diff(cols[k], prepend=b)
                          for k, b in zip(_TRACK, before))
            path_length += float(np.sum(np.hypot(np.hypot(dx, dy), dz)))
            before = [cols[k][-1] for k in _TRACK[:3]]
            del cols, dx, dy, dz  # frees the block before the next is read
        return run

    try:
        last = fwd.simulate(initial, controls(), cfg, coeffs, judge)
    except FlightMechanicsError as err:
        if (isinstance(err, ConfigFileError)
                or getattr(err, "phase", None) == "marching loop"):
            raise  # a bad row or a failed march, met as the flight read on
        # read on to the end first: a replay checks every row, and a
        # round trip marches and writes the rest of its history
        for _ in parts:
            pass
        # the controls drove the simulation out of its validity range
        _write_report(path, [("verdict", "mismatch"),
                             ("forward_failure", err)])
        print(f"forward run failed: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    pos_tol = args.pos_tol_frac * max(path_length, 1.0)
    mismatch = (max(dev[:3]) > pos_tol
                or dev[3] > math.radians(args.phi_tol_deg))
    _write_report(path, [
        ("path_length_m", _fmt(path_length)),
        *((f"max_dev_{axis}_m", _fmt(d)) for axis, d in zip("xyz", dev)),
        ("max_dev_phi_deg", _fmt(math.degrees(dev[3]))),
        ("phi_end_deg", _fmt(math.degrees(float(last.phi[-1])))),
        ("pos_tol_m", _fmt(pos_tol)),
        ("phi_tol_deg", _fmt(args.phi_tol_deg)),
        ("verdict", "mismatch" if mismatch else "match"),
    ])
    print(f"wrote {path}")
    return EXIT_MISMATCH if mismatch else EXIT_OK


# flights refused before any integration starts (by ``solver.setup`` or
# the 1-g trim at the start): input errors. Errors met later reach
# ``main`` wrapped in ``SolverAbort``, or as a replay's mismatch
_REFUSALS = {AltitudeOutOfRange: "altitude_out_of_range",
             ZeroVelocity: "zero_velocity",
             VerticalFlight: "vertical_flight",
             BeyondStall: "beyond_stall"}


def run_inverse(args, cfg: AircraftConfig) -> int:
    """Write the history a part at a time as the march yields it, and the
    summary from the extremes folded on the way; a march that fails
    leaves no history file."""
    parts = solver.march(_resolve_spec(args, args.dt), cfg)
    out = _out_dir(args)
    summary = RunSummary()
    try:
        write_history(summary.fold(parts), out / "history.csv", args.angles)
    except BaseException:
        (out / "history.csv").unlink(missing_ok=True)
        raise
    write_summary(summary, out / "summary.txt", args.angles)
    print(f"wrote {out / 'history.csv'} and {out / 'summary.txt'}")
    print(f"max |delta_n| = {summary.text('delta_n_max_abs', args.angles)} "
          f"{args.angles}")
    print(f"angular-acceleration average/direct gap = "
          f"{_fmt(summary.rate_gap)} rad/s^2")
    return EXIT_OK


def run_forward(args, cfg: AircraftConfig) -> int:
    """Re-fly a history file: the start, grid and controls from its
    columns by field name, the lift curve from the 1-g trim at station 0.
    The flight reads the file a block at a time."""
    grid, blocks = read_history(args.history, args.angles)
    names = [field for _, field, _ in HISTORY_COLUMNS]
    block = next(blocks)
    row = dict(zip(names, block[0].tolist()))
    initial = FlightState(**{f.name: row[f.name] for f in fields(FlightState)})

    def parts(block):  # each block freed once its part is flown
        while block is not None:
            yield dict(zip(names, block.T))
            block = next(blocks, None)

    # the inverse run's trim-shifted lift curve, from its first station
    try:
        ref = aero.equilibrium_reference(cfg, density(initial.zg), initial.v)
    except tuple(_REFUSALS) as err:
        raise type(err)(f"{err} at station 0") from None
    flights = ((fwd.ControlHistory(grid, *(cols[k] for k in _CONTROLS)),
                cols) for cols in parts(block))
    del block  # the flight holds one block and the next
    return _refly(initial, flights, ref.coeffs, cfg, args,
                  _out_dir(args) / "forward.txt")


def run_roundtrip(args, cfg: AircraftConfig) -> int:
    """Solve, write and re-fly in one pass. Each part of the march is
    written to the history file and handed to the flight, which flies and
    judges it once it has read the next, so at most two parts and one
    stage block are alive. The flight starts from the first part's
    station 0, with its lift curve, on its grid. A march that fails
    leaves no history file and no report; after a failed flight the
    march runs on, so the history is whole."""
    parts = solver.march(_resolve_spec(args, args.dt), cfg)
    out = _out_dir(args)

    def flights(fh, part):
        while part is not None:
            _write_rows(fh, part, args.angles)
            yield part.controls(), {k: getattr(part, k) for k in _TRACK}
            part = next(parts, None)

    try:
        with open(out / "history.csv", "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(HISTORY_HEADER + "\n")
            first = next(parts)
            initial, coeffs = first.state_at(0), first.reference.coeffs
            pairs = flights(fh, first)
            del first  # the flight holds one part and the next
            return _refly(initial, pairs, coeffs, cfg, args,
                          out / "roundtrip.txt")
    except BaseException:
        (out / "history.csv").unlink(missing_ok=True)
        raise


def run_trim(args, cfg: AircraftConfig) -> int:
    if args.speed <= 0:
        raise ConfigError([("non_positive_speed",
                            f"speed {args.speed} must be > 0")])
    rho = density(-args.altitude)
    ref = aero.equilibrium_reference(cfg, rho, args.speed)
    # level flight: thrust balances the drag of the trim lift
    c_drag = aero.drag_coefficient(ref.c_lift0_equib, ref.coeffs)
    print(_key_values([
        ("altitude_m", _fmt(args.altitude)),
        ("speed_m_s", _fmt(args.speed)),
        ("rho_kg_m3", _fmt(rho)),
        ("qbar_pa", _fmt(ref.qbar)),
        ("c_lift", _fmt(ref.c_lift0_equib)),
        ("c_drag", _fmt(c_drag)),
        ("alpha_equib_deg", _fmt(math.degrees(ref.alpha_equib))),
        ("thrust_n", _fmt(ref.qbar * cfg.wing_area * c_drag)),
    ]), end="")
    return EXIT_OK


def run_converge(args, cfg: AircraftConfig) -> int:
    pairs = solver.convergence_study(_resolve_spec(args, None), cfg, args.dt)
    lines = ["dt_coarse,dt_fine,delta_l,delta_m,delta_n,thrust,diverged"]
    for pair in pairs:
        m = pair.metrics
        lines.append(",".join([
            _fmt(pair.dt_coarse), _fmt(pair.dt_fine),
            _fmt(m["delta_l"]), _fmt(m["delta_m"]),
            _fmt(m["delta_n"]), _fmt(m["thrust"]),
            "yes" if pair.diverged else "no"]))
    insensitive = all(p.worst < args.threshold for p in pairs)
    verdict = "insensitive" if insensitive else "sensitive"
    lines.append(f"verdict,{verdict},threshold,{_fmt(args.threshold)}")
    text = "\n".join(lines) + "\n"
    with open(_out_dir(args) / "convergence.txt", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invflight",
        description="Inverse flight-mechanics solver: control histories "
                    "for a prescribed trajectory, plus a forward 6-DOF "
                    "verification simulator.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, maneuver=True, angles=True):
        p.add_argument("--config", default=None,
                       help="aircraft data file (default: built-in "
                            "Mirage-III data set)")
        p.add_argument("--out", default=".", help="output directory")
        if angles:
            p.add_argument("--angles", choices=("deg", "rad"), default="deg",
                           help="unit for angle columns in output files")
        if maneuver:
            p.add_argument("--maneuver", default=None,
                           help="built-in maneuver name: "
                                + ", ".join(sorted(solver.MANEUVERS)))
            p.add_argument("--maneuver-file", default=None,
                           help="sampled maneuver file "
                                "(rows: t x_g y_g z_g phi)")

    def add_tolerances(p):
        p.add_argument("--pos-tol-frac", type=float, default=0.005,
                       help="x/y/z deviation bound as a fraction of the "
                            "path length")
        p.add_argument("--phi-tol-deg", type=float, default=2.0,
                       help="bank deviation bound, deg")

    p = sub.add_parser("inverse", help="solve for the control histories")
    add_common(p)
    p.add_argument("--dt", type=float, default=None,
                   help="time step, s (default 1e-4; sampled maneuver "
                        "files use their own spacing)")

    p = sub.add_parser("forward", help="re-fly a solved history")
    add_common(p, maneuver=False)
    p.add_argument("--history", required=True,
                   help="history.csv produced by the inverse subcommand")
    add_tolerances(p)

    p = sub.add_parser("roundtrip",
                       help="inverse then forward, with deviation report")
    add_common(p)
    p.add_argument("--dt", type=float, default=None)
    add_tolerances(p)

    p = sub.add_parser("trim", help="steady level flight report")
    p.add_argument("--config", default=None)
    p.add_argument("--altitude", type=float, default=10000.0,
                   help="altitude above sea level, m")
    p.add_argument("--speed", type=float, default=200.0, help="m/s")

    p = sub.add_parser("converge", help="step-size sensitivity study")
    add_common(p, angles=False)
    p.add_argument("--dt", type=float, action="append", required=True,
                   help="time step, s (give at least twice)")
    p.add_argument("--threshold", type=float, default=0.01,
                   help="relative deviation verdict threshold")

    return parser


_RUNNERS = {
    "inverse": run_inverse,
    "forward": run_forward,
    "roundtrip": run_roundtrip,
    "trim": run_trim,
    "converge": run_converge,
}


def _check_options(args):
    """Reject a NaN or infinite value of any float option (``converge``
    collects its repeated ``--dt`` in a list), a threshold that is not
    positive and a negative tolerance: either makes all verdicts alike."""
    bad = []
    for dest, value in vars(args).items():
        option = "--" + dest.replace("_", "-")
        for x in value if isinstance(value, list) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                bad.append(("non_finite", f"{option} {x} is not finite"))
            elif dest == "threshold" and x <= 0.0:
                bad.append(("non_positive", f"{option} {x} must be > 0"))
            elif dest in ("pos_tol_frac", "phi_tol_deg") and x < 0.0:
                bad.append(("negative", f"{option} {x} must be >= 0"))
    if bad:
        raise ConfigError(bad)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        cfg = mirage_iii() if args.config is None else load_config(args.config)
        return _RUNNERS[args.subcommand](args, cfg)
    except (ConfigError, ConfigFileError, OSError, *_REFUSALS) as err:
        if type(err) in _REFUSALS:
            err = ConfigError([(_REFUSALS[type(err)], str(err))])
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except FlightMechanicsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
