"""In-memory span tracer that wraps invflight's public functions.

Nothing inside ``src/`` changes: each wrapper is installed on the module
(or class) attribute that the caller looks up at call time. A span is
(name, start, end, parent span); all spans of one traced process belong
to one operation, whose id is stored with them when they are saved.
Spans live in flat typed arrays so the few million cascade calls of a
production solve stay affordable, and are written out once, when the
operation has ended.

Self time of a span is its duration minus the durations of its direct
wrapped children; calls run on one thread, so children nest strictly.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

# (module attribute path, span name). Order matters only for readability.
# solver binds the dynamics/kinematics/aero functions into locals when
# it builds its stage rate function inside solve(), so every wrapper must
# be installed before the operation starts.
WRAPPED = (
    ("solver.maneuver_spec", "solver.maneuver_spec"),
    ("solver.setup", "solver.setup"),
    ("solver.initialize", "solver.initialize"),
    ("solver.KinematicProfiles.stage_rows", "solver.stage_rows"),
    ("solver.solve", "solver.solve"),
    ("solver.rk4_step", "solver.rk4_step"),
    ("solver.fd_first_derivative", "numerics.fd"),
    ("solver.fd_second_derivative", "numerics.fd"),
    ("solver.fd_third_derivative", "numerics.fd"),
    ("dynamics.thrust_rate", "dynamics.thrust_rate"),
    ("dynamics.sideslip_accel", "dynamics.sideslip_accel"),
    ("dynamics.aoa_accel", "dynamics.aoa_accel"),
    ("dynamics.controls_from_angular_accels",
     "dynamics.controls_from_angular_accels"),
    ("dynamics.angular_accels_forward", "dynamics.angular_accels_forward"),
    ("kinematics.attitude_accels", "kinematics.attitude_accels"),
    ("kinematics.body_rate_derivatives", "kinematics.body_rate_derivatives"),
    ("kinematics.euler_rates_from_body", "kinematics.euler_rates_from_body"),
    ("kinematics.path_angles_from_attitude",
     "kinematics.path_angles_from_attitude"),
    ("kinematics.ground_velocity_from_path",
     "kinematics.ground_velocity_from_path"),
    ("kinematics.airflow_from_body", "kinematics.airflow_from_body"),
    ("aero.body_force_coefficients", "aero.body_force_coefficients"),
    ("aero.body_force_coefficient_rates", "aero.body_force_coefficient_rates"),
    ("aero.moment_coefficients", "aero.moment_coefficients"),
    ("aero.dimensionalize", "aero.dimensionalize"),
    ("forward.density", "atmosphere.density"),
    ("forward.rk4_step", "numerics.rk4_step"),
    ("cli.fwd.simulate", "forward.simulate"),
    ("cli.load_sampled_maneuver", "model.load_sampled_maneuver"),
    ("cli.read_history", "cli.read_history"),
    ("cli.write_history", "cli.write_history"),
    ("cli.write_summary", "cli.write_summary"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# counters recorded at the same boundaries as the spans:
# span name -> (counter name, f(args, kwargs, result) -> amount)
COUNTERS = {
    "cli.write_history": ("cli.write_history.bytes",
                          lambda a, k, r: os.path.getsize(_arg(a, k, 1,
                                                               "path"))),
    "cli.read_history": ("cli.read_history.bytes",
                         lambda a, k, r: os.path.getsize(_arg(a, k, 0,
                                                              "path"))),
    "model.load_sampled_maneuver": ("model.load_sampled_maneuver.rows",
                                    lambda a, k, r: len(r.samples.t)),
    "forward.simulate": ("forward.stations",
                         lambda a, k, r: r.grid.count),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter
        name_ap, parent_ap = self.name_id.append, self.parent.append
        start_ap, end_ap = self.start.append, self.end.append
        end, stack = self.end, self.stack
        counter = COUNTERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(end)
            name_ap(nid)
            parent_ap(stack[-1])
            end_ap(0.0)
            stack.append(idx)
            start_ap(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                key, amount = counter
                counts[key] = counts.get(key, 0) + amount(args, kwargs,
                                                          result)
            return result

        return traced

    def install(self, root_modules: dict):
        """Replace each attribute in ``WRAPPED`` by its traced version.

        ``root_modules`` maps the first path component to its module.
        """
        for path, name in WRAPPED:
            head, *middle, attr = path.split(".")
            owner = root_modules[head]
            for part in middle:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    # ------------------------------------------------------------------
    # after the operation has ended

    def finish(self, path, op_id: int) -> dict:
        """Write the spans, with their self times, to ``path`` (.npz) and
        return per span name the calls, busy seconds and self seconds,
        plus the summed duration of the top-level spans."""
        nid = np.frombuffer(self.name_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested],
                                      minlength=len(dur))
        np.savez(path, names=np.array(self.names), name=nid, parent=parent,
                 start=start, end=end, self_time=self_time,
                 op=np.full(len(nid), op_id, dtype=np.uint32))
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_time, minlength=k)
        layers = {name: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                         "self_s": float(own[i])}
                  for i, name in enumerate(self.names)}
        return {"layers": layers, "counts": dict(self.counts),
                "spans": int(len(dur)),
                "top_level_s": float(dur[~nested].sum())}
