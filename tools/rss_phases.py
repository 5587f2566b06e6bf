"""Resident memory of one CLI operation, phase by phase.

    PYTHONPATH=src python3 tools/rss_phases.py <cli args...>

for example ``... rss_phases.py inverse --maneuver mirage-roll --dt 1e-4
--out /tmp/roll``. Runs ``invflight.cli.main`` on the arguments in this
process and prints one JSON line, the last line of stdout (the CLI's
own "wrote ..." lines come before it): the exit status; in call order,
VmRSS and VmHWM (MB, from ``/proc/self/status``, Linux only) after the
package import and after each return of ``solver.setup``,
``solver.initialize``, ``solver.march``, ``solver.solve``,
``cli.write_history``, ``cli.write_summary``, ``cli.read_history`` and
``fwd.simulate``; and ``ru_maxrss_mb``, the process's own
``resource.getrusage`` peak at exit. VmHWM is the process's high-water
mark so far, so the run peaked inside the phase of the first point whose
VmHWM equals the last point's. ``march`` returns once its set-up is
done, so in an ``inverse`` run the march itself falls in the
``write_history`` phase, which reads the parts as they are marched, and
in a ``roundtrip`` the march and the write fall in the ``fwd.simulate``
phase, as the flight reads each part when it is marched and written.
Likewise ``read_history`` returns once it has checked the header and
read the time column for the grid, so in a ``forward`` run the rows are
parsed, flown and judged a block at a time in the ``fwd.simulate`` phase.

The probes themselves move the peak: reading ``/proc/self/status``
between phases changes the heap layout, and VmHWM can end about 1.7 MB
away from the unprobed run's (38.2 against 36.5 MB seen on an S-turn
``roundtrip``). The phase points say where the memory goes; a peak
claim rests on the ``ru_maxrss`` of an unprobed run, as
``perfbench/run.py`` measures it.

Only the standard library is imported before ``invflight.cli``, so the
import point is the package's own cost. Each probe is a wrapper on the
module attribute that callers look up at call time; nothing under
``src/`` changes.
"""

from __future__ import annotations

import json
import resource
import sys


def memory() -> dict:
    """VmRSS and VmHWM of this process, in MB (1024 kB)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return {key: int(fields[key].split()[0]) / 1024.0
            for key in ("VmRSS", "VmHWM")}


def main(argv: list) -> int:
    import invflight.cli as cli
    from invflight import solver

    points = [{"phase": "import", **memory()}]

    def probe(owner, attr, phase):
        fn = getattr(owner, attr)

        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            points.append({"phase": phase, **memory()})
            return result

        setattr(owner, attr, probed)

    for owner, attr, phase in (
            (solver, "setup", "setup"),
            (solver, "initialize", "initialize"),
            (solver, "march", "march"),
            (solver, "solve", "solve"),
            (cli, "write_history", "write_history"),
            (cli, "write_summary", "write_summary"),
            (cli, "read_history", "read_history"),
            (cli.fwd, "simulate", "fwd.simulate")):
        probe(owner, attr, phase)
    status = cli.main(argv)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"argv": argv, "status": status, "points": points,
                      "ru_maxrss_mb": peak}))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
