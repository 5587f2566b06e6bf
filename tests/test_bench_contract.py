"""The package surface that the benchmark under ``perfbench/`` relies on.

The benchmark wraps module attributes by path (``tracer.WRAPPED``),
binds recorded keyword sets to four kernels (``micro_state.json``) and
calls a few ``cli`` names from its child process (``child.py``). These
tests read those files as data; they import nothing from ``perfbench/``
and write nothing there.
"""

import ast
import inspect
import json
from pathlib import Path

import pytest

from invflight import aero, atmosphere, cli, dynamics, forward, kinematics
from invflight import solver

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the root modules the child process hands to the tracer
ROOTS = {"solver": solver, "dynamics": dynamics, "kinematics": kinematics,
         "aero": aero, "forward": forward, "cli": cli}


def _module_constant(path, name):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path.name}")


WRAPPED = [path for path, _ in
           _module_constant(BENCH / "tracer.py", "WRAPPED")]


def _owner_and_attr(path):
    head, *middle, attr = path.split(".")
    owner = ROOTS[head]
    for part in middle:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.parametrize("path", WRAPPED)
def test_wrapped_path_resolves(path):
    owner, attr = _owner_and_attr(path)
    assert callable(getattr(owner, attr))


def test_micro_state_binds():
    state = json.loads((BENCH / "micro_state.json").read_text())
    modules = {"atmosphere": atmosphere, "dynamics": dynamics,
               "kinematics": kinematics}
    bound = 0
    for key, args in state.items():
        if key == "t_s":
            continue
        module, name = key.split(".")
        sig = inspect.signature(getattr(modules[module], name))
        if isinstance(args, dict):
            sig.bind(**args)
        else:
            sig.bind(*args)
        bound += 1
    assert bound == 5


def test_cli_exposes_child_names():
    tree = ast.parse((BENCH / "child.py").read_text(encoding="utf-8"))
    used = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and getattr(n.value, "id", None) == "cli"}
    assert {"validate_config", "mirage_iii", "load_sampled_maneuver",
            "read_history", "main"} <= used
    for name in used | {"fwd"}:
        assert hasattr(cli, name), name


def test_wrapped_paths_are_looked_up_at_call_time(tmp_path, monkeypatch,
                                                  capsys):
    # wrappers installed the way the tracer installs them must all be
    # reached by the three benchmark operations, at small sizes, and by a
    # step-size study: no benchmark operation calls ``solver.solve`` since
    # the round trip streams the march, and ``converge`` still does
    calls = dict.fromkeys(WRAPPED, 0)

    def counting(path, fn):
        def wrapper(*args, **kwargs):
            calls[path] += 1
            return fn(*args, **kwargs)
        return wrapper

    for path in WRAPPED:
        owner, attr = _owner_and_attr(path)
        monkeypatch.setattr(owner, attr, counting(path, getattr(owner, attr)))

    inv = tmp_path / "inv"
    assert cli.main(["inverse", "--maneuver", "mirage-roll", "--dt", "1e-2",
                     "--out", str(inv)]) == cli.EXIT_OK
    assert cli.main(["forward", "--history", str(inv / "history.csv"),
                     "--out", str(inv)]) == cli.EXIT_OK
    man = tmp_path / "climb.dat"
    man.write_text("".join("%.2f %.6f 0 %.6f 0\n" % (
        0.01 * i, 2.0 * i, -5000.0 - 0.1 * i) for i in range(201)))
    assert cli.main(["roundtrip", "--maneuver-file", str(man),
                     "--out", str(tmp_path / "rt")]) == cli.EXIT_OK
    assert cli.main(["converge", "--maneuver", "level", "--dt", "1e-2",
                     "--dt", "2e-2", "--out", str(tmp_path / "cv")]) == \
        cli.EXIT_OK
    assert [p for p, n in calls.items() if n == 0] == []
