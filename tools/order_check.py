"""Tier-1 order check: the suite passes, and counts the same, in any order.

    python3 tools/order_check.py

Runs the tier-1 command of ROADMAP.md from the root of the checkout
(``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``)
five ways: as it stands (file order), on the test files in reverse order,
on each test file alone, and with ``-k memory`` (every traced memory
test, without the rest). Prints the counts of each run. Exits 1 if any
run fails a test or has an error, or if the per-file counts do not add
up to the full run's.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]
OUTCOMES = ("passed", "failed", "error")


def run(*extra) -> dict:
    """Counts of one tier-1 run with ``extra`` arguments, by outcome, and
    the run's exit status under ``status``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run([*TIER1, *extra], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    counts = {key: 0 for key in OUTCOMES}
    for n, key in re.findall(r"(\d+) (passed|failed|error)", summary):
        counts[key] = int(n)
    counts["status"] = proc.returncode
    return counts


def text(counts: dict) -> str:
    return ", ".join(f"{counts[k]} {k}" for k in OUTCOMES)


def main() -> int:
    files = sorted(str(p.relative_to(ROOT))
                   for p in (ROOT / "tests").glob("test_*.py"))
    runs = {"file order": run(), "reversed": run(*reversed(files))}
    alone = {f: run(f) for f in files}
    runs.update(alone)
    runs["-k memory"] = run("-k", "memory")
    total = {k: sum(c[k] for c in alone.values()) for k in OUTCOMES}
    for label, counts in runs.items():
        print(f"{label:36s} {text(counts)} (exit {counts['status']})")
    print(f"{'sum of the files alone':36s} {text(total)}")
    full = runs["file order"]
    ok = (all(c["status"] == 0 and c["failed"] == c["error"] == 0
              for c in runs.values())
          and all(runs["reversed"][k] == full[k] == total[k]
                  for k in OUTCOMES))
    print("order check:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
