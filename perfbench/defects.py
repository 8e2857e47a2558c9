"""Reproducers for two known defects that shaped the workloads.

    python3 perfbench/defects.py

Prints, for each defect, whether it still reproduces.  Neither is fixed by
the benchmark; see NOTES.md.  The second reproducer runs ``verify`` at
n=6, which takes about 40 seconds.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from orbitflow import cli, cycles  # noqa: E402
from orbitflow.liecore import longest_weyl  # noqa: E402
from orbitflow.util import subspace_intersection_real  # noqa: E402
from orbitflow.verification import random_orbit_point  # noqa: E402


def intersection_index_error():
    """(a) The first span larger than the second raises IndexError."""
    found = []
    try:
        subspace_intersection_real(np.eye(4)[:3], np.eye(4)[:2])
    except IndexError as exc:
        found.append(f"subspace_intersection_real(3 rows, 2 rows): IndexError: {exc}")
    rng = np.random.default_rng(0)
    try:
        cycles.delta_w(longest_weyl(4), random_orbit_point(rng, 3))
    except IndexError as exc:
        found.append(f"cycles.delta_w at n=3: IndexError: {exc}")
    return found


def verify_n6_containment():
    """(b) verify --n 6 --seed 7 fails thimble-containment-and-openness."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as tmp:
        out = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--n", "6", "--seed", "7", "--out", out])
        with open(out) as fh:
            report = json.load(fh)
    return [f"{c['name']}: measured {c['measured']:.3e} > tolerance {c['tolerance']:.0e}"
            for s in report["suites"] for c in s["checks"] if c["status"] != "pass"]


def main():
    for check in (intersection_index_error, verify_n6_containment):
        found = check()
        print(f"{check.__doc__.splitlines()[0]} -> {'REPRODUCES' if found else 'fixed'}")
        for line in found:
            print(f"    {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
