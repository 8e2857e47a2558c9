"""Time one set-up from a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED [small]

Set-up is importing orbitflow (with numpy, scipy and scipy.spatial) and
building the workload's inputs from its seed.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name](seed, workdir=None, small=sys.argv[3:] == ["small"])
    print(repr(time.perf_counter() - START))
