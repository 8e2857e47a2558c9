"""Run context recorded beside every result, and the host-speed probe."""

import ctypes
import glob
import os
import platform
import statistics
import time

import numpy as np
import scipy


def git_sha(root):
    """Commit of the checkout, read from its ``.git`` directory; None without one."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(root, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def openblas_libraries():
    """Version string and live thread count of each OpenBLAS numpy and scipy load."""
    out = {}
    for package in (np, scipy):
        libdir = os.path.join(os.path.dirname(package.__file__), os.pardir,
                              f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            info = {}
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if config is not None and threads is not None and not info:
                        config.restype = ctypes.c_char_p
                        threads.restype = ctypes.c_int
                        info = {"config": config().decode().strip(), "threads": threads()}
            out[f"{package.__name__}:{os.path.basename(path)}"] = info
    return out


def run_context(root):
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def host_probe(repeats=3):
    """Median seconds of a fixed numpy loop; recorded, never used to scale metrics."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    b = rng.standard_normal((96, 96))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(500):
            np.linalg.eig(a)
            np.linalg.qr(a)
            b @ b
        times.append(time.perf_counter() - start)
    return statistics.median(times)
