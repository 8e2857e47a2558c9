"""The four benchmark workloads: inputs, one timed unit and the output gate.

Each workload is a closed loop of identical units on inputs made from the
workload seed; ``timed_units`` is how many of them a timed run measures
after its warm-up unit.  ``unit`` is the only code inside the timed region.  ``check``
runs afterwards on what a unit wrote and returns one failure message per
failed operation; the runner counts an exception in either as failures.

The library is called through module attributes (``flow.metric_m``, not a
name imported from ``flow``) so that the tracer's rebinding reaches it.
"""

import contextlib
import io
import json
import os

import numpy as np
import scipy.spatial  # noqa: F401  (part of the import cost setup_s measures)

from orbitflow import cli, cycles, flow, thimble
from orbitflow.liecore import b_norm, b_tau, cartan_matrix, default_cartan, omega
from orbitflow.util import random_traceless
from orbitflow.verification import random_orbit_point, random_tangent

GEOMETRY_TOL = 1e-10
ORACLE_TOL = 1e-6
VERIFY_CHECKS = 28


def _cli(argv):
    """Run the CLI with its console messages captured; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Verify:
    """``verify`` at n=2: the gate users run; it touches all six suites."""

    name = "verify_n2"
    timed_units = 4
    ops_per_unit = 1

    def __init__(self, seed, workdir, small=False):
        self.seed, self.workdir = seed, workdir
        self.n = 1 if small else 2
        self.first_report = None
        self.extras = {}

    def unit(self, k):
        out = os.path.join(self.workdir, f"verify-{k}.json")
        return _cli(["verify", "--n", str(self.n), "--seed", str(self.seed), "--out", out]), out

    def check(self, k, output):
        code, path = output
        with open(path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        failed = [c["name"] for s in report["suites"] for c in s["checks"] if c["status"] != "pass"]
        total = sum(len(s["checks"]) for s in report["suites"])
        if self.first_report is None:
            self.first_report = raw
        if code != 0 or failed or total != VERIFY_CHECKS:
            return [f"unit {k}: exit {code}, {total - len(failed)}/{total} checks pass {failed}"]
        if raw != self.first_report:
            return [f"unit {k}: report bytes differ from unit 0 for the same seed"]
        return []


def exact_double_bracket(x0, h, times):
    """Exact flow of a Hermitian orbit point: u(t) ∝ exp(-(n+1) t H) u0.

    On the Hermitian locus Z = -[x, [x, H]] is Brockett's double-bracket
    flow, and x = (n+1) u u^H - I stays rank-one plus identity.
    """
    d = x0.shape[0]
    rank_one = x0 + np.eye(d)
    u0 = rank_one[:, np.argmax(np.linalg.norm(rank_one, axis=0))]
    expo = -d * np.outer(times, h)
    expo -= expo.max(axis=1, keepdims=True)
    u = u0[None, :] * np.exp(expo)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return d * np.einsum("ti,tj->tij", u, u.conj()) - np.eye(d)[None]


class Flow:
    """``flow`` at n=4: one Hermitian flag seed integrated to |Z| < 1e-9."""

    name = "flow_n4"
    timed_units = 6
    ops_per_unit = 1

    def __init__(self, seed, workdir, small=False):
        self.seed, self.workdir = seed, workdir
        self.n = 2 if small else 4
        self.h = default_cartan(self.n)
        self.extras = {"oracle_err": 0.0}
        self.first_csv = None

    def unit(self, k):
        out = os.path.join(self.workdir, f"flow-{k}.csv")
        argv = ["flow", "--n", str(self.n), "--seed", str(self.seed), "--steps", "20000",
                "--out", out]
        return _cli(argv), out

    def check(self, k, output):
        code, path = output
        with open(path, "rb") as fh:
            raw = fh.read()
        if self.first_csv is not None:
            # same seed, same trajectory: later units must repeat the checked one
            if code != 0 or raw != self.first_csv:
                return [f"unit {k}: exit {code}, CSV bytes differ from the first unit"]
            return []
        self.first_csv = raw
        rows = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, ndmin=2)
        d = self.n + 1
        flat = rows[:, 5::2] + 1j * rows[:, 6::2]
        mats = flat.reshape(-1, d, d)
        exact = exact_double_bracket(mats[0], self.h, rows[:, 0])
        err = float(np.linalg.norm(mats - exact, axis=(1, 2)).max())
        self.extras["oracle_err"] = max(self.extras["oracle_err"], err)
        limit = int(np.argmax(np.real(np.diag(mats[-1])))) + 1
        if code != 0 or limit != d or rows[-1, 4] >= 1e-9 or not err <= ORACLE_TOL:
            return [f"unit {k}: exit {code}, limit {limit}, |Z| {rows[-1, 4]:.3e}, "
                    f"oracle error {err:.3e}"]
        return []


class Thimble:
    """``thimble`` at n=8: 16 directions x 8 radii traced as one batch."""

    name = "thimble_n8"
    timed_units = 10
    ops_per_unit = 1
    radii = 8  # trace_thimble's default; the CLI does not set it
    j = 1
    c_offset = 0.5

    def __init__(self, seed, workdir, small=False):
        self.seed, self.workdir = seed, workdir
        self.n, self.directions = (2, 4) if small else (8, 16)
        self.extras = {}

    def unit(self, k):
        out = os.path.join(self.workdir, f"thimble-{k}.json")
        argv = ["thimble", "--n", str(self.n), "--j", str(self.j), "--sign", "-",
                "--c-offset", str(self.c_offset), "--directions", str(self.directions),
                "--seed", str(self.seed), "--out", out]
        return _cli(argv), out

    def check(self, k, output):
        code, path = output
        with open(path) as fh:
            payload = json.load(fh)
        summary = payload["meta"]["summary"]
        h = payload["meta"]["config"]["h"]
        d = len(h)
        # f1 at the critical point [e_j] is 2 d^2 h_j; sign '-' descends by c_offset
        level = 2.0 * d * d * h[self.j - 1] - self.c_offset
        ends = [s["seed_index"] for s in payload["samples"] if abs(s["f1"] - level) <= 1e-6]
        per_direction = np.bincount(ends, minlength=self.directions)
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        if not summary["max_graph_residual"] <= 1e-6:
            problems.append(f"graph residual {summary['max_graph_residual']:.3e}")
        if not summary["max_f2_drift"] <= 1e-8:
            problems.append(f"|f2| drift {summary['max_f2_drift']:.3e}")
        if not summary["max_omega"] < 1e-5:
            problems.append(f"omega {summary['max_omega']:.3e}")
        if summary["samples"] != len(payload["samples"]):
            problems.append("sample count disagrees with the summary")
        if len(ends) != self.directions * self.radii or np.any(per_direction != self.radii):
            problems.append(f"{len(ends)} of {self.directions * self.radii} flows end on the level")
        return [f"unit {k}: " + "; ".join(problems)] if problems else []


class Geometry:
    """Library API at n=12: metric, Kaehler gradients and height fields per point."""

    name = "geometry_n12"
    timed_units = 20

    def __init__(self, seed, workdir, small=False):
        self.n, count = (4, 4) if small else (12, 60)
        self.ops_per_unit = count
        rng = np.random.default_rng(seed)
        self.h = default_cartan(self.n)
        self.points = [random_orbit_point(rng, self.n) for _ in range(count)]
        self.tangents = [random_tangent(rng, pt) for pt in self.points]
        self.elements = [random_traceless(rng, self.n + 1) for _ in range(count)]
        self.extras = {}

    def unit(self, k):
        out = []
        for pt, v, x_elem in zip(self.points, self.tangents, self.elements):
            try:
                out.append((
                    flow.metric_m(pt, v, flow.z_field(pt, self.h)),
                    thimble.kaehler_gradients(pt, self.h),
                    cycles.grad_height(x_elem, pt),
                    cycles.ham_height(x_elem, pt),
                ))
            except Exception as exc:  # one failed operation; the unit goes on
                out.append(exc)
        return out

    def check(self, k, output):
        hm = cartan_matrix(self.h)
        problems = []
        for i, (res, v, x_elem) in enumerate(zip(output, self.tangents, self.elements)):
            if isinstance(res, Exception):
                problems.append(f"unit {k} point {i}: {type(res).__name__}: {res}")
                continue
            metric, (f1, f2), grad, ham = res
            dfx = b_tau(v, x_elem)
            worst = max(
                abs(b_tau(v, hm) + metric),       # Z is minus the metric gradient
                b_norm(f2 - 1j * f1),             # holomorphy: F2 = i F1
                abs(dfx - b_tau(v, grad)),
                abs(dfx - omega(v, ham)),
            )
            if not worst <= GEOMETRY_TOL:
                problems.append(f"unit {k} point {i}: identity residual {worst:.3e}")
        return problems


WORKLOADS = {w.name: w for w in (Verify, Flow, Thimble, Geometry)}
