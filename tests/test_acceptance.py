"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from orbitflow.cli import main
from orbitflow.flow import linearize, metric_m, nongradient_witness, z_field
from orbitflow.graphs import (
    graph_generators,
    hessian_full,
    hessian_restricted,
    m_j_pm,
    reality_check,
)
from orbitflow.liecore import (
    RootSystemAn,
    b_norm,
    b_tau,
    cartan_matrix,
    default_cartan,
    minimal_cartan,
    omega,
)
from orbitflow.orbit import critical_points, potential
from orbitflow.thimble import (
    fg_decomposition_check,
    horizontal_lift_check,
    kaehler_gradients,
    lagrangian_check,
    trace_thimble,
)
from orbitflow.util import random_unit_vector
from orbitflow.verification import (
    fd_jacobian_eigenvalues,
    random_orbit_point,
    random_tangent,
    word_with_slot,
)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {detail}")
    assert ok, detail


def test_criterion_01_critical_point_count():
    ok = True
    for n in range(1, 7):
        pts = critical_points(n)
        expect = math.factorial(n + 1) // math.factorial(n)
        ok = ok and len(pts) == n + 1 == expect
    _report(1, ok, "critical points number n+1 = |W|/|W_stab| for n = 1..6")


def test_criterion_02_gradient_identity():
    rng = np.random.default_rng(20)
    worst = 0.0
    for n in (1, 2):
        h = default_cartan(n)
        for _ in range(100):
            pt = random_orbit_point(rng, n)
            v = random_tangent(rng, pt)
            resid = abs(b_tau(v, cartan_matrix(h)) + metric_m(pt, v, z_field(pt, h)))
            worst = max(worst, resid)
    _report(2, worst < 1e-10, f"max |dh(v) + m(v, Z)| = {worst:.3e} < 1e-10 on 100 pairs, n in {{1,2}}")


def test_criterion_03_linearization_spectrum():
    worst = 0.0
    for n in (1, 2):
        h = default_cartan(n)
        for pt in critical_points(n):
            expected = linearize(pt, h).eigenvalues()
            observed = fd_jacobian_eigenvalues(pt, h)
            worst = max(worst, float(np.abs(np.array(observed) - np.array(expected)).max()))
    h0 = minimal_cartan(1)
    frozen = fd_jacobian_eigenvalues(critical_points(1)[0], h0)
    exact = np.allclose(frozen, [-4.0, -4.0, 4.0, 4.0], atol=1e-6)
    ok = worst < 1e-6 and exact
    _report(3, ok, f"fd Jacobian matches +/-a(wH0)a(H) to {worst:.3e}; n=1 spectrum {{+4,+4,-4,-4}}")


def test_criterion_04_stable_unstable_lagrangian():
    worst = 0.0
    for n in (1, 2, 4):
        h = default_cartan(n)
        for pt in critical_points(n):
            spec = linearize(pt, h)
            for side in (spec.v_minus(), spec.v_plus()):
                for a in side:
                    for b in side:
                        worst = max(worst, abs(omega(a, b)))
    _report(4, worst < 1e-10, f"max |omega| within V+ and V- = {worst:.3e} < 1e-10, n in {{1,2,4}}")


def test_criterion_05_hessian_tables():
    h2 = default_cartan(2)
    frozen = {
        (1, "-"): [-12.0, -6.0],
        (1, "+"): [6.0, 12.0],
        (2, "-"): [-6.0, -6.0],
        (2, "+"): [6.0, 6.0],
    }
    ok = True
    for (j, s), expected in frozen.items():
        rep = hessian_restricted(h2, j, m_j_pm(2, j, s))
        ok = ok and np.allclose(sorted(v.real for v in rep.values()), sorted(expected))
    worst = 0.0
    for n in (2, 4):
        h = default_cartan(n)
        for j in range(1, n + 2):
            for s in ("+", "-"):
                g = m_j_pm(n, j, s)
                rep = hessian_restricted(h, j, g)
                ok = ok and rep.definiteness == ("positive" if s == "+" else "negative")
                w = word_with_slot(n, j)
                for row, (alpha, b1, b2) in zip(rep.rows, graph_generators(g, j)):
                    formula = -2.0 * row.alpha_crit * row.alpha_h * row.phase
                    worst = max(worst, abs(row.value - formula))
                    worst = max(worst, abs(hessian_full(b1, b1, w, h) - row.value))
                    worst = max(worst, abs(hessian_full(b2, b2, w, h) - row.value))
    ok = ok and worst < 1e-10
    _report(5, ok, f"restricted Hessian tables frozen, oracle gap {worst:.3e} < 1e-10, definite per sign")


def test_criterion_06_reality_on_graphs():
    rng = np.random.default_rng(21)
    worst = 0.0
    for n in (2, 4):
        h = default_cartan(n)
        for j in range(1, n + 2):
            for s in ("+", "-"):
                out = reality_check(m_j_pm(n, j, s).m_diag, h, 500, rng)
                worst = max(worst, out["max_im_f"])
        dvals = rng.uniform(0.5, 2.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
        out = reality_check(dvals, h, 500, rng)
        worst = max(worst, out["max_im_f"])
    _report(6, worst < 1e-9, f"max |Im f_H| over 500-sample graphs = {worst:.3e} < 1e-9, n in {{2,4}}")


def test_criterion_07_thimble_suite():
    rng = np.random.default_rng(22)
    h = default_cartan(2)
    worst_res = worst_f2 = worst_om = 0.0
    range_ok = True
    for j in (1, 2, 3):
        f1c = potential(h, critical_points(2)[j - 1]).real
        for s in ("+", "-"):
            samples = trace_thimble([(j, s)], h, c_offset=0.5, directions=64, rng=rng)
            worst_res = max(worst_res, max(x.graph_residual for x in samples))
            worst_f2 = max(worst_f2, max(abs(x.f2) for x in samples))
            f1s = [x.f1 for x in samples]
            if s == "-":
                range_ok &= f1c - 0.5 - 1e-9 <= min(f1s) and max(f1s) <= f1c + 1e-9
            else:
                range_ok &= f1c - 1e-9 <= min(f1s) and max(f1s) <= f1c + 0.5 + 1e-9
            worst_om = max(worst_om, lagrangian_check(samples.line, m_j_pm(2, j, s).m_diag.real))
    ok = worst_res < 1e-6 and worst_f2 < 1e-8 and worst_om < 1e-5 and range_ok
    _report(
        7,
        ok,
        f"thimbles n=2 (3 points x 2 signs, 64 directions): residual {worst_res:.3e} < 1e-6, "
        f"|f2| {worst_f2:.3e} < 1e-8, omega {worst_om:.3e} < 1e-5, f1 ranges bracketed",
    )


def test_criterion_08_fg_decomposition():
    rng = np.random.default_rng(23)
    h = default_cartan(2)
    worst_res = worst_g2 = 0.0
    for j in (1, 2, 3):
        for s in ("+", "-"):
            g = m_j_pm(2, j, s)
            done = 0
            while done < 100:
                u = random_unit_vector(rng, 3)
                if abs(np.vdot(g.m_diag * u, u)) < 1e-2:
                    continue
                from orbitflow.graphs import graph_point

                pt = graph_point(u, g)
                f1, _ = kaehler_gradients(pt, h)
                if b_norm(f1) < 1e-6:
                    continue
                rep = fg_decomposition_check(pt, g, h)
                worst_res = max(worst_res, rep.residual)
                worst_g2 = max(worst_g2, rep.g2_ratio)
                done += 1
    ok = worst_res < 1e-8 and worst_g2 < 1e-8
    _report(
        8,
        ok,
        f"F1 = G1 - iG2 on 100 points per graph: residual {worst_res:.3e} < 1e-8, "
        f"|G2|/|F1| {worst_g2:.3e} < 1e-8 on the involution graphs",
    )


def test_criterion_09_horizontal_lift():
    rng = np.random.default_rng(24)
    h = default_cartan(2)
    worst = 0.0
    done = 0
    while done < 100:
        pt = random_orbit_point(rng, 2, spread=0.5)
        f1, _ = kaehler_gradients(pt, h)
        if b_norm(f1) < 1e-6:
            continue
        _, b = horizontal_lift_check(pt, h)
        worst = max(worst, abs(b))
        done += 1
    _report(9, worst < 1e-10, f"max |b| over 100 regular points = {worst:.3e} < 1e-10")


def test_criterion_10_nongradient_witness():
    rs = RootSystemAn(1)
    h = np.array([1.0, -1.0])
    h1 = 1j * np.array([1.0, -1.0])
    v = rs.x_alpha((1, 2))
    w = 1j * rs.x_alpha((1, 2))
    val = nongradient_witness(h, h1, v, w)
    _report(10, val > 1e-3, f"witness at documented (H, H1, v, w) = {val:.6f} > 1e-3")


def test_criterion_11_determinism(tmp_path):
    args = ["verify", "--n", "2", "--seed", "42"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    _report(11, ok, "two verify runs with the same seed produce byte-identical reports")
