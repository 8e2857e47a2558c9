"""Kaehler gradients, F/G restriction, thimble tracing and isotropy checks."""

import functools
import itertools
import json
import re
import warnings

import numpy as np
import pytest

from orbitflow import thimble
from orbitflow.errors import GraphIntegrityError, MembershipError, NearCriticalError
from orbitflow.flow import ad_inverse, advance
from orbitflow.graphs import (GraphSpec, graph_point, graph_tangent_frame, identity_graph, m_j_pm,
                              twists)
from orbitflow.liecore import (
    b_norm,
    b_tau,
    cartan_matrix,
    default_cartan,
    minimal_cartan,
    omega,
)
from orbitflow.orbit import DRIFT_LIMIT, OrbitPoint, assemble, critical_points, potential, retract
from orbitflow.thimble import (
    fg_decomposition_check,
    flow_to_level,
    horizontal_lift_check,
    kaehler_gradients,
    lagrangian_check,
    line_height,
    pair_gap,
    thimble_csv,
    thimble_json,
    trace_thimble,
)
from orbitflow.util import random_unit_vector
from orbitflow.verification import random_orbit_point, random_tangent

from helpers import (ambient_lagrangian_check, gram_schmidt_real, phi_landing, phi_rate, phi_rk4,
                     vanishing_sphere_point)


def _graph_seed_stack(n, directions=8):
    """Lines u of graph pairs (u, m u) of m_1^- at n over a radius ladder
    from 1e-4 to 0.05 along random graph tangent directions, and the level
    0.5 below [e_1]."""
    h = default_cartan(n)
    g = m_j_pm(n, 1, "-")
    xc = critical_points(n)[0]
    frame = np.array(graph_tangent_frame(xc, g.m_diag))
    coeffs = np.random.default_rng(n).standard_normal((directions, len(frame)))
    lines = np.array([retract(xc.x + r * np.tensordot(c / np.linalg.norm(c), frame, axes=1)).line
                      for c in coeffs for r in np.geomspace(1e-4, 0.05, 6)])
    return h, g, lines, potential(h, xc).real - 0.5


SCALAR_TWISTS = [(8, 1, "-"), (3, 4, "+"), (2, 1, "-")]  # m = 1, -1 and 1


def _hessian_step(h, j):
    """An explicit step in t that resolves the stiffest Hessian rate at [e_j]."""
    return 0.1 / thimble._unit_rate(h, j)


def _rule(h, m, orient, r0, z=False):
    """The rate closure of the two-scalar rule on states (s, B)."""
    weights = thimble._weights(h, m)
    return lambda state: thimble._line_rate(h, weights, m, orient, r0, state, z)[0]


def _entry_rate(h, m, rate):
    """The log-modulus rate m (h s' - B') of a rate (s', B')."""
    return m * (h * rate[..., :1] - rate[..., 1:])


def _loop_advances(monkeypatch, j, sign, h, step):
    """``advance`` calls of a trace outside its one ``cross_level``."""
    calls, landing = [0], [False]
    cross_level, advance = thimble.cross_level, thimble.advance

    def counting_cross_level(*args):
        landing[0] = True
        try:
            return cross_level(*args)
        finally:
            landing[0] = False

    def counting_advance(*args):
        calls[0] += not landing[0]
        return advance(*args)

    monkeypatch.setattr(thimble, "cross_level", counting_cross_level)
    monkeypatch.setattr(thimble, "advance", counting_advance)
    trace_thimble([(j, sign)], h, c_offset=0.5, directions=8, step=step,
                  rng=np.random.default_rng(0))
    monkeypatch.undo()
    return calls[0]


def _graph_sample(rng, g, n):
    while True:
        u = random_unit_vector(rng, n + 1)
        if abs(np.vdot(g.m_diag * u, u)) > 1e-2:
            return graph_point(u, g)


class TestKaehlerGradients:
    def test_vanish_at_singularities(self):
        h = default_cartan(2)
        for pt in critical_points(2):
            f1, f2 = kaehler_gradients(pt, h)
            assert b_norm(f1) < 1e-12 and b_norm(f2) < 1e-12

    def test_complex_rotation_relation(self):
        rng = np.random.default_rng(0)
        h = default_cartan(2)
        for _ in range(100):
            pt = random_orbit_point(rng, 2)
            f1, f2 = kaehler_gradients(pt, h)
            assert b_norm(f2 - 1j * f1) / b_norm(f1) < 1e-10

    def test_projects_h_and_ih_in_one_call(self, monkeypatch):
        from orbitflow import orbit

        rng = np.random.default_rng(4)
        h = default_cartan(4)
        pt = random_orbit_point(rng, 4)
        hm = cartan_matrix(h)
        want = orbit.tangent_project(pt, hm), orbit.tangent_project(pt, 1j * hm)
        calls = []
        project_rows = orbit._project_rows

        def counting_project_rows(*args):
            out = project_rows(*args)
            calls.append(out.shape)
            return out

        monkeypatch.setattr(orbit, "_project_rows", counting_project_rows)
        f1, f2 = kaehler_gradients(pt, h)
        assert calls == [(2, 5, 5)]
        assert np.array_equal(f1, want[0]) and np.array_equal(f2, want[1])

    def test_hessian_index_balance(self):
        # equal positive and negative counts of the real-part Hessian at a
        # singularity, computed by central differences along retracted rays
        from orbitflow.orbit import tangent_frame

        h = default_cartan(2)
        fd = 1e-4
        for pt in critical_points(2):
            frame = [m for e in tangent_frame(pt) for m in (e, 1j * e)]
            frame = gram_schmidt_real(frame, b_tau)
            k = len(frame)
            hess = np.zeros((k, k))
            for i in range(k):
                for j in range(i, k):
                    fpp = potential(h, retract(pt.x + fd * (frame[i] + frame[j]))).real
                    fpm = potential(h, retract(pt.x + fd * (frame[i] - frame[j]))).real
                    fmp = potential(h, retract(pt.x - fd * (frame[i] - frame[j]))).real
                    fmm = potential(h, retract(pt.x - fd * (frame[i] + frame[j]))).real
                    hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4 * fd * fd)
            eig = np.linalg.eigvalsh(hess)
            assert (eig > 1e-3).sum() == (eig < -1e-3).sum() == k // 2


class TestFGDecomposition:
    def test_involution_graphs(self):
        rng = np.random.default_rng(1)
        h = default_cartan(2)
        for j in (1, 2, 3):
            for s in ("+", "-"):
                g = m_j_pm(2, j, s)
                for _ in range(10):
                    pt = _graph_sample(rng, g, 2)
                    rep = fg_decomposition_check(pt, g, h)
                    assert rep.residual < 1e-8
                    assert rep.g2_ratio < 1e-8
                    assert rep.f1_tangency < 1e-8

    def test_graph_tangent_frame_rank_one(self):
        # rank one: two b_tau-orthonormal vectors spanning an isotropic plane
        rng = np.random.default_rng(12)
        g = m_j_pm(1, 1, "-")
        pt = _graph_sample(rng, g, 1)
        frame = graph_tangent_frame(pt, g.m_diag)
        assert len(frame) == 2
        assert abs(omega(frame[0], frame[1])) < 1e-10

    def test_near_critical_point_decomposes_trivially(self):
        h = default_cartan(2)
        g = identity_graph(2)
        pt = retract(critical_points(2)[0].x + 1e-5 * np.diag([0, 1e-3, -1e-3]))
        f1, f2 = kaehler_gradients(pt, h)
        assert b_norm(f1) < 1e-6

    def test_membership_precondition(self):
        rng = np.random.default_rng(2)
        h = default_cartan(2)
        pt = random_orbit_point(rng, 2)
        with pytest.raises(MembershipError):
            fg_decomposition_check(pt, m_j_pm(2, 1, "+"), h)

    def test_non_involution_twist_tracks_isotropy_defect(self):
        # a generic torus twist yields a graph that is *not* isotropic for
        # the ambient form; the decomposition residual then scales with the
        # measured isotropy defect instead of vanishing
        rng = np.random.default_rng(3)
        h = default_cartan(2)
        g = GraphSpec(np.exp(1j * np.array([0.3, -0.5, 0.2])))
        worst_res, worst_om = 0.0, 0.0
        for _ in range(10):
            pt = _graph_sample(rng, g, 2)
            frame = graph_tangent_frame(pt, g.m_diag)
            defect = max(abs(omega(a, b)) for a in frame for b in frame)
            rep = fg_decomposition_check(pt, g, h)
            worst_res = max(worst_res, rep.residual)
            worst_om = max(worst_om, defect)
        assert worst_om > 1e-4          # genuinely non-Lagrangian
        assert worst_res > 1e-6         # and the decomposition feels it
        assert worst_res < 100.0 * worst_om


class TestHorizontalLift:
    def test_b_vanishes_and_a_positive(self):
        rng = np.random.default_rng(4)
        h = default_cartan(2)
        for _ in range(100):
            pt = random_orbit_point(rng, 2)
            f1, _ = kaehler_gradients(pt, h)
            if b_norm(f1) < 1e-6:
                continue
            a, b = horizontal_lift_check(pt, h)
            assert abs(b) < 1e-10
            assert a == pytest.approx(1.0 / b_norm(f1) ** 2, rel=1e-8)

    def test_fibre_directions_symplectically_orthogonal(self):
        from orbitflow.liecore import hermitian_form

        rng = np.random.default_rng(5)
        h = default_cartan(2)
        pt = random_orbit_point(rng, 2)
        f1, _ = kaehler_gradients(pt, h)
        for _ in range(20):
            v = random_tangent(rng, pt)
            v = v - hermitian_form(v, f1) / hermitian_form(f1, f1) * f1
            assert abs(omega(f1, v)) < 1e-10

    def test_near_critical_error(self):
        h = default_cartan(2)
        with pytest.raises(NearCriticalError):
            horizontal_lift_check(critical_points(2)[0], h)


class TestGraphClosedForms:
    """The line velocity, height and chart gap that thimble flows step with."""

    def test_flow_to_level_rejects_a_non_involution(self):
        # the quarter-turn twist, and a row one ulp from -1, named in a stack
        # whose row 0 is the flag's m = 1
        lines = thimble.seed_lines(1, 3, np.eye(4)[:2], [1e-2])
        for bad in (np.array([1j, -1j, 1.0]), np.array([np.nextafter(-1.0, 0.0), -1.0, 1.0])):
            with pytest.raises(ValueError, match=r"^row 1 of m is .*, not \+/-1"):
                flow_to_level(lines, default_cartan(2), np.stack([np.ones(3), bad]), 17.5, 0.01, 10)

    def test_gradient_field_steps_a_stack_of_twists_row_by_row(self):
        # one stack of every twist, each row with its own orient and step,
        # advances each row bit for bit as the row advances alone, under the
        # F1 rule (the gradient field) and the Z rule of the (s, B) engine
        n = 4
        h = default_cartan(n)
        gs = [m_j_pm(n, j, s) for j, s in twists(n)]
        r0 = np.abs(np.concatenate([thimble.seed_lines(j, g.dim, np.eye(2 * n)[0], [0.2])
                                    for (j, _), g in zip(twists(n), gs)]))
        state = np.random.default_rng(30).uniform(-0.5, 0.5, (len(gs), 2))
        m = np.array([g.m_diag.real for g in gs])
        orient = np.where(np.arange(len(gs)) % 3 == 0, 1.0, -1.0)[:, None]
        for z in (False, True):
            steps = np.linspace(0.01, 0.05, len(gs)) / (30.0 if z else 1.0)
            stacked = advance(state, _rule(h, m, orient, r0, z), steps[:, None], None, h)
            for k in range(len(gs)):
                alone = advance(state[k:k + 1], _rule(h, m[k], orient[k], r0[k:k + 1], z),
                                steps[k], None, h)
                assert np.array_equal(stacked[k], alone[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_phi_guard_bounds_every_rate(self, n):
        # |c_i| = |m_i (h_i s' - B')| <= spread(h) / d for the F1 rule on
        # every twist, so that a step of phi_guard moves no log-modulus by
        # more than 0.9 DRIFT_LIMIT
        rng = np.random.default_rng(n)
        for h in (default_cartan(n), rng.standard_normal(n + 1)):
            for j, s in twists(n):
                m = m_j_pm(n, j, s).m_diag.real
                r0 = np.abs(rng.standard_normal((500, n + 1))) * np.exp(rng.uniform(-8, 0, (500, n + 1)))
                orient = rng.choice([-1.0, 1.0], (500, 1))
                rate = _entry_rate(h, m, _rule(h, m, orient, r0)(np.zeros((500, 2))))
                bound = 0.9 * DRIFT_LIMIT / thimble.phi_guard(h)
                assert np.abs(rate).max() <= bound * (1 + 1e-12), (j, s)
            assert np.isclose(bound, np.ptp(h) / (n + 1))

    def test_gradient_field_is_well_conditioned_near_the_divisor(self):
        # graph lines with |sigma| = |sum m |u|^2| / |u|^2 from 5e-4 down to
        # 1e-6: the line velocity c u, c = m (h s' - B') of the F1 rule, in
        # float64 agrees with the same closed form in extended precision
        rng = np.random.default_rng(31)
        sigma = np.geomspace(1e-6, 5e-4, 8) * (-1.0) ** np.arange(8)
        for n in (2, 4, 8):
            h = default_cartan(n)
            for j, s in twists(n):
                g = m_j_pm(n, j, s)
                m = g.m_diag.real
                pos = m > 0
                if pos.all() or not pos.any():
                    continue
                u = rng.standard_normal((8, n + 1)) + 1j * rng.standard_normal((8, n + 1))
                w = np.abs(u) ** 2
                wp, wn = (w * pos).sum(1), (w * ~pos).sum(1)
                u[:, pos] *= np.sqrt(wn * (1.0 + sigma) / (wp * (1.0 - sigma)))[:, None]
                w = np.abs(u) ** 2
                assert (np.abs((m * w).sum(1)) < 1e-3 * w.sum(1)).all()
                r0 = np.abs(u)
                got = _entry_rate(h, m, _rule(h, m, 1.0, r0)(np.zeros((8, 2)))) * r0
                ext = r0.astype(np.longdouble)
                rate = _rule(h, m, 1.0, ext)(np.zeros((8, 2), np.longdouble))
                want = _entry_rate(h, m, rate) * ext
                err = np.sqrt(((got - want) ** 2).sum(1) / (want ** 2).sum(1))
                assert float(err.max()) < 1e-9

    @pytest.mark.parametrize("n, j, sign", ((2, 1, "+"), (6, 3, "+"), (6, 4, "-"), (3, 1, "+")))
    def test_z_rate_moves_graph_pairs_as_z(self, n, j, sign):
        # off the Hermitian locus: mixed-sign patterns at n = 2 and 6 and a
        # determinant -1 pattern at n = 3.  The move (c u, m c u) of a pair
        # (u, e^{i theta} m u), with c = m (h s' - B') from the Z rule, is Z
        # in the chart, as is the move of the pair by the Lax form of Z
        from orbitflow.flow import z_field
        from orbitflow.graphs import sign_pattern
        from orbitflow.orbit import lax_velocity, pair_tangent

        h = default_cartan(n)
        m = sign_pattern(n, j, sign)
        assert (m > 0).any() and (m < 0).any() and np.prod(m) == (-1.0 if n == 3 else 1.0)
        rng = np.random.default_rng(34 + n)
        u = rng.standard_normal((16, n + 1)) + 1j * rng.standard_normal((16, n + 1))
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, (16, 1))) * m * u
        z = z_field(assemble(u, v), h)
        lax = lax_velocity(np.stack([u, v], axis=1), h)
        for orient in (1.0, -1.0):
            rate = _rule(h, np.tile(m, (16, 1)), orient, np.abs(u), True)(np.zeros((16, 2)))
            c = _entry_rate(h, m, rate)
            for du, dv in ((c * u, c * v), (orient * lax[:, 0], orient * lax[:, 1])):
                move = pair_tangent(u, v, du, dv)
                err = [b_norm(a - orient * b) / b_norm(b) for a, b in zip(move, z)]
                assert max(err) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_line_height_is_the_potential(self, n):
        # any real H, not only a zero-sum one; relative to the sum
        # 2d sum |h_i x_ii| that potential rounds
        rng = np.random.default_rng(40 + n)
        d = n + 1
        h = rng.standard_normal(d)
        u = rng.standard_normal((32, d)) + 1j * rng.standard_normal((32, d))
        for j, s in twists(n):
            m = m_j_pm(n, j, s).m_diag.real
            xs = assemble(u, m * u)
            scale = 2.0 * d * np.abs(np.diagonal(xs, axis1=-2, axis2=-1)) @ np.abs(h)
            err = np.abs(line_height(h, m, u) - potential(h, xs).real) / scale
            assert err.max() < 1e-13

    def test_pair_gap_is_the_chart_distance(self):
        # consecutive recorded lines of each flow of a trace, and random
        # lines at every twist, against assembled points in extended precision
        n = 4
        samples = trace_thimble([(1, "-")], default_cartan(n), c_offset=0.4, directions=4, radii=3,
                                rng=np.random.default_rng(32))
        flows = {}
        for smp in samples:
            flows.setdefault(smp.flow_index, []).append(smp.line)
        recorded = np.array([[a, b] for lines in flows.values() for a, b in zip(lines[1:], lines)])
        rng = np.random.default_rng(33)
        cases = [(m_j_pm(n, 1, "-").m_diag.real, recorded, 1e-13)]
        for j, s in twists(n):
            lines = rng.standard_normal((32, 2, n + 1)) + 1j * rng.standard_normal((32, 2, n + 1))
            cases.append((m_j_pm(n, j, s).m_diag.real, lines, 1e-12))
        for m, lines, tol in cases:
            ua, ub = lines[:, 0], lines[:, 1]
            ext_a, ext_b = ua.astype(np.clongdouble), ub.astype(np.clongdouble)
            diff = assemble(ext_a, m * ext_a) - assemble(ext_b, m * ext_b)
            want = np.sqrt((np.abs(diff) ** 2).sum(axis=(-2, -1))).astype(float)
            assert (np.abs(pair_gap(m, ua, ub) - want) / want).max() < tol

    def test_pair_gap_of_lines_of_different_lengths(self):
        # a line at 0.83 of unit length, 1e-10 along its torus surface from a
        # unit line: inner products of the unscaled lines cancel to 0
        n = 4
        h = default_cartan(n)
        rng = np.random.default_rng(40)
        for j, s in ((1, "-"), (3, "+")):
            m = m_j_pm(n, j, s).m_diag.real
            ub = random_unit_vector(rng, n + 1)
            ua = ub * np.exp(np.log(0.83) + 1e-10 * h * m)
            ext_a, ext_b = ua.astype(np.clongdouble), ub.astype(np.clongdouble)
            diff = assemble(ext_a, m * ext_a) - assemble(ext_b, m * ext_b)
            want = float(np.sqrt((np.abs(diff) ** 2).sum()))
            assert 1e-10 < want < 1e-8
            assert abs(pair_gap(m, ua[None], ub[None])[0] - want) < 1e-4 * want

    def test_stepping_loop_assembles_no_matrix(self, monkeypatch):
        # neither the stepping loop nor the landing of flow_to_level
        from orbitflow import orbit

        calls = []
        assemble_ = orbit.assemble

        def counting_assemble(*args):
            calls.append(len(args[0]))
            return assemble_(*args)

        h, g, lines, c = _graph_seed_stack(4, directions=3)
        for module in (orbit, thimble):
            monkeypatch.setattr(module, "assemble", counting_assemble, raising=False)
        flow_to_level(lines, h, g.m_diag.real, c, None, 4000, lambda *_: None)
        assert calls == []


class TestTraceThimble:
    def test_tiny_offset_degenerates_to_point(self):
        h = default_cartan(2)
        samples = trace_thimble([(1, "-")], h, c_offset=1e-6, directions=4, radii=2,
                                rng=np.random.default_rng(0))
        xc = critical_points(2)[0].x
        x = assemble(samples.line, m_j_pm(2, 1, "-").m_diag * samples.line)
        assert np.linalg.norm(x - xc, axis=(1, 2)).max() < 5e-3

    def test_trace_assembles_only_its_samples(self, monkeypatch):
        # f1([e_j]) is read on the line, so the one matrix a trace builds is
        # the final chart of its recorded pairs
        from orbitflow import orbit

        shapes = []
        assemble_ = orbit.assemble

        def counting_assemble(u, v):
            shapes.append(u.shape)
            return assemble_(u, v)

        monkeypatch.setattr(orbit, "assemble", counting_assemble)
        samples = trace_thimble([(2, "+")], default_cartan(4), c_offset=0.4, directions=3, radii=2,
                                rng=np.random.default_rng(14))
        assert shapes == [(len(samples), 5)]
        # in blocks of CHART_BYTES of matrices, here 7 samples, each assembled
        # once, with the same bits
        shapes.clear()
        monkeypatch.setattr(thimble, "CHART_BYTES", 7 * 16 * 5 ** 2 + 15)
        blocked = trace_thimble([(2, "+")], default_cartan(4), c_offset=0.4, directions=3, radii=2,
                                rng=np.random.default_rng(14))
        sizes = [len(a) for a in np.array_split(samples, range(7, len(samples), 7))]
        assert [k for k, _ in shapes] == sizes
        assert blocked.tobytes() == samples.tobytes()

    def test_negative_case_rank_two(self):
        h = default_cartan(2)
        samples = trace_thimble([(1, "-")], h, c_offset=0.5, directions=16,
                                rng=np.random.default_rng(1))
        assert max(s.graph_residual for s in samples) < 1e-6
        assert max(abs(s.f2) for s in samples) < 1e-8
        f1s = [s.f1 for s in samples]
        assert 17.5 - 1e-9 <= min(f1s) and max(f1s) <= 18.0 + 1e-9
        bnd = [s for s in samples if abs(s.f1 - 17.5) <= 1e-6]
        assert len(bnd) >= 16
        assert max(abs(s.f1 - 17.5) for s in bnd) < 1e-8

    def test_positive_case_mirrored_range(self):
        h = default_cartan(2)
        samples = trace_thimble([(2, "+")], h, c_offset=0.5, directions=8,
                                rng=np.random.default_rng(2))
        f1c = potential(h, critical_points(2)[1]).real
        f1s = [s.f1 for s in samples]
        assert f1c - 1e-9 <= min(f1s) and max(f1s) <= f1c + 0.5 + 1e-9

    @pytest.mark.parametrize("n", range(1, 9))
    def test_seed_pairs_are_the_lines_of_graph_tangent_seeds(self, n):
        # the reference: the split line of xc + r v, v a unit vector of the
        # b_tau-orthonormal graph tangent frame at [e_j]
        rng = np.random.default_rng(70 + n)
        radii = np.geomspace(1e-5, 0.5, 5)
        for j, s in twists(n):
            g = m_j_pm(n, j, s)
            xc = critical_points(n)[j - 1]
            frame = np.array(graph_tangent_frame(xc, g.m_diag))
            coeffs = rng.standard_normal((3, 2 * n))
            coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
            lines = thimble.seed_lines(j, g.dim, coeffs, radii)
            want = [retract(xc.x + r * np.tensordot(c, frame, axes=1)).line
                    for c in coeffs for r in radii]
            assert lines.shape == (len(want), n + 1)
            assert np.abs(lines - np.array(want)).max() < 1e-14

    @pytest.mark.parametrize("n", range(1, 9))
    def test_seeds_lie_strictly_inside_the_level(self, n, monkeypatch):
        # the cap on the top radius, with no search, keeps every seed of every
        # definite graph strictly between f1([e_j]) and the level
        def seeds_only(lines, *_):
            return np.zeros((len(lines), 2)), np.zeros(len(lines))

        monkeypatch.setattr(thimble, "flow_to_level", seeds_only)
        rng = np.random.default_rng(80 + n)
        for _ in range(3):
            h = -np.cumsum(rng.uniform(0.1, 2.0, n + 1))
            h -= h.mean()
            for j, s in twists(n):
                f1_c = potential(h, critical_points(n)[j - 1]).real
                for c_offset in np.geomspace(1e-3, 30.0, 6):
                    level = f1_c - c_offset if s == "-" else f1_c + c_offset
                    seeds = trace_thimble([(j, s)], h, c_offset=c_offset, directions=16, rng=rng)
                    f1 = seeds.f1
                    assert ((f1 - level) * (f1_c - level) > 0).all()
                    assert ((f1_c - f1) * (f1_c - level) > 0).all()

    @pytest.mark.parametrize("j, sign", [(1, "-"), (2, "+")])
    def test_seeds_come_first_in_flow_order_inside_the_level(self, j, sign):
        h = default_cartan(2)
        directions, radii = 5, 3
        samples = trace_thimble([(j, sign)], h, c_offset=0.5, directions=directions, radii=radii,
                                rng=np.random.default_rng(12))
        seeds = samples[: directions * radii]
        f1c = potential(h, critical_points(2)[j - 1]).real
        c_level = f1c - 0.5 if sign == "-" else f1c + 0.5
        assert [s.flow_index for s in seeds] == list(range(directions * radii))
        for s in seeds:
            assert s.arc == 0.0
            assert s.seed_index == s.flow_index // radii
            assert (s.f1 - c_level) * (f1c - c_level) > 0

    @pytest.mark.parametrize("j, sign", [(1, "-"), (2, "+")])
    def test_landed_samples_come_last_in_flow_order_on_the_level(self, j, sign):
        h = default_cartan(2)
        directions, radii = 5, 3
        samples = trace_thimble([(j, sign)], h, c_offset=0.5, directions=directions, radii=radii,
                                rng=np.random.default_rng(12))
        landed = samples[-directions * radii:]
        f1c = potential(h, critical_points(2)[j - 1]).real
        c_level = f1c - 0.5 if sign == "-" else f1c + 0.5
        assert landed.flow_index.tolist() == list(range(directions * radii))
        assert (landed.seed_index == landed.flow_index // radii).all()
        assert (landed.arc > 0.0).all()
        assert np.abs(landed.f1 - c_level).max() <= 1e-12

    def test_lagrangian_of_traced_thimble(self):
        h = default_cartan(2)
        samples = trace_thimble([(1, "-")], h, c_offset=0.5, directions=16,
                                rng=np.random.default_rng(3))
        assert lagrangian_check(samples.line, m_j_pm(2, 1, "-").m_diag.real) < 1e-5

    def test_zero_section_thimble_isotropic(self):
        # rank one: the plain graph is the Hermitian locus, secants exact
        h0 = minimal_cartan(1)
        samples = trace_thimble([(1, "-")], h0, c_offset=0.5, directions=8,
                                rng=np.random.default_rng(4))
        assert lagrangian_check(samples.line, np.ones(2)) < 1e-6

    def test_boundary_matches_level_sphere_along_meridians(self):
        # rank one, plain graph: the flag is a round sphere and the height
        # flow lines are meridians, so the thimble boundary coincides with
        # the bisection level point along the same initial direction
        n = 1
        h0 = minimal_cartan(n)
        g = m_j_pm(n, 1, "-")
        xc = critical_points(n)[0]
        c_level = 8.0 - 0.5
        frame = graph_tangent_frame(xc, g.m_diag)
        rng = np.random.default_rng(5)
        for _ in range(6):
            coeff = rng.standard_normal(len(frame))
            coeff /= np.linalg.norm(coeff)
            v = sum(c * e for c, e in zip(coeff, frame))
            line = retract(xc.x + 1e-3 * v).line
            landed, _ = flow_to_level(line[None], h0, g.m_diag.real, c_level, 0.02, 4000)
            u = thimble.graph_lines(line, h0, g.m_diag.real, landed[0])
            # geodesic velocity [A, H0] must equal +v, so A solves [A, H0] = v
            direction = -ad_inverse(xc, v)
            q = vanishing_sphere_point(h0, c_level, direction)
            assert np.linalg.norm(assemble(u, g.m_diag * u) - q.x) < 1e-6

    def test_large_step_raises_step_size_error(self):
        from orbitflow.errors import StepSizeError

        h = default_cartan(2)
        g = m_j_pm(2, 1, "-")
        xc = critical_points(2)[0]
        frame = graph_tangent_frame(xc, g.m_diag)
        lines = np.array([retract(xc.x + 1e-2 * e).line for e in frame[:2]])
        with pytest.raises(StepSizeError, match="batch index"):
            flow_to_level(lines, h, g.m_diag.real, potential(h, xc).real - 0.5, 50.0, 10)

    def test_overflowing_step_raises_step_size_error(self):
        # a step of row 1 would move a log-modulus by hundreds, past the float
        # range of |u|^2; the stages read each line relative to its largest
        # entry, so the step guard refuses the step and names the row, with
        # no RuntimeWarning on the way
        from orbitflow.errors import StepSizeError

        n = 2
        h = default_cartan(n)
        g = m_j_pm(n, 1, "-")
        r0 = np.abs(thimble.seed_lines(1, g.dim, np.eye(2 * n)[:3], [0.1]))
        dt = np.array([[0.01], [1e3], [0.01]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match="batch index 1"):
                advance(np.zeros((3, 2)), _rule(h, g.m_diag.real, -1.0, r0), dt, None, h)
            with pytest.raises(StepSizeError, match="batch index 0"):
                flow_to_level(r0, h, g.m_diag.real,
                              line_height(h, g.m_diag.real, np.eye(n + 1)[0]) - 0.5, 1e3, 10)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_landing_does_not_depend_on_the_batch(self, n):
        h, g, lines, c = _graph_seed_stack(n)
        step = _hessian_step(h, 1)
        last_step = np.zeros(len(lines), dtype=int)
        steps = [0]

        def visit(indices, *_):
            steps[0] += 1
            last_step[indices] = steps[0]

        landed, arcs = flow_to_level(lines, h, g.m_diag.real, c, step, 4000, visit)
        crossing = last_step + 1
        # some flows cross in the same step as another, and some alone
        counts = np.bincount(crossing)[crossing]
        assert (counts > 1).any() and (counts == 1).any()
        for k in range(len(lines)):
            alone, arc = flow_to_level(lines[k:k + 1], h, g.m_diag.real, c, step, 4000)
            assert np.array_equal(alone[0], landed[k])
            assert np.array_equal(arc[0], arcs[k])

    def test_mixed_twist_rows_land_as_when_they_flow_alone(self):
        # every step reuses the field at the stepped state of the rows that
        # did not cross as its first RK4 stage; on m_3^+ at n = 4 each of 12
        # rows of a stack whose rows cross at different steps, each by its
        # own chart distance, lands bit for bit as when it flows alone
        n, j = 4, 3
        h, g = default_cartan(n), m_j_pm(n, j, "+")
        dirs = np.random.default_rng(40).standard_normal((3, 2 * n))
        lines = thimble.seed_lines(j, n + 1, dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                                   np.geomspace(1e-4, 0.1, 4))
        c = line_height(h, g.m_diag.real, np.eye(n + 1)[j - 1]) + 0.4
        last_step = np.zeros(len(lines), dtype=int)
        steps = [0]

        def visit(indices, *_):
            steps[0] += 1
            last_step[indices] = steps[0]

        landed, arcs = flow_to_level(lines, h, g.m_diag.real, c, None, 4000, visit, 0.03)
        assert len(lines) == 12 and len(set(last_step.tolist())) > 1
        for k in range(len(lines)):
            alone, arc = flow_to_level(lines[k:k + 1], h, g.m_diag.real, c, None, 4000,
                                       record_sep=0.03)
            assert np.array_equal(alone[0], landed[k])
            assert np.array_equal(arc[0], arcs[k])

    def test_failed_landing_names_the_flow(self, monkeypatch):
        monkeypatch.setattr(thimble, "LEVEL_ITERATIONS", 1)
        h, g, lines, c = _graph_seed_stack(4, directions=3)
        step = _hessian_step(h, 1)
        pattern = r"\|f1 - c\| = (\S+) at batch index (\d+)"
        with pytest.raises(GraphIntegrityError, match=pattern) as err:
            flow_to_level(lines, h, g.m_diag.real, c, step, 4000)
        miss, k = re.search(pattern, str(err.value)).groups()
        k = int(k)
        assert k < len(lines)
        alone = []
        for i in range(len(lines)):
            with pytest.raises(GraphIntegrityError, match=pattern) as one:
                flow_to_level(lines[i:i + 1], h, g.m_diag.real, c, step, 4000)
            alone.append(re.search(pattern, str(one.value)).group(1))
        # the named flow fails alone with the same miss, the worst of all
        assert alone[k] == miss
        assert float(miss) == max(float(a) for a in alone)

    def test_trace_lands_every_flow_in_one_solve(self, monkeypatch):
        calls = {"cross_level": 0, "loop": 0, "landing": 0}
        landing = [False]
        cross_level, advance = thimble.cross_level, thimble.advance

        def counting_cross_level(*args):
            calls["cross_level"] += 1
            landing[0] = True
            try:
                return cross_level(*args)
            finally:
                landing[0] = False

        def counting_advance(*args):
            calls["landing" if landing[0] else "loop"] += 1
            return advance(*args)

        monkeypatch.setattr(thimble, "cross_level", counting_cross_level)
        monkeypatch.setattr(thimble, "advance", counting_advance)
        trace_thimble([(1, "-")], default_cartan(4), c_offset=0.4, directions=6, radii=3,
                      rng=np.random.default_rng(13))
        # advance calls outside the landing are the stepping-loop iterations
        assert calls["cross_level"] == 1
        assert calls["loop"] > 0
        assert calls["landing"] <= thimble.LEVEL_ITERATIONS

    def test_scalar_twists_evaluate_the_field_once_per_step(self, monkeypatch):
        # on m_1^- at n = 8 the stages of every RK4 step are its first: one
        # field evaluation at the seeds, one per loop step and one per Newton
        # step, whose first also gives the base rate that each Newton step
        # starts from; the mixed-sign m_3^+ at n = 4 keeps four per step
        calls = {"rate": 0, "loop": 0, "newton": 0, "guarded": 0}
        landing = [False]
        line_rate, rk4_step = thimble._line_rate, thimble.rk4_step
        cross_level, advance = thimble.cross_level, thimble.advance

        def counting_line_rate(*args):
            calls["rate"] += 1
            return line_rate(*args)

        def counting_rk4_step(*args):
            calls["newton"] += 1  # called only by cross_level
            return rk4_step(*args)

        def counting_cross_level(*args):
            landing[0] = True
            try:
                return cross_level(*args)
            finally:
                landing[0] = False

        def counting_advance(*args):
            calls["guarded" if landing[0] else "loop"] += 1
            return advance(*args)

        for name, fn in (("_line_rate", counting_line_rate), ("rk4_step", counting_rk4_step),
                         ("cross_level", counting_cross_level), ("advance", counting_advance)):
            monkeypatch.setattr(thimble, name, fn)
        # at step 0.45 the m_1^- trace of seed 0 lands a row from phi_guard,
        # whose guarded step evaluates the field per_step - 1 more times
        for n, j, sign, offset, step, seed, per_step in ((8, 1, "-", 0.5, None, 5, 1),
                                                         (8, 1, "-", 0.5, 0.45, 0, 1),
                                                         (4, 3, "+", 0.4, None, 5, 4)):
            calls.update(rate=0, loop=0, newton=0, guarded=0)
            trace_thimble([(j, sign)], default_cartan(n), c_offset=offset, directions=16, step=step,
                          rng=np.random.default_rng(seed))
            assert calls["loop"] > 0 and calls["newton"] > 0, calls
            assert (calls["guarded"] > 0) == (step is not None), calls
            want = (1 + per_step * (calls["loop"] + calls["newton"])
                    + (per_step - 1) * calls["guarded"])
            assert calls["rate"] == want, (n, calls)
            if step is None and n == 8:
                assert calls["rate"] == 27, calls  # 109 with four stages in every step

    @pytest.mark.parametrize("n, j, sign", SCALAR_TWISTS)
    def test_scalar_twists_record_between_one_and_two_record_seps(self, n, j, sign):
        # each step moves the chart point 0.45 record_sep at its starting speed
        samples = trace_thimble([(j, sign)], default_cartan(n), c_offset=0.5, directions=8,
                                rng=np.random.default_rng(0))
        flows = samples[:-8 * 8]  # the landed rows come last
        m = m_j_pm(n, j, sign).m_diag.real
        for f in np.unique(flows.flow_index):
            line = flows.line[flows.flow_index == f]
            x = assemble(line, m * line)
            gaps = np.linalg.norm(np.diff(x, axis=0), axis=(1, 2))
            assert gaps.min() >= 0.03 * (1 - 1e-9) and gaps.max() <= 0.06, f

    @pytest.mark.parametrize("n, j, sign", [(8, 1, "-"), (3, 4, "+")])
    def test_scalar_twist_seeds_escape_within_eight_steps(self, n, j, sign):
        # RK4 is exact on m = 1 (m_1^- at n = 8) and m = -1 (m_4^+ at n = 3),
        # so steps capped at phi_guard grow: seeds of radius 1e-4 make their
        # first record within 8 loop steps (16 to 20 at phi_guard)
        h, g = default_cartan(n), m_j_pm(n, j, sign)
        m = g.m_diag.real
        dirs = np.random.default_rng(5).standard_normal((8, 2 * n))
        lines = thimble.seed_lines(j, n + 1, dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                                   [1e-4])
        c = line_height(h, m, np.eye(n + 1)[j - 1]) + (0.5 if sign == "+" else -0.5)
        first, steps = np.zeros(len(lines), dtype=int), [0]

        def visit(indices, states, arcs, r):
            steps[0] += 1
            far = indices[pair_gap(m, r, np.abs(lines[indices])) >= 0.03]
            first[far[first[far] == 0]] = steps[0]

        flow_to_level(lines, h, g.m_diag.real, c, None, 4000, visit, 0.03)
        assert (first > 0).all() and first.max() <= 8, first

    def test_a_flow_at_rest_keeps_the_guard_step(self):
        # a line at [e_1] has no speed: its grown step is not finite, so it
        # steps phi_guard and fails to reach the level, as on a mixed twist
        h, g = default_cartan(2), m_j_pm(2, 1, "-")
        c = line_height(h, 1.0, np.eye(3)[0]) - 0.5
        with pytest.raises(GraphIntegrityError, match="1 flows failed to reach the level in 5 "
                                                      r"steps: \|f1 - c\| = 5\.000e-01"):
            flow_to_level(np.eye(3, dtype=complex)[:1], h, g.m_diag.real, c, None, 5,
                          record_sep=0.03)

    @pytest.mark.parametrize("n, j, sign", SCALAR_TWISTS)
    def test_scalar_twists_take_at_most_half_the_steps_of_the_fixed_grid(self, n, j, sign,
                                                                         monkeypatch):
        h = default_cartan(n)
        loops = [_loop_advances(monkeypatch, j, sign, h, step)
                 for step in (None, _hessian_step(h, j))]
        assert 0 < loops[0] <= loops[1] / 2, loops

    @pytest.mark.parametrize("n, j, sign, step", [(8, 1, "-", 0.2), (3, 4, "+", 0.05)])
    def test_fixed_grids_record_at_multiples_of_the_step(self, n, j, sign, step):
        # any twist at an explicit step
        h = default_cartan(n)
        samples = trace_thimble([(j, sign)], h, c_offset=0.4, directions=4, step=step,
                                rng=np.random.default_rng(1))
        arcs = samples.arc[:-4 * 8]  # the landed rows come last
        assert (arcs > 0).any()
        np.testing.assert_allclose(arcs, np.round(arcs / step) * step, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 8])
    def test_chart_steps_do_not_depend_on_the_batch(self, n):
        h, g, lines, c = _graph_seed_stack(n)
        landed, arcs = flow_to_level(lines, h, g.m_diag.real, c, None, 4000, record_sep=0.03)
        for k in range(0, len(lines), 5):
            alone, arc = flow_to_level(lines[k:k + 1], h, g.m_diag.real, c, None, 4000,
                                       record_sep=0.03)
            assert np.array_equal(alone[0], landed[k]) and np.array_equal(arc[0], arcs[k])

    def test_landing_steps_stay_inside_the_guard(self, monkeypatch):
        # at step 0.45 no loop step of m_1^- at n = 8 moves phi by more than
        # 0.4, but Newton's first landing step would move a row by 0.51: that
        # row lands from the step phi_guard instead of raising StepSizeError
        h, sizes = default_cartan(8), []
        rk4_step = thimble.rk4_step

        def recording(*args):
            out = rk4_step(*args)
            sizes.append(out[1].max())
            return out

        monkeypatch.setattr(thimble, "rk4_step", recording)
        samples = trace_thimble([(1, "-")], h, c_offset=0.5, directions=16, step=0.45,
                                rng=np.random.default_rng(0))
        assert max(sizes) > DRIFT_LIMIT
        level = line_height(h, 1.0, np.eye(9)[0]) - 0.5
        landed = samples[-16 * 8:]
        assert np.abs(landed.f1 - level).max() <= 1e-9
        assert (np.bincount(landed.seed_index, minlength=16) == 8).all()

    @pytest.mark.parametrize("n, j, sign", [(2, 1, "-"), (8, 1, "-"), (3, 4, "+")])
    def test_scalar_twist_samples_are_exact_torus_orbits(self, n, j, sign):
        # on m = 1 (m_1^- at n = 2, 8) and m = -1 (m_4^+ at n = 3) the flow
        # is u(t) ~ u_seed exp(orient t h / d) in closed form, which RK4 on
        # the log-moduli meets at any step
        h = default_cartan(n)
        samples = trace_thimble([(j, sign)], h, c_offset=0.5, directions=8,
                                rng=np.random.default_rng(0))
        seeds = {s.flow_index: s.line for s in samples if s.arc == 0.0}
        orient = 1.0 if sign == "+" else -1.0
        for s in samples:
            expo = orient * s.arc * h / (n + 1)
            want = seeds[s.flow_index] * np.exp(expo - expo.max())
            want /= np.linalg.norm(want)
            phase = np.vdot(want, s.line)
            assert np.abs(s.line - phase / abs(phase) * want).max() < 1e-13

    def test_mixed_twist_samples_keep_phases_and_the_seed_surface(self):
        # on m_3^+ at n = 4 every sample is u_seed exp(A h m + B m + C), A, B,
        # C real: the phases of u / u_seed agree and the log-moduli fit
        # span{h m, m, 1} to rounding
        n = 4
        h = default_cartan(n)
        m = m_j_pm(n, 3, "+").m_diag.real
        samples = trace_thimble([(3, "+")], h, c_offset=0.4, directions=8,
                                rng=np.random.default_rng(0))
        seeds = {s.flow_index: s.line for s in samples if s.arc == 0.0}
        basis = np.stack([h * m, m, np.ones(n + 1)], axis=1)
        for s in samples:
            q = s.line / seeds[s.flow_index]
            assert np.abs(np.angle(q * q[np.argmax(np.abs(q))].conj())).max() < 1e-14
            logs = np.log(np.abs(q))
            coef = np.linalg.lstsq(basis, logs, rcond=None)[0]
            assert np.abs(basis @ coef - logs).max() < 1e-13

    def test_lagrangian_check_on_single_flow_line(self):
        h = default_cartan(2)
        samples = trace_thimble([(1, "-")], h, c_offset=0.4, directions=1, radii=1,
                                rng=np.random.default_rng(6))
        line = samples.line[samples.flow_index == 0]
        assert len(line) >= 3
        assert lagrangian_check(line, m_j_pm(2, 1, "-").m_diag.real) < 1e-6

    def test_lagrangian_check_rejects_a_cloud_of_rounding(self):
        # copies of one sample a few ulps apart leave only rounding secants
        h = default_cartan(2)
        line = trace_thimble([(1, "-")], h, c_offset=0.4, directions=1, radii=1,
                             rng=np.random.default_rng(6)).line[-1]
        eps = np.finfo(float).eps
        copies = line * (1.0 + np.arange(5) * eps)[:, None]
        with pytest.raises(ValueError, match="rounding"):
            lagrangian_check(copies, m_j_pm(2, 1, "-").m_diag.real)

    def test_json_and_csv_dumps(self):
        h = default_cartan(2)
        samples = trace_thimble([(1, "-")], h, c_offset=0.3, directions=2, radii=2,
                                rng=np.random.default_rng(8))
        twist = m_j_pm(2, 1, "-").m_diag.real
        blob = json.loads(thimble_json(samples, {"j": 1, "sign": "-"}, twist))
        assert blob["meta"] == {"j": 1, "sign": "-", "twist": twist.tolist()}
        assert len(blob["samples"]) == len(samples)
        assert set(blob["samples"][0]) == {"n", "line", "f1", "f2", "graph_residual",
                                           "seed_index", "arc"}
        for rec, s in zip(blob["samples"], samples):
            back = OrbitPoint.from_json(rec, blob["meta"]["twist"])
            assert np.array_equal(back.line, s.line) and np.array_equal(back.normal, twist * s.line)
            assert potential(h, back).real == rec["f1"] and potential(h, back).imag == rec["f2"]
        csv = thimble_csv(samples).splitlines()
        assert csv[0] == "seed_index,arc,f1,f2,graph_residual"
        assert len(csv) == len(samples) + 1

    @pytest.mark.parametrize("n, j, sign", [(2, 1, "-"), (4, 3, "+")])
    def test_json_and_csv_are_the_text_of_the_record_dicts(self, n, j, sign):
        # json.dumps of meta and orjson's text of one dict per sample, and
        # f-strings of the CSV columns, non-finite values included; JSON holds
        # no non-finite value, so the writer refuses one in a sample, naming
        # the sample and the key; meta keeps integers of any size
        import orjson

        samples = trace_thimble([(j, sign)], default_cartan(n), c_offset=0.4, directions=3, radii=2,
                                rng=np.random.default_rng(4))
        twist = m_j_pm(n, j, sign).m_diag.real
        meta = {"config": {"n": n, "seed": 2**64}, "x": [0.1, 2]}

        def records():
            return [{"n": n, "line": np.stack([s.line.real, s.line.imag], -1).tolist(),
                     "f1": float(s.f1), "f2": float(s.f2),
                     "graph_residual": float(s.graph_residual), "seed_index": int(s.seed_index),
                     "arc": float(s.arc)} for s in samples]

        head = json.dumps({**meta, "twist": twist.tolist()})
        want = f'{{"meta": {head}, "samples": {orjson.dumps(records()).decode()}}}'
        assert thimble_json(samples, meta, twist) == want
        for key, k, value in (("f1", 1, np.nan), ("f2", 2, np.inf), ("arc", 3, -np.inf),
                              ("graph_residual", 4, np.nan), ("line", 5, np.nan)):
            saved = samples[key][k].copy()
            samples[key][k] = value
            with pytest.raises(ValueError, match=rf"^sample {k}: {key} is not finite"):
                thimble_json(samples, meta, twist)
            samples[key][k] = saved
        samples.f1[1], samples.f2[2], samples.arc[3] = np.nan, np.inf, -np.inf
        rows = "".join(f"{r['seed_index']},{r['arc']:.17g},{r['f1']:.17g},{r['f2']:.17g},"
                       f"{r['graph_residual']:.17g}\n" for r in records())
        assert thimble_csv(samples) == "seed_index,arc,f1,f2,graph_residual\n" + rows

    @pytest.mark.parametrize("n, j, sign", [(2, 1, "-"), (4, 3, "+"), (3, 4, "+")])
    def test_json_reloads_every_sample_through_the_twist(self, n, j, sign):
        # m_1^- at n = 2 (m = 1), the mixed m_3^+ at n = 4 and m_4^+ at
        # n = 3 (m = -1): each record's line and the file's twist give back
        # the traced chart point bit for bit, as its f1 and f2 read
        h = default_cartan(n)
        samples = trace_thimble([(j, sign)], h, c_offset=0.4, directions=4, radii=3,
                                rng=np.random.default_rng(9))
        blob = json.loads(thimble_json(samples, {}, m_j_pm(n, j, sign).m_diag.real))
        back = potential(h, np.array([OrbitPoint.from_json(rec, blob["meta"]["twist"]).x
                                      for rec in blob["samples"]]))
        assert np.array_equal(back.real, samples.f1) and np.array_equal(back.imag, samples.f2)

    def test_trace_is_one_record_per_sample(self):
        # the contract a caller counts through: len() and .flow_index of rows
        directions, radii = 3, 2
        samples = trace_thimble([(1, "-")], default_cartan(2), c_offset=0.4, directions=directions,
                                radii=radii, rng=np.random.default_rng(15))
        assert isinstance(samples, np.recarray)
        assert len(samples) == len(samples.f1) > directions * radii
        assert {s.flow_index for s in samples} == set(range(directions * radii))
        # a sample is its unit line: the chart point is not kept
        assert samples.line.shape == (len(samples), 3) and "x" not in samples.dtype.names

    def test_rank_four_traces_every_point_both_signs(self):
        h = default_cartan(4)
        rng = np.random.default_rng(10)
        for j in (1, 2, 3, 4, 5):
            for s in ("+", "-"):
                samples = trace_thimble([(j, s)], h, c_offset=0.4, directions=4,
                                        radii=3, rng=rng)
                assert max(x.graph_residual for x in samples) < 1e-6
                assert max(abs(x.f2) for x in samples) < 1e-8
                assert lagrangian_check(samples.line, m_j_pm(4, j, s).m_diag.real) < 1e-5

    def test_integrity_error_reports_worst_sample(self, monkeypatch):
        h = default_cartan(2)
        monkeypatch.setattr(thimble, "RESIDUAL_LIMIT", 0.0)
        with pytest.raises(GraphIntegrityError, match="residual"):
            trace_thimble([(1, "-")], h, c_offset=0.3, directions=2, radii=2,
                          rng=np.random.default_rng(11))

    @pytest.mark.parametrize("name", ["graph_membership", "potential"])
    def test_a_non_finite_sample_raises_naming_its_seed(self, name, monkeypatch):
        # a NaN residual or f1 is not below any limit: sample 5, the seed of
        # flow 5 (the seeds come first), is refused, naming seed 5 // radii = 2
        computed = getattr(thimble, name)

        def planting(*args):
            out = computed(*args).copy()
            out[5] = np.nan
            return out

        monkeypatch.setattr(thimble, name, planting)
        want = r"residual nan at seed 2," if name == "graph_membership" else r"at seed 2, f1=nan"
        with pytest.raises(GraphIntegrityError, match=want):
            trace_thimble([(1, "-")], default_cartan(2), c_offset=0.3, directions=3, radii=2,
                          rng=np.random.default_rng(11))



def _twist_seeds(n, j, sign, h, rng, radii):
    """Seed lines of three random directions at [e_j] at the fractions
    ``radii`` of the trace's top radius, the graph's m and the level 0.4 from
    f1([e_j])."""
    m = m_j_pm(n, j, sign).m_diag.real
    dirs = rng.standard_normal((3, 2 * n))
    r_top = min(0.5, np.sqrt(1.8 * 0.4 / thimble._unit_rate(h, j)))
    lines = thimble.seed_lines(j, n + 1, dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                               r_top * np.asarray(radii))
    c = line_height(h, m, np.eye(n + 1)[j - 1]) + (0.4 if sign == "+" else -0.4)
    return lines, m, c


class TestTwoScalarRule:
    """Every +/-1-graph flow steps (s, B) of its lines u0 e^{m (h s - B)}: the
    same flows as RK4 on the d log-moduli of the rules it reduces."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
    def test_landings_are_those_of_the_log_moduli_rule(self, n):
        # on an explicit grid, every twist, against helpers.phi_landing
        h = default_cartan(n)
        rng = np.random.default_rng(90 + n)
        for j, s in twists(n):
            lines, m, c = _twist_seeds(n, j, s, h, rng, [1e-3, 0.5])
            step = _hessian_step(h, j)
            landed, _ = flow_to_level(lines, h, m_j_pm(n, j, s).m_diag.real, c, step, 4000)
            want = phi_landing(np.abs(lines), h, m, c, step)
            gap = pair_gap(m, thimble.graph_lines(np.abs(lines), h, m, landed), want)
            assert gap.max() < 1e-11, (j, s, gap.max())

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
    def test_z_rows_of_integrate_are_those_of_the_log_moduli_rule(self, n):
        # every twist, +Z on m_j^+ and -Z on m_j^-, 40 steps of the thimble
        # suite's step, against RK4 of helpers.phi_rate at each step
        from orbitflow.flow import default_step, integrate

        h = default_cartan(n)
        dt = 30.0 * default_step(n, h)
        rng = np.random.default_rng(100 + n)
        for j, s in twists(n):
            lines, m, _ = _twist_seeds(n, j, s, h, rng, [0.1, 0.5])
            orient = 1.0 if s == "+" else -1.0
            traj = integrate(np.stack([lines, m * lines], axis=1), h,
                             "forward" if s == "+" else "backward", step=dt, max_steps=40,
                             conv_tol=0.0)
            rate, phi = phi_rate(h, m, orient, np.abs(lines), z=True), np.zeros(lines.shape)
            assert (traj.steps == 40).all()
            for k in range(1, 41):
                phi = phi_rk4(phi, rate, dt)
                gap = pair_gap(m, traj.lines[k], lines * np.exp(phi - phi.max(-1, keepdims=True)))
                assert gap.max() < 1e-11, (j, s, k, gap.max())

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_mixed_twists_step_by_chart_distance(self, n, monkeypatch):
        # landings within 1e-8 of a grid of 1/20 of the Hessian step, in no
        # more loop steps than that step takes
        h = default_cartan(n)
        rng = np.random.default_rng(110 + n)
        for j, s in twists(n):
            g = m_j_pm(n, j, s)
            if not np.ptp(g.m_diag.real):
                continue
            lines, m, c = _twist_seeds(n, j, s, h, rng, [1e-3, 0.1, 1.0])
            landed, _ = flow_to_level(lines, h, g.m_diag.real, c, None, 4000, record_sep=0.03)
            fine, _ = flow_to_level(lines, h, g.m_diag.real, c, _hessian_step(h, j) / 20, 4000)
            gap = pair_gap(m, *(thimble.graph_lines(lines, h, m, a) for a in (landed, fine)))
            assert gap.max() < 1e-8, (j, s, gap.max())
            loops = [_loop_advances(monkeypatch, j, s, h, step)
                     for step in (None, _hessian_step(h, j))]
            assert 0 < loops[0] <= loops[1], (j, s, loops)

    def test_step_limit_names_the_flow_furthest_from_the_level(self):
        h, g, lines, c = _graph_seed_stack(4, directions=3)
        step, m = _hessian_step(h, 1), g.m_diag.real
        miss = {}

        def visit(indices, states, arcs, r):
            miss.update(zip(indices.tolist(), np.abs(line_height(h, m, r) - c)))

        pattern = (r"(\d+) flows failed to reach the level in 3 steps: "
                   r"\|f1 - c\| = (\S+) at batch index (\d+)")
        with pytest.raises(GraphIntegrityError, match=pattern) as err:
            flow_to_level(lines, h, g.m_diag.real, c, step, 3, visit)
        count, worst, k = re.search(pattern, str(err.value)).groups()
        assert int(count) == len(miss) == len(lines)
        assert int(k) == max(miss, key=miss.get) and worst == f"{miss[int(k)]:.3e}"
        # the named flow fails alone with the same miss
        with pytest.raises(GraphIntegrityError, match=pattern) as one:
            flow_to_level(lines[int(k):int(k) + 1], h, g.m_diag.real, c, step, 3)
        assert re.search(pattern, str(one.value)).groups() == ("1", worst, "0")


class TestRowTwists:
    """m and the level are row data: one stack of flows may mix twists and
    levels, and each row flows bit for bit as it does alone."""

    # a mixed-sign and a scalar twist at odd and even n: m_2^+ and m_4^+ (m =
    # -1) at n = 3, m_1^- (m = 1) and m_3^+ at n = 4
    STACKS = [(3, [(2, "+"), (4, "+")]), (4, [(1, "-"), (3, "+")])]

    @pytest.mark.parametrize("n, stack", STACKS)
    @pytest.mark.parametrize("explicit", (False, True))
    def test_each_twist_of_a_stack_traces_as_alone(self, n, stack, explicit):
        h = default_cartan(n)
        directions, radii = 4, 3
        step = min(_hessian_step(h, j) for j, _ in stack) if explicit else None
        kwargs = dict(c_offset=0.4, directions=directions, radii=radii, step=step)
        stacked = trace_thimble(stack, h, rng=np.random.default_rng(7), **kwargs)
        rng = np.random.default_rng(7)  # the same draws, twist by twist in list order
        alone = [trace_thimble([twist], h, rng=rng, **kwargs) for twist in stack]
        assert stacked.dtype.names == alone[0].dtype.names
        assert len(stacked) == sum(len(a) for a in alone)
        for t, one in enumerate(alone):
            block = stacked[stacked.twist == t]
            offset = t * directions * radii
            for name in stacked.dtype.names:
                want = {"twist": one.twist + t, "flow_index": one.flow_index + offset,
                        "seed_index": one.seed_index + offset // radii}.get(name, one[name])
                assert np.array_equal(block[name], want), (t, name)
            assert (one.twist == 0).all()

    def test_each_row_lands_on_its_own_level(self):
        # one level per row of one twist, and per row of a stack of two twists
        n = 4
        h = default_cartan(n)
        rng = np.random.default_rng(21)
        lines, m, c = _twist_seeds(n, 3, "+", h, rng, [1e-3, 0.5])
        more, m_more, c_more = _twist_seeds(n, 1, "-", h, rng, [1e-3, 0.5])
        lines, m = np.concatenate([lines, more]), np.stack([m] * 6 + [m_more] * 6)
        c = np.concatenate([c + np.linspace(0.0, 0.3, 6), c_more - np.linspace(0.0, 0.3, 6)])
        for step in (None, 0.05):
            landed, arcs = flow_to_level(lines, h, m, c, step, 4000, record_sep=0.03)
            heights = line_height(h, m, thimble.graph_lines(np.abs(lines), h, m, landed))
            assert np.abs(heights - c).max() <= 1e-9
            for k in range(len(lines)):
                alone, arc = flow_to_level(lines[k:k + 1], h, m[k], c[k], step, 4000,
                                           record_sep=0.03)
                assert np.array_equal(alone[0], landed[k]) and arc[0] == arcs[k], (step, k)

    def test_advance_names_the_limit_of_the_failing_row(self):
        # rows 0 and 1 move by more than 0.5 and row 2 by more than 1e-3; the
        # error names the first row past its own limit, and that limit
        from orbitflow.errors import StepSizeError

        n = 2
        h = default_cartan(n)
        m = m_j_pm(n, 1, "-").m_diag.real
        r0 = np.abs(thimble.seed_lines(1, n + 1, np.eye(2 * n)[:3], [0.1]))
        dt = np.array([[1.0], [1.0], [0.01]])
        rule = _rule(h, m, -1.0, r0)
        _, size = thimble.rk4_step(np.zeros((3, 2)), rule, dt, None, h)
        assert size[1] > 0.5 and 1e-3 < size[2] < 0.5
        with pytest.raises(StepSizeError, match=r"exceeds 0\.5 \(batch index 1\)"):
            advance(np.zeros((3, 2)), rule, dt, None, h, np.array([np.inf, 0.5, np.inf]))
        with pytest.raises(StepSizeError, match=r"exceeds 0\.001 \(batch index 2\)"):
            advance(np.zeros((3, 2)), rule, dt, None, h, np.array([np.inf, np.inf, 1e-3]))


# the thimble command's three configurations: m_1^- at n = 8, the mixed-sign
# m_3^+ at n = 4 and m_4^+ at n = 3, where m = -1
COMMAND_TRACES = [(8, 1, "-", 0.5, 16), (4, 3, "+", 0.4, 8), (3, 4, "+", 0.5, 8)]


@functools.lru_cache(maxsize=None)
def _command_trace(n, j, sign, c_offset, directions):
    samples = trace_thimble([(j, sign)], default_cartan(n), c_offset=c_offset,
                            directions=directions, rng=np.random.default_rng(0))
    return samples, m_j_pm(n, j, sign).m_diag.real


@pytest.mark.parametrize("cfg", COMMAND_TRACES, ids=lambda cfg: f"n{cfg[0]}-j{cfg[1]}")
def test_json_floats_reload_bit_for_bit(cfg):
    # every float of the text reads back as the traced double; the traces
    # hold f2 = 0.0, and every other f2 is negated so that -0.0 is read too
    samples, m = _command_trace(*cfg)
    samples = samples.copy()
    samples.f2[::2] *= -1.0
    assert np.signbit(samples.f2[samples.f2 == 0.0]).any()
    blob = json.loads(thimble_json(samples, {}, m))["samples"]
    lines = np.array([rec["line"] for rec in blob])
    assert lines.tobytes() == np.ascontiguousarray(samples.line).tobytes()
    for key in ("f1", "f2", "graph_residual", "arc"):
        back = np.array([rec[key] for rec in blob])
        assert back.tobytes() == np.ascontiguousarray(samples[key]).tobytes(), key
    assert [rec["seed_index"] for rec in blob] == samples.seed_index.tolist()


class TestLagrangianCheck:
    """The neighbour search in graph coordinates and the blocked secant Grams."""

    @pytest.mark.parametrize("cfg", COMMAND_TRACES, ids=lambda cfg: f"n{cfg[0]}-j{cfg[1]}")
    def test_matches_the_ambient_search(self, cfg, monkeypatch):
        # the 2d real coordinates of the lines find the neighbours that all
        # 2 d^2 real coordinates of the chart points find at 99 % of samples
        # or more, and both values read only rounding
        import scipy.spatial

        samples, m = _command_trace(*cfg)
        found = []

        class RecordingTree(scipy.spatial.cKDTree):
            def query(self, *args, **kwargs):
                out = super().query(*args, **kwargs)
                found.append(out[1])
                return out

        monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
        value = lagrangian_check(samples.line, m)
        monkeypatch.undo()
        idx, want = ambient_lagrangian_check(assemble(samples.line, m * samples.line))
        assert len(found) == 1
        same = (np.sort(found[0], axis=1) == np.sort(idx, axis=1)).all(axis=1)
        assert same.mean() >= 0.99, same.mean()
        assert value <= 1e-15 and want <= 1e-15, (value, want)

    def test_blocks_give_the_one_shot_value(self, monkeypatch):
        # the n = 8 trace spans several blocks of secant Grams
        samples, m = _command_trace(*COMMAND_TRACES[0])
        assert len(samples) > 2 * thimble.GRAM_BLOCK
        blocked = lagrangian_check(samples.line, m)
        for size in (len(samples), 7):
            monkeypatch.setattr(thimble, "GRAM_BLOCK", size)
            assert lagrangian_check(samples.line, m) == blocked

    @pytest.mark.parametrize("n", range(2, 9))
    def test_graph_points_are_fixed_by_the_involution(self, n):
        # what lagrangian_check assembles, assemble(u, m u), is fixed bit for
        # bit by x -> m x^H m for every +/-1 diagonal m, scalar or mixed, so
        # the secant Grams are real up to their own rounding
        rng = np.random.default_rng(n)
        u = rng.standard_normal((16, n + 1)) + 1j * rng.standard_normal((16, n + 1))
        u[:4, 0] = 0.0  # entries that are zero
        u[4:8] = u[4:8].real  # real lines
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        for m in itertools.product((1.0, -1.0), repeat=n + 1):
            m = np.array(m)
            x = assemble(u, m * u)
            assert np.array_equal(x, m[:, None] * x.conj().swapaxes(-1, -2) * m), m

    def test_rejects_malformed_lines_or_m(self):
        samples, m = _command_trace(*COMMAND_TRACES[1])
        lines = samples.line
        bad_line = lines.copy()
        bad_line[5, 2] = np.nan
        for args, match in (((lines[:, :-1], m), r"shape \(\d+, 4\) and m of shape \(5,\)"),
                            ((lines[None], m), r"need \(samples, d\) and \(d,\)"),
                            ((lines, m[None]), r"m of shape \(1, 5\)"),
                            ((bad_line, m), r"^line 5 is not finite"),
                            ((lines, np.where(m > 0, 1.0, 0.5)), r"not \+/-1"),
                            ((lines, 1j * m), r"not \+/-1"),
                            ((lines[:2], m), r"at least three samples")):
            with pytest.raises(ValueError, match=match):
                lagrangian_check(*args)
