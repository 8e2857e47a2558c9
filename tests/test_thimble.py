"""Kaehler gradients, F/G restriction, thimble tracing and isotropy checks."""

import warnings

import numpy as np
import pytest

from orbitflow.cycles import vanishing_sphere_point
from orbitflow.errors import DensityWarning, MembershipError, NearCriticalError
from orbitflow.flow import ad_inverse, symmetrize
from orbitflow.graphs import GraphSpec, graph_point, graph_tangent_frame, identity_graph, m_j_pm
from orbitflow.liecore import (
    b_norm,
    b_tau,
    cartan_matrix,
    default_cartan,
    minimal_cartan,
    omega,
)
from orbitflow.orbit import critical_points, potential, retract
from orbitflow.thimble import (
    boundary_samples,
    fg_decomposition_check,
    flow_to_level,
    horizontal_lift_check,
    kaehler_gradients,
    lagrangian_check,
    thimble_csv,
    thimble_json,
    trace_thimble,
)
from orbitflow.util import random_unit_vector, gram_schmidt_real
from orbitflow.verification import random_orbit_point, random_tangent


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
        frame = graph_tangent_frame(pt, g)
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
            frame = graph_tangent_frame(pt, g)
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


class TestTraceThimble:
    def test_tiny_offset_degenerates_to_point(self):
        h = default_cartan(2)
        samples = trace_thimble(1, "-", h, c_offset=1e-6, directions=4, radii=2,
                                rng=np.random.default_rng(0))
        xc = critical_points(2)[0].x
        assert max(np.linalg.norm(s.point.x - xc) for s in samples) < 5e-3

    def test_negative_case_rank_two(self):
        h = default_cartan(2)
        samples = trace_thimble(1, "-", h, c_offset=0.5, directions=16,
                                rng=np.random.default_rng(1))
        assert max(s.graph_residual for s in samples) < 1e-6
        assert max(abs(s.f2) for s in samples) < 1e-8
        f1s = [s.f1 for s in samples]
        assert 17.5 - 1e-9 <= min(f1s) and max(f1s) <= 18.0 + 1e-9
        bnd = boundary_samples(samples, 17.5)
        assert len(bnd) >= 16
        assert max(abs(s.f1 - 17.5) for s in bnd) < 1e-8

    def test_positive_case_mirrored_range(self):
        h = default_cartan(2)
        samples = trace_thimble(2, "+", h, c_offset=0.5, directions=8,
                                rng=np.random.default_rng(2))
        f1c = potential(h, critical_points(2)[1]).real
        f1s = [s.f1 for s in samples]
        assert f1c - 1e-9 <= min(f1s) and max(f1s) <= f1c + 0.5 + 1e-9

    def test_lagrangian_of_traced_thimble(self):
        h = default_cartan(2)
        samples = trace_thimble(1, "-", h, c_offset=0.5, directions=16,
                                rng=np.random.default_rng(3))
        assert lagrangian_check(samples) < 1e-5

    def test_zero_section_thimble_isotropic(self):
        # rank one: the plain graph is the Hermitian locus, secants exact
        h0 = minimal_cartan(1)
        samples = trace_thimble(1, "-", h0, c_offset=0.5, directions=8,
                                rng=np.random.default_rng(4))
        assert lagrangian_check(samples) < 1e-6

    def test_boundary_matches_level_sphere_along_meridians(self):
        # rank one, plain graph: the flag is a round sphere and the height
        # flow lines are meridians, so the thimble boundary coincides with
        # the bisection level point along the same initial direction
        n = 1
        h0 = minimal_cartan(n)
        g = m_j_pm(n, 1, "-")
        xc = critical_points(n)[0]
        c_level = 8.0 - 0.5
        frame = graph_tangent_frame(xc, g)
        rng = np.random.default_rng(5)
        for _ in range(6):
            coeff = rng.standard_normal(len(frame))
            coeff /= np.linalg.norm(coeff)
            v = sum(c * e for c, e in zip(coeff, frame))
            seed = symmetrize(retract(xc.x + 1e-3 * v).x[None], g.m_diag)
            landed, _ = flow_to_level(seed, h0, g, c_level, 0.02, 4000)
            # geodesic velocity [A, H0] must equal +v, so A solves [A, H0] = v
            direction = -ad_inverse(xc, v)
            q = vanishing_sphere_point(h0, c_level, direction)
            assert np.linalg.norm(landed[0] - q.x) < 1e-6

    def test_lagrangian_check_on_single_flow_line(self):
        h = default_cartan(2)
        samples = trace_thimble(1, "-", h, c_offset=0.4, directions=1, radii=1,
                                rng=np.random.default_rng(6))
        line = [s for s in samples if s.flow_index == 0]
        assert len(line) >= 3
        assert lagrangian_check(line) < 1e-6

    def test_density_warning(self):
        h = default_cartan(2)
        samples = trace_thimble(1, "-", h, c_offset=0.4, directions=4, radii=2,
                                rng=np.random.default_rng(7))
        sparse = samples[:: max(1, len(samples) // 8)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lagrangian_check(sparse, step_hint=1e-6)
        assert any(issubclass(w.category, DensityWarning) for w in caught)

    def test_json_and_csv_dumps(self):
        import json

        h = default_cartan(2)
        samples = trace_thimble(1, "-", h, c_offset=0.3, directions=2, radii=2,
                                rng=np.random.default_rng(8))
        blob = json.loads(thimble_json(samples, {"j": 1, "sign": "-"}))
        assert blob["meta"]["j"] == 1
        assert len(blob["samples"]) == len(samples)
        assert {"f1", "f2", "graph_residual", "entries"} <= set(blob["samples"][0])
        csv = thimble_csv(samples).splitlines()
        assert csv[0] == "seed_index,arc,f1,f2,graph_residual"
        assert len(csv) == len(samples) + 1

    def test_containment_probe_reports_range(self):
        from orbitflow.thimble import containment_probe

        h = default_cartan(2)
        best, results = containment_probe(1, "-", h, offsets=(0.25, 0.5, 1.0),
                                          rng=np.random.default_rng(9))
        print(f"containment persists to offset {best}: {results}")
        assert best is not None and best >= 0.5
        assert all(r is None or r < 1e-5 for r in results.values())

    def test_rank_four_traces_every_point_both_signs(self):
        h = default_cartan(4)
        rng = np.random.default_rng(10)
        for j in (1, 2, 3, 4, 5):
            for s in ("+", "-"):
                samples = trace_thimble(j, s, h, c_offset=0.4, directions=4,
                                        radii=3, rng=rng)
                assert max(x.graph_residual for x in samples) < 1e-6
                assert max(abs(x.f2) for x in samples) < 1e-8
                assert lagrangian_check(samples) < 1e-5

    def test_integrity_error_reports_worst_sample(self):
        from orbitflow.errors import GraphIntegrityError

        h = default_cartan(2)
        with pytest.raises(GraphIntegrityError, match="residual"):
            trace_thimble(1, "-", h, c_offset=0.3, directions=2, radii=2,
                          rng=np.random.default_rng(11), residual_limit=0.0)
