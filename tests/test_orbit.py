"""Minimal orbit: pair chart, eigen splitting, superpotential, singularities."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from orbitflow.cycles import flag_sample
from orbitflow.errors import (
    MembershipError,
    ShapeError,
    StepSizeError,
    TransversalityError,
    UnsupportedOrbitError,
)
from orbitflow.graphs import (graph_membership, graph_point, identity_graph, m_j_pm, sign_pattern,
                              twists)
from orbitflow.liecore import b_norm, bracket, cartan_matrix, minimal_cartan, default_cartan
from orbitflow.orbit import (
    OrbitPoint,
    assemble,
    complement,
    critical_points,
    invert_at,
    lax_velocity,
    membership_residual,
    pair_point,
    pair_tangent,
    phi_pair,
    potential,
    r_w0_basis,
    retract,
    split,
    split_eigen,
    tangent_frame,
    tangent_project,
    z_norm,
)
from orbitflow.util import (
    random_compact,
    random_traceless,
    random_unit_vector,
    realify,
)
from orbitflow.verification import random_orbit_point

from helpers import random_special_unitary


def _e(d, j):
    v = np.zeros(d, dtype=complex)
    v[j] = 1.0
    return v


class TestPhiPair:
    def test_identity_configuration(self):
        d = 4
        pt = phi_pair(_e(d, 0), np.eye(d, dtype=complex)[:, 1:])
        assert np.allclose(pt.x, cartan_matrix(minimal_cartan(3)))
        assert pt.transversality == pytest.approx(1.0)

    def test_slot_configuration_matches_weyl_image(self):
        d = 3
        for j in range(d):
            cols = [k for k in range(d) if k != j]
            pt = phi_pair(_e(d, j), np.eye(d, dtype=complex)[:, cols])
            want = -np.eye(d)
            want[j, j] = d - 1
            assert np.allclose(pt.x, want)

    def test_twisted_pair_example(self):
        u = np.array([2.0, 1.0, 0.0]) / np.sqrt(5.0)
        m = np.array([1.0, -1.0, -1.0])
        hyper = m[:, None] * r_w0_basis(u)
        pt = phi_pair(u, hyper)
        assert membership_residual(pt.x) < 1e-12
        assert pt.transversality == pytest.approx(3.0 / 5.0, abs=1e-12)

    def test_non_transversal_pair_raises(self):
        d = 3
        with pytest.raises(TransversalityError):
            phi_pair(_e(d, 1), np.eye(d, dtype=complex)[:, 1:])

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_line_in_a_non_orthonormal_hyperplane_raises(self, d):
        # the least-squares residual of a line inside the hyperplane is
        # rounding with no direction; its length, not its unit vector, is read
        rng = np.random.default_rng(d)
        w = rng.standard_normal((d, d - 1)) + 1j * rng.standard_normal((d, d - 1))
        line = w @ (rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1))
        with pytest.raises(TransversalityError, match="within tolerance"):
            phi_pair(line, w)

    @pytest.mark.parametrize("line, normal", [
        (np.zeros(3), np.eye(3)[0]),
        (np.eye(3)[0], np.zeros(3)),
        (np.array([1.0, np.nan, 0.0]), np.eye(3)[0]),
    ], ids=["zero-line", "zero-normal", "nan-entry"])
    def test_pair_without_a_transversality_raises(self, line, normal):
        # |v^H u| is NaN there, which no comparison with the tolerance passes;
        # graph_point builds its pair (u, m u) with pair_point
        with pytest.raises(TransversalityError, match=r"tolerance \(nan\)"):
            pair_point(line, normal)
        if normal.any():
            with pytest.raises(TransversalityError, match=r"tolerance \(nan\)"):
                graph_point(line, identity_graph(2))

    def test_wrong_hyperplane_shape_raises(self):
        from orbitflow.errors import ShapeError

        with pytest.raises(ShapeError):
            phi_pair(_e(3, 0), np.eye(3, dtype=complex))

    def test_traceless(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pt = random_orbit_point(rng, 2)
            assert abs(np.trace(pt.x)) < 1e-12 * np.linalg.norm(pt.x)

    def test_point_invariants(self):
        # minimal polynomial, eigen relations on the cached splitting, and
        # a transversality bounded away from zero
        rng = np.random.default_rng(11)
        n = 2
        for _ in range(10):
            pt = random_orbit_point(rng, n, spread=0.5)
            assert membership_residual(pt.x) < 1e-10
            assert np.linalg.norm(pt.x @ pt.line - n * pt.line) < 1e-10
            assert np.linalg.norm(pt.x @ pt.hyper + pt.hyper) < 1e-10
            assert pt.transversality > 1e-2


class TestSplitEigen:
    def test_minimal_diagonal(self):
        x = cartan_matrix(minimal_cartan(2))
        u, w = split_eigen(x)
        assert abs(abs(u[0]) - 1.0) < 1e-12
        assert np.linalg.norm(x @ u - 2 * u) < 1e-12
        assert np.linalg.norm(x @ w + w) < 1e-12

    def test_unitary_covariance(self):
        rng = np.random.default_rng(1)
        d = 3
        for _ in range(10):
            g = random_special_unitary(rng, d)
            x = g @ cartan_matrix(minimal_cartan(d - 1)) @ g.conj().T
            u, w = split_eigen(x)
            assert abs(abs(np.vdot(g[:, 0], u)) - 1.0) < 1e-10
            # hyperplane spans must agree: compare projectors
            p1 = w @ w.conj().T
            p2 = g[:, 1:] @ g[:, 1:].conj().T
            assert np.linalg.norm(p1 - p2) < 1e-10

    def test_membership_error(self):
        bad = np.diag([1.9, -1.0, -1.0]).astype(complex)
        bad -= (np.trace(bad) / 3) * np.eye(3)
        with pytest.raises(MembershipError):
            split_eigen(bad)

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        for k in range(20):
            pt = random_orbit_point(rng, 2, unitary=(k % 2 == 0))
            rebuilt = phi_pair(*split_eigen(pt.x))
            assert np.linalg.norm(rebuilt.x - pt.x) < 1e-8 * np.linalg.norm(pt.x)


class TestComplementMap:
    def test_canonical_line(self):
        w = r_w0_basis(_e(3, 0))
        p = w @ w.conj().T
        q = np.eye(3, dtype=complex)
        q[0, 0] = 0.0
        assert np.linalg.norm(p - q) < 1e-12

    def test_defining_orthogonality(self):
        rng = np.random.default_rng(9)
        from orbitflow.util import random_unit_vector

        for _ in range(20):
            u = random_unit_vector(rng, 4)
            w = r_w0_basis(u)
            assert np.abs(w.conj().T @ u).max() < 1e-12
            assert np.linalg.norm(w.conj().T @ w - np.eye(3)) < 1e-12

    def test_pairing_with_complement_is_hermitian(self):
        rng = np.random.default_rng(10)
        from orbitflow.util import random_unit_vector

        for _ in range(10):
            u = random_unit_vector(rng, 3)
            pt = phi_pair(u, r_w0_basis(u))
            assert np.linalg.norm(pt.x - pt.x.conj().T) < 1e-12


class TestPotential:
    def test_frozen_values_rank_two(self):
        h = default_cartan(2)
        vals = [potential(h, p) for p in critical_points(2)]
        # oracle: 2(n+1) tr(H x) on the three diagonal configurations
        assert np.allclose(vals, [18.0, 0.0, -18.0])

    def test_frozen_values_rank_one(self):
        h0 = minimal_cartan(1)
        vals = [potential(h0, p) for p in critical_points(1)]
        assert np.allclose(vals, [8.0, -8.0])

    def test_linearity(self):
        rng = np.random.default_rng(3)
        h = default_cartan(2)
        x = random_orbit_point(rng, 2)
        y = random_orbit_point(rng, 2)
        fa = potential(h, 0.3 * x.x + 0.7 * y.x)
        assert abs(fa - 0.3 * potential(h, x) - 0.7 * potential(h, y)) < 1e-10


class TestCriticalPoints:
    def test_counts_match_weyl_index(self):
        for n in range(1, 7):
            pts = critical_points(n)
            assert len(pts) == n + 1
            assert len(pts) == math.factorial(n + 1) // math.factorial(n)

    def test_accepts_minimal_vector(self):
        assert len(critical_points(minimal_cartan(3))) == 4

    def test_rejects_other_diagonals(self):
        with pytest.raises(UnsupportedOrbitError):
            critical_points(np.array([1.0, 1.0, -2.0]))

    def test_critical_equations(self):
        from orbitflow.flow import z_field
        from orbitflow.liecore import b_norm

        h = default_cartan(2)
        for pt in critical_points(2):
            assert b_norm(z_field(pt, h)) < 1e-12
            frame = tangent_frame(pt)
            assert max(abs(potential(h, e)) for e in frame) < 1e-10


class TestRetraction:
    def test_preserves_orbit_points(self):
        rng = np.random.default_rng(4)
        pt = random_orbit_point(rng, 2)
        again = retract(pt.x)
        assert np.linalg.norm(again.x - pt.x) < 1e-12

    def test_snaps_perturbation(self):
        rng = np.random.default_rng(5)
        pt = random_orbit_point(rng, 2)
        noisy = pt.x + 1e-4 * random_traceless(rng, 3)
        snapped = retract(noisy)
        assert membership_residual(snapped.x) < 1e-12
        assert np.linalg.norm(snapped.x - pt.x) < 1e-3

    def test_tangent_dimension(self):
        for pt in critical_points(2):
            frame = tangent_frame(pt)
            assert len(frame) == 4  # 2n complex directions
            rows = realify(np.array([m for e in frame for m in (e, 1j * e)]))
            assert np.linalg.matrix_rank(rows, tol=1e-8) == 8


class TestMembership:
    def test_conjugation_invariance(self):
        rng = np.random.default_rng(6)
        h0m = cartan_matrix(minimal_cartan(2))
        for _ in range(10):
            a = random_traceless(rng, 3, scale=0.2)
            g = expm(a)
            x = g @ h0m @ np.linalg.inv(g)
            assert membership_residual(x) < 1e-10

    def test_compact_form_excluded(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            assert membership_residual(random_compact(rng, 3, scale=1.5)) > 0.5


class TestPointState:
    def test_every_point_derives_its_matrix_from_its_pair(self):
        # a point holds (line, normal) alone: x is assemble of the pair, bit
        # for bit, built once, read-only, and no constructor takes it
        import dataclasses

        from orbitflow.cycles import vanishing_sphere

        rng = np.random.default_rng(21)
        n = 3
        u, v = random_unit_vector(rng, n + 1), random_unit_vector(rng, n + 1)
        g = m_j_pm(n, 2, "+")
        graph = graph_point(random_unit_vector(rng, n + 1), g)
        record = json.loads(json.dumps(graph.to_json()))
        del record["normal"]
        points = [OrbitPoint(line=u, normal=v), pair_point(u, v), graph,
                  OrbitPoint.from_json(pair_point(u, v).to_json()),
                  OrbitPoint.from_json(record, g.m_diag.real),
                  retract(pair_point(u, v).x + 1e-9 * random_traceless(rng, n + 1)),
                  *critical_points(n), *vanishing_sphere(minimal_cartan(n), 30.0, 3, rng)]
        assert [f.name for f in dataclasses.fields(OrbitPoint)] == ["line", "normal"]
        for pt in points:
            assert pt.x is pt.x and not pt.x.flags.writeable
            assert pt.x.tobytes() == assemble(pt.line, pt.normal).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                pt.x[0, 0] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                pt.x = np.zeros((n + 1, n + 1))
        with pytest.raises(TypeError):
            OrbitPoint(x=points[0].x, line=u, normal=v)


class TestSerialization:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 8):
            pt = random_orbit_point(rng, n)
            back = OrbitPoint.from_json(json.loads(json.dumps(pt.to_json())))
            assert np.array_equal(back.x, pt.x)
            assert np.array_equal(back.line, pt.line)
            assert np.array_equal(back.normal, pt.normal)

    def test_entries_are_re_im_pairs(self):
        pt = critical_points(1)[0]
        obj = pt.to_json()
        assert obj == {"n": 1, "line": [[1.0, 0.0], [0.0, 0.0]], "normal": [[1.0, 0.0], [0.0, 0.0]]}

    @pytest.mark.parametrize("key", ["line", "normal"])
    def test_from_json_rejects_wrong_length(self, key):
        obj = critical_points(2)[0].to_json()
        obj[key] = obj[key][:-1]
        with pytest.raises(ShapeError, match=key):
            OrbitPoint.from_json(obj)

    def test_from_json_rejects_incident_pair(self):
        obj = critical_points(1)[0].to_json()
        obj["normal"] = [[0.0, 0.0], [1.0, 0.0]]
        with pytest.raises(TransversalityError, match="normal\\^H line"):
            OrbitPoint.from_json(obj)

    def test_from_json_needs_a_normal_or_a_twist(self):
        obj = critical_points(2)[0].to_json()
        del obj["normal"]
        with pytest.raises(ShapeError, match="normal"):
            OrbitPoint.from_json(obj)
        with pytest.raises(ShapeError, match="twist m has shape \\(2,\\), expected \\(3,\\)"):
            OrbitPoint.from_json(obj, [1.0, -1.0])

    @pytest.mark.parametrize("bad", [0.5, math.nan])
    def test_from_json_rejects_a_twist_entry_that_is_not_plus_or_minus_one(self, bad):
        # a 0.5 entry would reload a point off the recorded f1, a NaN entry a
        # NaN point; a twist is the diagonal of an involution
        obj = critical_points(2)[0].to_json()
        del obj["normal"]
        with pytest.raises(ShapeError, match="twist"):
            OrbitPoint.from_json(obj, [1.0, bad, -1.0])
        assert OrbitPoint.from_json(obj, [1.0, -1.0, -1.0]).transversality == 1.0

    def test_from_json_rejects_a_line_incident_to_its_twisted_normal(self):
        # |u_1| = |u_2|, so (m u)^H u = 0 for m = (1, -1) but not for m = 1
        s = math.sqrt(0.5)
        obj = {"n": 1, "line": [[s, 0.0], [0.0, s]]}
        with pytest.raises(TransversalityError, match="normal\\^H line"):
            OrbitPoint.from_json(obj, [1.0, -1.0])
        assert OrbitPoint.from_json(obj, [1.0, 1.0]).transversality == pytest.approx(1.0)


RANKS = (1, 2, 3, 4)


def _eigen_candidates(x):
    """The 2n rank-one maps between eigenline and hyperplane, read off eig."""
    n = x.shape[0] - 1
    vals, vecs = np.linalg.eig(x)
    basis = vecs[:, np.argsort(np.abs(vals - n))]
    binv = np.linalg.inv(basis)
    return ([np.outer(basis[:, 0], binv[k]) for k in range(1, n + 1)]
            + [np.outer(basis[:, k], binv[0]) for k in range(1, n + 1)])


def _sign_twists(n):
    """Every m_j^+/- that exists at rank n."""
    return [m_j_pm(n, j, s).m_diag for j in range(1, n + 2) for s in "+-"
            if n % 2 == 0 or (j, s) in ((1, "-"), (n + 1, "+"))]


class TestPairKernel:
    @pytest.mark.parametrize("n", RANKS)
    def test_tangent_project_matches_least_squares(self, n):
        rng = np.random.default_rng(20 + n)
        d = n + 1
        for k in range(6):
            pt = random_orbit_point(rng, n, unitary=(k % 2 == 0))
            cands = np.array([c.ravel() for c in _eigen_candidates(pt.x)]).T
            m = random_traceless(rng, d)
            want = cands @ np.linalg.lstsq(cands, m.ravel(), rcond=None)[0]
            got = tangent_project(pt, m)
            assert np.linalg.norm(got.ravel() - want) < 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("n", RANKS)
    def test_stacked_views_match_single_points(self, n):
        # a stack of matrices gives, per point, what the OrbitPoint gives
        rng = np.random.default_rng(25 + n)
        d = n + 1
        pts = [random_orbit_point(rng, n, unitary=(k % 2 == 0)) for k in range(8)]
        xs = np.array([pt.x for pt in pts])
        ms = np.array([random_traceless(rng, d) for _ in pts])
        h = default_cartan(n)

        def close(a, b):
            return np.linalg.norm(np.ravel(a - b)) <= 1e-13 * max(1.0, np.linalg.norm(np.ravel(b)))

        u, v = split(xs)
        f = potential(h, xs)
        proj = tangent_project(xs, ms)
        for k, pt in enumerate(pts):
            uk, vk = split(pt.x)
            assert close(u[k], uk) and close(v[k], vk)
            assert abs(abs(np.vdot(u[k], pt.line)) - 1.0) < 1e-13
            assert close(f[k], potential(h, pt))
            assert close(proj[k], tangent_project(pt, ms[k]))
        for j, s in twists(n):
            g = m_j_pm(n, j, s)
            res = graph_membership(xs, g)
            assert res.shape == (len(pts),)
            for k, pt in enumerate(pts):
                assert close(res[k], graph_membership(pt, g))

    @pytest.mark.parametrize("n", RANKS)
    def test_tangent_project_of_a_stack_is_each_matrix_alone(self, n):
        rng = np.random.default_rng(35 + n)
        for pt in (random_orbit_point(rng, n), critical_points(n)[0]):
            ms = np.array([random_traceless(rng, n + 1) for _ in range(4)])
            got = tangent_project(pt, ms)
            assert got.shape == ms.shape
            for k, m in enumerate(ms):
                assert np.array_equal(got[k], tangent_project(pt, m))

    @pytest.mark.parametrize("n", (2, 5, 12))
    @pytest.mark.parametrize("s", (1e-1, 1e-2, 1e-3))
    def test_pair_kernels_near_the_incidence_divisor(self, n, s):
        # at |v^H u| = s, the projection against least squares on the
        # spanning set {u b^H : b ⊥ u} + {c v^H : c ⊥ v}; the inverse against
        # the pseudo-inverse of ad(x), and its split [x, w] + outside = m
        # within rounding of its largest terms, |x| |w| and |m| / s^2
        rng = np.random.default_rng(50 + n)
        d = n + 1
        for _ in range(3):
            u, w = random_unit_vector(rng, d), random_unit_vector(rng, d)
            w = w - u * np.vdot(u, w)
            w = np.sqrt(1.0 - s * s) * w / np.linalg.norm(w)
            pt = pair_point(u, s * np.exp(2j * np.pi * rng.uniform()) * u + w)
            u, v = pt.line, pt.normal
            m = random_traceless(rng, d)
            cands = np.concatenate([u[None, :, None] * complement(u).T.conj()[:, None, :],
                                    complement(v).T[:, :, None] * v.conj()[None, None, :]])
            a = cands.reshape(len(cands), -1).T
            want = a @ np.linalg.lstsq(a, m.ravel(), rcond=None)[0]
            assert np.linalg.norm(tangent_project(pt, m).ravel() - want) < 1e-12 * np.linalg.norm(m)
            inv, outside = invert_at((u, v), m)
            ad = np.kron(pt.x, np.eye(d)) - np.kron(np.eye(d), pt.x.T)
            ref = (np.linalg.pinv(ad, rcond=1e-13) @ (m - outside).ravel()).reshape(d, d)
            assert np.linalg.norm(inv - ref) < 1e-12 * np.linalg.norm(ref)
            scale = np.linalg.norm(pt.x) * np.linalg.norm(inv) + np.linalg.norm(m) / s ** 2
            assert np.linalg.norm(bracket(pt.x, inv) + outside - m) < 1e-13 * scale

    @pytest.mark.parametrize("n", RANKS)
    def test_ad_inverse_split_of_the_ambient_space(self, n):
        # [x, w] + outside = m, and the missed part commutes with x
        rng = np.random.default_rng(30 + n)
        for _ in range(6):
            pt = random_orbit_point(rng, n)
            m = random_traceless(rng, n + 1)
            w, outside = invert_at((pt.line, pt.normal), m)
            assert np.linalg.norm(bracket(pt.x, w) + outside - m) < 1e-12
            assert np.linalg.norm(bracket(pt.x, outside)) < 1e-12

    @pytest.mark.parametrize("n", RANKS)
    def test_retract_fixes_orbit_points(self, n):
        rng = np.random.default_rng(40 + n)
        xs = np.array([random_orbit_point(rng, n, unitary=(k % 2 == 0)).x for k in range(8)])
        assert max(np.linalg.norm(retract(x).x - x) for x in xs) < 1e-13

    @pytest.mark.parametrize("n", RANKS)
    def test_retract_fixes_points_near_incidence(self, n):
        # |v^H u| = 1e-4 puts |x| near 1e4 (n+1); the rank-one split loses
        # about eps / |v^H u| relative to |x|, an eigendecomposition eps / |v^H u|^2
        rng = np.random.default_rng(45 + n)
        d = n + 1
        for _ in range(10):
            u = random_unit_vector(rng, d)
            w = random_unit_vector(rng, d)
            w = w - u * np.vdot(u, w)
            v = 1e-4 * u + np.sqrt(1.0 - 1e-8) * w / np.linalg.norm(w)
            x = d * np.outer(u, v.conj()) / np.vdot(v, u) - np.eye(d)
            assert np.linalg.norm(retract(x).x - x) < 1e-10 * np.linalg.norm(x)

    @pytest.mark.parametrize("n", RANKS)
    def test_retract_commutes_with_sign_involutions(self, n):
        rng = np.random.default_rng(50 + n)
        d = n + 1
        xs = np.array([random_orbit_point(rng, n).x + 1e-3 * random_traceless(rng, d)
                       for _ in range(8)])
        for m in _sign_twists(n):
            def reflect(y):
                return m[:, None] * y.conj().transpose(0, 2, 1) * m[None, :]

            snapped = np.array([retract(x).x for x in xs])
            gap = np.array([retract(y).x for y in reflect(xs)]) - reflect(snapped)
            assert np.linalg.norm(gap, axis=(1, 2)).max() < 1e-13

    @pytest.mark.parametrize("n", RANKS)
    def test_error_paths(self, n):
        rng = np.random.default_rng(60 + n)
        d = n + 1
        pt = random_orbit_point(rng, n)
        # the origin sits sqrt(n^2 + n) from its chart point, past the limit
        with pytest.raises(StepSizeError, match="retraction moved"):
            retract(np.zeros((d, d), dtype=complex))
        e = np.eye(d, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match="not finite"):
                retract(np.full((d, d), np.nan, dtype=complex))
            # x = -I: x + I is zero
            with pytest.raises(StepSizeError, match="zero or not finite.*batch index 1"):
                split(np.array([pt.x, -e]))
            # x + I = e_1 e_2^T: largest column and row are orthogonal
            divisor = np.outer(e[0], e[1]) - e
            with pytest.raises(StepSizeError, match="incidence divisor.*batch index 1"):
                split(np.array([pt.x, divisor]))
        # x + eps I has trace d eps, so it is at least eps sqrt(d) off the orbit
        with pytest.raises(MembershipError):
            split_eigen(pt.x + 1e-6 * np.eye(d))
        with pytest.raises(TransversalityError):
            pair_point(e[0], e[1])


class TestPairVelocities:
    @pytest.mark.parametrize("n", (1, 2, 4, 8))
    def test_velocities_map_onto_z_and_the_projection_of_h(self, n):
        # lax_velocity on free pairs and on graph pairs (u, m u), and the
        # two-scalar thimble rule on graph pairs, for m = 1 and every twist,
        # at lengths far from one; pair_tangent of each is the field
        from orbitflow import thimble
        from orbitflow.flow import z_field

        rng = np.random.default_rng(80 + n)
        d = n + 1
        h = default_cartan(n)
        hm = cartan_matrix(h)

        def draw(scale):
            return scale * (rng.standard_normal((24, d)) + 1j * rng.standard_normal((24, d)))

        lax = lambda p: lax_velocity(p, h)

        def on_graph(m, rate):
            # the pair velocity (du, m du) of a line velocity du
            def rhs(pairs):
                du = rate(pairs)
                return np.stack([du, m * du], axis=1)
            return rhs

        def thimble_rate(m):
            # du = c u, c = m (h s' - B') of the rate (s', B') of the F1 rule,
            # which drops a common term that only scales u and m u
            def rate(pairs):
                u = pairs[:, 0]
                sb = thimble._line_rate(h, thimble._weights(h, m), m, 1.0, np.abs(u),
                                        np.zeros((len(u), 2)))[0]
                return m * (h * sb[:, :1] - sb[:, 1:]) * u
            return rate

        cases = [(np.stack([draw(3.0), draw(0.2)], axis=1), lax, z_field)]
        for scale in (3.0, 0.2):
            u = draw(scale)
            for g in [identity_graph(n)] + [m_j_pm(n, j, s) for j, s in twists(n)]:
                pairs = np.stack([u, g.m_diag * u], axis=1)
                cases.append((pairs, on_graph(g.m_diag, lambda p: lax(p)[:, 0]), z_field))
                cases.append((pairs, on_graph(g.m_diag, thimble_rate(g.m_diag.real)),
                              lambda x, _: tangent_project(x, hm)))
        for pairs, rhs, reference in cases:
            a, b = pairs[:, 0], pairs[:, 1]
            # away from the incidence divisor, where the references lose digits
            cos = np.abs(np.sum(b.conj() * a, axis=1))
            keep = cos > 0.2 * np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            x = assemble(a, b)[keep]
            want = reference(x, h)
            vel = rhs(pairs)
            got = pair_tangent(a, b, vel[:, 0], vel[:, 1])[keep]
            err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
            assert err.max() < 1e-12


    @pytest.mark.parametrize("n", (1, 2, 4, 12, 18))
    def test_z_norm_is_the_length_of_z(self, n):
        # free pairs of lengths far from one with a phase on v, and graph
        # pairs (u, m u) of both signs at radius 1e-8..1e-12 about every
        # [e_j], against b_norm of the matrix field; a row of a stack gets
        # the bits it gets alone
        from orbitflow.flow import z_field
        from orbitflow.thimble import seed_lines

        rng = np.random.default_rng(90 + n)
        d = n + 1
        h = default_cartan(n)

        def draw(count):
            scale = 10.0 ** rng.uniform(-1.0, 1.0, (count, 1))
            return scale * (rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d)))

        free = np.stack([draw(16), np.exp(1j * rng.uniform(0.0, 6.0, (16, 1))) * draw(16)], axis=1)
        rows = [free]
        for j in range(1, d + 1):
            for sign in ("+", "-"):
                m = sign_pattern(n, j, sign)
                lines = seed_lines(j, d, rng.standard_normal((2, 2 * n)), [1e-8, 1e-10, 1e-12])
                rows.append(np.stack([lines, m * lines], axis=1))
        pairs = np.concatenate(rows)
        got = z_norm(pairs, h)
        want = np.array([b_norm(z) for z in z_field(assemble(pairs[:, 0], pairs[:, 1]), h)])
        assert (np.abs(got - want) / want).max() <= 1e-13
        # the same bits at lengths of 1e-100, where the fourth powers of the
        # length in |Z|^2 underflow unless scaled exactly by a power of two
        assert np.array_equal(z_norm(2.0 ** -330 * pairs, h), got)
        for k in range(len(pairs)):
            assert z_norm(pairs[k:k + 1], h)[0] == got[k]


class TestSamplers:
    """random_orbit_point and flag_sample build a pair from the matrix draws
    alone, and their points lie on the orbit."""

    @staticmethod
    def draw(kind, rng, n):
        if kind == "flag":
            return flag_sample(n, 3, 0.8, rng)
        return [random_orbit_point(rng, n, unitary=(kind == "compact")) for _ in range(3)]

    @pytest.mark.parametrize("n", (1, 2, 6))
    @pytest.mark.parametrize("kind", ("traceless", "compact", "flag"))
    def test_a_draw_takes_only_its_matrix_draws_from_the_rng(self, kind, n):
        rng, bare = np.random.default_rng(11), np.random.default_rng(11)
        self.draw(kind, rng, n)
        for _ in range(3):
            if kind == "traceless":
                random_traceless(bare, n + 1)
            elif kind == "compact":
                random_compact(bare, n + 1)
            else:
                bare.uniform()
                random_compact(bare, n + 1)
        assert rng.bit_generator.state == bare.bit_generator.state

    @pytest.mark.parametrize("n", (1, 2, 5, 8))
    def test_hermitian_draws_are_hermitian_exactly(self, n):
        rng = np.random.default_rng(12 + n)
        for _ in range(20):
            for pt in self.draw("compact", rng, n) + self.draw("flag", rng, n):
                assert np.array_equal(pt.x, pt.x.conj().T)

    @pytest.mark.parametrize("n", (1, 2, 5, 8))
    def test_every_draw_lies_on_the_orbit(self, n):
        rng = np.random.default_rng(13 + n)
        for _ in range(20):
            for kind in ("traceless", "compact", "flag"):
                for pt in self.draw(kind, rng, n):
                    assert membership_residual(pt.x) <= 1e-12
