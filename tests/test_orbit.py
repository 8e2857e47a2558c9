"""Minimal orbit: pair chart, eigen splitting, superpotential, singularities."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from orbitflow.errors import (
    MembershipError,
    StepSizeError,
    TransversalityError,
    UnsupportedOrbitError,
)
from orbitflow.graphs import m_j_pm
from orbitflow.liecore import bracket, cartan_matrix, minimal_cartan, default_cartan
from orbitflow.orbit import (
    OrbitPoint,
    critical_points,
    invert_pair,
    membership_residual,
    pair_point,
    phi_pair,
    potential,
    r_w0_basis,
    retract,
    retract_batch,
    split_eigen,
    tangent_frame,
    tangent_project,
)
from orbitflow.util import (
    random_compact,
    random_special_unitary,
    random_traceless,
    random_unit_vector,
    realify,
)
from orbitflow.verification import random_orbit_point


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


class TestSerialization:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(8)
        pt = random_orbit_point(rng, 2)
        blob = json.dumps(pt.to_json())
        back = OrbitPoint.from_json(json.loads(blob))
        assert np.linalg.norm(back.x - pt.x) < 1e-12

    def test_entries_are_re_im_pairs(self):
        pt = critical_points(1)[0]
        obj = pt.to_json()
        assert obj["n"] == 1
        assert obj["entries"][0] == [1.0, 0.0]
        assert len(obj["entries"]) == 4


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
    def test_ad_inverse_split_of_the_ambient_space(self, n):
        # [x, w] + outside = m, and the missed part commutes with x
        rng = np.random.default_rng(30 + n)
        for _ in range(6):
            pt = random_orbit_point(rng, n)
            m = random_traceless(rng, n + 1)
            w, outside = invert_pair(pt.line, pt.normal, m)
            assert np.linalg.norm(bracket(pt.x, w) + outside - m) < 1e-12
            assert np.linalg.norm(bracket(pt.x, outside)) < 1e-12

    @pytest.mark.parametrize("n", RANKS)
    def test_retract_fixes_orbit_points(self, n):
        rng = np.random.default_rng(40 + n)
        xs = np.array([random_orbit_point(rng, n, unitary=(k % 2 == 0)).x for k in range(8)])
        assert np.linalg.norm(retract_batch(xs) - xs, axis=(1, 2)).max() < 1e-13
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

            gap = retract_batch(reflect(xs)) - reflect(retract_batch(xs))
            assert np.linalg.norm(gap, axis=(1, 2)).max() < 1e-13

    @pytest.mark.parametrize("n", RANKS)
    def test_error_paths(self, n):
        rng = np.random.default_rng(60 + n)
        d = n + 1
        pt = random_orbit_point(rng, n)
        # the origin sits sqrt(n^2 + n) from its chart point, past the limit
        with pytest.raises(StepSizeError, match="batch index 1"):
            retract_batch(np.array([pt.x, np.zeros((d, d), dtype=complex)]))
        e = np.eye(d, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match="not finite"):
                retract(np.full((d, d), np.nan, dtype=complex))
            # x + I = e_1 e_2^T: largest column and row are orthogonal
            divisor = np.outer(e[0], e[1]) - e
            with pytest.raises(StepSizeError, match="incidence divisor.*batch index 1"):
                retract_batch(np.array([pt.x, divisor]))
        # x + eps I has trace d eps, so it is at least eps sqrt(d) off the orbit
        with pytest.raises(MembershipError):
            split_eigen(pt.x + 1e-6 * np.eye(d))
        with pytest.raises(TransversalityError):
            pair_point(e[0], e[1])
