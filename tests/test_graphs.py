"""Twisted-complement graphs: involutions, membership, Hessians, reality."""

import numpy as np
import pytest

from orbitflow.errors import GraphIntegrityError, ParityError
from orbitflow.graphs import (
    GraphSpec,
    graph_generators,
    graph_membership,
    graph_point,
    graph_tangent_frame,
    hessian_full,
    hessian_report_csv,
    hessian_restricted,
    identity_graph,
    m_j_pm,
    reality_check,
    sign_pattern,
    twists,
    untwist,
)
from orbitflow.liecore import (
    RootSystemAn,
    b_tau,
    bracket,
    cartan_matrix,
    default_cartan,
    minimal_cartan,
    omega,
)
from orbitflow.orbit import critical_points, pair_point, phi_pair, r_w0_basis, tangent_frame
from orbitflow.util import (
    orthonormal_rows,
    random_unit_vector,
    realify,
    subspace_intersection_real,
    unrealify,
)
from orbitflow.verification import word_with_slot

from helpers import gram_schmidt_real, identity_weyl, random_special_unitary


class TestInvolutions:
    def test_frozen_diagonals_rank_two(self):
        assert np.allclose(m_j_pm(2, 1, "-").m_diag, [1, 1, 1])
        assert np.allclose(m_j_pm(2, 1, "+").m_diag, [1, -1, -1])
        assert np.allclose(m_j_pm(2, 2, "+").m_diag, [-1, -1, 1])
        assert np.allclose(m_j_pm(2, 2, "-").m_diag, [1, -1, -1])

    def test_unit_determinant(self):
        for n in (2, 4, 6):
            for j in range(1, n + 2):
                for s in ("+", "-"):
                    assert abs(np.prod(m_j_pm(n, j, s).m_diag) - 1.0) < 1e-12

    def test_odd_rank_unit_determinant_combinations(self):
        for j, s in ((1, "-"), (4, "+")):
            g = m_j_pm(3, j, s)
            assert abs(np.prod(g.m_diag) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_rank_twists_are_every_unit_determinant_pattern(self, n):
        # m_j^- for odd j and m_j^+ for even j, n + 1 pairs
        want = [(j, "-" if j % 2 else "+") for j in range(1, n + 2)]
        assert twists(n) == want
        for j, s in want:
            assert np.prod(sign_pattern(n, j, s)) == 1.0
            assert abs(np.prod(m_j_pm(n, j, s).m_diag) - 1.0) < 1e-12
            other = "+" if s == "-" else "-"
            assert np.prod(sign_pattern(n, j, other)) == -1.0
            with pytest.raises(ParityError, match="determinant -1"):
                m_j_pm(n, j, other)

    def test_odd_rank_interior_and_wrong_sign_rejected(self):
        with pytest.raises(ParityError):
            m_j_pm(3, 2, "-")
        with pytest.raises(ParityError):
            m_j_pm(3, 1, "+")
        with pytest.raises(ParityError):
            m_j_pm(1, 2, "-")

    def test_determinant_validated(self):
        with pytest.raises(ValueError):
            GraphSpec(np.array([1.0, 1.0, -1.0]))

    def test_phase_pattern(self):
        for n in (2, 4):
            for j in range(1, n + 2):
                for s in ("+", "-"):
                    g = m_j_pm(n, j, s)
                    for k in range(1, n + 2):
                        if k == j:
                            continue
                        expect = 1.0 if (k < j) == (s == "+") else -1.0
                        assert g.phase((k, j)) == pytest.approx(expect)


class TestMembership:
    def test_constructed_points_belong(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            j = int(rng.integers(1, 4))
            s = "+" if rng.integers(2) else "-"
            g = m_j_pm(2, j, s)
            u = random_unit_vector(rng, 3)
            if abs(np.vdot(g.m_diag * u, u)) < 1e-3:
                continue
            assert graph_membership(graph_point(u, g), g) < 1e-10

    def test_origin_in_plain_graph(self):
        pt = phi_pair(np.eye(3)[:, 0], np.eye(3, dtype=complex)[:, 1:])
        assert graph_membership(pt, identity_graph(2)) == 0.0

    def test_rotated_hyperplane_fails(self):
        rng = np.random.default_rng(1)
        u = random_unit_vector(rng, 3)
        q = random_special_unitary(rng, 3)
        pt = phi_pair(u, q @ r_w0_basis(u))
        assert graph_membership(pt, identity_graph(2)) > 1e-3

    def test_untwisting_reduces_to_plain_membership(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            j = int(rng.integers(1, 4))
            s = "+" if rng.integers(2) else "-"
            g = m_j_pm(2, j, s)
            u = random_unit_vector(rng, 3)
            if abs(np.vdot(g.m_diag * u, u)) < 1e-3:
                continue
            pt = graph_point(u, g)
            assert abs(
                graph_membership(pt, g)
                - graph_membership(untwist(pt, g), identity_graph(2))
            ) < 1e-10


def test_tangent_frame_refuses_a_pair_on_the_incidence_divisor():
    # (u, m u) with (m u)^H u = 0: the chart derivatives are not finite, so no
    # pivot of the QR counts and the frame is refused
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with np.errstate(all="ignore"), pytest.raises(GraphIntegrityError, match="dimension 0"):
        graph_tangent_frame(pair_point(u, u), np.array([1.0, -1.0]))


def _critical_frame(g, j):
    return graph_tangent_frame(critical_points(g.dim - 1)[j - 1], g.m_diag)


class TestTangentBasis:
    def test_rank_one_zero_section(self):
        # at the origin the plain graph is tangent to the compact directions
        rs = RootSystemAn(1)
        h0m = cartan_matrix(minimal_cartan(1))
        basis = _critical_frame(identity_graph(1), 1)
        expected = [bracket(rs.a_alpha((1, 2)), h0m), bracket(rs.z_alpha((1, 2)), h0m)]
        rows = subspace_intersection_real(
            realify(np.array(basis)), realify(np.array(expected))
        )
        assert rows.shape[0] == 2

    def test_real_linear_independence(self):
        for n, j, s in ((2, 1, "-"), (2, 3, "+"), (4, 2, "-")):
            basis = _critical_frame(m_j_pm(n, j, s), j)
            assert len(basis) == 2 * n
            gram = np.array([[b_tau(a, b) for b in basis] for a in basis])
            assert abs(np.linalg.det(gram)) > 1e-8

    def test_lagrangian(self):
        for n, j, s in ((2, 1, "-"), (2, 2, "+"), (4, 3, "-")):
            basis = _critical_frame(m_j_pm(n, j, s), j)
            assert max(abs(omega(a, b)) for a in basis for b in basis) < 1e-12


def _fixed_set_basis(m):
    """Real basis of the anti-linear fixed set {x : x = m x^H m} in sl(d)
    for a diagonal sign involution m."""
    eps = m.real
    d = len(m)
    out = []
    for k in range(d - 1):
        a = np.zeros((d, d), dtype=complex)
        a[k, k], a[k + 1, k + 1] = 1.0, -1.0
        out.append(a)
    for i in range(d):
        for j in range(i + 1, d):
            for phase in (1.0, 1j):
                a = np.zeros((d, d), dtype=complex)
                a[i, j], a[j, i] = phase, np.conj(phase) * eps[i] * eps[j]
                out.append(a)
    return out


def _same_span(a, b, tol=1e-10):
    qa, qb = orthonormal_rows(realify(np.array(a))), orthonormal_rows(realify(np.array(b)))
    sv = np.linalg.svd(qa @ qb.T, compute_uv=False)
    return qa.shape == qb.shape and sv.min() > 1.0 - tol


def _twist_cases(n):
    # phases summing to zero, so det m = 1; no entry is real but the middle one
    generic = GraphSpec(np.exp(1j * np.linspace(-0.7, 0.7, n + 1)))
    return [m_j_pm(n, j, s) for j, s in twists(n)] + [generic]


def _graph_points(rng, g, count=4):
    out = []
    while len(out) < count:
        u = random_unit_vector(rng, g.dim)
        if abs(np.vdot(g.m_diag * u, u)) > 1e-2:
            out.append(graph_point(u, g))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
class TestTangentFrame:
    def test_orthonormal_frame_of_2n_vectors(self, n):
        rng = np.random.default_rng(80 + n)
        for g in _twist_cases(n):
            for pt in _graph_points(rng, g) + critical_points(n):
                frame = graph_tangent_frame(pt, g.m_diag)
                assert len(frame) == 2 * n
                gram = np.array([[b_tau(a, b) for b in frame] for a in frame])
                assert np.abs(gram - np.eye(2 * n)).max() < 1e-12

    def test_involution_frame_spans_tangent_fixed_set(self, n):
        rng = np.random.default_rng(90 + n)
        for g in _twist_cases(n)[:-1]:
            assert np.isin(g.m_diag, (1.0, -1.0)).all()
            for pt in _graph_points(rng, g):
                real_tangent = [m for e in tangent_frame(pt) for m in (e, 1j * e)]
                rows = subspace_intersection_real(
                    realify(np.array(real_tangent)),
                    realify(np.array(_fixed_set_basis(g.m_diag))),
                    1e-8,
                )
                assert rows.shape[0] == 2 * n
                assert _same_span(graph_tangent_frame(pt, g.m_diag), unrealify(rows, n + 1))

    def test_generic_twist_matches_central_differences(self, n):
        # every twist, the sign twists included: the QR frame, each vector
        # flipped by its pivot's sign, is Gram-Schmidt's of the chart derivatives
        rng = np.random.default_rng(100 + n)
        assert not np.isin(_twist_cases(n)[-1].m_diag, (1.0, -1.0)).all()
        step = 1e-6
        for g in _twist_cases(n):
            for pt in _graph_points(rng, g):
                u = pt.line
                diffs = []
                for k in range(n):
                    for phase in (1.0, 1j):
                        delta = phase * r_w0_basis(u)[:, k]
                        plus = graph_point(u + step * delta, g).x
                        minus = graph_point(u - step * delta, g).x
                        diffs.append((plus - minus) / (2.0 * step))
                expected = gram_schmidt_real(diffs, b_tau)
                frame = graph_tangent_frame(pt, g.m_diag)
                assert len(expected) == len(frame) == 2 * n
                assert max(np.abs(a - b).max() for a, b in zip(frame, expected)) < 1e-7

    def test_critical_frame_spans_generator_brackets(self, n):
        for g in _twist_cases(n):
            for j in range(1, n + 2):
                xc = critical_points(n)[j - 1].x
                brackets = [bracket(b, xc) for _, b1, b2 in graph_generators(g, j)
                            for b in (b1, b2)]
                assert _same_span(_critical_frame(g, j), brackets)


class TestHessian:
    def test_cartan_arguments_vanish(self):
        h = default_cartan(2)
        hvec = np.diag([1.0, 0.0, -1.0]).astype(complex)
        a = RootSystemAn(2).a_alpha((1, 2))
        assert hessian_full(hvec, a, identity_weyl(3), h) == 0
        assert hessian_full(a, hvec, identity_weyl(3), h) == 0

    def test_compact_generator_frozen_value(self):
        # direct bracket/trace evaluation at the origin of rank one:
        # -<[A_a, H0], [A_a, H0]> = -2 a(H0)^2 = -8
        rs = RootSystemAn(1)
        val = hessian_full(
            rs.a_alpha((1, 2)), rs.a_alpha((1, 2)), identity_weyl(2), minimal_cartan(1)
        )
        assert val == pytest.approx(-8.0)
        rep = hessian_restricted(minimal_cartan(1), 1, identity_graph(1))
        assert rep.values()[0] == pytest.approx(-8.0)

    def test_frozen_tables_rank_two(self):
        h = default_cartan(2)
        cases = {
            (1, "-"): [-6.0, -12.0],
            (1, "+"): [6.0, 12.0],
            (2, "-"): [-6.0, -6.0],
            (2, "+"): [6.0, 6.0],
        }
        for (j, s), expected in cases.items():
            rep = hessian_restricted(h, j, m_j_pm(2, j, s))
            assert np.allclose(sorted(v.real for v in rep.values()), sorted(expected))
            assert rep.definiteness == ("negative" if s == "-" else "positive")

    def test_definiteness_matches_superscript(self):
        for n in (2, 4):
            h = default_cartan(n)
            for j in range(1, n + 2):
                for s in ("+", "-"):
                    rep = hessian_restricted(h, j, m_j_pm(n, j, s))
                    assert max(abs(v.imag) for v in rep.values()) < 1e-12
                    assert rep.definiteness == ("positive" if s == "+" else "negative")

    def test_restricted_equals_full_on_generators(self):
        for n in (2, 4):
            h = default_cartan(n)
            for j in range(1, n + 2):
                for s in ("+", "-"):
                    g = m_j_pm(n, j, s)
                    rep = hessian_restricted(h, j, g)
                    w = word_with_slot(n, j)
                    for row, (alpha, b1, b2) in zip(rep.rows, graph_generators(g, j)):
                        assert abs(hessian_full(b1, b1, w, h) - row.value) < 1e-10
                        assert abs(hessian_full(b2, b2, w, h) - row.value) < 1e-10
                        assert abs(hessian_full(b1, b2, w, h)) < 1e-10

    def test_alpha_at_critical_diagonal_is_computed(self):
        rep = hessian_restricted(default_cartan(4), 3, m_j_pm(4, 3, "+"))
        assert all(row.alpha_crit == -5.0 for row in rep.rows)

    def test_zero_section_negative_definite(self):
        for n in (2, 4):
            rep = hessian_restricted(default_cartan(n), 1, identity_graph(n))
            assert rep.definiteness == "negative"

    def test_csv_columns(self):
        h = default_cartan(2)
        rep = hessian_restricted(h, 1, m_j_pm(2, 1, "-"))
        text = hessian_report_csv([rep], h)
        head = text.splitlines()[0]
        assert head.startswith("j,sign,k,alpha_crit,alpha_h,eps_k_eps_j,value_re")
        assert len(text.splitlines()) == 3


class TestReality:
    def test_plain_graph_is_hermitian(self):
        rng = np.random.default_rng(3)
        h = default_cartan(2)
        out = reality_check(identity_graph(2).m_diag, h, 200, rng)
        assert out["max_im_f"] < 1e-10
        assert out["max_im_diag"] < 1e-10

    def test_twisted_example_diagonal_real(self):
        g = m_j_pm(2, 1, "+")
        u = np.array([2.0, 1.0, 0.0]) / np.sqrt(5.0)
        pt = graph_point(u, g)
        assert np.abs(np.diag(pt.x).imag).max() < 1e-10
        assert abs(np.trace(cartan_matrix(default_cartan(2)) @ pt.x).imag) < 1e-10

    def test_all_involutions_rank_two(self):
        rng = np.random.default_rng(4)
        h = default_cartan(2)
        for j in range(1, 4):
            for s in ("+", "-"):
                out = reality_check(m_j_pm(2, j, s).m_diag, h, 100, rng)
                assert out["max_im_f"] < 1e-9

    def test_real_diagonal_twist(self):
        rng = np.random.default_rng(5)
        h = default_cartan(2)
        out = reality_check(np.array([2.0, 1.0, 1.0]), h, 200, rng)
        assert out["max_im_f"] < 1e-9
        out = reality_check(np.array([1.7, -0.6, 1.1]), h, 200, rng)
        assert out["max_im_f"] < 1e-9

    def test_generic_unitary_twist_not_real(self):
        # a non-involutive torus element does not make the height real
        rng = np.random.default_rng(6)
        h = default_cartan(2)
        theta = np.array([0.4, -0.7, 0.3])
        g = GraphSpec(np.exp(1j * theta))
        out = reality_check(g.m_diag, h, 100, rng)
        assert out["max_im_f"] > 1e-3

    def test_sampling_error_when_rejection_unsatisfiable(self, monkeypatch):
        from orbitflow import graphs
        from orbitflow.errors import SamplingError

        rng = np.random.default_rng(7)
        h = default_cartan(2)
        monkeypatch.setattr(graphs, "REJECT_TOL", 2.0)
        with pytest.raises(SamplingError):
            reality_check(m_j_pm(2, 1, "+").m_diag, h, 1, rng)
