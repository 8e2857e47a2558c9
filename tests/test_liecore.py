"""Root-system algebra: pairings, conjugation, Weyl combinatorics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitflow.errors import ShapeError
from orbitflow.liecore import (
    RootSystemAn,
    WeylElement,
    b_tau,
    bracket,
    cartan_matrix,
    default_cartan,
    hermitian_form,
    killing_form,
    longest_weyl,
    minimal_cartan,
    omega,
    pi_w,
    root_eval,
    tau,
    weyl_action,
    weyl_group,
)
from orbitflow.util import random_compact, random_traceless
from orbitflow.verification import adjoint_trace_pairing, adjoint_trace_pairing_real

from helpers import identity_weyl, weyl_orbit


def _rng(seed=0):
    return np.random.default_rng(seed)


def _traceless(draw_seed, d):
    return random_traceless(_rng(draw_seed), d)


class TestKillingForm:
    def test_sl2_diagonal_matches_adjoint_trace(self):
        x = np.diag([1.0, -1.0]).astype(complex)
        oracle = adjoint_trace_pairing(x, x)
        assert abs(oracle - 8.0) < 1e-12
        assert abs(killing_form(x, x) - 8.0) < 1e-12

    def test_weyl_pair_is_one(self):
        for n in (1, 2, 3):
            rs = RootSystemAn(n)
            xp, xm = rs.x_alpha((1, 2)), rs.x_alpha((2, 1))
            oracle = adjoint_trace_pairing(xp, xm)
            assert abs(oracle - 1.0) < 1e-12
            assert abs(killing_form(xp, xm) - 1.0) < 1e-12

    def test_same_root_space_pairs_to_zero(self):
        rs = RootSystemAn(2)
        x = rs.x_alpha((1, 2))
        assert killing_form(x, x) == 0

    def test_oracle_on_random_pairs(self):
        rng = _rng(1)
        for n in (1, 2, 3):
            for _ in range(20):
                x = random_traceless(rng, n + 1)
                y = random_traceless(rng, n + 1)
                oracle = adjoint_trace_pairing(x, y)
                assert abs(killing_form(x, y) - oracle) <= 1e-10 * max(1, abs(oracle))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            killing_form(np.eye(2), np.eye(3))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ad_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (random_traceless(rng, 3) for _ in range(3))
        lhs = killing_form(bracket(x, y), z)
        rhs = -killing_form(y, bracket(x, z))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestTau:
    def test_fixes_compact_elements(self):
        x = 1j * np.diag([1.0, -1.0])
        assert np.allclose(tau(x), x)

    def test_negates_root_vector_into_opposite(self):
        rs = RootSystemAn(2)
        assert np.allclose(tau(rs.x_alpha((1, 3))), -rs.x_alpha((3, 1)))

    def test_negates_hermitian(self):
        x = np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(tau(x), -x)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        x = random_traceless(np.random.default_rng(seed), 3)
        assert np.allclose(tau(tau(x)), x)


class TestHermitianForm:
    def test_unit_root_vector(self):
        rs = RootSystemAn(1)
        x = rs.x_alpha((1, 2))
        assert abs(hermitian_form(x, x) - 1.0) < 1e-14

    def test_omega_vanishes_on_compact_pairs(self):
        rng = _rng(2)
        for _ in range(20):
            x, y = random_compact(rng, 3), random_compact(rng, 3)
            assert abs(omega(x, y)) < 1e-12

    def test_omega_nondegenerate_on_complex_lines(self):
        rng = _rng(3)
        for _ in range(20):
            x = random_traceless(rng, 3)
            assert abs(omega(1j * x, x)) > 1e-8

    def test_positive_definite(self):
        rng = _rng(4)
        for _ in range(20):
            x = random_traceless(rng, 4)
            assert b_tau(x, x) > 0

    def test_omega_is_b_of_rotated(self):
        rng = _rng(5)
        x, y = random_traceless(rng, 3), random_traceless(rng, 3)
        assert abs(omega(x, y) - b_tau(x, 1j * y)) < 1e-12


class TestRoots:
    def test_evaluation(self):
        assert root_eval((1, 2), [1.0, 0.0, -1.0]) == 1.0
        assert root_eval((3, 1), minimal_cartan(2)) == -3.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry(self, seed):
        h = np.random.default_rng(seed).standard_normal(4)
        h -= h.mean()
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    assert root_eval((i, j), h) == -root_eval((j, i), h)

    def test_counts_and_positivity(self):
        for n in (1, 2, 3):
            rs = RootSystemAn(n)
            assert len(rs.roots) == n * (n + 1)
            assert all(i < j for i, j in rs.positive_roots)


class TestWeyl:
    def test_pi_of_identity_is_empty(self):
        assert pi_w(identity_weyl(3)) == frozenset()

    def test_pi_of_longest_is_all_positive(self):
        for d in (2, 3, 4):
            rs = RootSystemAn(d - 1)
            assert pi_w(longest_weyl(d)) == frozenset(rs.positive_roots)

    def test_pi_of_transposition(self):
        # oracle: enumerate the three positive roots of rank 2 and test signs
        w = WeylElement((2, 1, 3))
        expected = set()
        for (i, j) in RootSystemAn(2).positive_roots:
            if w(i) > w(j):
                expected.add((i, j))
        assert expected == {(1, 2)}
        assert pi_w(w) == frozenset({(1, 2)})

    def test_length_counts_inversions(self):
        for w in weyl_group(4):
            assert w.length() == len(pi_w(w))

    def test_action_identity(self):
        h = default_cartan(2)
        assert np.allclose(weyl_action(identity_weyl(3), h), h)

    def test_action_transposition(self):
        assert np.allclose(
            weyl_action(WeylElement((2, 1, 3)), minimal_cartan(2)), [-1.0, 2.0, -1.0]
        )

    def test_orbit_size_of_minimal_vector(self):
        assert len(weyl_orbit(minimal_cartan(2))) == 3

    def test_inverse_and_compose(self):
        w = WeylElement((3, 1, 2))
        assert w.compose(w.inverse()).perm == (1, 2, 3)


class TestInvariants:
    def test_tau_isometry(self):
        rng = _rng(6)
        for _ in range(30):
            x, y = random_traceless(rng, 3), random_traceless(rng, 3)
            assert abs(b_tau(tau(x), tau(y)) - b_tau(x, y)) < 1e-12 * max(
                1.0, abs(b_tau(x, y))
            )

    def test_ad_adjoint(self):
        rng = _rng(7)
        for _ in range(30):
            x, y, z = (random_traceless(rng, 3) for _ in range(3))
            assert abs(
                b_tau(bracket(x, y), z) + b_tau(y, bracket(tau(x), z))
            ) < 1e-10 * max(1.0, abs(b_tau(bracket(x, y), z)))

    def test_compact_skew_hermitian_symmetric(self):
        rng = _rng(8)
        for _ in range(30):
            xu = random_compact(rng, 3)
            yh = 1j * random_compact(rng, 3)
            a, b = random_traceless(rng, 3), random_traceless(rng, 3)
            assert abs(b_tau(bracket(xu, a), b) + b_tau(a, bracket(xu, b))) < 1e-10
            assert abs(b_tau(bracket(yh, a), b) - b_tau(a, bracket(yh, b))) < 1e-10

    def test_realification_identity(self):
        rng = _rng(9)
        for _ in range(10):
            x, y = random_traceless(rng, 2), random_traceless(rng, 2)
            oracle = adjoint_trace_pairing_real(x, y)
            assert abs(2.0 * killing_form(x, y).real - oracle) <= 1e-10 * max(
                1.0, abs(oracle)
            )

    def test_root_generator_relations(self):
        # [H, A_a] = a(H) S_a and [H, Z_a] = a(H) iA_a; the Killing square of
        # A_a is -2 while its b_tau square is +2 (A_a lies in the compact form)
        for n in (1, 2, 3):
            rs = RootSystemAn(n)
            h = default_cartan(n)
            hm = cartan_matrix(h)
            for alpha in rs.positive_roots:
                a_, s_, z_ = rs.a_alpha(alpha), rs.s_alpha(alpha), rs.z_alpha(alpha)
                ah = root_eval(alpha, h)
                assert np.linalg.norm(bracket(hm, a_) - ah * s_) < 1e-12
                assert np.linalg.norm(bracket(hm, z_) - ah * 1j * a_) < 1e-12
                assert abs(killing_form(a_, s_)) < 1e-12
                assert abs(killing_form(a_, a_) + 2.0) < 1e-12
                assert abs(b_tau(a_, a_) - 2.0) < 1e-12
                assert abs(killing_form(s_, s_) - 2.0) < 1e-12
