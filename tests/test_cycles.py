"""V_w subspaces, isotropic distribution, Hamiltonian lifts, level spheres."""

import numpy as np
import pytest

from orbitflow.cycles import (
    build_vw,
    delta_w,
    flag_sample,
    grad_height,
    ham_height,
    vanishing_sphere,
)
from orbitflow.errors import LevelRangeError
from orbitflow.liecore import (
    RootSystemAn,
    WeylElement,
    b_tau,
    hermitian_form,
    killing_form,
    longest_weyl,
    minimal_cartan,
    omega,
    pi_w,
    weyl_group,
)
from orbitflow.orbit import assemble, critical_points, membership_residual, potential
from orbitflow.util import random_compact, random_traceless, realify, subspace_intersection_real
from orbitflow.verification import random_orbit_point, random_tangent

from helpers import identity_weyl, vanishing_sphere_point


class TestVw:
    def test_rank_one_identity_basis(self):
        vw = build_vw(identity_weyl(2))
        assert vw.dim == 3  # n + n(n+1) with n = 1
        assert all(lab.startswith(("h", "iu")) for lab in vw.labels)

    def test_rank_one_longest_basis(self):
        vw = build_vw(longest_weyl(2))
        assert vw.dim == 3
        assert any(lab.startswith("u(") for lab in vw.labels)
        assert not any(lab.startswith("iu") for lab in vw.labels)

    def test_dimension_formula(self):
        for n in (1, 2, 3):
            for w in weyl_group(n + 1):
                assert build_vw(w).dim == n + n * (n + 1)

    def test_hermitian_form_real_on_basis(self):
        for w in weyl_group(3):
            vw = build_vw(w)
            for a in vw.basis:
                for b in vw.basis:
                    assert abs(hermitian_form(a, b).imag) < 1e-12

    def test_killing_gram_block_signs(self):
        # positive on the Cartan and Hermitian blocks, negative on compact ones
        for w in weyl_group(3):
            vw = build_vw(w)
            for lab, vec in zip(vw.labels, vw.basis):
                diag = killing_form(vec, vec).real
                if lab.startswith("u("):
                    assert diag < 0
                else:
                    assert diag > 0


class TestDelta:
    def test_dimension_at_singularity_rank_one(self):
        pt = critical_points(1)[0]
        assert len(delta_w(identity_weyl(2), pt)) == 2  # half of dim_R = 4

    def test_dimension_at_singularities_rank_two(self):
        for w in (identity_weyl(3), longest_weyl(3), WeylElement((2, 1, 3))):
            j = w(1)
            pt = critical_points(2)[j - 1]
            assert len(delta_w(w, pt)) == 4

    def test_isotropy_at_singularity(self):
        pt = critical_points(1)[0]
        dd = delta_w(identity_weyl(2), pt)
        assert max(abs(omega(a, b)) for a in dd for b in dd) < 1e-10

    def test_runs_at_rank_three(self):
        # the V_w span (15 real rows) is larger than the tangent span (12)
        rng = np.random.default_rng(1)
        pt = random_orbit_point(rng, 3)
        dd = delta_w(longest_weyl(4), pt)
        assert len(dd) <= 6
        assert max((abs(omega(a, b)) for a in dd for b in dd), default=0.0) < 1e-10

    def test_intersection_either_order(self):
        a, b = np.eye(4)[:3], np.eye(4)[:2]
        for rows in (subspace_intersection_real(a, b), subspace_intersection_real(b, a)):
            assert rows.shape == (2, 4)
            assert np.allclose(rows.T @ rows, np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_generic_point_dimension_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            pt = random_orbit_point(rng, 1, spread=0.8)
            assert len(delta_w(identity_weyl(2), pt)) <= 2

    def test_hamiltonian_fields_span_delta(self):
        n = 2
        rs = RootSystemAn(n)
        for w in (identity_weyl(3), WeylElement((2, 3, 1))):
            pt = critical_points(n)[w(1) - 1]
            inverted = pi_w(w)
            hams = []
            for alpha in rs.positive_roots:
                gens = (
                    [1j * rs.a_alpha(alpha), rs.s_alpha(alpha)]
                    if alpha in inverted
                    else [rs.a_alpha(alpha), 1j * rs.s_alpha(alpha)]
                )
                hams.extend(ham_height(x, pt) for x in gens)
            hams = [v for v in hams if np.linalg.norm(v) > 1e-10]
            dd = delta_w(w, pt)
            rows = subspace_intersection_real(
                realify(np.array(hams)), realify(np.array(dd))
            )
            assert rows.shape[0] == len(dd) == 4


class TestGradHam:
    def test_relation_is_rotation(self):
        rng = np.random.default_rng(1)
        pt = random_orbit_point(rng, 2)
        x_elem = random_traceless(rng, 3)
        assert np.allclose(ham_height(x_elem, pt), -1j * grad_height(x_elem, pt))

    def test_duality_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pt = random_orbit_point(rng, 2)
            x_elem = random_traceless(rng, 3)
            grad = grad_height(x_elem, pt)
            ham = ham_height(x_elem, pt)
            for _ in range(5):
                v = random_tangent(rng, pt)
                dfx = b_tau(v, x_elem)
                assert abs(dfx - b_tau(v, grad)) < 1e-10
                assert abs(dfx - omega(v, ham)) < 1e-10

    def test_kernel_elements_give_zero(self):
        # a matrix commuting with x pairs trivially with every tangent vector
        pt = critical_points(2)[0]
        k = np.diag([0.0, 1.0, -1.0]).astype(complex)  # commutes with diag(2,-1,-1)? no
        k = np.diag([2.0, -1.0, -1.0]).astype(complex)  # multiples of x and of the identity
        k -= (np.trace(k) / 3) * np.eye(3)
        g = grad_height(1j * k, pt)
        # i*k is b_tau-orthogonal to the tangent space at the diagonal point
        assert np.linalg.norm(g) < 1e-12


class TestFlag:
    def test_zero_radius_is_origin(self):
        rng = np.random.default_rng(3)
        pts = flag_sample(2, 3, 0.0, rng)
        for pt in pts:
            assert np.allclose(pt.x, np.diag([2.0, -1.0, -1.0]))

    def test_samples_hermitian_on_orbit(self):
        rng = np.random.default_rng(4)
        for pt in flag_sample(2, 30, 0.8, rng):
            assert np.linalg.norm(pt.x - pt.x.conj().T) < 1e-12
            assert membership_residual(pt.x) < 1e-10

    def test_height_real_on_samples(self):
        rng = np.random.default_rng(5)
        from orbitflow.liecore import default_cartan

        h = default_cartan(2)
        for pt in flag_sample(2, 30, 0.8, rng):
            assert abs(potential(h, pt).imag) < 1e-12

    def test_compact_form_misses_orbit(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = random_compact(rng, 3, scale=rng.uniform(0.3, 3.0))
            assert membership_residual(a) > 0.5


class TestVanishingSphere:
    def test_level_values_rank_one(self):
        rng = np.random.default_rng(7)
        h0 = minimal_cartan(1)
        sph = vanishing_sphere(h0, 7.5, 64, rng)
        assert len(sph) == 64
        for pt in sph:
            assert abs(potential(h0, pt).real - 7.5) < 1e-8
            assert abs(potential(h0, pt).imag) < 1e-12

    @pytest.mark.parametrize("n, c", ((1, 7.5), (6, 98.0)))
    def test_charts_only_the_seeds_and_the_landed_rows(self, n, c, monkeypatch):
        # the same points, to rounding, as the landed rows of a trace that
        # records along its flows, from a trace of 2 count rows; the exact
        # flows of m = 1 step by record_sep, so the two take different steps
        from orbitflow import cycles, thimble

        h, count = minimal_cartan(n), 12
        top = potential(h, critical_points(n)[0]).real
        want = thimble.trace_thimble([(1, "-")], h, c_offset=top - c, directions=count, radii=1,
                                     rng=np.random.default_rng(3))
        traces = []

        def recording_trace(*args, **kwargs):
            traces.append(thimble.trace_thimble(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cycles, "trace_thimble", recording_trace)
        got = vanishing_sphere(h, c, count, np.random.default_rng(3))
        assert len(want) > 2 * count and len(traces[0]) == 2 * count
        for pt, line in zip(got, want.line[-count:], strict=True):
            assert np.abs(pt.line - line).max() <= 1e-13 and np.array_equal(pt.normal, pt.line)
            assert np.abs(pt.x - assemble(line, line)).max() <= 1e-13

    def test_points_own_their_arrays(self, monkeypatch):
        # the landed rows are views into the trace's record array; the points
        # copy them, so writing into that array moves no point and no frame
        from orbitflow import cycles, thimble

        traces = []

        def recording_trace(*args, **kwargs):
            traces.append(thimble.trace_thimble(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cycles, "trace_thimble", recording_trace)
        sph = vanishing_sphere(minimal_cartan(2), 17.0, 4, np.random.default_rng(11))
        frames = [pt.frame for pt in sph]
        want = [(pt.x.copy(), pt.line.copy(), [a.copy() for a in pt.frame]) for pt in sph]
        field = traces[0].line
        field.flags.writeable = True
        field[...] = np.nan
        for pt, frame, (x, line, parts) in zip(sph, frames, want, strict=True):
            assert pt.line.flags.owndata and pt.x.flags.owndata
            assert pt.frame is frame
            assert np.array_equal(pt.x, x) and np.array_equal(pt.line, line)
            assert all(np.array_equal(a, b) for a, b in zip(pt.frame, parts, strict=True))

    def test_opposite_directions_hit_same_level(self):
        rs = RootSystemAn(1)
        h0 = minimal_cartan(1)
        a = rs.a_alpha((1, 2))
        p = vanishing_sphere_point(h0, 7.5, a)
        q = vanishing_sphere_point(h0, 7.5, -a)
        assert abs(potential(h0, p).real - potential(h0, q).real) < 1e-8

    def test_circle_dimension_proxy(self):
        # the rank-one level set is a circle: its sample cloud spans exactly
        # two real dimensions after centering
        rng = np.random.default_rng(8)
        sph = vanishing_sphere(minimal_cartan(1), 7.5, 48, rng)
        cloud = realify(np.array([p.x for p in sph]))
        cloud -= cloud.mean(axis=0)
        sv = np.linalg.svd(cloud, compute_uv=False)
        assert sv[1] > 1e-2
        assert sv[2] < 1e-10

    def test_sphere_secants_isotropic(self):
        rng = np.random.default_rng(9)
        sph = vanishing_sphere(minimal_cartan(1), 7.2, 16, rng)
        mats = [p.x for p in sph]
        worst = max(
            abs(hermitian_form(a - mats[0], b - mats[0]).imag)
            for a in mats
            for b in mats
        )
        assert worst < 1e-10

    def test_level_range_errors(self):
        rng = np.random.default_rng(10)
        h0 = minimal_cartan(1)
        with pytest.raises(LevelRangeError):
            vanishing_sphere(h0, 9.0, 4, rng)   # above the top value 8
        with pytest.raises(LevelRangeError):
            vanishing_sphere(h0, -8.5, 4, rng)  # below the next value -8

    def test_maximum_away_from_the_flag_maximum_raises(self):
        # h = (-1, 0, 1) peaks at [e_3]: 9 lies below that maximum, not [e_1]
        rng = np.random.default_rng(10)
        with pytest.raises(LevelRangeError, match=r"\[e_3\]"):
            vanishing_sphere(np.array([-1.0, 0.0, 1.0]), 9.0, 4, rng)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_raises(self, count):
        with pytest.raises(ValueError, match="count"):
            vanishing_sphere(minimal_cartan(1), 7.5, count, np.random.default_rng(10))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_landings_at_both_ends_of_the_attracting_range(self, n):
        # 1e-9 of the range above the second critical value the level
        # nearly touches the next critical points; 1e-10 below the top it
        # is a tiny sphere about [e_1]
        from orbitflow.liecore import default_cartan

        h = default_cartan(n)
        second, top = sorted(potential(h, p).real for p in critical_points(n))[-2:]
        for c in (second + 1e-9 * (top - second), top - 1e-10):
            sph = vanishing_sphere(h, c, 12, np.random.default_rng(n))
            assert len(sph) == 12
            for pt in sph:
                assert np.array_equal(pt.x, pt.x.conj().T)
                assert abs(potential(h, pt).real - c) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_every_draw_lands_next_to_the_saddle(self, n):
        # just above the second critical value df1/dt is tiny near the
        # saddle, where a landing stepped from a far state (s, B) reads f1
        # as noisily as Newton's stop and may miss it; every draw lands, at
        # both ends of the range, with no seed left out
        from orbitflow.liecore import default_cartan

        h = default_cartan(n)
        second, top = sorted(potential(h, p).real for p in critical_points(n))[-2:]
        for frac in (1e-9, 1e-6, 1.0 - 1e-6):
            c = second + frac * (top - second)
            for seed in range(40):
                sph = vanishing_sphere(h, c, 12, np.random.default_rng(seed))
                assert len(sph) == 12
                assert max(abs(potential(h, pt).real - c) for pt in sph) <= 1e-10

    def test_dimension_count_formula(self):
        # sphere dim = dim flag - 1 = 2n - 1, half the regular fibre dimension
        for n in (1, 2, 3):
            flag_dim = 2 * n
            fibre_real_dim = 2 * (2 * n - 1)
            assert flag_dim - 1 == fibre_real_dim // 2
