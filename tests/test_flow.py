"""Gradient field, orbit metric, linearization and flow integration."""

import numpy as np
import pytest

from orbitflow.errors import NotCriticalError, StepSizeError, TangencyError
from orbitflow.flow import (
    ad_inverse,
    advance,
    default_step,
    integrate,
    linearize,
    metric_m,
    nongradient_witness,
    trajectory_csv,
    z_field,
)
from orbitflow.liecore import (
    RootSystemAn,
    b_norm,
    b_tau,
    bracket,
    cartan_matrix,
    default_cartan,
    minimal_cartan,
    omega,
)
from orbitflow.orbit import (assemble, critical_points, lax_velocity, membership_residual, retract,
                            tangent_project)
from orbitflow.util import realify, subspace_intersection_real
from orbitflow.verification import (
    double_bracket_solution,
    fd_jacobian_eigenvalues,
    random_orbit_point,
    random_tangent,
)


def stack(points):
    """The stack of pairs, shape (batch, 2, d), of orbit points."""
    return np.array([[p.line, p.normal] for p in points])


class TestZField:
    def test_vanishes_at_singularities(self):
        h = default_cartan(2)
        for pt in critical_points(2):
            assert b_norm(z_field(pt, h)) < 1e-12

    def test_descends_from_perturbed_point(self):
        rs = RootSystemAn(1)
        h0 = minimal_cartan(1)
        x = retract(cartan_matrix(h0) + 0.1 * bracket(rs.x_alpha((1, 2)), cartan_matrix(h0)))
        z = z_field(x, h0)
        assert b_norm(z) > 1e-6
        # dh(Z) < 0: descent direction for the real height
        assert b_tau(z, cartan_matrix(h0)) < 0

    def test_tangent_to_orbit(self):
        rng = np.random.default_rng(0)
        h = default_cartan(2)
        for _ in range(10):
            pt = random_orbit_point(rng, 2)
            z = z_field(pt, h)
            assert np.linalg.norm(tangent_project(pt, z) - z) < 1e-10 * np.linalg.norm(z)

    def test_height_pairing_real_negative_on_compact_shift(self):
        # for x = z + y with z real dominant diagonal, y compact, the
        # Hermitian pairing of Z(x) with y is real and negative; the closed
        # form sums -2 a(H) a(z) (coefficients squared) over positive roots.
        # The analogous sum with the minimal diagonal in place of z is the
        # alternative reading; both are evaluated, the z-form is asserted.
        rng = np.random.default_rng(1)
        n = 2
        rs = RootSystemAn(n)
        h = default_cartan(n)
        hm = cartan_matrix(h)
        h0 = minimal_cartan(n)
        gap_z = gap_h0 = 0.0
        for _ in range(25):
            zvec = np.sort(rng.uniform(0.5, 3.0, n + 1))[::-1]
            zvec -= zvec.mean()
            coeff = rng.standard_normal((len(rs.positive_roots), 2)) * 0.3
            y = sum(
                c[0] * rs.z_alpha(a) + c[1] * rs.a_alpha(a)
                for c, a in zip(coeff, rs.positive_roots)
            )
            x = cartan_matrix(zvec) + y
            from orbitflow.liecore import hermitian_form, root_eval, tau

            val = hermitian_form(bracket(x, bracket(tau(x), hm)), y)
            assert abs(val.imag) < 1e-10
            assert val.real < 0
            oracle_z = -2.0 * sum(
                root_eval(a, h) * root_eval(a, zvec) * (c[0] ** 2 + c[1] ** 2)
                for c, a in zip(coeff, rs.positive_roots)
            )
            oracle_h0 = -2.0 * sum(
                root_eval(a, h) * root_eval(a, h0) * (c[0] ** 2 + c[1] ** 2)
                for c, a in zip(coeff, rs.positive_roots)
            )
            gap_z = max(gap_z, abs(val.real - oracle_z) / max(1.0, abs(oracle_z)))
            gap_h0 = max(gap_h0, abs(val.real - oracle_h0) / max(1.0, abs(oracle_h0)))
            assert abs(val.real - oracle_z) < 1e-9 * max(1.0, abs(oracle_z))
        print(f"height pairing readings: gap with a(z) oracle {gap_z:.3e}, "
              f"with minimal-diagonal oracle {gap_h0:.3e}")


class TestMetric:
    def test_frozen_unit_value(self):
        rs = RootSystemAn(1)
        pt = critical_points(1)[0]
        u = bracket(rs.x_alpha((1, 2)), cartan_matrix(minimal_cartan(1)))
        # ad(H0)^{-1} u = -X_a scaled; the Weyl normalization gives 1
        assert metric_m(pt, u, u) == pytest.approx(1.0, abs=1e-12)

    def test_positive_definite(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pt = random_orbit_point(rng, 2)
            v = random_tangent(rng, pt)
            assert metric_m(pt, v, v) > 0

    def test_gradient_identity(self):
        rng = np.random.default_rng(3)
        for n in (1, 2):
            h = default_cartan(n)
            for _ in range(50):
                pt = random_orbit_point(rng, n)
                v = random_tangent(rng, pt)
                lhs = b_tau(v, cartan_matrix(h))
                assert abs(lhs + metric_m(pt, v, z_field(pt, h))) < 1e-10

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_ad_inverse_matches_kronecker_pinv(self, n):
        # reference: pseudo-inverse of ad(x) as a d^2 x d^2 Kronecker matrix,
        # minimum-norm on column-flattened matrices
        rng = np.random.default_rng(70 + n)
        d = n + 1
        points = [random_orbit_point(rng, n) for _ in range(5)] + critical_points(n)[:2]
        for pt in points:
            v = random_tangent(rng, pt)
            op = np.kron(np.eye(d), pt.x) - np.kron(pt.x.T, np.eye(d))
            want = np.linalg.pinv(op, rcond=1e-9) @ v.ravel(order="F")
            got = ad_inverse(pt, v)
            assert np.linalg.norm(got.ravel(order="F") - want) < 1e-12

    def test_tangency_error(self):
        pt = critical_points(2)[0]
        with pytest.raises(TangencyError):
            ad_inverse(pt, np.diag([1.0, 0.0, -1.0]).astype(complex))

    @pytest.mark.parametrize("n", (2, 5, 12))
    def test_ad_inverse_of_a_stack_is_each_matrix_alone(self, n):
        rng = np.random.default_rng(80 + n)
        for pt in (random_orbit_point(rng, n), critical_points(n)[0]):
            vs = np.array([random_tangent(rng, pt) for _ in range(4)])
            got = ad_inverse(pt, vs)
            assert got.shape == vs.shape
            for k, v in enumerate(vs):
                assert np.array_equal(got[k], ad_inverse(pt, v))

    def test_tangency_error_names_the_worst_stack_index(self):
        rng = np.random.default_rng(6)
        pt = critical_points(2)[0]
        off = np.diag([1.0, 0.0, -1.0])
        vs = np.array([random_tangent(rng, pt) for _ in range(4)])
        vs[1] += 1e-6 * off
        vs[2] += off
        with pytest.raises(TangencyError, match=r"\(stack index 2\)"):
            ad_inverse(pt, vs)
        with pytest.raises(TangencyError, match=r"\(stack index 1\)"):
            ad_inverse(pt, vs[:2])
        ad_inverse(pt, vs[[0, 3]])

    def test_metric_inverts_both_matrices_in_one_call(self, monkeypatch):
        from orbitflow import orbit

        rng = np.random.default_rng(9)
        h = default_cartan(4)
        pt = random_orbit_point(rng, 4)
        u, v = random_tangent(rng, pt), z_field(pt, h)
        want = b_tau(ad_inverse(pt, u), ad_inverse(pt, v))
        calls = []
        project_rows = orbit._project_rows

        def counting_project_rows(*args):
            out = project_rows(*args)
            calls.append(out.shape)
            return out

        monkeypatch.setattr(orbit, "_project_rows", counting_project_rows)
        got = metric_m(pt, u, v)
        assert calls == [(2, 5, 5)]
        assert got == want

    def test_geometry_identities_at_benchmark_size(self):
        # the four identities the benchmark gates, at n = 12 and the same tolerance
        from orbitflow.cycles import grad_height, ham_height
        from orbitflow.thimble import kaehler_gradients
        from orbitflow.util import random_traceless

        n = 12
        rng = np.random.default_rng(12)
        h = default_cartan(n)
        for _ in range(3):
            pt = random_orbit_point(rng, n)
            v = random_tangent(rng, pt)
            x_elem = random_traceless(rng, n + 1)
            f1, f2 = kaehler_gradients(pt, h)
            dfx = b_tau(v, x_elem)
            assert abs(b_tau(v, cartan_matrix(h)) + metric_m(pt, v, z_field(pt, h))) < 1e-10
            assert b_norm(f2 - 1j * f1) < 1e-10
            assert abs(dfx - b_tau(v, grad_height(x_elem, pt))) < 1e-10
            assert abs(dfx - omega(v, ham_height(x_elem, pt))) < 1e-10

    def test_a_point_builds_its_frame_once(self, monkeypatch):
        # the field, the metric and the Kähler and height gradients at one
        # point all read the frame cached on it
        from orbitflow import orbit
        from orbitflow.cycles import grad_height, ham_height
        from orbitflow.thimble import kaehler_gradients
        from orbitflow.util import random_traceless

        rng = np.random.default_rng(13)
        h = default_cartan(4)
        pt = random_orbit_point(rng, 4)
        v, x_elem = random_tangent(rng, pt), random_traceless(rng, 5)
        calls = []
        frame_ = orbit._frame

        def counting_frame(*args):
            calls.append(args)
            return frame_(*args)

        monkeypatch.setattr(orbit, "_frame", counting_frame)
        for _ in range(2):
            metric_m(pt, v, z_field(pt, h))
            kaehler_gradients(pt, h)
            grad_height(x_elem, pt)
            ham_height(x_elem, pt)
        assert len(calls) == 1
        assert calls[0][0] is pt.line and calls[0][1] is pt.normal

    @pytest.mark.parametrize("n", (2, 5, 12))
    def test_point_kernels_are_the_pair_kernels_bit_for_bit(self, n):
        # the frame cached on a point is the frame a (line, normal) tuple builds
        # per call, so the kernels give the same bits at either
        from orbitflow.orbit import _frame_of, invert_at
        from orbitflow.util import random_traceless

        rng = np.random.default_rng(90 + n)
        for pt in (random_orbit_point(rng, n), critical_points(n)[0]):
            pair = (pt.line, pt.normal)
            built = _frame_of(pair)
            assert len(pt.frame) == len(built) == 7
            assert all(np.array_equal(a, b) for a, b in zip(pt.frame, built))
            ms = np.array([random_traceless(rng, n + 1) for _ in range(3)])
            vs = np.array([random_tangent(rng, pt) for _ in range(3)])
            for m, v in ((ms[0], vs[0]), (ms, vs)):
                assert np.array_equal(tangent_project(pt, m), tangent_project(pair, m))
                assert np.array_equal(ad_inverse(pt, v), invert_at(pair, v)[0])


class TestLinearize:
    def test_rank_one_spectrum(self):
        h0 = minimal_cartan(1)
        spec = linearize(critical_points(1)[0], h0)
        assert spec.eigenvalues() == [-4.0, -4.0, 4.0, 4.0]

    def test_rank_two_rates_with_degenerate_root(self):
        h = default_cartan(2)
        spec = linearize(critical_points(2)[0], h)
        by_root = {r.root: r for r in spec.rates}
        assert by_root[(1, 2)].rate == pytest.approx(3.0)
        assert by_root[(1, 3)].rate == pytest.approx(6.0)
        assert by_root[(2, 3)].rate == pytest.approx(0.0)
        assert by_root[(2, 3)].degenerate
        assert by_root[(2, 3)].stable == by_root[(2, 3)].unstable == ()

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_bases_are_the_root_generators_the_rate_selects(self, n):
        # V- holds the compact pair (A_a, Z_a) of a root of positive rate and
        # the Hermitian pair (S_a, i A_a) of one of negative rate, V+ the other
        # pair, in root order; a degenerate root adds to neither
        rs, h = RootSystemAn(n), default_cartan(n)
        for pt in critical_points(n):
            spec = linearize(pt, h)
            want_minus, want_plus = [], []
            for r in spec.rates:
                if r.degenerate:
                    continue
                compact = [rs.a_alpha(r.root), rs.z_alpha(r.root)]
                hermit = [rs.s_alpha(r.root), 1j * rs.a_alpha(r.root)]
                want_minus += compact if r.rate > 0 else hermit
                want_plus += hermit if r.rate > 0 else compact
            for got, want in ((spec.v_minus(), want_minus), (spec.v_plus(), want_plus)):
                assert len(got) == len(want) == 2 * n
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_fd_jacobian_matches(self):
        for n in (1, 2):
            h = default_cartan(n)
            for pt in critical_points(n):
                expected = linearize(pt, h).eigenvalues()
                observed = fd_jacobian_eigenvalues(pt, h)
                assert np.abs(np.array(observed) - np.array(expected)).max() < 1e-6

    def test_stable_space_is_compact_intersection(self):
        # V^- at H0 equals u cap the tangent root pairs, V^+ the iu side
        rs = RootSystemAn(2)
        h = default_cartan(2)
        pt = critical_points(2)[0]
        spec = linearize(pt, h)
        vm = realify(np.array(spec.v_minus()))
        vp = realify(np.array(spec.v_plus()))
        compact, hermit = [], []
        for alpha in ((1, 2), (1, 3)):
            compact.extend(rs.compact_root_basis(alpha))
            hermit.extend(rs.hermitian_root_basis(alpha))
        rows = subspace_intersection_real(vm, realify(np.array(compact)), 1e-10)
        assert rows.shape[0] == vm.shape[0] == 4
        rows = subspace_intersection_real(vp, realify(np.array(hermit)), 1e-10)
        assert rows.shape[0] == vp.shape[0] == 4

    def test_isotropy_of_both_spaces(self):
        for n in (1, 2):
            h = default_cartan(n)
            for pt in critical_points(n):
                spec = linearize(pt, h)
                for side in (spec.v_minus(), spec.v_plus()):
                    for a in side:
                        for b in side:
                            assert abs(omega(a, b)) < 1e-10

    def test_requires_critical_point(self):
        rng = np.random.default_rng(4)
        pt = random_orbit_point(rng, 2)
        with pytest.raises(NotCriticalError):
            linearize(pt, default_cartan(2))


class TestIntegrate:
    def test_zero_length_at_singularity(self):
        h0 = minimal_cartan(1)
        traj = integrate(stack(critical_points(1)[:1]), h0, max_steps=50)
        assert len(traj.times) == 1
        assert traj.limit_index.tolist() == [1]

    def test_stable_seed_returns_unstable_leaves(self):
        rs = RootSystemAn(1)
        h0 = minimal_cartan(1)
        pt = critical_points(1)[0]
        eps = 1e-3
        x0 = stack([retract(pt.x + eps * rs.a_alpha((1, 2)))])
        fwd = integrate(x0, h0, "forward", max_steps=2000, conv_tol=0.0)
        dists = np.linalg.norm(fwd.points[:, 0] - pt.x, axis=(-2, -1))
        assert min(dists) < eps / 10.0
        back = integrate(x0, h0, "backward", max_steps=10, conv_tol=0.0)
        bdist = np.linalg.norm(back.points[:, 0] - pt.x, axis=(-2, -1))
        assert all(np.diff(bdist) > 0)

    def test_flag_seed_converges_to_some_singularity(self):
        from orbitflow.cycles import flag_sample

        rng = np.random.default_rng(5)
        h = default_cartan(2)
        traj = integrate(stack(flag_sample(2, 5, 0.9, rng)), h, max_steps=8000)
        assert set(traj.limit_index) <= {1, 2, 3}

    def test_basin_property_fifty_flag_seeds(self):
        # forward relaxation of 50 random flag seeds as one stack; every
        # limit lies in the critical set
        from orbitflow.cycles import flag_sample

        rng = np.random.default_rng(9)
        h = default_cartan(2)
        traj = integrate(stack(flag_sample(2, 50, 1.2, rng)), h, step=0.05, max_steps=600,
                         conv_tol=0.0)
        crits = np.array([c.x for c in critical_points(2)])
        ends = traj.points[-1]
        dists = np.linalg.norm(ends[:, None] - crits[None], axis=(2, 3)).min(axis=1)
        assert dists.max() < 1e-6

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_flag_flow_matches_exact_double_bracket_solution(self, n):
        from orbitflow.cycles import flag_sample

        h = default_cartan(n)
        pt = flag_sample(n, 1, 0.9, np.random.default_rng(40 + n))[0]
        traj = integrate(stack([pt]), h, max_steps=20000)
        assert traj.limit_index[0] > 0
        exact = double_bracket_solution(traj.lines[0], h, traj.times)
        assert exact.shape == traj.lines.shape
        exact = assemble(exact, exact)
        assert np.linalg.norm(traj.points - exact, axis=(-2, -1)).max() < 1e-8

    @pytest.mark.parametrize("n", (2, 3))
    def test_a_stack_flows_each_row_as_it_flows_alone(self, n):
        # Hermitian flag rows; two rows on the stable manifold of [e_1]; a row
        # on the graph of the pattern of m_1^+, mixed-sign at n = 2 and of
        # determinant -1 at n = 3, given with a phase on its normal; a free
        # row 1e-8 off that graph, which the Lax form steps; and a row at
        # [e_2], which converges at once and stays frozen while the others
        # flow and freeze one by one
        from orbitflow.cycles import flag_sample
        from orbitflow.graphs import sign_pattern
        from orbitflow.orbit import pair_point, split
        from orbitflow.thimble import seed_lines

        h = default_cartan(n)
        crit = critical_points(n)
        rng = np.random.default_rng(12)
        spec = linearize(crit[0], h)
        v_minus, v_plus = spec.v_minus(), spec.v_plus()
        m = sign_pattern(n, 1, "+")
        assert (m < 0).any() and (m > 0).any() and np.prod(m) == (1.0 if n % 2 == 0 else -1.0)
        u = seed_lines(1, n + 1, rng.standard_normal(2 * n), [0.3])[0]
        free = retract(crit[0].x + 1e-3 * v_minus[0] + 1e-8 * v_plus[0])
        points = (flag_sample(n, 2, 0.9, rng) + [retract(crit[0].x + 1e-3 * v) for v in v_minus[:2]]
                  + [pair_point(u, np.exp(0.7j) * m * u), free, crit[1]])
        graph_rows = {0: np.ones(n + 1), 1: np.ones(n + 1), 4: m}
        dt = 3.0 * default_step(n, h)
        traj = integrate(stack(points), h, step=dt, max_steps=4000, conv_tol=1e-4)
        assert traj.limit_index.tolist() == [n + 1, n + 1, 1, 1, 1, 1, 2]
        assert traj.steps[-1] == 0 and traj.steps.max() == len(traj.times) - 1
        for k in range(len(points)):
            alone = integrate(stack(points[k:k + 1]), h, step=dt, max_steps=4000, conv_tol=1e-4)
            steps = len(alone.times)
            assert traj.steps[k] == alone.steps[0] == steps - 1
            assert np.array_equal(traj.times[:steps], alone.times)
            assert np.array_equal(traj.limit_index[k], alone.limit_index[0])
            for name in ("lines", "points", "potentials", "z_norms"):
                row, ref = getattr(traj, name)[:, k], getattr(alone, name)[:, 0]
                assert np.array_equal(row[:steps], ref)
                assert (row[steps:] == ref[-1]).all()
        for k, mk in graph_rows.items():
            # v = e^{i theta} m u: the unit normal is parallel to m u at every step
            line, normal = split(traj.points[:, k])
            mu = mk * line
            assert np.abs(mu - normal * (normal.conj() * mu).sum(axis=-1)[:, None]).max() < 1e-12
            # and the recorded normal is m u itself, from the first step on
            assert np.array_equal(traj.normals[:, k], mk * traj.lines[:, k])
        for k in (0, 1):
            steps = traj.steps[k] + 1
            exact = double_bracket_solution(traj.lines[0, k:k + 1], h, traj.times[:steps])[:, 0]
            exact = assemble(exact, exact)
            assert np.linalg.norm(traj.points[:steps, k] - exact, axis=(-2, -1)).max() <= 1e-12

    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("sign, direction", (("+", "forward"), ("-", "backward")))
    def test_last_only_keeps_the_last_entry_bit_for_bit(self, n, sign, direction):
        # Hermitian flag rows; graph rows near [e_1] and [e_{n+1}] of the
        # twists of one sign, one scalar and one mixed, which flow back to
        # them under +Z (sign +) or -Z (sign -), as in the thimble suite;
        # free rows and a row at [e_2]: the one kept entry is the full
        # record's last
        from orbitflow.cycles import flag_sample
        from orbitflow.graphs import sign_pattern
        from orbitflow.orbit import pair_point
        from orbitflow.thimble import seed_lines

        h, crit = default_cartan(n), critical_points(n)
        rng = np.random.default_rng(3)
        spec = linearize(crit[0], h)
        toward = spec.v_minus() if sign == "+" else spec.v_plus()
        rows = [(1, sign_pattern(n, 1, sign)), (n + 1, sign_pattern(n, n + 1, sign))]
        assert sorted(np.ptp(m) for _, m in rows) == [0.0, 2.0]
        graph = [pair_point(u, np.exp(0.4j) * m * u) for j, m in rows
                 for u in seed_lines(j, n + 1, rng.standard_normal((2, 2 * n)), [0.3])]
        free = [retract(crit[0].x + 1e-3 * toward[0] + 1e-8 * v) for v in toward[1:3]]
        pairs = stack(flag_sample(n, 2, 0.9, rng) + graph + free + [crit[1]])
        dt = 3.0 * default_step(n, h)
        for max_steps, conv_tol in ((4000, 1e-4), (37, 0.0)):
            full = integrate(pairs, h, direction, step=dt, max_steps=max_steps, conv_tol=conv_tol)
            last = integrate(pairs, h, direction, step=dt, max_steps=max_steps, conv_tol=conv_tol,
                             last_only=True)
            assert len(last.times) == 1 and last.times[0] == full.times[-1]
            for name in ("lines", "normals", "z_norms"):
                got, want = getattr(last, name), getattr(full, name)[-1:]
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            for name in ("steps", "limit_index"):
                assert np.array_equal(getattr(last, name), getattr(full, name)), name
        # with conv_tol = 0 no row freezes, and both stop after max_steps
        assert (last.steps[:-1] == 37).all() and len(full.times) == 38

    def test_a_seed_with_zero_entries_freezes_only_next_to_its_limit(self):
        # the seed row of the thimble suite's Z return at n=12: its line has
        # zero entries, so its |Z| is read off a line with some entries 0 all
        # the way, and the row freezes only once it is within 2e-11 of [e_1]
        from orbitflow.flow import CONV_TOL
        from orbitflow.graphs import sign_pattern
        from orbitflow.thimble import pair_gap, seed_lines

        n = 12
        h, m = default_cartan(n), sign_pattern(n, 1, "+")
        lines = seed_lines(1, n + 1, np.eye(2 * n)[0], [1e-3])
        traj = integrate(np.stack([lines, m * lines], axis=1), h, step=30.0 * default_step(n, h),
                         max_steps=4000)
        assert traj.limit_index[0] == 1 and 0.0 < traj.z_norms[-1, 0] < CONV_TOL
        assert pair_gap(m, traj.lines[-1], np.eye(n + 1)[0])[0] <= 2e-11

    @pytest.mark.parametrize("n", (4, 12))
    def test_a_seed_with_zero_entries_stays_finite_past_its_limit(self, n):
        # a seed of m_1^- with zero entries flowed far past [e_2]: the
        # log-moduli of its zero entries grow without bound, and the lines
        # are scaled by the largest log-modulus of the others, so none is NaN
        from orbitflow.graphs import m_j_pm
        from orbitflow.thimble import seed_lines

        h, m = default_cartan(n), m_j_pm(n, 1, "-").m_diag.real
        lines = seed_lines(1, n + 1, np.eye(2 * n)[0], [1e-3])
        assert (lines == 0).any()
        traj = integrate(np.stack([lines, m * lines], axis=1), h, "forward",
                         step=30.0 * default_step(n, h), max_steps=3000, conv_tol=0.0)
        assert (traj.steps == 3000).all() and np.isfinite(traj.lines).all()
        assert (traj.lines[:, 0, lines[0] == 0] == 0).all()

    def test_z_is_computed_only_for_rows_that_can_freeze(self, monkeypatch):
        # conv_tol = 0 freezes no row, so no |Z| is computed (z_norms is NaN);
        # otherwise a row frozen at [e_2] is not recomputed while a flag row
        # (stepped on its graph) and a free row flow
        from orbitflow import flow
        from orbitflow.cycles import flag_sample

        rows = []
        z_norm_ = flow.z_norm

        def counting_z_norm(pairs, h):
            rows.append(len(pairs))
            return z_norm_(pairs, h)

        monkeypatch.setattr(flow, "z_norm", counting_z_norm)
        n = 2
        h = default_cartan(n)
        rng = np.random.default_rng(12)
        points = flag_sample(n, 1, 0.9, rng) + [critical_points(n)[1], random_orbit_point(rng, n)]
        traj = integrate(stack(points), h, max_steps=50, conv_tol=0.0)
        assert rows == [] and np.isnan(traj.z_norms).all()
        traj = integrate(stack(points), h, max_steps=50, conv_tol=1e-4)
        assert traj.steps.tolist() == [50, 0, 50]
        assert rows == [3] + [2] * 50
        assert (traj.z_norms[:, 1] == traj.z_norms[0, 1]).all()

    def test_height_monotone_and_residual_bounded(self):
        from orbitflow.cycles import flag_sample

        rng = np.random.default_rng(6)
        h = default_cartan(2)
        pt = flag_sample(2, 1, 0.8, rng)[0]
        traj = integrate(stack([pt]), h, step=1e-3, max_steps=2000, conv_tol=0.0)
        assert all(np.diff(traj.potentials[:, 0].real) <= 1e-12)
        assert membership_residual(traj.points[:, 0]).max() < 1e-8

    def test_large_step_raises_step_size_error(self):
        from orbitflow.cycles import flag_sample

        rng = np.random.default_rng(7)
        h = default_cartan(2)
        pt = flag_sample(2, 1, 0.8, rng)[0]
        with pytest.raises(StepSizeError):
            integrate(stack([pt]), h, step=50.0, max_steps=10)

    def test_pair_flows_converge_at_fourth_order(self):
        # halving dt cuts the error against a 50x finer run by ~16x for the
        # Hermitian Z flow of pairs and for a graph thimble flow inside m_1^+
        # stepped as (s, B), whose error is smaller at the same step
        from orbitflow import thimble
        from orbitflow.cycles import flag_sample
        from orbitflow.graphs import graph_tangent_frame, m_j_pm

        n = 2
        h = default_cartan(n)
        g = m_j_pm(n, 1, "+")
        m = g.m_diag.real
        crit = critical_points(n)[0]
        line = retract(crit.x + 0.5 * graph_tangent_frame(crit, g.m_diag)[0]).line
        flag = flag_sample(n, 1, 0.9, np.random.default_rng(3))[0].line

        def hermitian(pairs):
            vel = lax_velocity(pairs, h)
            vel[:, 1] = vel[:, 0]
            return vel

        def on_graph(state):
            u = thimble.graph_lines(line, h, m, state)
            return assemble(u, m * u)

        def f1_rule(state):
            return thimble._line_rate(h, thimble._weights(h, m), m, -1.0, np.abs(line), state)[0]

        flows = (
            (hermitian, np.array([[flag, flag]]), 0.02, lambda p: assemble(p[:, 0], p[:, 1])),
            (f1_rule, np.zeros((1, 2)), 0.5, on_graph),
        )

        def run(rhs, state, dt, steps, points):
            for _ in range(steps):
                state = advance(state, rhs, dt, None, h)
            return points(state)

        for rhs, state, dt, points in flows:
            ref = run(rhs, state, dt / 50, 500, points)
            coarse = np.linalg.norm(run(rhs, state, dt, 10, points) - ref)
            fine = np.linalg.norm(run(rhs, state, dt / 2, 20, points) - ref)
            assert coarse > 1e-10 and coarse / fine >= 12.0

    def test_csv_columns(self):
        h0 = minimal_cartan(1)
        traj = integrate(stack(critical_points(1)[:1]), h0, max_steps=5)
        header = trajectory_csv(traj).splitlines()[0].split(",")
        assert header[:5] == ["t", "re_f", "im_f", "orbit_residual", "z_norm"]
        assert len(header) == 5 + 2 * 4

    @pytest.mark.parametrize("conv_tol", (0.0, 1e-4))
    def test_csv_is_the_text_of_each_entry(self, conv_tol):
        # the one-pass table against formatting entry by entry, on the first
        # of two rows, with |Z| NaN where no row can freeze
        rng = np.random.default_rng(14)
        h = default_cartan(2)
        points = [random_orbit_point(rng, 2), critical_points(2)[0]]
        traj = integrate(stack(points), h, max_steps=40, conv_tol=conv_tol)
        text = trajectory_csv(traj)
        lines = text.splitlines()
        assert text.endswith("\n") and len(lines) == len(traj.times) + 1
        for k, line in enumerate(lines[1:]):
            x, f = traj.points[k, 0], traj.potentials[k, 0]
            row = [traj.times[k], f.real, f.imag, membership_residual(x), traj.z_norms[k, 0]]
            row += [p for z in x.ravel() for p in (z.real, z.imag)]
            assert line == ",".join(format(v, ".17g") for v in row)

    def test_default_step_scales_with_stiffness(self):
        assert default_step(2, default_cartan(2)) == pytest.approx(1e-2 / 6.0)

    def test_imaginary_part_drift_is_reported_not_enforced(self):
        # measure Im f_H along a flow from a non-Hermitian seed; the drift
        # is recorded as a diagnostic (conservation is not claimed)
        rng = np.random.default_rng(8)
        h = default_cartan(2)
        pt = random_orbit_point(rng, 2, spread=0.3)
        traj = integrate(stack([pt]), h, max_steps=500, conv_tol=0.0)
        f2 = traj.potentials[:, 0].imag
        drift = np.abs(f2 - f2[0]).max()
        print(f"Im f_H drift along the metric-gradient flow: {drift:.3e}")
        assert np.isfinite(drift)


class TestNonGradient:
    def test_antisymmetric_in_arguments(self):
        rs = RootSystemAn(1)
        h = np.array([1.0, -1.0])
        h1 = 1j * np.array([1.0, -1.0])
        v = rs.x_alpha((1, 2))
        assert nongradient_witness(h, h1, v, v) == 0.0

    def test_vanishes_without_twist(self):
        rs = RootSystemAn(1)
        h = np.array([1.0, -1.0])
        v, w = rs.x_alpha((1, 2)), 1j * rs.x_alpha((1, 2))
        assert nongradient_witness(h, np.zeros(2), v, w) == 0.0

    def test_documented_quadruple_is_positive(self):
        rs = RootSystemAn(1)
        h = np.array([1.0, -1.0])
        h1 = 1j * np.array([1.0, -1.0])
        v = rs.x_alpha((1, 2))
        w = 1j * rs.x_alpha((1, 2))
        val = nongradient_witness(h, h1, v, w)
        assert val == pytest.approx(16.0, abs=1e-12)
