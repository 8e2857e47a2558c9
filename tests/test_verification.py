"""The verify checks built on the graphs of the stable and unstable manifolds
of Z fail under named mutations of the Z rule and of the seeds' graphs, and
the unit-determinant check fails when a twist of determinant -1 is listed,
and the thimble topology proxy fails on repeated samples of two seeds and on
flows whose height turns."""

import dataclasses

import numpy as np
import pytest

from orbitflow import flow, graphs, thimble, verification
from orbitflow.cli import RunConfig
from orbitflow.errors import StepSizeError
from orbitflow.liecore import RootSystemAn, default_cartan
from orbitflow.orbit import critical_points
from orbitflow.util import realify


def failing(suite, n):
    """Names of the failing checks of one suite at rank n and seed 0."""
    return {c.name for c in suite(RunConfig(n=n), np.random.default_rng(0)) if c.status == "fail"}


def measure_splitting(n):
    cfg = RunConfig(n=n)
    spectra = [flow.linearize(pt, cfg.h) for pt in critical_points(n)]
    return verification.stable_unstable_measure(cfg, np.random.default_rng(0), spectra)


@pytest.fixture
def flipped_z_sign(monkeypatch):
    # the Z rule of the two-scalar engine with its sign flipped; F1 as it is
    line_rate = thimble._line_rate

    def rate(h, weights, m, orient, r0, state, z=False):
        return line_rate(h, weights, m, -orient if z else orient, r0, state, z)

    monkeypatch.setattr(thimble, "_line_rate", rate)


@pytest.fixture
def d_plus_one(monkeypatch):
    # (d + 1) / sigma in place of d / sigma in the rate of Z
    line_rate = thimble._line_rate

    def rate(h, weights, m, orient, r0, state, z=False):
        return line_rate(h, weights, m, orient * (len(h) + 1) / len(h) if z else orient, r0,
                         state, z)

    monkeypatch.setattr(thimble, "_line_rate", rate)


@pytest.fixture
def swapped_twists(monkeypatch):
    # V- seeds on the pattern of m_j^-, V+ seeds on that of m_j^+
    sign_pattern = graphs.sign_pattern
    monkeypatch.setattr(graphs, "sign_pattern",
                        lambda n, j, s: sign_pattern(n, j, "-" if s == "+" else "+"))


@pytest.mark.parametrize("n", (2, 3))
def test_the_unmutated_checks_pass(n):
    assert measure_splitting(n) <= 1e-9
    assert failing(verification.flow_suite, n) == set()
    assert failing(verification.thimble_suite, n) == set()


@pytest.mark.usefixtures("flipped_z_sign")
class TestFlippedZSign:
    @pytest.mark.parametrize("n", (2, 3))
    def test_stable_seeds_leave_and_the_step_guard_names_the_row(self, n):
        with pytest.raises(StepSizeError, match=r"batch index \d+"):
            measure_splitting(n)

    def test_flag_flow_leaves_the_double_bracket_solution(self, monkeypatch):
        monkeypatch.setattr(verification, "stable_unstable_measure", lambda cfg, rng, spectra: 0.0)
        assert failing(verification.flow_suite, 2) == {"flag-flow-matches-double-bracket-solution"}

    def test_thimble_rows_do_not_return(self):
        # n = 1 has only the scalar twists m = 1 and m = -1; at every n >= 2
        # a mixed-sign twist trips the step guard first, as below
        assert failing(verification.thimble_suite, 1) == {"thimble-containment-and-openness",
                                                          "thimble-flows-back-under-z"}

    def test_or_the_step_guard_names_the_row(self):
        with pytest.raises(StepSizeError, match=r"batch index \d+"):
            verification.thimble_suite(RunConfig(n=2), np.random.default_rng(0))


@pytest.mark.usefixtures("d_plus_one")
def test_d_plus_one_breaks_the_flag_flow():
    assert failing(verification.flow_suite, 2) == {"flag-flow-matches-double-bracket-solution"}


def test_normals_off_their_lines_break_the_flag_flow(monkeypatch):
    # the lines stay on the double-bracket solution; the normals drift off
    # them, so the pairs leave the Hermitian locus and their chart points move
    integrate = flow.integrate

    def drifting(pairs, h, **kwargs):
        traj = integrate(pairs, h, **kwargs)
        drift = 1e-9 * (traj.times / traj.times[-1])[:, None, None] * np.roll(traj.lines, 1, -1)
        normals = traj.normals + drift
        normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
        return dataclasses.replace(traj, normals=normals)

    monkeypatch.setattr(verification, "stable_unstable_measure", lambda cfg, rng, spectra: 0.0)
    assert failing(verification.flow_suite, 2) == set()
    monkeypatch.setattr(flow, "integrate", drifting)
    assert failing(verification.flow_suite, 2) == {"flag-flow-matches-double-bracket-solution"}


@pytest.mark.usefixtures("swapped_twists")
@pytest.mark.parametrize("n", (2, 3))
def test_stable_seeds_on_m_j_minus_leave_and_the_step_guard_names_the_row(n):
    with pytest.raises(StepSizeError, match=r"batch index \d+"):
        measure_splitting(n)


@pytest.mark.parametrize("n", (2, 3))
def test_principal_angles_see_swapped_graphs(n, monkeypatch):
    # the angle part alone: the seeds stay on their graphs, but V- and V+
    # are measured against the tangent frames of the other twist at [e_j],
    # whose pattern differs (up to sign) in the slot j alone
    frame = graphs.graph_tangent_frame

    def swapped_frame(pt, m):
        return frame(pt, np.where(np.abs(pt.line) == 1.0, -m, m))

    monkeypatch.setattr(graphs, "graph_tangent_frame", swapped_frame)
    assert measure_splitting(n) > 0.5


def every_sign_pattern(monkeypatch, from_rank):
    """Let ``twists`` list the determinant -1 patterns of the ranks from
    ``from_rank`` on, and ``m_j_pm`` build them past GraphSpec's own check."""
    twists, sign_pattern = graphs.twists, graphs.sign_pattern

    def m_j_pm(n, j, s):
        g = object.__new__(graphs.GraphSpec)
        object.__setattr__(g, "m_diag", sign_pattern(n, j, s).astype(complex))
        object.__setattr__(g, "name", f"m{j}{s}")
        return g

    monkeypatch.setattr(graphs, "twists", lambda n: twists(n) if n < from_rank else
                        [(j, s) for j in range(1, n + 2) for s in "+-"])
    monkeypatch.setattr(graphs, "m_j_pm", m_j_pm)


@pytest.mark.parametrize("n, from_rank", [(2, 1), (7, 7)])
def test_unit_determinant_check_reads_every_odd_rank(n, from_rank, monkeypatch):
    # (2, 1): only ranks 1, 3 and 5 list a determinant -1 pattern;
    # (7, 7): only the configured rank does
    every_sign_pattern(monkeypatch, from_rank)
    assert "involutions-have-unit-determinant" in failing(verification.graphs_suite, n)


def trace(n, seed=0):
    """A thimble trace of the size ``thimble_suite`` draws, of m_1^-."""
    return thimble.trace_thimble([(1, "-")], default_cartan(n), c_offset=0.4, directions=12,
                                 radii=4, rng=np.random.default_rng(seed))


def with_row(samples, row):
    return np.concatenate([samples, row]).view(np.recarray)


class TestTopologyProxy:
    def test_a_trace_passes(self):
        assert verification._topology_proxy(trace(2)) == 0.0

    def test_a_sample_repeated_under_another_seed_fails(self):
        samples = trace(2)
        dup = samples[5:6].copy()
        dup.seed_index += 1
        assert verification._topology_proxy(with_row(samples, dup)) == 1.0

    def test_a_sample_repeated_under_its_own_seed_passes(self):
        samples = trace(2)
        assert verification._topology_proxy(with_row(samples, samples[5:6].copy())) == 0.0

    def test_a_flow_that_goes_down_then_up_fails(self):
        samples = trace(2).copy()
        rows = np.flatnonzero(samples.flow_index == samples.flow_index[-1])
        rows = rows[np.argsort(samples.arc[rows])]
        assert len(rows) >= 3
        samples.f1[rows[len(rows) // 2]] = samples.f1[rows].min() - 1.0
        assert verification._topology_proxy(samples) == 1.0

    def test_one_twist_of_a_stack_reads_as_its_trace_alone(self):
        # at record_sep 0.3 the flow indices of the last twists' blocks exceed
        # the blocks' lengths; each block reads as its twist traced alone
        twists, h = graphs.twists(2), default_cartan(2)
        kwargs = dict(c_offset=0.4, directions=12, radii=4, record_sep=0.3)
        stacked = thimble.trace_thimble(twists, h, rng=np.random.default_rng(0), **kwargs)
        rng = np.random.default_rng(0)
        for t, twist in enumerate(twists):
            block = stacked[stacked.twist == t]
            alone = thimble.trace_thimble([twist], h, rng=rng, **kwargs)
            assert t < 3 or block.flow_index.max() >= len(block)
            assert verification._topology_proxy(block) == verification._topology_proxy(alone) == 0.0
            rows = np.flatnonzero(block.flow_index == np.bincount(block.flow_index).argmax())
            assert len(rows) >= 3
            block.f1[rows[np.argsort(block.arc[rows])][len(rows) // 2]] -= 1.0
            assert verification._topology_proxy(block) == 1.0

    @pytest.mark.parametrize("n", (2, 6))
    @pytest.mark.parametrize("planted", (False, True))
    def test_close_pairs_match_the_kd_tree(self, n, planted):
        from scipy.spatial import cKDTree

        rows = realify(trace(n).line)
        if planted:
            # rows 0.9e-9 and 1.1e-9 from rows 3 and 7 along the sort key, the
            # first coordinate, 0.9e-9 from row 9 along a random direction, and
            # a duplicate of row 0
            step = np.zeros((3, rows.shape[1]))
            step[:2, 0] = 0.9e-9, 1.1e-9
            step[2] = np.random.default_rng(n).standard_normal(rows.shape[1])
            step[2] *= 0.9e-9 / np.linalg.norm(step[2])
            rows = np.concatenate([rows, rows[[3, 7, 9]] + step, rows[:1]])
        got = sorted(map(tuple, verification._close_pairs(rows, 1e-9)))
        assert got == sorted(map(tuple, cKDTree(rows).query_pairs(1e-9, output_type="ndarray")))
        if planted:
            k = len(rows) - 4
            assert {(3, k), (9, k + 2), (0, k + 3)} <= set(got) and (7, k + 1) not in got


@pytest.mark.parametrize("n", (1, 2, 3, 6))
def test_realified_root_directions_have_gram_weyl_scale_squared(n):
    # fd_jacobian_eigenvalues reads coordinates on X_a, i X_a as entries over
    # weyl_scale, which holds only while their Gram is weyl_scale^2 I = I / (2d)
    rs = RootSystemAn(n)
    flat = realify(np.array([v for a in rs.roots for v in (rs.x_alpha(a), 1j * rs.x_alpha(a))]))
    gram = flat @ flat.T
    assert np.array_equal(gram, rs.weyl_scale ** 2 * np.eye(len(flat)))
    np.testing.assert_allclose(np.diag(gram), 1.0 / (2 * (n + 1)), rtol=1e-15)


def test_each_piece_is_built_once(monkeypatch):
    # thimble_suite traces every twist in one call, and flow_suite, with
    # stable_unstable_measure, linearizes each critical point once
    n, calls = 4, []
    trace, linearize = thimble.trace_thimble, flow.linearize
    monkeypatch.setattr(thimble, "trace_thimble",
                        lambda *args, **kwargs: calls.append("trace") or trace(*args, **kwargs))
    monkeypatch.setattr(flow, "linearize",
                        lambda *args: calls.append("linearize") or linearize(*args))
    assert failing(verification.thimble_suite, n) == set() and calls.count("trace") == 1
    assert failing(verification.flow_suite, n) == set() and calls.count("linearize") == n + 1
