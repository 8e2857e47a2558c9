"""Real Lagrangian thimbles traced inside graph Lagrangians.

The real part f1 of the superpotential restricts to a Morse function on the
graph of a twisted complement map; near a critical point with definite
restricted Hessian its sublevel (or superlevel) ball is a Lagrangian
thimble, traced along the ambient gradient of f1, the tangent projection of
H.  On the graph of an involution m = +/-1 a point is the line u of its pair
(u, m u), and both F1 and the Morse field Z scale each entry of u by a real
factor: a flow keeps the phases of its seed u0 and stays on the lines
u0 e^{m (h s - B)} up to scale (the torus orbits of Bloch, Brockett and Ratiu
when m = 1).  So every flow steps two scalars (s, B) per row, by one rule for
F1 and Z (``_line_rate``), and the seeds (``seed_lines``), the height
(``line_height``) and the chart gap (``pair_gap``) are closed forms in the
lines (``graph_lines``).  Twists are row data: one stack may mix them, and
``trace_thimble`` traces a list of twists (j, sign) as one stack.
``flow_to_level`` steps it with ``orbit.advance`` by chart distance (past
the accuracy guard where RK4 is exact) and one ``cross_level`` lands it;
matrices appear once, in the ``chart`` of the recorded lines, and live only
until f is read off them: a sample is its unit line.  On a scalar twist (m =
1 or m = -1 on every entry) an RK4 step takes its first stage as every stage
(``_stages``), so each step evaluates the field once.  ``lagrangian_check``
takes the lines and the twist, assembles their chart points once and searches
neighbours on the lines, and ``thimble_json`` writes each sample as its unit
line.  The split F1 = G1 - i G2 uses ``graphs.graph_tangent_frame``;
``flow.integrate`` steps Z by the same rule.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import GraphIntegrityError, MembershipError, NearCriticalError
from .liecore import b_norm, b_tau, cartan_matrix, root_eval
from .orbit import (DRIFT_LIMIT, advance, assemble, chart, complement, potential, rk4_step,
                    tangent_project)
from .graphs import graph_membership, graph_tangent_frame, m_j_pm

RESIDUAL_LIMIT = 1e-5
LEVEL_ULPS = 32
LEVEL_ITERATIONS = 8
GRAM_BLOCK = 64  # samples per block of ``lagrangian_check``'s secant Grams
CHART_BYTES = 2 ** 22  # bytes per block of the chart points ``trace_thimble`` reads f off


def kaehler_gradients(pt, h):
    """Ambient-metric gradients (F1, F2) of Re f_H and Im f_H on the orbit.

    Both are Hermitian-orthogonal projections, at the one point ``pt``, of
    the stack (H, iH); holomorphy forces F2 = i F1, which callers may verify.
    """
    return tuple(tangent_project(pt, cartan_matrix(h) * np.array([1.0, 1j])[:, None, None]))


@dataclass(frozen=True)
class FGReport:
    residual: float      # |F1 - (G1 - i G2)| / |F1|
    g2_ratio: float      # |G2| / |F1|
    f1_tangency: float   # |F1 - G1| / |F1|


def fg_decomposition_check(pt, g, h):
    """Verify F1 = G1 - i G2 at a graph point.

    G1, G2 are the gradients of the restricted real and imaginary parts,
    obtained by projecting F1, F2 onto the graph tangent frame.
    """
    res = graph_membership(pt, g)
    if res > 1e-6:
        raise MembershipError(f"graph membership residual {res:.3e} exceeds 1e-6")
    f1, f2 = kaehler_gradients(pt, h)
    frame = graph_tangent_frame(pt, g.m_diag)
    g1 = sum(b_tau(f1, e) * e for e in frame)
    g2 = sum(b_tau(f2, e) * e for e in frame)
    nf1 = b_norm(f1)
    return FGReport(
        residual=b_norm(f1 - (g1 - 1j * g2)) / nf1,
        g2_ratio=b_norm(g2) / nf1,
        f1_tangency=b_norm(f1 - g1) / nf1,
    )


def horizontal_lift_check(pt, h):
    """Solve df(W) = 1 for W = a F1 + b J F1; returns (a, b).

    F1 and J F1 span the symplectic orthogonal of the fibre, and reality of
    the lifted velocity forces b = 0 with a = 1/|F1|^2.
    """
    hm = cartan_matrix(h)
    f1, _ = kaehler_gradients(pt, h)
    if b_norm(f1) < 1e-8:
        raise NearCriticalError("gradient too small to condition the lift")
    jf1 = 1j * f1
    mat = np.array(
        [
            [b_tau(f1, hm), b_tau(jf1, hm)],
            [b_tau(f1, 1j * hm), b_tau(jf1, 1j * hm)],
        ]
    )
    a, b = np.linalg.solve(mat, np.array([1.0, 0.0]))
    return float(a), float(b)


# ---------------------------------------------------------------------------
# batched flow engine: many seeds stepped together as the states (s, B) of
# the graph lines u0 e^{m (h s - B)}


def _weights(h, m):
    """The rows 1, m, h and h m, shape (..., 4, d), of ``_line_sums``."""
    out = np.empty(np.shape(m)[:-1] + (4, len(h)))
    out[..., 0, :], out[..., 1, :], out[..., 2, :], out[..., 3, :] = 1.0, m, h, h * m
    return out


def _line_sums(weights, w):
    """Sums of w, m w, h w and h m w over each row, shape (4, ..., 1), each row
    on its own (a BLAS product would round differently by batch size)."""
    return np.einsum("...d,...kd->k...", w, weights)[..., None]


def _log_moduli(h, m, state):
    """m (h s - B) of states (s, B), shape (..., 2), or of their rates."""
    return m * (h * state[..., :1] - state[..., 1:])


def graph_lines(u0, h, m, state):
    """The lines u0 e^{m (h s - B)} of states (s, B), each scaled by e^-max of
    its log-moduli at the entries u0 != 0 so that none overflows; entries
    u0 = 0 stay 0, however large their log-moduli grow.  Their heights and
    chart gaps depend on |u| only, so u0 = |u0| will do."""
    phi = np.where(u0 != 0, _log_moduli(h, m, state), -np.inf)
    return u0 * np.exp(phi - phi.max(axis=-1, keepdims=True))


def _height(h, sums):
    """f1 from the ``_line_sums`` (w, m w, h w, h m w) of graph lines."""
    return 2.0 * len(h) * (len(h) * (sums[3] / sums[1])[..., 0] - np.sum(h))


def line_height(h, m, u):
    """f1 at the chart points of graph pairs (u, m u), m = +/-1, from the line
    alone: 2d (d R_m(u) - sum h), R_m(u) = sum h m |u|^2 / sum m |u|^2."""
    return _height(h, _line_sums(_weights(h, m), (u.conj() * u).real))


def _unit_and_beta(m, u):
    """The unit line u / |u|, its beta and |beta| (``pair_gap``)."""
    w = u.real ** 2 + u.imag ** 2
    norm2 = w.sum(axis=-1, keepdims=True)
    ratio, root = norm2 / (m * w).sum(axis=-1, keepdims=True), np.sqrt(norm2)
    return u / root, m * u * (ratio / root), ratio[..., 0]


def _gap(a, b):
    """``pair_gap`` from the ``_unit_and_beta`` of its two lines."""
    def dot(x, y):
        return (x.conj() * y).sum(axis=-1)

    (ua, ba, ratio), (ub, bb, _) = a, b
    du, dbeta = ua - ub, ba - bb
    sq = (dot(du, du).real * ratio ** 2 + dot(dbeta, dbeta).real
          + 2.0 * (dot(du, ub) * dot(dbeta, ba)).real)
    return ua.shape[-1] * np.sqrt(np.maximum(sq, 0.0))


def pair_gap(m, ua, ub):
    """Frobenius distance between the chart points of graph pairs (ua, m ua)
    and (ub, m ub), m = +/-1, from the lines.

    With beta = m u / sum m w, w = |u|^2, the point is x + I = d u beta^H, and
    x_a - x_b = d [(ua - ub) beta_a^H + ub (beta_a - beta_b)^H].  Its squared
    norm is read off inner products of the unit lines, which cancel neither
    as |x_a|^2 + |x_b|^2 - 2 Re tr(x_a^H x_b) nor as a difference of lengths
    in ua - ub; there |ub| = 1 and |beta_a| = sum w / sum m w.  Lines with
    the same phases, as on one flow, have the gap of their moduli.
    """
    return _gap(_unit_and_beta(m, ua), _unit_and_beta(m, ub))


def _line_rate(h, weights, m, orient, r0, state, z=False):
    """The rate (s', B') = k (1, b) of states (s, B), shape (batch, 2), of lines
    u0 e^{m (h s - B)}, |u0| = r0, m = +/-1 row by row (``weights`` is
    ``_weights(h, m)``), along orient * grad f1, or orient * Z with ``z``; and
    the lines r it reads with their ``_line_sums``, which give f1 (``_height``).

    At (u, m u), with w = |u|^2, N = sum w, sigma = sum m w / N, rho =
    sum h w / N and a = (sum h m w / N - rho sigma) / (2 - sigma^2), the
    projection of H moves u by c u, c = (sigma / d) [(h - rho + a sigma) m - a],
    and the Lax form of Z moves (u, m u) by (c u, m c u), c = (d / sigma) (rho
    - h) m.  Up to a part common to all entries, which only scales u, each c
    is m (h s' - B'): k = orient sigma / d, b = rho - a sigma for F1 and
    k = -orient d / sigma, b = rho for Z.  On a scalar twist sigma = +/-1, so
    s' is constant and B only scales u: there RK4 is exact, and ``_stages``
    steps from the first stage alone."""
    r = graph_lines(r0, h, m, state)
    sums = _line_sums(weights, r * r)
    norm, mw, hw, hmw = sums
    sigma, rho = mw / norm, hw / norm
    if z:
        k, b = -orient * len(h) / sigma, rho
    else:
        a = (hmw / norm - rho * sigma) / (2.0 - sigma ** 2)
        k, b = orient * sigma / len(h), rho - a * sigma
    return np.concatenate([k, k * b], axis=-1), r, sums


def _stages(args, k1, z=False):
    """The rhs of an RK4 step of ``_line_rate(*args, ., z)`` from its first
    stage k1, row by row.  On a row of a scalar twist (m constant along it)
    sigma = +/-1 along the whole step, so s' is constant and B' only scales
    the line: k1 is every stage, and the step moves s by k dt and B by k b dt,
    RK4's line up to scale.  Other rows take the stages of the rule, so the
    field is evaluated again only when some row has a mixed twist."""
    mixed = (args[2] != args[2][..., :1]).any(axis=-1)
    if not mixed.any():
        return lambda s: k1
    return lambda s: np.where(mixed[..., None], _line_rate(*args, s, z)[0], k1)


def phi_guard(h):
    """Longest step of the F1 rule that moves no log-modulus m_i k (h_i - b) by
    0.9 DRIFT_LIMIT on a graph of m = +/-1.  With alpha, beta the weights of the
    entries m = 1, -1 and rho_+, rho_- their means of h, b = rho_- + alpha (1 +
    2 beta) / (1 + 4 alpha beta) (rho_+ - rho_-) lies in [min h, max h], and
    |k| = |sigma| / d = |alpha - beta| / d <= 1 / d: |m_i k (h_i - b)| <= spread(h) / d."""
    return 0.9 * DRIFT_LIMIT * len(h) / np.ptp(h)


def _f1_rate(rule, rate, r, sums):
    """df1/dt = 2d^2 dR_m/dt at lines r with ``_line_sums`` sums and rate (s', B')
    of the ``_line_rate`` arguments ``rule`` (h, weights, m, ...), along d|u|^2 =
    2 m (h s' - B') |u|^2 dt, up to a part common to all entries."""
    (h, weights, m, *_), (_, mw, _, hmw) = rule, sums
    _, mdw, _, hmdw = _line_sums(weights, _log_moduli(h, m, rate) * r * r)
    return 4.0 * len(h) ** 2 * (hmdw - hmw / mw * mdw)[..., 0] / mw[..., 0]


def cross_level(r0, base, h, m, c, orient):
    """Land the states (s, B) ``base`` of lines u0 e^{m (h s - B)}, |u0| = r0,
    on the level f1 = c along orient * grad f1, each row on the graph of its
    row of m and at its level c (m, c and orient have a row per state).

    Newton's method (rate ``_f1_rate``) in the length tau >= 0 in t of one RK4 step
    from (0, 0) at the lines of ``base``, then added to it: a far state rounds its
    log-moduli by about eps |s|, next to a saddle as much as the stop.  The first
    stage of that step, the rate at ``base``, is computed once per landing, with
    the first Newton rate; on a scalar twist it is every stage (``_stages``), so
    each Newton step evaluates the field once, at its landed state.  A row whose
    step would move a log-modulus further than ``advance`` allows takes the step
    ``phi_guard``.  A row stops when |f1 - c| is within LEVEL_ULPS ulps of 2d sum
    |h_i x_ii|, the sum that computes f1 at its chart point, on its own.  Returns
    the landed states and tau; raises GraphIntegrityError naming the stack index of
    the worst miss after LEVEL_ITERATIONS steps.
    """
    r0, tau, cur = graph_lines(r0, h, m, base), np.zeros(len(base)), np.zeros_like(base)
    weights = _weights(h, m)
    field = _line_rate(h, weights, m, orient[:, None], r0, cur)
    base_rate, miss = field[0], c - _height(h, field[2])
    todo = np.arange(len(base))
    for it in range(LEVEL_ITERATIONS):
        args = (h, weights[todo], m[todo], orient[todo, None], r0[todo])
        if it:
            field = _line_rate(*args, cur[todo])
        rate = _f1_rate(args, *field)
        tau[todo] = np.maximum(tau[todo] + miss[todo] / rate, 0.0)
        k1 = base_rate[todo]
        cur[todo], size = rk4_step(np.zeros((todo.size, 2)), _stages(args, k1), tau[todo, None],
                                   k1, h)
        if not (ok := size <= DRIFT_LIMIT).all():
            tau[todo] = np.where(ok, tau[todo], np.minimum(tau[todo], phi_guard(h)))
            cur[todo] = advance(np.zeros((todo.size, 2)), _stages(args, k1), tau[todo, None],
                                k1, h)
        u = graph_lines(r0[todo], h, m[todo], cur[todo])
        miss[todo] = c[todo] - line_height(h, m[todo], u)
        w = m[todo] * u * u
        diag = len(h) * w / w.sum(axis=-1, keepdims=True) - 1.0
        scale = 2.0 * len(h) * (np.abs(h) * np.abs(diag)).sum(axis=-1)
        todo = todo[np.abs(miss[todo]) > LEVEL_ULPS * np.finfo(float).eps * scale]
        if not todo.size:
            return base + cur, tau
    worst = todo[np.argmax(np.abs(miss[todo]))]
    raise GraphIntegrityError(
        f"level {c[worst]} not reached in {LEVEL_ITERATIONS} Newton steps: "
        f"|f1 - c| = {abs(miss[worst]):.3e} at batch index {worst}"
    )


def flow_to_level(lines, h, m, c, step, max_steps, visit=None, record_sep=np.inf):
    """Flow a stack of lines u0, shape (batch, d), of graph pairs (u0, m u0),
    each with its own row of m = +/-1 and its own level c (either may
    broadcast), along grad f1, up when f1 < c and down otherwise, in steps of
    ``advance`` of the states (s, B) of the lines u0 e^{m (h s - B)}
    (``_line_rate``), from (0, 0), with no matrix.

    A float ``step`` is one grid in t for every row.  With ``step`` None, each
    row steps by at most ``phi_guard`` and so that its chart point moves
    0.45 ``record_sep`` at its speed v = |F1| = sqrt(|df1/dt| / 2d) at the
    start, which records a ``visit`` sample about every third step,
    ``record_sep`` to 2 ``record_sep`` apart.  On a row of a scalar twist (m =
    +/-1 on every entry) RK4 is exact and v^2 = 2 k2, k2 and k3 the variance
    and third central moment of h under w = |u|^2 / sum |u|^2, which tilts
    along h at rate 2/d; so |d log v / dt| = |k3| / (d k2) <= spread(h) / d <
    L = 2 spread(h) / d (at spread(h) / d, more ``vanishing_sphere`` landings
    start Newton far from the level).  A step dt then moves the chart point at
    most v (e^{L dt} - 1) / L and f1 at most |f1'| (e^{2 L dt} - 1) / (2 L), so
    the row's step grows to min(log1p(0.45 record_sep L / v) / L, log1p(2 L
    |c - f1| / |f1'|) / (2 L)) where longer and finite, and ``advance``
    refuses only a non-finite move of it; rows of mixed twists keep
    ``DRIFT_LIMIT``.
    The field at each stepped state gives the moduli r = ``graph_lines(|u0|,
    h, m, state)``, the crossing test, the next step and its first RK4 stage,
    which on a scalar twist is every stage (``_stages``): there a step, grown
    or on an explicit grid, evaluates the field once.
    After each step ``visit(indices, states, arcs, r)`` sees the flows that
    did not cross the level; one ``cross_level`` lands them from their last
    state after the loop.  Raises ValueError naming the first row of m that is
    not exactly +/-1, GraphIntegrityError naming the unlanded flow furthest
    from the level if a flow has not crossed it after max_steps; returns the
    landed states and arcs.
    """
    m = np.broadcast_to(m, np.shape(lines))
    if (bad := np.flatnonzero(~((m == 1) | (m == -1)).all(axis=-1))).size:
        raise ValueError(f"row {bad[0]} of m is {m[bad[0]]}, not +/-1: "
                         "the closed-form gradient needs m = +/-1")
    h, m, c = np.asarray(h, dtype=float), m.real, np.broadcast_to(c, len(m))
    guard, lam = phi_guard(h), 2.0 * np.ptp(h) / len(h)
    r0 = np.abs(lines)
    state, arcs = np.zeros((len(r0), 2)), np.zeros(len(r0))
    orient = np.where(line_height(h, m, r0) > c, -1.0, 1.0)
    weights = _weights(h, m)
    k1, r, sums = _line_rate(h, weights, m, orient[:, None], r0, state)
    # the flows that did not cross, their rows of the rule, levels and growth, compacted with keep
    idx, rule, level = np.arange(len(r0)), (h, weights, m, orient[:, None], r0), c
    grow = (step is None) & (np.ptp(m, axis=-1) == 0)
    dt = np.full((len(state), 1), float(step or 0.0))
    for _ in range(max_steps):
        if not idx.size:
            break
        if step is None:
            df1 = np.abs(_f1_rate(rule, k1, r, sums))
            speed = np.sqrt(df1 / (2 * len(h)))
            dt = guard / np.maximum(1.0, guard * speed / (0.45 * record_sep))
            if grow.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    grown = np.minimum(np.log1p(0.45 * record_sep * lam / speed), 0.5 * np.log1p(
                        2.0 * lam * np.abs(level - _height(h, sums)) / df1)) / lam
                dt = np.maximum(dt, np.where(grow & np.isfinite(grown), grown, 0.0))
            dt = dt[:, None]
        stepped = advance(state[idx], _stages(rule, k1), dt, k1, h,
                          np.where(grow, np.inf, DRIFT_LIMIT))
        rate, r, sums = _line_rate(*rule, stepped)
        keep = ~(rule[3][:, 0] * (_height(h, sums) - level) > 0)
        if not keep.all():
            idx, level, grow = idx[keep], level[keep], grow[keep]
            rule = (h, *(a[keep] for a in rule[1:]))
            stepped, rate, r, sums, dt = stepped[keep], rate[keep], r[keep], sums[:, keep], dt[keep]
        arcs[idx] += dt[:, 0]
        state[idx], k1 = stepped, rate
        if visit is not None and idx.size:
            visit(idx, state[idx], arcs[idx], r)
    if idx.size:
        miss = np.abs(_height(h, sums) - level)
        raise GraphIntegrityError(f"{idx.size} flows failed to reach the level in {max_steps} "
                                  f"steps: |f1 - c| = {miss.max():.3e} at batch index "
                                  f"{idx[np.argmax(miss)]}")
    state, tau = cross_level(r0, state, h, m, c, orient)
    return state, arcs + tau


def _unit_rate(h, j):
    """Stiffest Hessian rate at [e_j] per unit b_tau length."""
    return max(abs(root_eval((k, j), h)) for k in range(1, len(h) + 1) if k != j) / len(h)


def seed_lines(j, d, coeffs, radii):
    """Lines u (batch, d) of seeds (u, m u) at [e_j] on the graph of any
    diagonal m, per row of coeffs and radius r, rows outer: u = e_j +
    r / (2 d^{3/2}) sum_k coeffs_k delta_k, normalized, with delta_k
    interleaving (c_k, i c_k) over the columns c_k of ``complement(e_j)``.  As
    ``pair_tangent(e_j, m e_j, delta, m delta)`` has b_tau length 2 d^{3/2}
    |delta|, r is the b_tau length of the seed's tangent vector for unit coeffs."""
    e = np.eye(d, dtype=complex)[j - 1]
    c = complement(e).T
    deltas = np.stack([c, 1j * c], axis=1).reshape(-1, d)
    rho = np.asarray(radii, dtype=float)[:, None] / (2.0 * d ** 1.5)
    u = e + rho * (np.atleast_2d(coeffs) @ deltas)[:, None, :]
    return (u / np.linalg.norm(u, axis=-1, keepdims=True)).reshape(-1, d)


def trace_thimble(twists, h, c_offset=0.5, directions=64, step=None, radii=8, rng=None,
                  record_sep=0.03, max_steps=4000):
    """Trace the real Lagrangian thimble of [e_j] inside the definite graph of
    m_j^sign for every twist (j, sign) of the list ``twists``, as one stack.

    Per twist, in list order, seeds random unit directions of the graph
    tangent space at [e_j], drawn from ``rng``, on a geometric radius ladder
    (``seed_lines``), and flows them along -grad f1 (sign '-', negative
    definite) or +grad f1 (sign '+') to the level f1([e_j]) -/+ c_offset with
    one ``flow_to_level`` for the whole stack, on the grid ``step`` in t or
    else by chart distance.  Samples are the pairs (u, m u), u = u0 e^{m (h s
    - B)}, so they lie on the graph and the surface of their seed by
    construction and their residual measures only rounding; one above
    RESIDUAL_LIMIT raises GraphIntegrityError.

    Returns one ``np.recarray``, a row per sample, with fields ``line`` (d,)
    the unit line u, which with the twist m gives the chart point
    ``assemble(u, m u)``, ``f1`` and ``f2`` (``potential`` at the chart point
    of the pair, assembled CHART_BYTES of matrices at a time and not kept),
    ``graph_residual``, ``twist`` (the index of its twist in ``twists``),
    ``seed_index``, ``flow_index`` (one (twist, direction, radius) flow line,
    twist-major; seed_index = flow_index // radii) and ``arc``, the flow
    parameter from the seed.  The seeds come first and the landed samples
    last, each len(twists) * directions * radii rows in flow order.  A flow
    steps as it does alone, so the samples of one twist are, in their order,
    those of its trace alone, with flow_index and seed_index offset.

    Every seed lies strictly inside the level by a bound, with no search.
    A seed line is u = e_j + rho w, |w| = 1, w ⊥ e_j, rho = r / (2 d^{3/2});
    with lambda = max_k |h_k - h_j| its height is |f - f_c| = 2d^2 |R_m(u) - h_j|
    = 2d^2 rho^2 |sum m_k (h_k - h_j) |w_k|^2| / |m_j + rho^2 sum m_k |w_k|^2|
    <= 2d^2 lambda rho^2 / (1 - rho^2).  The cap r^2 <= 1.8 c_offset d / lambda
    (``_unit_rate`` is lambda / d), with r <= 0.5 so that rho^2 <= 1/128, makes
    this at most 0.91 c_offset; on a definite graph every m_k (h_k - h_j) has
    one sign, so each seed moves from f_c towards the level.
    """
    h = np.asarray(h, dtype=float)
    n, flows_per = len(h) - 1, directions * radii
    rng = np.random.default_rng(0) if rng is None else rng
    seeds, m, c_level = [], [], []
    for j, sign in twists:
        twist = m_j_pm(n, j, sign).m_diag.real
        f1_c = line_height(h, twist, np.eye(n + 1)[j - 1])
        dirs = rng.standard_normal((directions, 2 * n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        r_top = min(0.5, np.sqrt(1.8 * c_offset / _unit_rate(h, j)))
        seeds.append(seed_lines(j, n + 1, dirs, np.geomspace(min(1e-4, r_top / 10), r_top, radii)))
        m.append(np.tile(twist, (flows_per, 1)))
        c_level.append(np.full(flows_per, f1_c - c_offset if sign == "-" else f1_c + c_offset))
    seeds, m, c_level = (np.concatenate(a) for a in (seeds, m, c_level))

    flows = np.arange(len(seeds))
    chunks = [(flows, np.zeros((len(seeds), 2)), np.zeros(len(seeds)))]
    last_rec = _unit_and_beta(m, np.abs(seeds))

    def visit(indices, states, arcs, r):
        cur = _unit_and_beta(m[indices], r)
        due = _gap(cur, [a[indices] for a in last_rec]) >= record_sep
        if due.any():
            chunks.append((indices[due], states[due], arcs[due]))
            for a, b in zip(last_rec, cur):
                a[indices[due]] = b[due]

    landed, arcs = flow_to_level(seeds, h, m, c_level, step, max_steps, visit, record_sep)
    chunks.append((flows, landed, arcs))

    indices, states, arcs = (np.concatenate(part) for part in zip(*chunks))
    m = m[indices]
    lines = graph_lines(seeds[indices], h, m, states)
    parts, size = [], max(1, CHART_BYTES // (16 * (n + 1) ** 2))
    for lo in range(0, len(lines), size):  # the chart points live one block at a time
        block = slice(lo, lo + size)
        u, v, mats = chart(np.stack([lines[block], m[block] * lines[block]], axis=1))
        parts.append((u, v, potential(h, mats)))
    u, v, f = (np.concatenate(a) for a in zip(*parts))
    res = graph_membership((u, v), m)
    bad = np.argmax(np.where(np.isfinite(f.real), res, np.nan))  # the first NaN, if any
    if not (res[bad] <= RESIDUAL_LIMIT and np.isfinite(f[bad].real)):
        raise GraphIntegrityError(f"flow left the graph or is not finite: residual {res[bad]:.3e} "
                                  f"at seed {indices[bad] // radii}, f1={f[bad].real:.6f}")
    cols = {"line": u, "f1": f.real, "f2": f.imag, "graph_residual": res,
            "twist": indices // flows_per, "seed_index": indices // radii, "flow_index": indices,
            "arc": arcs}
    samples = np.recarray(len(indices), [(k, a.dtype, a.shape[1:]) for k, a in cols.items()])
    for k, a in cols.items():
        samples[k] = a
    return samples


def lagrangian_check(lines, m):
    """Max normalized |omega| over finite-difference tangent pairs of the
    chart points ``assemble(u, m u)`` of a stack of lines u, shape (S, d), on
    the graph of the real diagonal m = +/-1, such as the ``line`` and
    ``twist`` of a trace.

    Tangents at each sample are secants to its 4 nearest neighbours.  The
    points, and so the secants X, Y, are fixed bit for bit by the
    anti-symplectic involution x -> m x^H m (``assemble``), so tr(X Y^H) =
    tr(X^H Y) is real: omega vanishes identically on these graphs, and the
    value reads only the rounding of the Gram sums.  A graph point is its
    line: x + I = d u beta^H has rank one, and its column at its largest
    diagonal entry, which is real and at least 1, is u with its phase fixed
    there.  The neighbours are searched in the 2d real coordinates of those
    columns; the secant Grams are ambient, GRAM_BLOCK samples at a time,
    each block one stacked matrix product.  Secants shorter than 1e3 ulps of
    the largest entry are rounding, not directions, and are skipped.  Raises
    ValueError when ``lines`` is not a finite (S, d) stack of S >= 3 lines,
    when m is not d entries of exactly +/-1, and when no sample keeps two
    secants.
    """
    from scipy.spatial import cKDTree

    lines, m = np.asarray(lines), np.asarray(m)
    if lines.ndim != 2 or m.shape != lines.shape[1:]:
        raise ValueError(f"lines of shape {lines.shape} and m of shape {m.shape}: "
                         "need (samples, d) and (d,)")
    if not np.isfinite(lines).all():
        raise ValueError(f"line {np.flatnonzero(~np.isfinite(lines).all(axis=-1))[0]} "
                         "is not finite")
    if not ((m == 1) | (m == -1)).all():
        raise ValueError(f"m is {m.tolist()}, not +/-1")
    if len(lines) < 3:
        raise ValueError("need at least three samples")
    mats = assemble(lines, m * lines)
    nsamp, d = lines.shape
    flat = mats.reshape(nsamp, -1)
    tiny = 1e3 * np.finfo(float).eps * np.abs(flat).max()
    kk = min(4, nsamp - 1)
    top = np.argmax(np.diagonal(mats, axis1=-2, axis2=-1).real, axis=-1)
    cols = mats[np.arange(nsamp), :, top]
    cols[np.arange(nsamp), top] += 1.0
    cloud = cols.view(float)
    _, idx = cKDTree(cloud).query(cloud, k=kk + 1)
    worst, other = -1.0, ~np.eye(kk, dtype=bool)
    for lo in range(0, nsamp, GRAM_BLOCK):
        block = slice(lo, lo + GRAM_BLOCK)
        diffs = flat[idx[block, 1:]] - flat[block, None, :]
        gram = 2.0 * d * (diffs @ diffs.conj().swapaxes(-1, -2))
        norms = np.sqrt(np.abs(np.diagonal(gram, axis1=-2, axis2=-1).real))
        long = norms > np.sqrt(2.0 * d) * tiny
        keep = long[:, :, None] & long[:, None, :] & other
        denom = norms[:, :, None] * norms[:, None, :]
        worst = (np.abs(gram.imag[keep]) / denom[keep]).max(initial=worst)
    if worst < 0.0:
        raise ValueError("no sample has two neighbour secants longer than rounding")
    return float(worst)


def thimble_json(samples, meta, twist):
    """JSON text {"meta", "samples"} of a trace: ``meta`` with the real
    diagonal m of the traced graph added as ``twist``, and per sample the
    record {"n", "line", "f1", "f2", "graph_residual", "seed_index", "arc"},
    which ``OrbitPoint.from_json(record, twist)`` reloads exactly.  ``meta``
    is the text of ``json.dumps``; the samples are orjson's compact text,
    whose floats read back bit for bit (the lines go to it as numpy rows, the
    same text as lists), and a non-finite value in one raises ValueError
    naming the sample and the key."""
    import orjson

    lines = np.ascontiguousarray(samples.line).view(float).reshape(len(samples), -1, 2)
    cols = {"line": lines, **{k: samples[k] for k in ("f1", "f2", "graph_residual", "arc")}}
    for key, col in cols.items():
        if (bad := np.flatnonzero(~np.isfinite(col.reshape(len(col), -1)).all(axis=-1))).size:
            raise ValueError(f"sample {bad[0]}: {key} is not finite ({col[bad[0]].tolist()})")
    rows = zip(lines, *(samples[k].tolist() for k in ("f1", "f2", "graph_residual", "arc",
                                                       "seed_index")))
    records = [{"n": lines.shape[1] - 1, "line": line, "f1": f1, "f2": f2, "graph_residual": res,
                "seed_index": seed, "arc": arc} for line, f1, f2, res, arc, seed in rows]
    head = json.dumps({**meta, "twist": np.asarray(twist, dtype=float).tolist()})
    text = orjson.dumps(records, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    return f'{{"meta": {head}, "samples": {text}}}'


def thimble_csv(samples):
    cols = ("seed_index", "arc", "f1", "f2", "graph_residual")
    rows = np.column_stack([samples[k] for k in cols]).tolist()
    return ",".join(cols) + "\n" + "".join(["%d,%.17g,%.17g,%.17g,%.17g\n" % tuple(r) for r in rows])
