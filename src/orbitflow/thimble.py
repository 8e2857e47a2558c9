"""Real Lagrangian thimbles traced inside graph Lagrangians.

The real part f1 of the superpotential restricts to a Morse function on the
graph of a twisted complement map; near a critical point with definite
restricted Hessian its sublevel (or superlevel) ball is a Lagrangian
thimble, traced along the ambient gradient of f1, the tangent projection of
H.  On the graph of an involution m = +/-1 a point is the line u of its pair
(u, m u), and the gradient scales each entry of u by a real factor in
span{h m, m, 1}: a flow keeps the phases of its seed u0 and stays on the
surface u0 e^phi (the torus orbits of Bloch, Brockett and Ratiu when m = 1).
So flows step the real log-moduli phi, and the seeds (``seed_lines``), the
rate (``gradient_field``), the height (``line_height``) and the chart gap
(``pair_gap``) are closed forms in the lines (``graph_lines``), one stack
of which may mix twists.  ``flow_to_level`` steps them with ``orbit.advance``
(by chart distance on the scalar twists m = +/-1, where the flow is exact)
and one ``cross_level`` lands them; matrices appear once, in the ``chart`` of
the recorded lines.  ``thimble_json`` writes each sample as its unit line.
The split F1 = G1 - i G2 uses ``graphs.graph_tangent_frame``; Z is tangent
to the graphs too (``z_rate``, stepped by ``flow.integrate``).
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import GraphIntegrityError, MembershipError, NearCriticalError
from .liecore import b_norm, b_tau, cartan_matrix, root_eval
from .orbit import DRIFT_LIMIT, advance, chart, complement, potential, rk4_step, tangent_project
from .graphs import graph_membership, graph_tangent_frame, m_j_pm

RESIDUAL_LIMIT = 1e-5
LEVEL_ULPS = 32
LEVEL_ITERATIONS = 8
GRAM_BLOCK = 128  # samples per block of ``lagrangian_check``'s secant Grams


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


def fg_decomposition_check(pt, g, h, membership_tol=1e-6):
    """Verify F1 = G1 - i G2 at a graph point.

    G1, G2 are the gradients of the restricted real and imaginary parts,
    obtained by projecting F1, F2 onto the graph tangent frame.
    """
    res = graph_membership(pt, g)
    if res > membership_tol:
        raise MembershipError(f"graph membership residual {res:.3e} exceeds tolerance")
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


def horizontal_lift_check(pt, h, min_grad=1e-8):
    """Solve df(W) = 1 for W = a F1 + b J F1; returns (a, b).

    F1 and J F1 span the symplectic orthogonal of the fibre, and reality of
    the lifted velocity forces b = 0 with a = 1/|F1|^2.
    """
    hm = cartan_matrix(h)
    f1, _ = kaehler_gradients(pt, h)
    if b_norm(f1) < min_grad:
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
# batched flow engine: many seeds stepped together as log-moduli phi of the
# graph lines u0 e^phi


def _weights(h, m):
    """The rows 1, m, h and h m, shape (..., 4, d), of ``_line_sums``."""
    out = np.empty(np.shape(m)[:-1] + (4, len(h)))
    out[..., 0, :], out[..., 1, :], out[..., 2, :], out[..., 3, :] = 1.0, m, h, h * m
    return out


def _line_sums(weights, w):
    """Sums of w, m w, h w and h m w over each row, shape (4, ..., 1), each row
    on its own (a BLAS product would round differently by batch size)."""
    return np.einsum("...d,...kd->k...", w, weights)[..., None]


def graph_lines(u0, phi):
    """The lines u0 e^phi, each scaled by e^-max(phi) so that none overflows;
    their heights and chart gaps depend on |u| only, so u0 = |u0| will do."""
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


def gradient_field(h, m, orient, r0):
    """orient * grad f1 on the graphs of involutions m = +/-1 as the rate of the
    log-moduli phi (batch, d) of lines u0 e^phi, |u0| = r0, row by row.

    At (u, m u), with w = |u|^2, N = sum w, sigma = sum m w / N, rho =
    sum h w / N and p = sum h m w / N - rho sigma, the tangent projection of
    H = diag(h) moves u by c u, c = (sigma / d) [(h - rho + a sigma) m - a],
    a = p / (2 - sigma^2).  On a scalar twist (a = 0) RK4 is exact."""
    h = np.asarray(h, dtype=float)
    weights = _weights(h, m)
    return lambda phi: _gradient_parts(h, weights, m, orient, r0, phi)[0]


def _gradient_parts(h, weights, m, orient, r0, phi):
    """The rate of ``gradient_field`` at phi, the lines r = ``graph_lines(r0,
    phi)`` it is read from and their ``_line_sums``, which give f1 (``_height``)."""
    r = graph_lines(r0, phi)
    sums = _line_sums(weights, r * r)
    norm, mw, hw, hmw = sums
    sigma, rho = mw / norm, hw / norm
    a = (hmw / norm - rho * sigma) / (2.0 - sigma ** 2)
    return orient * (sigma / len(h)) * ((h - rho + a * sigma) * m - a), r, sums


def z_rate(h, m, orient, r0):
    """orient * Z on the graphs of involutions m = +/-1 as the rate of phi, as
    ``gradient_field``: at (u, m u) the Lax form of Z moves u by c u and m u
    by m c u, c = (d / sigma) (rho - h) m, so Z is tangent to the graph."""
    h = np.asarray(h, dtype=float)
    weights = _weights(h, m)

    def rate(phi):
        r = graph_lines(r0, phi)
        norm, mw, hw, _ = _line_sums(weights, r * r)
        return orient * (len(h) * norm / mw) * (hw / norm - h) * m

    return rate


def phi_guard(h):
    """Longest step of ``gradient_field`` that moves no phi_i by 0.9 DRIFT_LIMIT
    on a graph of m = +/-1.  With rho_+, rho_- the means of h over the entries
    m = 1 and m = -1, of weights alpha and beta, c_i d / sigma = m_i (h_i -
    rho_i), rho_i a mean of rho_+ and rho_- (weight beta / (1 + 4 alpha beta)
    on rho_- if m_i = 1, else alpha / (1 + 4 alpha beta) on rho_+): |c_i| <= spread(h) / d."""
    return 0.9 * DRIFT_LIMIT * len(h) / np.ptp(h)


def _f1_rate(h, sums, dsums):
    """df1/dt = 2d^2 dR_m/dt along du = rate u, from the ``_line_sums`` of |u|^2 and rate |u|^2."""
    _, mw, _, hmw = sums
    _, mdw, _, hmdw = dsums
    return 4.0 * len(h) ** 2 * (hmdw - hmw / mw * mdw)[..., 0] / mw[..., 0]


def cross_level(r0, base, h, m, c, orient):
    """Land the log-moduli ``base`` of lines u0 e^phi, |u0| = r0, on the level
    f1 = c along orient * grad f1, each row on the graph of its row of m.

    Newton's method (rate ``_f1_rate``) in the length tau >= 0 of one RK4 step
    from ``base``; a row whose step would move phi further than ``advance``
    allows takes the step ``phi_guard``.  A row stops when |f1 - c| is within
    LEVEL_ULPS ulps of 2d sum |h_i x_ii|, the sum that computes f1 at its chart
    point, on its own.  Returns the landed phi and tau; raises GraphIntegrityError
    naming the stack index of the worst miss after LEVEL_ITERATIONS steps.
    """
    d = base.shape[-1]
    m = np.broadcast_to(m, base.shape)
    tau = np.zeros(base.shape[0])
    cur = base.copy()
    miss = c - line_height(h, m, graph_lines(r0, cur))
    todo = np.arange(base.shape[0])
    for _ in range(LEVEL_ITERATIONS):
        rhs = gradient_field(h, m[todo], orient[todo, None], r0[todo])
        w, weights = graph_lines(r0[todo], cur[todo]) ** 2, _weights(h, m[todo])
        rate = _f1_rate(h, _line_sums(weights, w), _line_sums(weights, rhs(cur[todo]) * w))
        tau[todo] = np.maximum(tau[todo] + miss[todo] / rate, 0.0)
        cur[todo], size = rk4_step(base[todo], rhs, tau[todo, None])
        if not (ok := size <= DRIFT_LIMIT).all():
            tau[todo] = np.where(ok, tau[todo], np.minimum(tau[todo], phi_guard(h)))
            cur[todo] = advance(base[todo], rhs, tau[todo, None])
        u = graph_lines(r0[todo], cur[todo])
        miss[todo] = c - line_height(h, m[todo], u)
        w = m[todo] * u * u
        diag = d * w / w.sum(axis=-1, keepdims=True) - 1.0
        scale = 2.0 * d * (np.abs(h) * np.abs(diag)).sum(axis=-1)
        todo = todo[np.abs(miss[todo]) > LEVEL_ULPS * np.finfo(float).eps * scale]
        if not todo.size:
            return cur, tau
    worst = todo[np.argmax(np.abs(miss[todo]))]
    raise GraphIntegrityError(
        f"level {c} not reached in {LEVEL_ITERATIONS} Newton steps: "
        f"|f1 - c| = {abs(miss[worst]):.3e} at batch index {worst}"
    )


def flow_to_level(lines, h, g, c, step, max_steps, visit=None, record_sep=np.inf):
    """Flow a stack of lines u0, shape (batch, d), of graph pairs (u0, m u0)
    along grad f1, up when f1 < c and down otherwise, in steps of ``advance``
    of the log-moduli phi of the lines u0 e^phi, from phi = 0, with no matrix.

    A float ``step`` is one grid for every row.  With ``step`` None, on a
    scalar twist (a = 0: RK4 is exact), each row steps by at most ``phi_guard``
    and so that its chart point moves 0.45 ``record_sep`` at its speed |F1| =
    sqrt(|df1/dt| / 2d) at the start, which records a ``visit`` sample about
    every third step, ``record_sep`` to 2 ``record_sep`` apart.  The field at
    each stepped phi gives the moduli r = ``graph_lines(|u0|, phi)``, the
    crossing test, the next step and its first RK4 stage.  After each step
    ``visit(indices, phi, arcs, r)`` sees the flows that did not cross the
    level; one ``cross_level`` lands them from their last phi after the loop.
    Raises ValueError when g is not an involution (or not scalar with ``step``
    None), GraphIntegrityError if a flow has not landed after max_steps;
    returns the landed phi and arcs.
    """
    if not g.is_involution:
        raise ValueError(f"twist {g.name or g.m_diag} is not an involution: "
                         "the closed-form gradient needs m = +/-1")
    h = np.asarray(h, dtype=float)
    m = g.m_diag.real
    if step is None and np.ptp(m):
        raise ValueError(f"twist {g.name or m} is not scalar: its flows need a fixed step")
    guard = phi_guard(h)
    r0 = np.abs(lines)
    phi = np.zeros(r0.shape)
    orient = np.where(line_height(h, m, r0) > c, -1.0, 1.0)
    arcs = np.zeros(len(phi))
    active = np.ones(len(phi), dtype=bool)
    weights = _weights(h, m)
    k1, r, sums = _gradient_parts(h, weights, m, orient[:, None], r0, phi)
    dt = np.full((len(phi), 1), float(step or 0.0))
    for _ in range(max_steps):
        if not active.any():
            break
        if step is None:
            speed = np.sqrt(np.abs(_f1_rate(h, sums, _line_sums(weights, k1 * r * r))) / (2 * len(h)))
            dt = (guard / np.maximum(1.0, guard * speed / (0.45 * record_sep)))[:, None]
        idx = np.flatnonzero(active)
        stepped = advance(phi[idx], gradient_field(h, m, orient[idx, None], r0[idx]), dt, k1)
        rate, r, sums = _gradient_parts(h, weights, m, orient[idx, None], r0[idx], stepped)
        crossed = orient[idx] * (_height(h, sums) - c) > 0
        active[idx[crossed]] = False
        alive, keep = idx[~crossed], ~crossed
        arcs[alive] += dt[keep, 0]
        phi[alive], k1, r, sums, dt = stepped[keep], rate[keep], r[keep], sums[:, keep], dt[keep]
        if visit is not None and alive.size:
            visit(alive, phi[alive], arcs[alive], r)
    if active.any():
        raise GraphIntegrityError(
            f"{int(active.sum())} flows failed to reach the level in {max_steps} steps"
        )
    phi, tau = cross_level(r0, phi, h, m, c, orient)
    return phi, arcs + tau


def _unit_rate(h, j):
    """Stiffest Hessian rate at [e_j] per unit b_tau length."""
    h = np.asarray(h, dtype=float)
    d = len(h)
    return max(abs(root_eval((k, j), h)) for k in range(1, d + 1) if k != j) / d


def default_thimble_step(h, j):
    """Step resolving the stiffest Hessian rate per unit b_tau length, which
    ``trace_thimble`` takes on a mixed twist, where RK4 is not exact; on a
    scalar twist it steps by chart distance (``flow_to_level``), and a given
    ``step`` (the CLI's ``--step-size``) is one grid on every twist."""
    return 0.1 / _unit_rate(h, j)


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


def trace_thimble(
    j,
    sign,
    h,
    c_offset=0.5,
    directions=64,
    step=None,
    radii=8,
    rng=None,
    record_sep=0.03,
    max_steps=4000,
    residual_limit=RESIDUAL_LIMIT,
):
    """Trace the real Lagrangian thimble of [e_j] inside its definite graph.

    Seeds random unit directions of the graph tangent space at [e_j] on a
    geometric radius ladder (``seed_lines``) and flows them along -grad f1
    (sign '-', negative definite) or +grad f1 (sign '+') to the level
    f1([e_j]) -/+ c_offset with ``flow_to_level``, at ``step`` or else as
    ``default_thimble_step`` says.  Samples are the pairs (u, m u), u = u0
    e^phi, so they lie on the graph and the surface of their seed by
    construction and their residual measures only rounding; one above
    ``residual_limit`` raises GraphIntegrityError.

    Returns one ``np.recarray``, a row per sample, with fields ``line`` (d,)
    the unit line u, ``x`` (d, d) its chart point, ``f1``, ``f2``,
    ``graph_residual``, ``seed_index``, ``flow_index`` (one (direction,
    radius) flow line; seed_index = flow_index // radii) and ``arc``, the
    flow parameter from the seed.  The seeds come first and the landed
    samples last, each directions * radii rows in flow order.

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
    n = len(h) - 1
    g = m_j_pm(n, j, sign)
    m = g.m_diag.real
    rng = np.random.default_rng(0) if rng is None else rng

    f1_c = line_height(h, m, np.eye(n + 1)[j - 1])
    c_level = f1_c - c_offset if sign == "-" else f1_c + c_offset

    dirs = rng.standard_normal((directions, 2 * n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r_top = min(0.5, np.sqrt(1.8 * c_offset / _unit_rate(h, j)))
    seeds = seed_lines(j, n + 1, dirs, np.geomspace(min(1e-4, r_top / 10.0), r_top, radii))
    if step is None and np.ptp(m):
        step = default_thimble_step(h, j)

    flows = np.arange(len(seeds))
    chunks = [(flows, np.zeros(seeds.shape), np.zeros(len(seeds)))]
    last_rec = _unit_and_beta(m, np.abs(seeds))

    def visit(indices, phi, arcs, r):
        cur = _unit_and_beta(m, r)
        due = _gap(cur, [a[indices] for a in last_rec]) >= record_sep
        if due.any():
            chunks.append((indices[due], phi[due], arcs[due]))
            for a, b in zip(last_rec, cur):
                a[indices[due]] = b[due]

    landed, arcs = flow_to_level(seeds, h, g, c_level, step, max_steps, visit, record_sep)
    chunks.append((flows, landed, arcs))

    indices, phi, arcs = (np.concatenate(part) for part in zip(*chunks))
    lines = graph_lines(seeds[indices], phi)
    u, v, mats = chart(np.stack([lines, m * lines], axis=1))
    f = potential(h, mats)
    res = graph_membership((u, v), g)
    bad = np.argmax(res)
    if res[bad] > residual_limit:
        raise GraphIntegrityError(f"flow left the graph: residual {res[bad]:.3e} "
                                  f"at seed {indices[bad] // radii}, f1={f[bad].real:.6f}")
    cols = {"line": u, "x": mats, "f1": f.real, "f2": f.imag, "graph_residual": res,
            "seed_index": indices // radii, "flow_index": indices, "arc": arcs}
    samples = np.recarray(len(indices), [(k, a.dtype, a.shape[1:]) for k, a in cols.items()])
    for k, a in cols.items():
        samples[k] = a
    return samples


def lagrangian_check(mats, m, k=4):
    """Max normalized |omega| over finite-difference tangent pairs of a
    stack of chart points, shape (S, d, d), on the graph of the real
    diagonal m = +/-1, such as the ``x`` and ``twist`` of a trace.

    Tangents at each sample are secants to its k nearest neighbours.  The
    points, and so the secants X, Y, are fixed by the anti-symplectic
    involution x -> m x^H m, so tr(X Y^H) = tr(X^H Y) is real: omega
    vanishes identically on these graphs, and the value reads only the
    rounding of the Gram sums.  As |x - y|^2 = sum (x_ii - y_ii)^2 +
    2 sum_{i<j} |x_ij - y_ij|^2 there, the neighbours are searched in those
    d^2 real coordinates; the secant Grams are ambient, GRAM_BLOCK samples
    at a time.  Secants shorter than 1e3 ulps of the largest entry are
    rounding, not directions, and are skipped.  Raises
    ValueError naming the worst sample when x -> m x^H m moves one by more
    than that, and when no sample keeps two secants.
    """
    from scipy.spatial import cKDTree

    if len(mats) < 3:
        raise ValueError("need at least three samples")
    mats = np.ascontiguousarray(mats)
    nsamp, d = mats.shape[0], mats.shape[-1]
    flat = mats.reshape(nsamp, -1)
    tiny = 1e3 * np.finfo(float).eps * np.abs(flat).max()
    off = np.abs(mats - np.outer(m, m) * mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = np.argmax(off)
    if off[bad] > tiny:
        raise ValueError(f"sample {bad} is off the graph of m: |x - m x^H m| = {off[bad]:.3e}")
    kk = min(k, nsamp - 1)
    rows, cols = np.triu_indices(d, 1)
    upper, diag = mats[:, rows, cols], np.diagonal(mats, axis1=-2, axis2=-1)
    cloud = np.concatenate([diag.real, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag], 1)
    _, idx = cKDTree(cloud).query(cloud, k=kk + 1)
    worst, other = -1.0, ~np.eye(kk, dtype=bool)
    for lo in range(0, nsamp, GRAM_BLOCK):
        block = slice(lo, lo + GRAM_BLOCK)
        diffs = flat[idx[block, 1:]] - flat[block, None, :]
        long = np.linalg.norm(diffs, axis=-1) > tiny
        pairs = long[:, :, None] & long[:, None, :] & other
        gram = 2.0 * d * np.einsum("nad,nbd->nab", diffs, diffs.conj())
        norms = np.sqrt(np.abs(np.einsum("naa->na", gram).real))
        denom = norms[:, :, None] * norms[:, None, :]
        worst = (np.abs(gram.imag[pairs]) / denom[pairs]).max(initial=worst)
    if worst < 0.0:
        raise ValueError("no sample has two neighbour secants longer than rounding")
    return float(worst)


def thimble_json(samples, meta, twist):
    """JSON text {"meta", "samples"} of a trace: ``meta`` with the real
    diagonal m of the traced graph added as ``twist``, and per sample the
    record {"n", "line", "f1", "f2", "graph_residual", "seed_index", "arc"},
    which ``OrbitPoint.from_json(record, twist)`` reloads exactly: the text of
    ``json.dumps``, each record one ``%`` template over a row of numbers."""
    d = samples.line.shape[-1]
    rows = np.column_stack([samples.line.view(float), samples.f1, samples.f2,
                            samples.graph_residual, samples.seed_index, samples.arc]).tolist()
    record = ('{"n": %d, "line": [' % (d - 1) + ", ".join(["[%r, %r]"] * d) + '], "f1": %r, '
              '"f2": %r, "graph_residual": %r, "seed_index": %d, "arc": %r}')
    head = json.dumps({**meta, "twist": np.asarray(twist, dtype=float).tolist()})
    # repr writes nan and inf where json.dumps writes NaN and Infinity; no key holds either
    body = ", ".join([record % tuple(r) for r in rows]).replace("nan", "NaN").replace("inf", "Infinity")
    return f'{{"meta": {head}, "samples": [{body}]}}'


def thimble_csv(samples):
    cols = ("seed_index", "arc", "f1", "f2", "graph_residual")
    rows = np.column_stack([samples[k] for k in cols]).tolist()
    return ",".join(cols) + "\n" + "".join(["%d,%.17g,%.17g,%.17g,%.17g\n" % tuple(r) for r in rows])
