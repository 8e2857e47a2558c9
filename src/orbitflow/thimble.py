"""Real Lagrangian thimbles traced inside graph Lagrangians.

The real part f1 of the superpotential restricts to a Morse function on the
graph of a twisted complement map; near a critical point with definite
restricted Hessian its sublevel (or superlevel) ball is a Lagrangian
thimble.  Tracing follows the ambient gradient of f1, which is tangent to
the graph because the imaginary part is constant there; ``flow_to_level``
steps it with ``flow.advance`` and lands it on a level with ``cross_level``.
Seeds, and the split F1 = G1 - i G2 of the gradient, use the graph tangent
frame ``graphs.graph_tangent_frame``.
"""

import io
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DensityWarning,
    GraphIntegrityError,
    MembershipError,
    NearCriticalError,
)
from .flow import advance, symmetrize
from .liecore import b_norm, b_tau, cartan_matrix, root_eval
from .orbit import (
    OrbitPoint,
    as_points,
    critical_points,
    potential,
    project_pair,
    retract,
    split,
    tangent_project,
)
from .graphs import graph_membership, graph_tangent_frame, m_j_pm
from .util import realify

RESIDUAL_LIMIT = 1e-5
SEED_RESIDUAL = 1e-7
LEVEL_ULPS = 32
LEVEL_ITERATIONS = 8


def kaehler_gradients(pt, h):
    """Ambient-metric gradients (F1, F2) of Re f_H and Im f_H on the orbit.

    Both are Hermitian-orthogonal projections of constant matrices (H and
    iH); holomorphy forces F2 = i F1, which callers may verify.
    """
    hm = cartan_matrix(h)
    return tangent_project(pt, hm), tangent_project(pt, 1j * hm)


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
    frame = graph_tangent_frame(pt, g)
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


@dataclass(frozen=True)
class ThimbleSample:
    point: OrbitPoint
    f1: float
    f2: float
    graph_residual: float
    seed_index: int      # direction on the unit sphere of the tangent space
    flow_index: int      # one (direction, radius) flow line
    arc: float


# ---------------------------------------------------------------------------
# batched flow engine: many seeds stepped together in stacked matrix arrays


def grad_f1(xs, h):
    """Ambient gradient of Re f_H at stacked orbit matrices: the tangent
    projection of H."""
    u, v, _ = split(xs)
    return project_pair(u, v, cartan_matrix(h))


def _f1_batch(xs, h):
    d = xs.shape[-1]
    return 2.0 * d * np.einsum("i,bii->b", np.asarray(h, complex), xs).real


def cross_level(base, h, g, c, orient):
    """Land stacked graph points on the level f1 = c along orient * grad f1.

    Newton's method in the length tau of one ``advance`` from ``base``,
    with d f1 / d tau = orient |grad f1|^2, until every |f1 - c| is within
    LEVEL_ULPS ulps of the sum 2d sum |h_i x_ii| that computes f1.  Returns
    the landed points and their tau; raises GraphIntegrityError naming a
    batch index and its miss after LEVEL_ITERATIONS steps.
    """
    d = base.shape[-1]
    orient = np.broadcast_to(orient, base.shape[:1])
    tau = np.zeros(base.shape[0])
    cur = base
    miss = c - _f1_batch(cur, h)
    for _ in range(LEVEL_ITERATIONS):
        grad = grad_f1(cur, h)
        speed = 2.0 * d * np.einsum("bij,bij->b", grad, grad.conj()).real
        tau = np.maximum(tau + miss / (orient * speed), 0.0)
        cur = advance(base, lambda ys: orient[:, None, None] * grad_f1(ys, h),
                      tau[:, None, None], g.m_diag)
        miss = c - _f1_batch(cur, h)
        scale = 2.0 * d * np.abs(h) @ np.abs(np.diagonal(cur, axis1=-2, axis2=-1)).T
        if np.all(np.abs(miss) <= LEVEL_ULPS * np.finfo(float).eps * scale):
            return cur, tau
    worst = int(np.argmax(np.abs(miss)))
    raise GraphIntegrityError(
        f"level {c} not reached in {LEVEL_ITERATIONS} Newton steps: "
        f"|f1 - c| = {abs(miss[worst]):.3e} at batch index {worst}"
    )


def flow_to_level(xs, h, g, c, step, max_steps, visit=None):
    """Flow stacked graph points along grad f1, up when f1 < c and down
    otherwise, in steps of ``advance`` inside the graph of g.

    After each step ``visit(indices, points, arcs)`` sees the points that
    did not cross the level; a crossing step is redone by ``cross_level``.
    Returns the landed points and their arc lengths; raises
    GraphIntegrityError if some point has not landed after max_steps.
    """
    xs = np.array(xs)
    orient = np.where(_f1_batch(xs, h) > c, -1.0, 1.0)
    arcs = np.zeros(xs.shape[0])
    active = np.ones(xs.shape[0], dtype=bool)
    for _ in range(max_steps):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        prev = xs[idx]
        stepped = advance(prev, lambda ys: orient[idx, None, None] * grad_f1(ys, h), step,
                          g.m_diag)
        crossed = orient[idx] * (_f1_batch(stepped, h) - c) > 0
        alive = idx[~crossed]
        if alive.size:
            xs[alive] = stepped[~crossed]
            arcs[alive] += step
            if visit is not None:
                visit(alive, xs[alive], arcs[alive])
        if crossed.any():
            sub = idx[crossed]
            xs[sub], tau = cross_level(prev[crossed], h, g, c, orient[sub])
            arcs[sub] += tau
            active[sub] = False
    if active.any():
        raise GraphIntegrityError(
            f"{int(active.sum())} flows failed to reach the level in {max_steps} steps"
        )
    return xs, arcs


def default_thimble_step(h, j):
    """Step resolving the stiffest Hessian rate per unit b_tau length."""
    h = np.asarray(h, dtype=float)
    d = len(h)
    rate = 2.0 * d * max(abs(root_eval((k, j), h)) for k in range(1, d + 1) if k != j)
    return 0.1 * (2.0 * d * d) / rate


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

    Seeds the unit sphere of the graph tangent space at the critical point,
    scales by a geometric radius ladder, and transports every seed along
    -grad f1 (negative definite case, sign '-') or +grad f1 (sign '+')
    until f1 reaches the level f1([e_j]) -/+ c_offset, collecting samples
    along the way.  Each step is retracted to the orbit and re-symmetrized
    into the graph's fixed set, so samples sit on the graph to machine
    precision; a residual above ``residual_limit`` raises
    GraphIntegrityError.
    """
    h = np.asarray(h, dtype=float)
    n = len(h) - 1
    d = n + 1
    g = m_j_pm(n, j, sign)
    rng = np.random.default_rng(0) if rng is None else rng

    crit = critical_points(n)[j - 1]
    xc = crit.x
    f1_c = float(_f1_batch(xc[None], h)[0])
    c_level = f1_c - c_offset if sign == "-" else f1_c + c_offset

    frame = graph_tangent_frame(crit, g)
    dirs = rng.standard_normal((directions, len(frame)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    # stiffest Hessian rate per unit b_tau length sets radius cap and step
    rate = 2.0 * d * max(abs(root_eval((k, j), h)) for k in range(1, d + 1) if k != j)
    unit_rate = rate / (2.0 * d * d)
    r_cap = min(0.5, np.sqrt(1.8 * c_offset / unit_rate))
    if step is None:
        step = default_thimble_step(h, j)

    def inside(x):
        return (_f1_batch(x[None], h)[0] - c_level) * (f1_c - c_level) > 0

    seeds, seed_dir = [], []
    for di, coeff in enumerate(dirs):
        v = sum(ck * e for ck, e in zip(coeff, frame))
        r_top = r_cap
        for _ in range(40):
            cand = retract(xc + r_top * v)
            if inside(cand.x) and graph_membership(cand, g) < SEED_RESIDUAL:
                break
            r_top *= 0.5
        for r in np.geomspace(min(1e-4, r_top / 10.0), r_top, radii):
            seeds.append(retract(xc + r * v).x)
            seed_dir.append(di)

    xs = symmetrize(np.array(seeds), g.m_diag)
    seed_dir = np.array(seed_dir)
    samples = []

    def record(indices, mats, arcs):
        for i, pt, arc in zip(indices, as_points(mats), arcs):
            f = potential(h, pt)
            samples.append(
                ThimbleSample(
                    point=pt,
                    f1=float(f.real),
                    f2=float(f.imag),
                    graph_residual=graph_membership(pt, g),
                    seed_index=int(seed_dir[i]),
                    flow_index=int(i),
                    arc=float(arc),
                )
            )

    last_rec = xs.copy()

    def visit(indices, mats, arcs):
        gap = np.linalg.norm((mats - last_rec[indices]).reshape(len(indices), -1), axis=1)
        due = gap >= record_sep
        if due.any():
            record(indices[due], mats[due], arcs[due])
            last_rec[indices[due]] = mats[due]

    flows = range(xs.shape[0])
    record(flows, xs, np.zeros(xs.shape[0]))
    landed, arcs = flow_to_level(xs, h, g, c_level, step, max_steps, visit)
    record(flows, landed, arcs)

    worst = max(s.graph_residual for s in samples)
    if worst > residual_limit:
        bad = max(samples, key=lambda s: s.graph_residual)
        raise GraphIntegrityError(
            f"flow left the graph: residual {worst:.3e} at seed {bad.seed_index}, f1={bad.f1:.6f}"
        )
    return samples


def boundary_samples(samples, c_level, tol=1e-6):
    return [s for s in samples if abs(s.f1 - c_level) <= tol]


def containment_probe(j, sign, h, offsets=(0.25, 0.5, 1.0, 2.0, 4.0), directions=6,
                      radii=3, rng=None, residual_limit=RESIDUAL_LIMIT, max_steps=4000):
    """Largest probed level offset at which the traced ball stays on-graph.

    How far the thimble-in-graph containment persists is not known a
    priori; this reports the measured range instead of assuming one.
    Returns (largest passing offset or None, {offset: worst residual or
    None when the trace failed}).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    results = {}
    best = None
    for off in offsets:
        try:
            samples = trace_thimble(j, sign, h, c_offset=off, directions=directions,
                                    radii=radii, rng=rng, residual_limit=residual_limit,
                                    max_steps=max_steps)
        except GraphIntegrityError:
            results[off] = None
            break
        results[off] = max(s.graph_residual for s in samples)
        best = off
    return best, results


def lagrangian_check(samples, k=4, step_hint=None, density_factor=10.0):
    """Max normalized |omega| over finite-difference tangent pairs.

    Tangents at each sample are secants to its k nearest neighbours; on an
    exactly Lagrangian sample cloud the symplectic pairing of any two
    secants vanishes.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    mats = np.array([s.point.x for s in samples])
    nsamp, d = mats.shape[0], mats.shape[-1]
    kk = min(k, nsamp - 1)
    cloud = realify(mats)
    tree = cKDTree(cloud)
    dist, idx = tree.query(cloud, k=kk + 1)
    if step_hint is not None and np.median(dist[:, 1]) > density_factor * step_hint:
        warnings.warn(
            f"nearest-neighbour spacing {np.median(dist[:, 1]):.3e} exceeds "
            f"{density_factor} x step",
            DensityWarning,
        )
    flat = mats.reshape(nsamp, -1)
    diffs = flat[idx[:, 1:]] - flat[:, None, :]
    gram = 2.0 * d * np.einsum("nad,nbd->nab", diffs, diffs.conj())
    norms = np.sqrt(np.abs(np.einsum("naa->na", gram).real))
    denom = norms[:, :, None] * norms[:, None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.abs(gram.imag) / np.where(denom > 0, denom, np.inf)
    return float(np.nanmax(ratio))


def thimble_json(samples, meta):
    payload = {
        "meta": meta,
        "samples": [
            {
                **s.point.to_json(),
                "f1": s.f1,
                "f2": s.f2,
                "graph_residual": s.graph_residual,
                "seed_index": s.seed_index,
                "arc": s.arc,
            }
            for s in samples
        ],
    }
    return json.dumps(payload, indent=1)


def thimble_csv(samples):
    buf = io.StringIO()
    buf.write("seed_index,arc,f1,f2,graph_residual\n")
    for s in samples:
        buf.write(
            f"{s.seed_index},{s.arc:.17g},{s.f1:.17g},{s.f2:.17g},{s.graph_residual:.17g}\n"
        )
    return buf.getvalue()
