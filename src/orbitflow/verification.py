"""Invariant suites behind the ``verify`` command.

Each suite mirrors the invariants of one module; a check records its name,
measured value, tolerance, pass status and a short reference, the
statement the value measures.  All randomness flows from
the single seed in the run configuration and suites execute in a fixed
order, so reports are byte-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from . import cycles, flow, graphs, orbit, thimble
from .liecore import (
    RootSystemAn,
    WeylElement,
    b_norm,
    b_tau,
    bracket,
    cartan_matrix,
    default_cartan,
    hermitian_form,
    killing_form,
    omega,
    root_eval,
    tau,
    weyl_group,
)
from .util import (
    orthonormal_rows,
    random_compact,
    random_traceless,
    random_unit_vector,
    realify,
)


@dataclass
class CheckResult:
    name: str
    status: str          # pass | fail
    measured: float
    tolerance: float
    reference: str

    def as_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "measured": float(self.measured),
            "tolerance": float(self.tolerance),
            "reference": self.reference,
        }


def _check(name, measured, tolerance, reference, larger_is_fail=True):
    ok = measured <= tolerance if larger_is_fail else measured >= tolerance
    return CheckResult(name, "pass" if ok else "fail", float(measured), tolerance, reference)


def random_orbit_point(rng, n, spread=0.4, unitary=False):
    """Orbit point near H0 of a traceless A of entry scale spread / (n+1), or of an
    anti-Hermitian A of norm ``spread`` (a Hermitian point) when ``unitary``."""
    if unitary:
        return orbit._near_base(random_compact(rng, n + 1, scale=spread))
    return orbit._near_base(random_traceless(rng, n + 1, scale=spread / (n + 1)))


def random_tangent(rng, pt):
    v = bracket(pt.x, random_traceless(rng, pt.n + 1))
    return v / b_norm(v)


# ---------------------------------------------------------------------------
# adjoint-representation oracles shared with the test suite


def sl_basis(d):
    """Elementary E_ij, i != j, then E_kk - E_k+1,k+1."""
    eye = np.eye(d, dtype=complex)
    return ([np.outer(eye[i], eye[j]) for i in range(d) for j in range(d) if i != j]
            + [np.diag(eye[k] - eye[k + 1]) for k in range(d - 1)])


def _coords(x, flat, gram_inv):
    return gram_inv @ (flat.conj() @ x.ravel())


def adjoint_trace_pairing(x, y, basis=None):
    """tr(ad(X) ad(Y)) computed on an explicit basis of sl(d)."""
    d = x.shape[0]
    basis = sl_basis(d) if basis is None else basis
    flat = np.array([b.ravel() for b in basis])
    gram_inv = np.linalg.inv(flat @ flat.conj().T)
    ax = np.array([_coords(bracket(x, b), flat, gram_inv) for b in basis]).T
    ay = np.array([_coords(bracket(y, b), flat, gram_inv) for b in basis]).T
    return complex(np.trace(ax @ ay))


def adjoint_trace_pairing_real(x, y):
    """tr(ad(X) ad(Y)) of the realification, on a real basis of sl(d)_R."""
    d = x.shape[0]
    basis = [m for b in sl_basis(d) for m in (b, 1j * b)]
    flat = realify(np.array(basis))
    gram_inv = np.linalg.inv(flat @ flat.T)

    def admat(z):
        return np.array(
            [gram_inv @ (flat @ realify(bracket(z, b)[None])[0]) for b in basis]
        ).T

    return float(np.trace(admat(x) @ admat(y)))


# ---------------------------------------------------------------------------


def lie_core_suite(cfg, rng):
    checks = []
    tol = cfg.tolerances["algebraic"]

    worst = 0.0
    for n in (1, 2, 3):
        d = n + 1
        basis = sl_basis(d)
        for _ in range(100):
            x = random_traceless(rng, d)
            y = random_traceless(rng, d)
            oracle = adjoint_trace_pairing(x, y, basis)
            worst = max(worst, abs(killing_form(x, y) - oracle) / max(1.0, abs(oracle)))
    checks.append(_check("killing-matches-adjoint-trace-oracle", worst, tol,
                         "bilinear pairing equals tr(ad ad) on sl(n+1)"))

    d = cfg.n + 1
    worst = 0.0
    for _ in range(50):
        x = random_traceless(rng, d)
        y = random_traceless(rng, d)
        x, y = x / b_norm(x), y / b_norm(y)
        worst = max(worst, abs(b_tau(tau(x), tau(y)) - b_tau(x, y)))
    checks.append(_check("tau-is-an-isometry", worst, 1e-12,
                         "compact conjugation preserves the inner product"))

    worst = 0.0
    for _ in range(50):
        x, y, z = (random_traceless(rng, d) for _ in range(3))
        worst = max(
            worst,
            abs(b_tau(bracket(x, y), z) + b_tau(y, bracket(tau(x), z)))
            / max(1.0, b_norm(x) * b_norm(y) * b_norm(z)),
        )
    checks.append(_check("ad-adjoint-under-tau", worst, tol,
                         "(ad(X)Y, Z) = -(Y, ad(tau X)Z)"))

    worst = 0.0
    for _ in range(50):
        xu = random_compact(rng, d)
        yh = 1j * random_compact(rng, d)
        a, b = random_traceless(rng, d), random_traceless(rng, d)
        worst = max(worst, abs(b_tau(bracket(xu, a), b) + b_tau(a, bracket(xu, b))))
        worst = max(worst, abs(b_tau(bracket(yh, a), b) - b_tau(a, bracket(yh, b))))
    checks.append(_check("ad-antisymmetric-on-compact-symmetric-on-hermitian", worst, tol,
                         "ad of the compact (resp. Hermitian) part is skew (resp. symmetric)"))

    worst = 0.0
    for _ in range(10):
        x = random_traceless(rng, 2)
        y = random_traceless(rng, 2)
        oracle = adjoint_trace_pairing_real(x, y)
        worst = max(worst, abs(2.0 * killing_form(x, y).real - oracle) / max(1.0, abs(oracle)))
    checks.append(_check("realified-pairing-is-twice-real-part", worst, tol,
                         "pairing of the realified algebra equals 2 Re of the complex one"))

    worst = 0.0
    for m in (1, 2, 3):
        rs = RootSystemAn(m)
        hvec = default_cartan(m)
        hm = cartan_matrix(hvec)
        for alpha in rs.positive_roots:
            a_ = rs.a_alpha(alpha)
            s_ = rs.s_alpha(alpha)
            z_ = rs.z_alpha(alpha)
            ah = root_eval(alpha, hvec)
            worst = max(worst, np.linalg.norm(bracket(hm, a_) - ah * s_))
            worst = max(worst, np.linalg.norm(bracket(hm, z_) - ah * 1j * a_))
            worst = max(worst, abs(killing_form(a_, s_)))
            worst = max(worst, abs(b_tau(a_, a_) - 2.0))
            worst = max(worst, abs(killing_form(a_, a_) + 2.0))
            worst = max(worst, abs(killing_form(rs.x_alpha(alpha), rs.x_alpha(alpha[::-1])) - 1.0))
    checks.append(_check("cartan-root-generator-relations", worst, tol,
                         "bracket and pairing relations of the Weyl generators"))
    return checks


# ---------------------------------------------------------------------------


def orbit_suite(cfg, rng):
    checks = []
    n, h = cfg.n, cfg.h

    worst = 0.0
    for k in range(40):
        pt = random_orbit_point(rng, n, unitary=(k % 2 == 0))
        rebuilt = orbit.phi_pair(*orbit.split_eigen(pt.x))
        worst = max(worst, np.linalg.norm(rebuilt.x - pt.x) / np.linalg.norm(pt.x))
    checks.append(_check("conjugation-roundtrip", worst, 1e-8,
                         "pair chart inverts the eigen splitting on conjugated points"))

    worst = 0.0
    for pt in cycles.flag_sample(n, 50, 0.8, rng):
        worst = max(worst, abs(orbit.potential(h, pt).imag))
    checks.append(_check("height-real-on-flag", worst, 1e-12,
                         "superpotential is real on the Hermitian locus; flag points are "
                         "Hermitian bit for bit, so it reads exactly 0"))

    vals = sorted(orbit.potential(h, p).real for p in orbit.critical_points(n))
    gap = min(b - a for a, b in zip(vals, vals[1:]))
    checks.append(_check("critical-values-distinct", gap, 1e-6,
                         "regular height separates the diagonal singularities",
                         larger_is_fail=False))

    wrong = 0.0
    for pt in orbit.critical_points(n):
        frame = orbit.tangent_frame(pt)
        rows = realify(np.array([m for e in frame for m in (e, 1j * e)]))
        rank = np.linalg.matrix_rank(rows, tol=1e-8)
        wrong = max(wrong, abs(rank - 4 * n))
    checks.append(_check("tangent-dimension-at-singularities", wrong, 0.0,
                         "tangent space is the 2n complex root directions through the slot"))
    return checks


# ---------------------------------------------------------------------------


def fd_jacobian_eigenvalues(pt, h):
    """Eigenvalues of the finite-difference Jacobian of Z on the root span.

    Central differences of step 1e-5 along all X_a = s E_ij, s = ``weyl_scale``, and
    i X_a, one stack per side.  Realified, these have Gram s^2 I = I / (2d), so the
    coordinates of a difference on X_a and i X_a are Re and Im of its (i, j) entry / s."""
    rs = RootSystemAn(pt.n)
    i, j = (np.array(k) - 1 for k in zip(*rs.roots))
    dirs = np.array([v for a in rs.roots for v in (rs.x_alpha(a), 1j * rs.x_alpha(a))])
    dz = (flow.z_field(pt.x + 1e-5 * dirs, h) - flow.z_field(pt.x - 1e-5 * dirs, h)) / 2e-5
    # (Re, Im) of the (i, j) entries, root by root, are the coordinates in the order of dirs
    coords = np.ascontiguousarray(dz[:, i, j]).view(float) / rs.weyl_scale
    return sorted(np.linalg.eigvals(coords.T).real)


def double_bracket_solution(lines, h, times):
    """Unit lines (T, B, d) at ``times`` (T,) of the exact Hermitian flow of Z
    from unit lines (B, d): there Z = -[x, [x, H]] is Brockett's double-bracket
    flow, and the chart point x = d u u^H - I moves as u(t) ~ exp(-d t H) u(0).
    ``thimble.pair_gap`` with m = 1 measures the chart distance to them from lines."""
    d = lines.shape[-1]
    expo = -d * np.asarray(times)[:, None, None] * np.asarray(h)
    u = lines * np.exp(expo - expo.max(axis=-1, keepdims=True))
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def stable_unstable_measure(cfg, rng, spectra):
    """Two-sided basin test at every singularity [e_j] on the graphs of m_j^+
    and m_j^-, whose tangent spaces V- and V+ of dZ (``spectra``, the
    ``linearize`` of each critical point) span (worst 1 - cos of a principal
    angle, from its sine: 1 - cos itself would round to 1e-16).  100 seeds
    per side at b_tau radius 1e-4 (``seed_lines``) step on their graph, one
    ``integrate`` run per side: V- seeds flow back (closest approach, limited
    by the steps), V+ seeds separate monotonically."""
    n, h = cfg.n, cfg.h
    dt = 30.0 * flow.default_step(n, h)
    worst = 0.0
    for j, (pt, spec) in enumerate(zip(orbit.critical_points(n), spectra), start=1):
        for basis, sign, steps in ((spec.v_minus(), "+", 120), (spec.v_plus(), "-", 10)):
            m = graphs.sign_pattern(n, j, sign)
            frame = np.sqrt(2.0 * (n + 1)) * realify(graphs.graph_tangent_frame(pt, m))
            rows = orthonormal_rows(realify(basis))
            # the largest principal-angle sine: the length of the part of V-/+ off the frame
            sin = min(1.0, np.linalg.norm(rows - rows @ frame.T @ frame, 2))
            worst = max(worst, sin ** 2 / (1.0 + np.sqrt(1.0 - sin ** 2)))  # 1 - cos
            coeff = rng.standard_normal((100, len(basis)))
            coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
            lines = thimble.seed_lines(j, n + 1, coeff, [1e-4])
            traj = flow.integrate(np.stack([lines, m * lines], axis=1), h, step=dt,
                                  max_steps=steps, conv_tol=0.0)
            dist = thimble.pair_gap(m, traj.lines, pt.line)
            if sign == "+":
                worst = max(worst, float(dist.min(axis=0).max()))
            elif not np.all(np.diff(dist, axis=0) > 0):
                worst = max(worst, 1.0)
    return worst


def flow_suite(cfg, rng):
    checks = []
    n, h = cfg.n, cfg.h

    worst = 0.0
    for _ in range(100):
        pt = random_orbit_point(rng, n)
        v = random_tangent(rng, pt)
        lhs = b_tau(v, cartan_matrix(h))
        worst = max(worst, abs(lhs + flow.metric_m(pt, v, flow.z_field(pt, h))))
    checks.append(_check("gradient-identity", worst, 1e-10,
                         "Z is minus the metric gradient of the real height"))

    spectra = [flow.linearize(pt, h) for pt in orbit.critical_points(n)]
    worst = 0.0
    for spec in spectra:
        for side in (spec.v_minus(), spec.v_plus()):
            flat = np.reshape(side, (len(side), -1))
            worst = max(worst, np.abs((2.0 * (n + 1) * (flat @ flat.conj().T)).imag).max())
    checks.append(_check("stable-unstable-spaces-isotropic", worst, 1e-10,
                         "eigenspace sums of dZ are Lagrangian for the ambient form"))

    worst = 0.0
    for spec in spectra:
        observed = fd_jacobian_eigenvalues(spec.point, h)
        worst = max(worst, float(np.abs(np.array(observed) - np.array(spec.eigenvalues())).max()))
    checks.append(_check("fd-jacobian-matches-rates", worst, 1e-6,
                         "finite differences reproduce the per-root rates"))

    checks.append(_check("perturbations-respect-the-splitting",
                         stable_unstable_measure(cfg, rng, spectra), 1e-5,
                         "V-/V+ span the graphs of m_j^+/m_j^-, whose seeds flow back/separate"))

    seeds = cycles.flag_sample(n, 4, 0.6, rng)
    traj = flow.integrate(np.array([[p.line, p.normal] for p in seeds]), h, max_steps=2500,
                          conv_tol=0.0)
    exact = double_bracket_solution(traj.lines[0], h, traj.times)
    # chart distance of (u, u) to the exact point, plus d |v - u|, to first order
    # a bound of that of (u, v) to (u, u): a normal off its line is seen too
    gap = thimble.pair_gap(np.ones(n + 1), traj.lines, exact)
    gap += (n + 1) * np.linalg.norm(traj.normals - traj.lines, axis=-1)
    checks.append(_check("flag-flow-matches-double-bracket-solution", float(gap.max()), 1e-10,
                         "the Hermitian flow is Brockett's exp(-d t H) u0 in closed form"))
    return checks


# ---------------------------------------------------------------------------


def cycles_suite(cfg, rng):
    checks = []
    worst = 0.0
    for m in range(1, 4):
        for w in weyl_group(m + 1):
            vw = cycles.build_vw(w)
            worst = max(worst, abs(vw.dim - (m + m * (m + 1))))
            gram_h = np.array([[hermitian_form(a, b) for b in vw.basis] for a in vw.basis])
            gram_k = np.array([[killing_form(a, b) for b in vw.basis] for a in vw.basis])
            worst = max(worst, float(np.abs(gram_h.imag).max()))
            worst = max(worst, float(np.abs(gram_k.imag).max()))
            for k, lab in enumerate(vw.labels):
                diag = gram_k[k, k].real
                want_negative = lab.startswith("u")
                if (diag > 0) == want_negative:
                    worst = max(worst, 1.0)
    checks.append(_check("vw-dimension-reality-signature", worst, 1e-12,
                         "the real subspaces carry a real pairing with block-wise signs"))

    n = cfg.n
    low = min(orbit.membership_residual(random_compact(rng, n + 1, scale=s))
              for s in (0.5, 1.0, 2.0) for _ in range(34))
    checks.append(_check("compact-form-misses-the-orbit", low, 0.5,
                         "anti-Hermitian matrices fail the spectrum test",
                         larger_is_fail=False))

    worst = 0.0
    for _ in range(10):
        pt = random_orbit_point(rng, n)
        x_elem = random_traceless(rng, n + 1)
        grad = cycles.grad_height(x_elem, pt)
        ham = cycles.ham_height(x_elem, pt)
        for _ in range(5):
            v = random_tangent(rng, pt)
            dfx = b_tau(v, x_elem)
            worst = max(worst, abs(dfx - b_tau(v, grad)))
            worst = max(worst, abs(dfx - omega(v, ham)))
    checks.append(_check("hamiltonian-gradient-duality", worst, 1e-10,
                         "df(v) = b(v, grad) = omega(v, ham) on the orbit"))
    return checks


# ---------------------------------------------------------------------------


def word_with_slot(n, j):
    """A permutation w with w(1) = j, so that wH0 carries n in slot j."""
    perm = [j] + [k for k in range(1, n + 2) if k != j]
    return WeylElement(tuple(perm))


def graphs_suite(cfg, rng):
    checks = []
    n, h = cfg.n, cfg.h
    worst = 0.0
    for m in sorted({1, 2, 3, 4, 5, 6, n}):
        for j, s in graphs.twists(m):
            g = graphs.m_j_pm(m, j, s)
            worst = max(worst, abs(np.prod(g.m_diag) - 1.0))
    checks.append(_check("involutions-have-unit-determinant", worst, 1e-12,
                         "every twist listed at ranks 1..6 and n has determinant 1"))

    twists = graphs.twists(n)
    worst = 0.0
    for j, s in twists:
        rep = graphs.hessian_restricted(h, j, graphs.m_j_pm(n, j, s))
        worst = max(worst, max(abs(r.value.imag) for r in rep.rows))
        if rep.definiteness != ("positive" if s == "+" else "negative"):
            worst = max(worst, 1.0)
    checks.append(_check("restricted-hessian-real-and-definite", worst, 1e-12,
                         "sign twists make the restricted Hessian definite"))

    worst = 0.0
    for m in (2, 4):
        hm = default_cartan(m)
        for j, s in graphs.twists(m):
            g = graphs.m_j_pm(m, j, s)
            rep = graphs.hessian_restricted(hm, j, g)
            w = word_with_slot(m, j)
            for row, (alpha, b1, b2) in zip(rep.rows, graphs.graph_generators(g, j)):
                worst = max(worst, abs(graphs.hessian_full(b1, b1, w, hm) - row.value))
                worst = max(worst, abs(graphs.hessian_full(b2, b2, w, hm) - row.value))
                worst = max(worst, abs(graphs.hessian_full(b1, b2, w, hm)))
    checks.append(_check("hessian-oracle-equivalence", worst, 1e-10,
                         "diagonal values match the bilinear Hessian on the generators"))

    worst = 0.0
    for m in (2, 4):
        for j, s in graphs.twists(m):
            g = graphs.m_j_pm(m, j, s)
            for k in range(1, m + 2):
                if k == j:
                    continue
                expect = 1.0 if (k < j) == (s == "+") else -1.0
                worst = max(worst, abs(g.phase((k, j)) - expect))
    checks.append(_check("phase-pattern-of-sign-twists", worst, 1e-14,
                         "the twist phases split by slot order"))

    samples = thimble.trace_thimble([(1, "-")], h, c_offset=0.3, directions=8, radii=4, rng=rng)
    worst = samples.graph_residual.max()
    checks.append(_check("traced-thimble-stays-on-graph", worst, 1e-6,
                         "the thimble ball is contained in its graph"))

    worst = 0.0
    for k in range(100):
        g = graphs.m_j_pm(n, *twists[k % len(twists)])
        u = random_unit_vector(rng, n + 1)
        if abs(np.vdot(g.m_diag * u, u)) < 1e-3:
            continue
        pt = graphs.graph_point(u, g)
        worst = max(
            worst,
            abs(graphs.graph_membership(pt, g)
                - graphs.graph_membership(graphs.untwist(pt, g), graphs.identity_graph(n))),
        )
    checks.append(_check("twisted-graph-is-image-of-plain-graph", worst, 1e-10,
                         "membership under m equals plain membership after untwisting"))
    return checks


# ---------------------------------------------------------------------------


def _close_pairs(rows, r):
    """Index pairs (i, j), i < j, of the rows within Euclidean distance r: rows
    that close are within r in the first coordinate, so after a sort by it
    each row is compared only with the next rows within r there."""
    order = np.argsort(rows[:, 0])
    key, found = rows[order, 0], [np.empty((0, 2), dtype=np.intp)]
    for k in range(1, len(rows)):
        near = np.flatnonzero(key[k:] - key[:-k] <= r)
        if not near.size:
            break
        pairs = np.sort(np.stack([order[near], order[near + k]], axis=-1), axis=-1)
        found.append(pairs[np.linalg.norm(rows[pairs[:, 0]] - rows[pairs[:, 1]], axis=-1) <= r])
    return np.concatenate(found)


def _topology_proxy(samples):
    """1.0 if two seeds share a sample or a flow's height turns, on a trace or part of one.
    A flow keeps the phases of its seed, so two samples share a point when
    their unit lines are within 1e-9."""
    seeds = samples.seed_index
    pairs = _close_pairs(realify(samples.line), 1e-9)
    if (seeds[pairs[:, 0]] != seeds[pairs[:, 1]]).any():
        return 1.0
    order = np.lexsort((samples.arc, samples.flow_index))
    flows, diffs = samples.flow_index[order], np.diff(samples.f1[order])
    same = flows[1:] == flows[:-1]
    # a flow fails unless all its steps in f1 are <= 1e-12 or all >= -1e-12
    up = np.bincount(flows[1:][same & ~(diffs <= 1e-12)], minlength=flows[-1] + 1)
    down = np.bincount(flows[1:][same & ~(diffs >= -1e-12)], minlength=flows[-1] + 1)
    return 1.0 if ((up > 0) & (down > 0)).any() else 0.0


def thimble_suite(cfg, rng):
    """Traces the thimble of every twist (j, sign) in one stack, and keeps only
    its maxima and landed lines.  The thimble of m_j^+ (m_j^-) lies in the
    stable (unstable) manifold of Z at [e_j], so its rows flow back there on
    their graph under +Z (-Z), one run per sign that keeps only its last step."""
    checks = []
    n, h = cfg.n, cfg.h
    twists, directions, radii = graphs.twists(n), 12, 4
    samples = thimble.trace_thimble(twists, h, c_offset=0.4, directions=directions, radii=radii,
                                    rng=rng)
    worst_res, worst_f2 = samples.graph_residual.max(), np.abs(samples.f2).max()
    worst_topo = max(_topology_proxy(samples[samples.twist == t]) for t in range(len(twists)))
    # per twist a 1e-3 seed, then the landed end of each direction's largest radius
    landed = samples.line[-len(twists) * directions * radii:][radii - 1::radii]
    rows = {"+": [], "-": []}
    for t, (j, s) in enumerate(twists):
        lines = np.concatenate([thimble.seed_lines(j, n + 1, np.eye(2 * n)[0], [1e-3]),
                                landed[t * directions:(t + 1) * directions]])
        rows[s] += [(j, k == 0, graphs.sign_pattern(n, j, s), u) for k, u in enumerate(lines)]
    del samples, landed  # the rows hold copies, so the trace is released before the Z returns
    seed_gap = landed_gap = 0.0
    for s, direction in (("+", "forward"), ("-", "backward")):
        slots, seed, m, lines = (np.array(a) for a in zip(*rows[s]))
        end = flow.integrate(np.stack([lines, m * lines], axis=1), h, direction,
                             step=30.0 * flow.default_step(n, h), max_steps=4000,
                             last_only=True).lines[-1]
        gap = thimble.pair_gap(m, end, np.eye(n + 1)[slots - 1])
        seed_gap, landed_gap = max(seed_gap, gap[seed].max()), max(landed_gap, gap[~seed].max())
    checks.append(_check("thimble-containment-and-openness", max(worst_res, seed_gap), 1e-6,
                         "the traced ball stays in the graph and +/-Z contracts it to [e_j]"))
    checks.append(_check("imaginary-part-constant-on-thimble", worst_f2, 1e-8,
                         "the twisted graphs carry a real superpotential"))
    checks.append(_check("ball-topology-proxy", worst_topo, 0.0,
                         "distinct seeds give distinct samples with monotone height"))
    checks.append(_check("thimble-flows-back-under-z", landed_gap, 1e-8,
                         "landed samples return to [e_j] under +Z on m_j^+ and -Z on m_j^-"))
    return checks


SUITES = (
    ("cycles", cycles_suite),
    ("flow", flow_suite),
    ("graphs", graphs_suite),
    ("lie-core", lie_core_suite),
    ("orbit", orbit_suite),
    ("thimble", thimble_suite),
)


def run_verification(cfg):
    """Run every suite at the configured rank; returns the report dict."""
    rng = np.random.default_rng(cfg.seed)
    suites = []
    failures = 0
    for name, fn in SUITES:
        checks = fn(cfg, rng)
        failures += sum(1 for c in checks if c.status == "fail")
        suites.append({"name": name, "checks": [c.as_dict() for c in checks]})
    return {
        "config": cfg.as_dict(),
        "suites": suites,
        "summary": {
            "checks": sum(len(s["checks"]) for s in suites),
            "failures": failures,
        },
    }
