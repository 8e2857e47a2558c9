"""Invariant suites behind the ``verify`` command.

Each suite mirrors the invariants of one module; a check records its name,
measured value, tolerance, pass status and a short provenance label
("plumbing" for artifact-internal machinery).  All randomness flows from
the single seed in the run configuration and suites execute in a fixed
order, so reports are byte-reproducible.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import cycles, flow, graphs, liecore, orbit, thimble
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
    minimal_cartan,
    omega,
    root_eval,
    tau,
    weyl_group,
)
from .util import (
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
    from scipy.linalg import expm

    d = n + 1
    h0m = cartan_matrix(minimal_cartan(n))
    if unitary:
        a = random_compact(rng, d, scale=spread)
        g = expm(a)
        return orbit.retract(g @ h0m @ g.conj().T)
    a = random_traceless(rng, d, scale=spread / d)
    g = expm(a)
    return orbit.retract(g @ h0m @ np.linalg.inv(g))


def random_tangent(rng, pt):
    v = bracket(pt.x, random_traceless(rng, pt.n + 1))
    return v / b_norm(v)


# ---------------------------------------------------------------------------
# adjoint-representation oracles shared with the test suite


def sl_basis(d):
    out = []
    for i in range(d):
        for j in range(d):
            if i != j:
                m = np.zeros((d, d), dtype=complex)
                m[i, j] = 1.0
                out.append(m)
    for k in range(d - 1):
        m = np.zeros((d, d), dtype=complex)
        m[k, k], m[k + 1, k + 1] = 1.0, -1.0
        out.append(m)
    return out


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
                         "superpotential is real on the Hermitian locus"))

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


def fd_jacobian_eigenvalues(pt, h, fd=1e-5):
    """Eigenvalues of the finite-difference Jacobian of Z on the root span."""
    rs = RootSystemAn(pt.n)
    dirs = []
    for alpha in rs.roots:
        xa = rs.x_alpha(alpha)
        dirs.extend([xa, 1j * xa])
    flat = realify(np.array(dirs))
    gram_inv = np.linalg.inv(flat @ flat.T)
    cols = []
    for v in dirs:
        dz = (flow.z_field(pt.x + fd * v, h) - flow.z_field(pt.x - fd * v, h)) / (2 * fd)
        cols.append(gram_inv @ (flat @ realify(dz[None])[0]))
    eigvals = np.linalg.eigvals(np.array(cols).T)
    return sorted(eigvals.real)


def stable_unstable_measure(cfg, rng, seeds=200, eps=1e-4):
    """Two-sided basin test at every singularity.

    Seeds inside the stable space flow back to the singularity (measured as
    the closest approach along the trajectory, which is limited by the
    quadratic contamination of the retraction); seeds inside the unstable
    space must separate monotonically over ten steps.
    """
    n, h = cfg.n, cfg.h
    rate = (n + 1.0) * max(abs(root_eval(a, h)) for a in RootSystemAn(n).positive_roots)
    dt = 0.3 / rate
    worst = 0.0

    def z_step(xs):
        return flow.advance(xs, lambda ys: flow.z_field(ys, h), dt)

    for pt in orbit.critical_points(n):
        spec = flow.linearize(pt, h)
        for side, basis in (("minus", spec.v_minus()), ("plus", spec.v_plus())):
            half = seeds // 2
            coeff = rng.standard_normal((half, len(basis)))
            coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
            mats = np.array(
                [orbit.retract(pt.x + eps * sum(c * b for c, b in zip(row, basis))).x
                 for row in coeff]
            )
            if side == "minus":
                best = np.linalg.norm(mats - pt.x, axis=(1, 2))
                cur = mats
                live = np.ones(len(mats), dtype=bool)
                for _ in range(120):
                    cur[live] = z_step(cur[live])
                    dist = np.linalg.norm(cur - pt.x, axis=(1, 2))
                    best = np.minimum(best, dist)
                    live &= dist < 5.0
                    if not live.any():
                        break
                worst = max(worst, float(best.max()))
            else:
                prev = np.linalg.norm(mats - pt.x, axis=(1, 2))
                cur = mats
                for _ in range(10):
                    cur = z_step(cur)
                    dist = np.linalg.norm(cur - pt.x, axis=(1, 2))
                    if not np.all(dist > prev):
                        worst = max(worst, 1.0)
                    prev = dist
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

    worst = 0.0
    for pt in orbit.critical_points(n):
        spec = flow.linearize(pt, h)
        for side in (spec.v_minus(), spec.v_plus()):
            for i, a in enumerate(side):
                for b in side[i:]:
                    worst = max(worst, abs(omega(a, b)))
    checks.append(_check("stable-unstable-spaces-isotropic", worst, 1e-10,
                         "eigenspace sums of dZ are Lagrangian for the ambient form"))

    worst = 0.0
    for pt in orbit.critical_points(n):
        expected = flow.linearize(pt, h).eigenvalues()
        observed = fd_jacobian_eigenvalues(pt, h)
        worst = max(worst, float(np.abs(np.array(observed) - np.array(expected)).max()))
    checks.append(_check("fd-jacobian-matches-rates", worst, 1e-6,
                         "finite differences reproduce the per-root rates"))

    checks.append(_check("perturbations-respect-the-splitting",
                         stable_unstable_measure(cfg, rng), 1e-5,
                         "stable seeds flow back, unstable seeds separate"))

    worst = 0.0
    for _ in range(4):
        pt = cycles.flag_sample(n, 1, 0.6, rng)[0]
        traj = flow.integrate(pt, h, step=1e-3, max_steps=2500, conv_tol=0.0)
        worst = max(worst, max(traj.orbit_residuals))
    checks.append(_check("retraction-keeps-orbit-residual-small", worst, 1e-8,
                         "plumbing"))
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
    worst = 0.0
    for m in (2, 4, 6):
        for j in range(1, m + 2):
            for s in ("+", "-"):
                g = graphs.m_j_pm(m, j, s)
                worst = max(worst, abs(np.prod(g.m_diag) - 1.0))
    checks.append(_check("involutions-have-unit-determinant", worst, 1e-12,
                         "odd matrix size fixes the determinant of the sign twists"))

    n, h = cfg.n, cfg.h
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
        for j in range(1, m + 2):
            for s in ("+", "-"):
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
        for j in range(1, m + 2):
            for s in ("+", "-"):
                g = graphs.m_j_pm(m, j, s)
                for k in range(1, m + 2):
                    if k == j:
                        continue
                    expect = 1.0 if (k < j) == (s == "+") else -1.0
                    worst = max(worst, abs(g.phase((k, j)) - expect))
    checks.append(_check("phase-pattern-of-sign-twists", worst, 1e-14,
                         "the twist phases split by slot order"))

    samples = thimble.trace_thimble(1, "-", h, c_offset=0.3, directions=8,
                                    radii=4, rng=rng)
    worst = max(s.graph_residual for s in samples)
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


def _topology_proxy(samples):
    mats = np.array([s.point.x for s in samples])
    seeds = np.array([s.seed_index for s in samples])
    tree = cKDTree(realify(mats))
    pairs = tree.query_pairs(1e-9, output_type="ndarray")
    for a, b in pairs:
        if seeds[a] != seeds[b]:
            return 1.0
    by_flow = {}
    for s in samples:
        by_flow.setdefault(s.flow_index, []).append(s)
    for vals in by_flow.values():
        f1 = [s.f1 for s in sorted(vals, key=lambda s: s.arc)]
        diffs = np.diff(f1)
        if len(diffs) and not (np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)):
            return 1.0
    return 0.0


def _restart_gap(samples, j, s, h, step):
    """Restart a flow from a recorded mid state; boundary points must agree."""
    flows = {}
    for x in samples:
        flows.setdefault(x.flow_index, []).append(x)
    flow_id = max(flows, key=lambda k: len(flows[k]))
    line = sorted(flows[flow_id], key=lambda x: x.arc)
    if len(line) < 3:
        return 0.0
    mid, end = line[len(line) // 2], line[-1]
    g = graphs.m_j_pm(len(h) - 1, j, s)
    landed, _ = thimble.flow_to_level(mid.point.x[None], h, g, end.f1, step, 4000)
    return float(np.linalg.norm(landed[0] - end.point.x))


def thimble_suite(cfg, rng):
    checks = []
    n, h = cfg.n, cfg.h
    c_offset = 0.4
    worst_res = worst_f2 = worst_conv = worst_topo = worst_semi = 0.0
    for j, s in graphs.twists(n):
        step = thimble.default_thimble_step(h, j)
        samples = thimble.trace_thimble(j, s, h, c_offset=c_offset, directions=12,
                                        radii=4, rng=rng, step=step)
        worst_res = max(worst_res, max(x.graph_residual for x in samples))
        worst_f2 = max(worst_f2, max(abs(x.f2) for x in samples))

        # graph-tangent seeds contract back to [e_j] under the orienting flow
        g = graphs.m_j_pm(n, j, s)
        crit = orbit.critical_points(n)[j - 1]
        xc = crit.x
        seed = orbit.retract(xc + 1e-3 * graphs.graph_tangent_frame(crit, g)[0]).x[None]
        cur = flow.symmetrize(seed, g.m_diag)
        orient = 1.0 if s == "-" else -1.0

        def toward_xc(ys):
            return orient * thimble.grad_f1(ys, h)

        for _ in range(20000):
            if np.linalg.norm(cur[0] - xc) < 1e-9:
                break
            cur = flow.advance(cur, toward_xc, step, g.m_diag)
        worst_conv = max(worst_conv, float(np.linalg.norm(cur[0] - xc)))

        worst_topo = max(worst_topo, _topology_proxy(samples))
        worst_semi = max(worst_semi, _restart_gap(samples, j, s, h, step))
    checks.append(_check("thimble-containment-and-openness", max(worst_res, worst_conv), 1e-6,
                         "the traced ball stays in the graph and the flow contracts inside it"))
    checks.append(_check("imaginary-part-constant-on-thimble", worst_f2, 1e-8,
                         "the twisted graphs carry a real superpotential"))
    checks.append(_check("ball-topology-proxy", worst_topo, 0.0,
                         "distinct seeds give distinct samples with monotone height"))
    checks.append(_check("flow-restart-consistency", worst_semi, 1e-6,
                         "plumbing"))
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
