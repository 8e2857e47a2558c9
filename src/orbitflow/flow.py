"""Gradient field Z(x) = [x, [tau x, H]], its metric, linearization and flow.

Z is minus the gradient of the real height h_H(x) = Re<H, x> (that is,
``orbit.potential(h, x).real``) with respect to the orbit metric
m_x(u, v) = b_tau(ad(x)^-1 u, ad(x)^-1 v), where ad(x)^-1 is the
minimum-norm inverse, in closed form in the pair coordinates
``orbit.pair_of(x)`` of an OrbitPoint or of stacked matrices.
``advance``, the one stepper of the package, takes a classical RK4 step of
any batched tangent field in the ambient matrix space, retracts it onto the
orbit and may snap it onto the fixed set of x -> m x^H m.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NotCriticalError, TangencyError
from .liecore import (
    RootSystemAn,
    b_norm,
    b_tau,
    bracket,
    cartan_matrix,
    killing_form,
    omega,
    root_eval,
    tau,
)
from .orbit import (OrbitPoint, as_points, critical_points, invert_pair, membership_residual,
                    pair_of, potential, retract_batch)

TANGENCY_TOL = 1e-8
CONV_TOL = 1e-9


def _mat(x):
    return x.x if isinstance(x, OrbitPoint) else np.asarray(x, dtype=complex)


def z_field(x, h):
    """Z(x) = [x, [tau x, H]] of a point or a stack of matrices; defined on
    the whole algebra, tangent to orbits."""
    xm = _mat(x)
    hm = cartan_matrix(h)
    tx = -np.swapaxes(xm, -1, -2).conj()
    inner = tx @ hm - hm @ tx
    return xm @ inner - inner @ xm


def symmetrize(xs, m):
    """Nearest point of the fixed set of x -> m x^H m, for a unit-modulus
    diagonal m given by its entries; m = 1 gives the Hermitian part."""
    m = np.asarray(m)
    return 0.5 * (xs + m[:, None] * np.swapaxes(xs, -1, -2).conj() * m[None, :])


def advance(xs, rhs, dt, m=None):
    """One RK4 step of the tangent field ``rhs`` from stacked orbit matrices,
    retracted onto the orbit, then symmetrized by ``m`` if given.  ``dt``
    broadcasts: shape (batch, 1, 1) gives each point its own step."""
    k1 = rhs(xs)
    k2 = rhs(xs + 0.5 * dt * k1)
    k3 = rhs(xs + 0.5 * dt * k2)
    k4 = rhs(xs + dt * k3)
    out = retract_batch(xs + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return out if m is None else symmetrize(out, m)


def ad_inverse(pt, v, tangency_tol=TANGENCY_TOL):
    """Solve ad(x) w = v with w orthogonal to the kernel of ad(x).

    This is the pseudo-inverse needed for the metric: the solution picked
    in the inner-product complement of the kernel is what makes the field
    Z the negative metric gradient of the real height.  Raises
    TangencyError when v is not in the image of ad(x) within tolerance.
    """
    vm = _mat(v)
    w, outside = invert_pair(*pair_of(pt), vm)
    residual = np.linalg.norm(outside)
    if residual > tangency_tol * max(1.0, np.linalg.norm(vm)):
        raise TangencyError(f"component outside im ad(x): {residual:.3e}")
    return w


def tangency_residual(pt, v):
    """Relative size of the component of v outside im ad(x).

    The component is taken along ker ad(x), which complements im ad(x)
    because x is diagonalizable; it is what ad(x) ad_inverse(v) misses.
    """
    vm = _mat(v)
    return np.linalg.norm(invert_pair(*pair_of(pt), vm)[1]) / max(np.linalg.norm(vm), 1e-300)


def metric_m(pt, u, v, tangency_tol=TANGENCY_TOL):
    """Riemannian metric m_x(u, v) = b_tau(ad(x)^-1 u, ad(x)^-1 v)."""
    return b_tau(ad_inverse(pt, u, tangency_tol), ad_inverse(pt, v, tangency_tol))


@dataclass(frozen=True)
class RootRate:
    """Linearization data of one positive root at a critical point."""

    root: tuple
    rate: float              # alpha(x) alpha(H)
    degenerate: bool
    stable: tuple            # real 2-dim eigenspace for eigenvalue -|rate|
    unstable: tuple


@dataclass(frozen=True)
class LinearizationSpectrum:
    point: OrbitPoint
    rates: tuple

    def eigenvalues(self):
        """Real eigenvalue multiset of dZ on the realified root-space sum."""
        out = []
        for r in self.rates:
            out.extend([r.rate, r.rate, -r.rate, -r.rate])
        return sorted(out)

    def v_minus(self):
        return [v for r in self.rates if not r.degenerate for v in r.stable]

    def v_plus(self):
        return [v for r in self.rates if not r.degenerate for v in r.unstable]


def linearize(pt, h, crit_tol=1e-8):
    """Spectrum of dZ at a critical point.

    dZ_x(v) = -ad(x) ad(H) tau(v) has eigenvalues +/- alpha(x) alpha(H) on
    each realified root pair, the minus sign on the compact generators
    {A_a, Z_a} and the plus sign on the Hermitian ones {S_a, iA_a}.  Roots
    vanishing on x (the minimal orbit is non-regular for n >= 2) are
    reported with rate zero and flagged degenerate.
    """
    zn = b_norm(z_field(pt, h))
    if zn > crit_tol:
        raise NotCriticalError(f"|Z(x)| = {zn:.3e}; not a singularity")
    n = pt.n
    rs = RootSystemAn(n)
    xdiag = np.real(np.diag(pt.x))
    rates = []
    for alpha in rs.positive_roots:
        rate = float(np.real(root_eval(alpha, xdiag) * root_eval(alpha, h)))
        degenerate = abs(rate) < 1e-14
        compact = (rs.a_alpha(alpha), rs.z_alpha(alpha))
        hermit = (rs.s_alpha(alpha), 1j * rs.a_alpha(alpha))
        if rate >= 0:
            stable, unstable = compact, hermit
        else:
            stable, unstable = hermit, compact
        rates.append(
            RootRate(root=alpha, rate=rate, degenerate=degenerate,
                     stable=stable, unstable=unstable)
        )
    return LinearizationSpectrum(point=pt, rates=tuple(rates))


def default_step(n, h):
    """Step of 1e-2 scaled by the stiffest linearization rate."""
    rate = (n + 1.0) * max(abs(root_eval(a, h)) for a in RootSystemAn(n).positive_roots)
    return 1e-2 / rate


@dataclass
class Trajectory:
    """Samples of a flow line; ``points`` holds matrices until ``integrate``
    makes them OrbitPoints."""

    times: list = field(default_factory=list)
    points: list = field(default_factory=list)
    h_values: list = field(default_factory=list)
    f2_values: list = field(default_factory=list)
    orbit_residuals: list = field(default_factory=list)
    z_norms: list = field(default_factory=list)
    limit_index: int | None = None

    def append(self, t, x, h):
        f = potential(h, x)
        self.times.append(t)
        self.points.append(x)
        self.h_values.append(f.real)
        self.f2_values.append(f.imag)
        self.orbit_residuals.append(membership_residual(x))
        self.z_norms.append(b_norm(z_field(x, h)))


def integrate(pt, h, direction="forward", step=None, max_steps=10000, conv_tol=CONV_TOL,
              stabilize="auto"):
    """Flow an orbit point along +/-Z with ``advance``.

    Stops when |Z| < conv_tol or after max_steps; when converged, the
    trajectory records the 1-based index of the limiting critical point.

    Hermitian initial data stays Hermitian under the exact flow but its
    transverse roundoff grows along saddle passages, so by default such
    trajectories are re-projected onto the Hermitian locus every step
    (``stabilize`` in {"auto", True, False}; ``advance`` with m = 1).
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    sign = 1.0 if direction == "forward" else -1.0
    n = pt.n
    dt = step if step is not None else default_step(n, h)
    if stabilize == "auto":
        stabilize = np.linalg.norm(pt.x - pt.x.conj().T) < 1e-12 * np.linalg.norm(pt.x)
    m = np.ones(n + 1) if stabilize else None

    def rhs(xm):
        return sign * z_field(xm, h)

    traj = Trajectory()
    x = pt.x
    traj.append(0.0, x, h)
    t = 0.0
    for _ in range(max_steps):
        if traj.z_norms[-1] < conv_tol:
            break
        x = advance(x, rhs, dt, m)
        t += dt
        traj.append(t, x, h)
    traj.points = as_points(np.array(traj.points))
    if traj.z_norms[-1] < conv_tol:
        crits = critical_points(n)
        dists = [np.linalg.norm(x - c.x) for c in crits]
        traj.limit_index = int(np.argmin(dists)) + 1
    return traj


def trajectory_csv(traj):
    """CSV dump: t, Re f_H, Im f_H, orbit residual, |Z|, flattened entries."""
    d = traj.points[0].x.shape[0]
    header = ["t", "re_f", "im_f", "orbit_residual", "z_norm"]
    header += [f"{p}_{i}{j}" for i in range(d) for j in range(d) for p in ("re", "im")]
    lines = [",".join(header)]
    for k, pt in enumerate(traj.points):
        row = [traj.times[k], traj.h_values[k], traj.f2_values[k],
               traj.orbit_residuals[k], traj.z_norms[k]]
        for z in pt.x.ravel():
            row.extend([z.real, z.imag])
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def nongradient_witness(h, h1, v, w):
    """Closedness defect of the 1-form (., Z) on the ambient algebra.

    Evaluates the antisymmetrized closed form -2<ad(H) ad(H1) tau(w), v>
    at the Cartan basepoint x = H1 (H real diagonal, H1 = i * real
    diagonal); a positive value witnesses that Z is not a gradient for the
    ambient pairing.  Vanishes when v = w or H1 = 0.
    """
    hm = cartan_matrix(h)
    h1m = cartan_matrix(h1)

    def term(a, b):
        return killing_form(bracket(hm, bracket(h1m, tau(b))), a)

    return abs(-2.0 * term(v, w) + 2.0 * term(w, v))


def closedness_defect(x, h, v, w):
    """Exact four-term evaluation of d(., Z) at an arbitrary basepoint."""
    xm, hm = _mat(x), cartan_matrix(h)

    def dz(a):
        return bracket(a, bracket(tau(xm), hm)) + bracket(xm, bracket(tau(a), hm))

    return b_tau(w, dz(v)) - b_tau(v, dz(w))
