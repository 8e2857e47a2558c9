"""Gradient field Z(x) = [x, [tau x, H]], its metric, linearization and flow.

Z is minus the gradient of the real height h_H(x) = Re<H, x> (that is,
``orbit.potential(h, x).real``) with respect to the orbit metric
m_x(u, v) = b_tau(ad(x)^-1 u, ad(x)^-1 v), where ad(x)^-1 is the
minimum-norm inverse, in closed form in the pair coordinates
``orbit.pair_of(x)`` of an OrbitPoint or of stacked matrices.
``advance``, the one stepper of the package, takes a classical RK4 step of
a velocity field on stacked chart pairs (u, v), such as ``orbit.lax_velocity``
for Z; ``graph_field`` keeps a field on the graph v = m u of an involution m.
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
    root_eval,
    tau,
)
from .orbit import (OrbitPoint, chart, critical_points, displace, invert_pair, lax_velocity,
                    membership_residual, pair_of, potential)

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


def graph_field(field, m):
    """The pair field (du, m du) of the line velocity du of ``field``: on the
    graph v = m u of an involution m (m = 1: the Hermitian locus) it stays
    there exactly, as multiplying by +/-1 is exact."""
    def rhs(pairs):
        vel = field(pairs)
        vel[..., 1, :] = m * vel[..., 0, :]
        return vel
    return rhs


def advance(pairs, rhs, dt):
    """One RK4 step of the pair field ``rhs`` from a stack of pairs of shape
    (batch, 2, d).  ``dt`` broadcasts: shape (batch, 1, 1) gives each pair
    its own step.  Raises StepSizeError as ``orbit.displace`` does."""
    k1 = rhs(pairs)
    k2 = rhs(pairs + 0.5 * dt * k1)
    k3 = rhs(pairs + 0.5 * dt * k2)
    k4 = rhs(pairs + dt * k3)
    return displace(pairs, (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


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
    """Samples of a flow line, with their OrbitPoints."""

    times: list = field(default_factory=list)
    points: list = field(default_factory=list)
    h_values: list = field(default_factory=list)
    f2_values: list = field(default_factory=list)
    orbit_residuals: list = field(default_factory=list)
    z_norms: list = field(default_factory=list)
    limit_index: int | None = None

    def append(self, t, pt, h):
        f = potential(h, pt)
        self.times.append(t)
        self.points.append(pt)
        self.h_values.append(f.real)
        self.f2_values.append(f.imag)
        self.orbit_residuals.append(membership_residual(pt.x))
        self.z_norms.append(b_norm(z_field(pt, h)))


def integrate(pt, h, direction="forward", step=None, max_steps=10000, conv_tol=CONV_TOL):
    """Flow an orbit point along +/-Z with ``advance``, stepping its pair by
    ``orbit.lax_velocity``.

    Stops when |Z| < conv_tol or after max_steps; when converged, the
    trajectory records the 1-based index of the limiting critical point.

    Hermitian initial data stays Hermitian under the exact flow but its
    transverse roundoff grows along saddle passages, so such data is
    stepped as the graph flow of m = 1, with v = u throughout.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    sign = 1.0 if direction == "forward" else -1.0
    dt = step if step is not None else default_step(pt.n, h)
    hermitian = np.linalg.norm(pt.x - pt.x.conj().T) < 1e-12 * np.linalg.norm(pt.x)
    pairs = np.stack([pt.line, pt.line if hermitian else pt.normal])[None]

    def field(p):
        return sign * lax_velocity(p, h)

    rhs = graph_field(field, 1.0) if hermitian else field

    traj = Trajectory()
    t = 0.0
    while True:
        u, v, x = chart(pairs)
        traj.append(t, OrbitPoint(x=x[0], line=u[0], normal=v[0]), h)
        if traj.z_norms[-1] < conv_tol or len(traj.times) > max_steps:
            break
        pairs = advance(pairs, rhs, dt)
        t += dt
    if traj.z_norms[-1] < conv_tol:
        crits = critical_points(pt.n)
        dists = [np.linalg.norm(x[0] - c.x) for c in crits]
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
