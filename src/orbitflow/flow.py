"""Gradient field Z(x) = [x, [tau x, H]], its metric, linearization and flow.

Z is minus the gradient of the real height h_H(x) = Re<H, x> (that is,
``orbit.potential(h, x).real``) with respect to the orbit metric
m_x(u, v) = b_tau(ad(x)^-1 u, ad(x)^-1 v), where ad(x)^-1 is the
minimum-norm inverse, in closed form in the pair coordinates
``orbit.pair_of(x)`` of an OrbitPoint or of stacked matrices.
``advance``, the one stepper of the package, takes a classical RK4 step of
a field on stacked chart pairs (u, v), such as ``orbit.lax_velocity`` for Z,
or on the log-moduli phi of graph lines (``thimble.gradient_field``).
``integrate`` flows a whole stack of pairs along Z and records it as arrays
(``Trajectory``): a single point is a batch of one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotCriticalError, StepSizeError, TangencyError
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
from .orbit import (DRIFT_LIMIT, OrbitPoint, chart, displace, invert_pair, lax_velocity,
                    membership_residual, pair_of, potential)

TANGENCY_TOL = 1e-8
CONV_TOL = 1e-9


def _mat(x):
    return x.x if isinstance(x, OrbitPoint) else np.asarray(x, dtype=complex)


def z_field(x, h):
    """Z(x) = [x, [tau x, H]] of a point or a stack of matrices; defined on
    the whole algebra, tangent to orbits."""
    xm = _mat(x)
    h = np.asarray(h, dtype=float)
    tx = -np.swapaxes(xm, -1, -2).conj()
    inner = tx * h - h[:, None] * tx
    return xm @ inner - inner @ xm


def advance(state, rhs, dt):
    """One RK4 step of the field ``rhs`` from a stack of complex pairs (u, v),
    shape (batch, 2, d), checked by ``orbit.displace``, or of real log-moduli
    phi (batch, d), refused when it moves some phi_i by more than DRIFT_LIMIT
    or by a non-finite amount; StepSizeError names the row.  ``dt`` broadcasts."""
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    move = (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if np.iscomplexobj(state):
        return displace(state, move)
    size = np.abs(move).max(axis=-1)
    bad = np.flatnonzero(~(size <= DRIFT_LIMIT))
    if bad.size:
        raise StepSizeError(f"step moved a log-modulus by {size[bad[0]]:.3e} (batch index "
                            f"{bad[0]}); reduce the integration step")
    return state + move


def ad_inverse(pt, v, tangency_tol=TANGENCY_TOL):
    """Solve ad(x) w = v with w orthogonal to the kernel of ad(x), for one
    matrix v or a stack (k, d, d) of them at the one point ``pt``.

    This is the pseudo-inverse needed for the metric: the solution picked
    in the inner-product complement of the kernel is what makes the field
    Z the negative metric gradient of the real height.  Raises
    TangencyError when some v is not in the image of ad(x) within
    tolerance of its own norm, naming the stack index of the worst.
    """
    vm = _mat(v)
    w, outside = invert_pair(*pair_of(pt), vm)
    excess = (np.linalg.norm(outside, axis=(-2, -1))
              / np.maximum(1.0, np.linalg.norm(vm, axis=(-2, -1))))
    k = np.argmax(excess)
    if excess.flat[k] > tangency_tol:
        where = f" (stack index {k})" if excess.ndim else ""
        raise TangencyError(f"component outside im ad(x): {excess.flat[k]:.3e} of max(1, |v|){where}")
    return w


def metric_m(pt, u, v, tangency_tol=TANGENCY_TOL):
    """Orbit metric b_tau(ad(x)^-1 u, ad(x)^-1 v); u and v are inverted as one stack."""
    return b_tau(*ad_inverse(pt, np.stack([_mat(u), _mat(v)]), tangency_tol))


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


@dataclass(frozen=True)
class Trajectory:
    """A flow of a stack of B pairs over T steps of the whole stack: ``times``
    (T,) and, per step and row, the unit ``lines`` (T, B, d), chart
    ``points`` (T, B, d, d), f_H ``potentials`` and |Z| ``z_norms`` (T, B),
    NaN where no row could freeze (conv_tol <= 0).  A row frozen at
    convergence repeats its last entry.  ``steps`` (B,) counts the steps of
    each row, and ``limit_index`` (B,) is the 1-based slot j = argmax |u| of
    the critical point [e_j] a converged row reached, or 0."""

    times: np.ndarray
    lines: np.ndarray
    points: np.ndarray
    potentials: np.ndarray
    z_norms: np.ndarray
    steps: np.ndarray
    limit_index: np.ndarray


def integrate(pairs, h, direction="forward", step=None, max_steps=10000, conv_tol=CONV_TOL):
    """Flow a stack of pairs (u, v), shape (batch, 2, d), along +/-Z with
    ``advance`` and ``orbit.lax_velocity``.  A row freezes once its |Z|
    drops below conv_tol; the flow stops when every row has, or after
    max_steps.  Hermitian data stays Hermitian under the exact flow but its
    transverse roundoff grows along saddle passages, so a row whose chart
    point is Hermitian steps as the graph flow of m = 1, with v = u.  Every
    kernel reduces row by row, so a row flows bit for bit as it does alone.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    sign = 1.0 if direction == "forward" else -1.0
    pairs = np.array(pairs, dtype=complex)
    dt = step if step is not None else default_step(pairs.shape[-1] - 1, h)
    x = chart(pairs)[2]
    herm = (np.linalg.norm(x - np.swapaxes(x, -1, -2).conj(), axis=(-2, -1))
            < 1e-12 * np.linalg.norm(x, axis=(-2, -1)))
    pairs[herm, 1] = pairs[herm, 0]

    def rhs(p):
        vel = sign * lax_velocity(p, h)
        vel[on_locus, 1] = vel[on_locus, 0]
        return vel

    record = [pairs.copy()]
    zn, z_norms = np.full(len(pairs), np.nan), []  # |Z| only of rows that can still freeze
    active = np.ones(len(pairs), dtype=bool)
    steps = np.zeros(len(pairs), dtype=int)
    while True:
        if conv_tol > 0:
            rows = np.flatnonzero(active)
            # b_norm of each Z, rounded as b_norm rounds one: a dot product
            z = z_field(chart(pairs[rows])[2], h).reshape(len(rows), 1, -1)
            zn[rows] = np.sqrt((2.0 * len(h) * (z.conj() @ np.swapaxes(z, -1, -2))[:, 0, 0]).real)
            active[rows] = ~(zn[rows] < conv_tol)
        z_norms.append(zn.copy())
        if not active.any() or len(record) > max_steps:
            break
        rows = np.flatnonzero(active)
        on_locus = herm[rows]  # the Hermitian rows among those rhs steps
        pairs[rows] = advance(pairs[rows], rhs, dt)
        steps[rows] += 1
        record.append(pairs.copy())
    lines, _, points = chart(np.array(record))
    times = np.cumsum([0.0] + [dt] * (len(record) - 1))  # t += dt, step by step
    limit = np.where(zn < conv_tol, np.argmax(np.abs(lines[-1]), axis=-1) + 1, 0)
    return Trajectory(times, lines, points, potential(h, points), np.array(z_norms), steps, limit)


def trajectory_csv(traj):
    """CSV dump of the first row of a trajectory: t, Re f_H, Im f_H, orbit
    residual, |Z|, flattened entries."""
    d = traj.points.shape[-1]
    header = ["t", "re_f", "im_f", "orbit_residual", "z_norm"]
    header += [f"{p}_{i}{j}" for i in range(d) for j in range(d) for p in ("re", "im")]
    lines = [",".join(header)]
    for k, x in enumerate(traj.points[:, 0]):
        f = traj.potentials[k, 0]
        row = [traj.times[k], f.real, f.imag, membership_residual(x), traj.z_norms[k, 0]]
        for z in x.ravel():
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
