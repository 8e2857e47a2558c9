"""Gradient field Z(x) = [x, [tau x, H]], its metric, linearization and flow.

Z is minus the gradient of the real height h_H(x) = Re<H, x> (that is,
``orbit.potential(h, x).real``) with respect to the orbit metric
m_x(u, v) = b_tau(ad(x)^-1 u, ad(x)^-1 v), where ad(x)^-1 is the
minimum-norm inverse, in closed form in the pair frame of an OrbitPoint
(cached on the point) or of stacked matrices (``orbit.invert_at``).
``integrate`` flows a whole stack of pairs along Z and records it as arrays
(``Trajectory``): a single point is a batch of one.  Z is tangent to the
graph of every +/-1 diagonal m, where a row steps the two scalars (s, B) of its
line u0 e^{m (h s - B)} by the Z rule of ``thimble._line_rate`` (from its first
stage alone where m is constant, ``thimble._stages``); other rows step
by ``orbit.lax_velocity``.  Every row's |Z| is ``orbit.z_norm``, read off that
velocity with no matrix.  At [e_j], V- of dZ spans the graph of m_j^+ and V+ that of m_j^-.
"""

from dataclasses import dataclass
from functools import cached_property

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
from . import thimble
from .orbit import (OrbitPoint, advance, assemble, invert_at, lax_velocity, membership_residual,
                    potential, z_norm)

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


def ad_inverse(pt, v):
    """Solve ad(x) w = v with w orthogonal to the kernel of ad(x), for one
    matrix v or a stack (k, d, d) of them at the one point ``pt``.

    This is the pseudo-inverse needed for the metric: the solution picked
    in the inner-product complement of the kernel is what makes the field
    Z the negative metric gradient of the real height.  Raises
    TangencyError when some v is not in the image of ad(x) within
    TANGENCY_TOL of its own norm, naming the stack index of the worst.
    """
    vm = _mat(v)
    w, outside = invert_at(pt, vm)
    sq_out, sq_v = ((np.abs(a) ** 2).sum(axis=(-2, -1)) for a in (outside, vm))
    excess = np.sqrt(sq_out / np.maximum(1.0, sq_v))
    k = np.argmax(excess)
    if excess.flat[k] > TANGENCY_TOL:
        where = f" (stack index {k})" if excess.ndim else ""
        raise TangencyError(f"component outside im ad(x): {excess.flat[k]:.3e} of max(1, |v|){where}")
    return w


def metric_m(pt, u, v):
    """Orbit metric b_tau(ad(x)^-1 u, ad(x)^-1 v); u and v are inverted as one stack."""
    return b_tau(*ad_inverse(pt, np.array([_mat(u), _mat(v)])))


@dataclass(frozen=True)
class RootRate:
    """Linearization data of one positive root at a critical point."""

    root: tuple
    rate: float              # alpha(x) alpha(H)
    degenerate: bool         # rate 0: the root vanishes on x
    stable: tuple            # real 2-dim eigenspace for eigenvalue -|rate|; () if degenerate
    unstable: tuple          # the one for +|rate|; () if degenerate


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
        return [v for r in self.rates for v in r.stable]

    def v_plus(self):
        return [v for r in self.rates for v in r.unstable]


def linearize(pt, h):
    """Spectrum of dZ at a critical point.

    dZ_x(v) = -ad(x) ad(H) tau(v) has eigenvalues +/- alpha(x) alpha(H) on
    each realified root pair, the minus sign on the compact generators
    {A_a, Z_a} and the plus sign on the Hermitian ones {S_a, iA_a}.  Roots
    vanishing on x (the minimal orbit is non-regular for n >= 2) are
    reported with rate zero, flagged degenerate and given no eigenbases.
    """
    zn = b_norm(z_field(pt, h))
    if zn > 1e-8:
        raise NotCriticalError(f"|Z(x)| = {zn:.3e}; not a singularity")
    n = pt.n
    rs = RootSystemAn(n)
    xdiag = np.real(np.diag(pt.x))
    rates = []
    for alpha in rs.positive_roots:
        rate = float(np.real(root_eval(alpha, xdiag) * root_eval(alpha, h)))
        degenerate = abs(rate) < 1e-14
        if degenerate:
            stable = unstable = ()
        else:
            compact = (rs.a_alpha(alpha), rs.z_alpha(alpha))
            hermit = (rs.s_alpha(alpha), 1j * rs.a_alpha(alpha))
            stable, unstable = (compact, hermit) if rate >= 0 else (hermit, compact)
        rates.append(RootRate(root=alpha, rate=rate, degenerate=degenerate,
                              stable=stable, unstable=unstable))
    return LinearizationSpectrum(point=pt, rates=tuple(rates))


def default_step(n, h):
    """Step of 1e-2 scaled by the stiffest linearization rate."""
    rate = (n + 1.0) * max(abs(root_eval(a, h)) for a in RootSystemAn(n).positive_roots)
    return 1e-2 / rate


@dataclass(frozen=True)
class Trajectory:
    """A flow of B pairs over T steps: ``times`` (T,), per step and row the unit
    ``lines`` and ``normals`` (T, B, d), views of one record of unit pairs
    (T, B, 2, d), and |Z| ``z_norms`` (T, B), NaN where no
    row could freeze (conv_tol <= 0), and, assembled on first use, the chart
    ``points`` (T, B, d, d) and f_H ``potentials`` (T, B).  A frozen row repeats
    its last entry.  A flow that keeps only its last entry (``integrate(...,
    last_only=True)``) has T = 1: the final time and state.  ``steps`` (B,)
    counts the steps of each row, and ``limit_index`` (B,) is the slot j =
    argmax |u| of the [e_j] a converged row reached, or 0."""

    times: np.ndarray
    lines: np.ndarray
    normals: np.ndarray
    z_norms: np.ndarray
    steps: np.ndarray
    limit_index: np.ndarray
    h: np.ndarray

    @cached_property
    def points(self):
        return assemble(self.lines, self.normals)

    @cached_property
    def potentials(self):
        return potential(self.h, self.points)


def integrate(pairs, h, direction="forward", step=None, max_steps=10000, conv_tol=CONV_TOL,
              last_only=False):
    """Flow a stack of pairs (u, v), shape (batch, 2, d), along +/-Z by
    ``advance`` on one grid in t: a row (u0, e^{i theta} m u0), m = +/-1
    (m = 1: Hermitian), steps the state (s, B) of its lines u0 e^{m (h s - B)}
    on its graph under the Z rule, and other rows step by
    ``orbit.lax_velocity``.  A graph row of constant m takes its first RK4 stage
    as every stage (``thimble._stages``), since s' is constant there and B only
    scales the line, so a stack with no mixed-twist graph row evaluates the Z rule
    once per step.  A row freezes once its |Z|,
    ``orbit.z_norm``, drops below conv_tol; the flow stops when every row has, or
    after max_steps.  Each step's pairs are recorded once, as unit pairs, and
    stacked once at the end; with ``last_only`` only the last step's are kept,
    and the ``Trajectory`` holds that one entry, bit for bit the last of the full
    record, with the same ``steps`` and ``limit_index``.  Every kernel reduces row
    by row, so a row flows bit for bit as it does alone."""
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    sign = 1.0 if direction == "forward" else -1.0
    pairs = np.array(pairs, dtype=complex)
    dt = step if step is not None else default_step(pairs.shape[-1] - 1, h)
    # v u_k = v_k m u within 1e-12 at the largest |u_k| finds m, up to sign
    u0, k = pairs[:, 0].copy(), np.argmax(np.abs(pairs[:, 0]), axis=-1)[:, None]
    a, b = pairs[:, 1] * np.take_along_axis(u0, k, -1), np.take_along_axis(pairs[:, 1], k, -1) * u0
    m = np.where((b.conj() * a).real < 0, -1.0, 1.0)
    on_graph = np.linalg.norm(a - m * b, axis=-1) <= 1e-12 * np.linalg.norm(a, axis=-1)
    pairs[on_graph, 1] = m[on_graph] * u0[on_graph]  # every recorded normal is m u
    state, r0, weights = np.zeros((len(pairs), 2)), np.abs(u0), thimble._weights(h, m)

    record, z_norms = [], []  # per step (or the last step only), the unit pairs and |Z|
    zn = np.full(len(pairs), np.nan)  # |Z| only of rows that can still freeze
    active = np.ones(len(pairs), dtype=bool)
    steps, taken = np.zeros(len(pairs), dtype=int), 0
    while True:
        if last_only:
            record, z_norms = [], []
        record.append(pairs / np.linalg.norm(pairs, axis=-1, keepdims=True))
        if conv_tol > 0:
            zn[active] = z_norm(pairs[active], h)
            active &= ~(zn < conv_tol)
        z_norms.append(zn.copy())
        if not active.any() or taken >= max_steps:
            break
        free, graph = np.flatnonzero(active & ~on_graph), np.flatnonzero(active & on_graph)
        if free.size:
            pairs[free] = advance(pairs[free], lambda p: sign * lax_velocity(p, h), dt)
        rule = (h, weights[graph], m[graph], sign, r0[graph])
        k1 = thimble._line_rate(*rule, state[graph], True)[0]
        state[graph] = advance(state[graph], thimble._stages(rule, k1, True), dt, k1, h)
        line = thimble.graph_lines(u0[graph], h, m[graph], state[graph])
        pairs[graph] = np.stack([line, m[graph] * line], axis=1)
        steps[active] += 1
        taken += 1
    record = np.array(record)
    times = np.cumsum([0.0] + [dt] * taken)[-len(record):]  # t += dt, step by step
    limit = np.where(zn < conv_tol, np.argmax(np.abs(record[-1, :, 0]), axis=-1) + 1, 0)
    return Trajectory(times, record[..., 0, :], record[..., 1, :], np.array(z_norms), steps, limit, h)


def trajectory_csv(traj):
    """CSV dump of the first row of a trajectory: t, Re f_H, Im f_H, orbit
    residual, |Z|, flattened entries."""
    x, f = np.ascontiguousarray(traj.points[:, 0]), traj.potentials[:, 0]
    header = ["t", "re_f", "im_f", "orbit_residual", "z_norm"]
    header += [f"{p}_{i}{j}" for i, j in np.ndindex(x.shape[1:]) for p in ("re", "im")]
    # the residual of each matrix alone: a stack of them rounds differently
    table = np.column_stack([traj.times, f.real, f.imag, [membership_residual(y) for y in x],
                             traj.z_norms[:, 0], x.reshape(len(x), -1).view(float)])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ",".join(header) + "\n" + "".join([row % tuple(r) for r in table.tolist()])


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
