"""The minimal adjoint orbit of sl(n+1, C).

The orbit of H0 = diag(n, -1, ..., -1) is the isospectral set of traceless
matrices with a simple eigenvalue n and eigenvalue -1 of multiplicity n.
Points are represented in the transversal-pair chart: an eigenline [u] in
P^n together with a transversal hyperplane of normal v, glued by the
linear map that acts as n on the line and as -1 on the hyperplane,

    x + I = (n+1) u v^H / (v^H u).

This module is the only one that knows that representation.  Its kernel
is batch-first (leading axes index points) and runs in the dtype of its
input, extended precision included:

* ``split`` reads the pair off x + I as a rank-one factorization, and
  ``pair_of`` returns it for an OrbitPoint or stacked matrices;
* ``assemble`` is the formula above and ``pair_tangent`` its derivative;
* ``complement`` is an orthonormal basis of the hyperplane of a normal;
* ``tangent_project`` is the rank-two closed-form projection onto the tangent
  space im ad(x) = {u b^H : b ⊥ u} + {c v^H : c ⊥ v}, and ``invert_at``
  the minimum-norm inverse of ad(x), the same form at the pair (v, u);
  both run one kernel (``_project_rows``) on the pair's frame, the constants
  conj u, conj v, s = v^H u, conj s and 2 - |s|^2 (``_frame``), and take an
  OrbitPoint, a (line, normal) tuple or a stack of matrices;
* ``lax_velocity`` is the pair velocity of Z, and ``z_norm`` the length of Z.

Everything else here is a view over these nine; ``potential`` also takes an
OrbitPoint or a stack of matrices.  An OrbitPoint holds its pair alone and
derives its matrix ``x`` and its frame on first use; a tuple or a stack of
matrices builds its frame per call.  ``advance``, the one stepper and its
guard, moves stacks of pairs (batch, 2, d) by velocities such as
``lax_velocity``, or the two scalars (s, B) of graph lines u0 e^{m (h s - B)}
(``thimble.flow_to_level``, ``flow.integrate``).  Samplers build pairs; only
the snaps (``retract``, ``split_eigen``), for matrices from outside the
library, assemble a split and measure how far that moves x.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MembershipError, ShapeError, StepSizeError, TransversalityError, UnsupportedOrbitError
from .liecore import minimal_cartan

TRANSVERSALITY_TOL = 1e-8
MEMBERSHIP_TOL = 1e-8
DRIFT_LIMIT = 0.5


def _vdot(a, b):
    """Batched a^H b over the last axis."""
    return (a.conj() * b).sum(axis=-1)


def _unit(a):
    return a / np.sqrt(_vdot(a, a).real)[..., None]


def split(xs):
    """Pair (u, v) of near-orbit matrices.

    On the orbit x + I has rank one, so its largest-norm column spans the
    eigenline and its largest-norm row is the conjugate hyperplane normal;
    both are returned normalized.  Column and row swap under x -> m x^H m
    for diagonal unitary involutions m, so the split commutes with those
    reflections.  Raises StepSizeError when x + I is zero or not finite, or
    when the column and row are orthogonal (v^H u = 0, the incidence
    divisor).
    """
    xs = np.asarray(xs)
    d = xs.shape[-1]
    a = xs + np.eye(d, dtype=xs.dtype)
    weight = a.real ** 2 + a.imag ** 2
    top = weight.max(axis=(-2, -1))
    bad = np.flatnonzero(~((top > 0) & (top < np.inf)))
    if bad.size:
        raise StepSizeError(f"x + I is zero or not finite (batch index {bad[0]})")
    col = np.argmax(weight.sum(axis=-2), axis=-1)[..., None, None]
    row = np.argmax(weight.sum(axis=-1), axis=-1)[..., None, None]
    u = _unit(np.take_along_axis(a, col, axis=-1)[..., 0])
    v = _unit(np.take_along_axis(a, row, axis=-2)[..., 0, :].conj())
    s = _vdot(v, u)
    if not s.all():
        bad = np.flatnonzero(s == 0)
        raise StepSizeError(f"x + I lies on the incidence divisor (batch index {bad[0]})")
    return u, v


def pair_of(x):
    """Pair (line, normal) of an OrbitPoint or a tuple, or the split of stacked matrices."""
    if isinstance(x, OrbitPoint):
        return x.line, x.normal
    return x if isinstance(x, tuple) else split(x)


def assemble(u, v):
    """Chart point (n+1) u v^H / (v^H u) - I of lines u and normals v, from
    real products, so that graph pairs (u, m u) with m = +/-1 give points
    fixed bit for bit by x -> m x^H m (fused complex products are not)."""
    d = u.shape[-1]
    col_r, col_i = u.real[..., :, None], u.imag[..., :, None]
    row_r, row_i = v.real[..., None, :], v.imag[..., None, :]
    shape, dtype = np.broadcast(col_r, row_r).shape, np.result_type(col_r, row_r, 1j)
    outer, out = np.empty(shape, dtype), np.empty(shape, dtype)
    re, im, tmp = outer.real, outer.imag, out.real
    np.multiply(col_r, row_r, out=re)
    re += np.multiply(col_i, row_i, out=tmp)
    np.multiply(col_i, row_r, out=im)
    im -= np.multiply(col_r, row_i, out=tmp)
    # give re and im the signed zeros that re + 1j * im has
    re += np.multiply(im, 0.0, out=tmp)
    im += 0.0
    # not in place: numpy rounds an in-place complex product differently
    np.multiply(outer, (d / np.einsum("...ii->...", outer))[..., None, None], out=out)
    out -= np.eye(d)
    return out


def _snap(xs):
    """Pair of near-orbit matrices and how far its chart point moves the
    matrices in Frobenius norm: zero up to rounding on the orbit and first
    order in the distance off it."""
    xs = np.asarray(xs)
    u, v = split(xs)
    ys = assemble(u, v)
    return u, v, np.sqrt((np.abs(ys - xs) ** 2).sum(axis=(-2, -1)))


def pair_tangent(u, v, du, dv):
    """Derivative of ``assemble`` at (u, v) along (du, dv).

    With s = v^H u and d = n+1 it is
    d (du v^H + u dv^H) / s - d u v^H (dv^H u + v^H du) / s^2.
    """
    d = u.shape[-1]
    s = _vdot(v, u)[..., None, None]
    ds = (_vdot(dv, u) + _vdot(v, du))[..., None, None]
    v_h, dv_h = v.conj()[..., None, :], dv.conj()[..., None, :]
    u_c, du_c = u[..., :, None], du[..., :, None]
    return d * (du_c * v_h + u_c * dv_h) / s - d * (u_c * v_h) * ds / s ** 2


def complement(v):
    """Orthonormal basis, in columns, of the hyperplane normal to unit v.

    The last d-1 columns of the Householder reflector that maps e_1 to a
    multiple of v, written in plain arithmetic so that it keeps the dtype.
    """
    d = v.shape[-1]
    v0 = v[..., :1]
    mag = np.abs(v0)
    phase = np.where(mag > 0, v0 / np.where(mag > 0, mag, 1.0), 1.0)
    w = v + phase * np.eye(d, dtype=v.dtype)[0]
    eye = np.eye(d, dtype=v.dtype)[:, 1:]
    return eye - w[..., :, None] * w[..., None, 1:].conj() / (1.0 + mag[..., None])


def _frame(u, v):
    """Pair frame (u, v, conj u, conj v, s, conj s, 2 - |s|^2) of lines u and
    normals v, s = v^H u as a (..., 1) array: the constants of ``_project_rows``."""
    u_c, v_c = u.conj(), v.conj()
    s = (v_c * u).sum(axis=-1, keepdims=True)
    s_c = s.conj()
    return u, v, u_c, v_c, s, s_c, 2.0 - (s * s_c).real


def _frame_of(x):
    """Frame of an OrbitPoint (cached), or of a tuple or stacked matrices (built)."""
    return x.frame if isinstance(x, OrbitPoint) else _frame(*pair_of(x))


def _project_rows(frame, r, c):
    """``tangent_project`` at a frame of (u, v) of the m with u^H m = r and m v = c."""
    u, v, u_c, v_c, s, s_c, g = frame
    a_uv = (r * v).sum(axis=-1, keepdims=True)
    k = ((r * u + v_c * c).sum(axis=-1, keepdims=True) - s * a_uv) / g
    row = r - k * u_c + (k * s_c - a_uv) * v_c
    return u[..., :, None] * row[..., None, :] + (c - k * v)[..., :, None] * v_c[..., None, :]


def tangent_project(x, m):
    """Hermitian-orthogonal projection of one matrix m or a stack onto im ad(x) =
    {u b^H : b ⊥ u} + {c v^H : c ⊥ v}, at an OrbitPoint or a (line, normal)
    tuple of unit u, v, or at each of stacked orbit matrices.

    With s = v^H u, P_w = I - w w^H and N = u u^H + v v^H - conj(s) u v^H,
    the complement ker ad(x^H) is {P_u m P_v} + C N and |N|^2 = 2 - |s|^2, so
    the projection m - P_u m P_v - k N is the rank-two map
    u (u^H m - k u^H + (k conj(s) - a_uv) v^H) + (m v - k v) v^H, where
    k = (a_uu + a_vv - s a_uv) / (2 - |s|^2) of the forms a_uu = u^H m u,
    a_uv = u^H m v, a_vv = v^H m v: two matvecs m @ w[..., None] and three dot
    products, with no division by |s|.  Each per-matrix scalar is a (..., 1)
    array, not 0-d, so a stack of m gives each matrix bit for bit what it gives alone.
    """
    frame, m = _frame_of(x), np.asarray(m, dtype=complex)
    return _project_rows(frame, (m.swapaxes(-1, -2) @ frame[2][..., None])[..., 0],
                         (m @ frame[1][..., None])[..., 0])


def invert_at(x, m):
    """Minimum-norm w with [x, w] = m, and the part of m outside im ad(x),
    which [x, w] misses, for one matrix m or a stack at an OrbitPoint or a
    (line, normal) tuple, or at each of stacked orbit matrices.

    With s = v^H u, P = u v^H / s and x = (n+1) P - I, the rank-two
    w0 = [P, m] / (n+1) = (u (v^H m) - (m u) v^H) / (s (n+1)) solves the
    equation on im ad(x), where [P, [P, m]] = m.  The kernel of ad(x) is
    orthogonal to im ad(x^H), the tangent space of the swapped pair (v, u),
    so ``tangent_project`` there of w0, from the vectors v^H w0 and w0 u, is the
    minimum-norm solution, with scalars kept as (..., 1) arrays.  The missed
    part is P m P + (I - P) m (I - P) = m - u (v^H m / s - 2 (v^H m u / s^2) v^H)
    - (m u / s) v^H.
    """
    u, v, u_c, v_c, s, s_c, g = _frame_of(x)
    d = u.shape[-1]
    mu, vm = (m @ u[..., None])[..., 0], (m.swapaxes(-1, -2) @ v_c[..., None])[..., 0]
    vmu = (vm * u).sum(axis=-1, keepdims=True) / s
    w = _project_rows((v, u, v_c, u_c, s_c, s, g), (vm - vmu * v_c) / d, (vmu * u - mu) / d)
    return w, (m - u[..., :, None] * ((vm - 2.0 * vmu * v_c) / s)[..., None, :]
               - (mu / s)[..., :, None] * v_c[..., None, :])


def lax_velocity(pairs, h):
    """Pair velocity (-B u, B^H v) of Z = [x, B], B = [tau x, H], H = diag(h)
    real, at pairs of any lengths: with s = v^H u, -B u = (d / conj(s))
    (u^H H u - |u|^2 H) v and B^H v = (d / s) (v^H H v - |v|^2 H) u, so
    u v^H moves as [u v^H, B] with s fixed."""
    sq = pairs.real ** 2 + pairs.imag ** 2
    s = _vdot(pairs[..., 1, :], pairs[..., 0, :])[..., None]
    coef = pairs.shape[-1] / np.concatenate([s.conj(), s], axis=-1)
    weights = (sq @ h)[..., None] - h * sq.sum(axis=-1)[..., None]
    return coef[..., None] * pairs[..., ::-1, :] * weights


def z_norm(pairs, h):
    """b_tau length of Z = [x, B] at pairs (u, v) of any lengths, row by row, from
    (p, q) = ``lax_velocity`` = (-B u, B^H v): with s = v^H u, Z = (d / s) (u q^H + p v^H),
    so |Z|^2 = 2d (d / |s|)^2 (|u|^2 |q|^2 + |p|^2 |v|^2 + 2 Re((u^H p) (v^H q)))."""
    # scale u and v exactly, by powers of two, to largest entries in [1/2, 1), so
    # that |u|^2 |q|^2, of the fourth power of the length, neither underflows nor
    # overflows for pairs of any length
    pairs = pairs * np.exp2(-np.frexp(np.abs(pairs).max(axis=-1, keepdims=True))[1])
    (u, v), (p, q) = np.moveaxis(pairs, -2, 0), np.moveaxis(lax_velocity(pairs, h), -2, 0)
    sq = (_vdot(u, u).real * _vdot(q, q).real + _vdot(p, p).real * _vdot(v, v).real
          + 2.0 * (_vdot(u, p) * _vdot(v, q)).real)
    return np.sqrt(2.0 * len(h) * np.maximum(sq, 0.0)) * (len(h) / np.abs(_vdot(v, u)))


def rk4_step(state, rhs, dt, k1=None, h=None):
    """One RK4 step of ``rhs`` from complex pairs (u, v) (batch, 2, d) or real
    states (s, B) (batch, 2) of graph lines u0 e^{m (h s - B)}, ``dt``
    broadcasting, from ``k1 = rhs(state)`` if given, and each row's size: its
    largest move across u or v relative to the length (inf where v^H u turns
    0 or not finite), or of a log-modulus, max_i |h_i ds - dB|."""
    k1 = rhs(state) if k1 is None else k1
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    move = (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    out = state + move
    if np.iscomplexobj(state):
        norm2 = _vdot(state, state).real
        across = _vdot(move, move).real - np.abs(_vdot(state, move)) ** 2 / norm2
        s = _vdot(out[..., 1, :], out[..., 0, :])
        rel = np.sqrt(np.maximum(across, 0.0) / norm2).max(axis=-1)
        return out, np.where(np.isfinite(s) & (s != 0), rel, np.inf)
    return out, np.abs(h * move[..., :1] - move[..., 1:]).max(axis=-1)


def advance(state, rhs, dt, k1=None, h=None, limit=DRIFT_LIMIT):
    """``rk4_step`` that raises StepSizeError naming the first row whose move
    has a size above ``limit`` (one, or one per row; inf where RK4 is exact)
    or not finite, and that row's limit."""
    out, size = rk4_step(state, rhs, dt, k1, h)
    bad = np.flatnonzero(~(np.isfinite(size) & (size <= limit)))
    if bad.size:
        limit = np.broadcast_to(limit, size.shape)[bad[0]]
        raise StepSizeError(f"step of size {size[bad[0]]:.3e} exceeds {limit} (batch index "
                            f"{bad[0]}); reduce the integration step")
    return out


def chart(pairs):
    """Unit lines, unit normals and chart points of a stack of pairs."""
    u, v = _unit(pairs[..., 0, :]), _unit(pairs[..., 1, :])
    return u, v, assemble(u, v)


@dataclass(frozen=True)
class OrbitPoint:
    """Orbit point of its unit pair, its only state: ``line`` spans the
    eigenline for eigenvalue n and ``normal`` is the unit normal of the
    (-1)-eigenspace.  The point owns them, read-only (a view is copied), so
    the matrix ``x`` and the ``frame`` are derived on first use and cached,
    read-only too."""

    line: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for name in ("line", "normal"):
            arr = getattr(self, name)
            if not arr.flags.owndata:
                arr = arr.copy()
                object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @cached_property
    def x(self):
        """The chart point ``assemble(line, normal)``."""
        x = assemble(self.line, self.normal)
        x.setflags(write=False)
        return x

    @cached_property
    def frame(self):
        """Pair frame of (line, normal) that ``tangent_project`` and
        ``invert_at`` read (``_frame``)."""
        frame = _frame(self.line, self.normal)
        for arr in frame[2:]:
            arr.setflags(write=False)
        return frame

    @property
    def n(self):
        return len(self.line) - 1

    @property
    def transversality(self):
        """|normal^H line|: 1 exactly when the line is orthogonal to the
        hyperplane, 0 on the incidence divisor."""
        return float(abs(np.vdot(self.normal, self.line)))

    @property
    def hyper(self):
        """Orthonormal basis of the (-1)-eigenspace in its columns."""
        return complement(self.normal)

    def to_json(self):
        """JSON record {"n", "line", "normal"} of the unit pair, each entry an
        [re, im] list, from which x = (n+1) u v^H / (v^H u) - I."""
        return {"n": self.n, "line": _re_im(self.line), "normal": _re_im(self.normal)}

    @staticmethod
    def from_json(obj, m=None):
        """The point of a ``to_json`` record, exactly: the stored unit line u
        and normal v, with no renormalization.  Given the real diagonal
        m = +/-1 of a graph (the ``twist`` of a thimble file), the normal is
        m u, the v that ``chart`` made of the pair (u, m u).

        Raises ShapeError naming the key when ``line`` or ``normal`` does not
        have n+1 entries, when the record has no ``normal`` and no m is given,
        or when m is not n+1 entries of exactly +/-1; and TransversalityError
        when |v^H u| is below TRANSVERSALITY_TOL.
        """
        d = obj["n"] + 1
        u = _read_re_im(obj["line"], "line", d)
        if m is not None:
            m = np.asarray(m, dtype=float)
            if m.shape != (d,):
                raise ShapeError(f"twist m has shape {m.shape}, expected ({d},)")
            if not (np.abs(m) == 1.0).all():
                raise ShapeError(f"twist m has entries {m.tolist()}, not all +/-1")
            v = m * u
        elif "normal" in obj:
            v = _read_re_im(obj["normal"], "normal", d)
        else:
            raise ShapeError("record has no normal and no twist m was given")
        trans = float(abs(_vdot(v, u)))
        if trans < TRANSVERSALITY_TOL:
            raise TransversalityError(f"normal^H line is {trans:.3e}, below {TRANSVERSALITY_TOL:.1e}")
        return OrbitPoint(u, v)


def _re_im(a):
    """Entries of a complex array as nested lists ending in [re, im]."""
    return np.stack([a.real, a.imag], -1).tolist()


def _read_re_im(pairs, key, d):
    arr = np.array(pairs, dtype=float)
    if arr.shape != (d, 2):
        raise ShapeError(f"{key} has shape {arr.shape}, expected ({d}, 2)")
    return arr.view(complex)[:, 0]


def membership_residual(x):
    """Frobenius residual of the minimal polynomial (x - n)(x + 1) of a
    matrix, or of each of stacked matrices; a single matrix keeps the
    rounding of the norm of a 2-D array."""
    x = np.asarray(x, dtype=complex)
    d = x.shape[-1]
    n = d - 1
    r = x @ x - (n - 1) * x - n * np.eye(d)
    return np.linalg.norm(r, axis=(-2, -1) if r.ndim > 2 else None)


def pair_point(line, normal):
    """Orbit point of an eigenline and a hyperplane given by its normal.

    Raises TransversalityError when |v^H u| of the unit pair, the point's
    conditioning proxy, is below TRANSVERSALITY_TOL or not a number, as for
    a zero or non-finite vector.
    """
    with np.errstate(invalid="ignore"):  # a zero vector is NaN, which the check refuses
        u = _unit(np.asarray(line, dtype=complex).reshape(-1))
        v = _unit(np.asarray(normal, dtype=complex).reshape(-1))
    trans = float(abs(_vdot(v, u)))
    if not trans >= TRANSVERSALITY_TOL:
        raise TransversalityError(f"line lies in hyperplane within tolerance ({trans:.3e})")
    return OrbitPoint(u, v)


def phi_pair(line, hyper):
    """Orbit point of a transversal (line, hyperplane basis) pair.

    The hyperplane normal is the part of the line left over by a least
    squares fit in the hyperplane; its length is the transversality.
    """
    u = np.asarray(line, dtype=complex).reshape(-1)
    u = u / np.linalg.norm(u)
    w = np.asarray(hyper, dtype=complex)
    if w.ndim != 2 or w.shape[0] != u.shape[0] or w.shape[1] != u.shape[0] - 1:
        raise ShapeError(f"hyperplane basis has shape {w.shape}, expected ({len(u)}, {len(u)-1})")
    normal = u - w @ np.linalg.lstsq(w, u, rcond=None)[0]
    trans = np.linalg.norm(normal)
    if not trans >= TRANSVERSALITY_TOL:
        raise TransversalityError(f"line lies in hyperplane within tolerance ({trans:.3e})")
    return pair_point(u, normal)


def split_eigen(x):
    """Eigenline and hyperplane basis of an orbit matrix (inverse of phi_pair).

    Raises MembershipError when x is further than MEMBERSHIP_TOL from the
    orbit point its pair coordinates assemble to.
    """
    u, v, moved = _snap(np.asarray(x, dtype=complex))
    if not moved <= MEMBERSHIP_TOL:
        raise MembershipError(f"matrix is {moved:.3e} off the orbit (tolerance {MEMBERSHIP_TOL:.1e})")
    return u, complement(v)


def retract(x):
    """Snap a near-orbit matrix from outside the library onto the orbit.

    Points on the orbit are fixed to rounding; off it the move is first
    order in the distance.  Raises StepSizeError past DRIFT_LIMIT.
    """
    u, v, moved = _snap(np.asarray(x, dtype=complex))
    if not moved <= DRIFT_LIMIT:
        raise StepSizeError(f"retraction moved a point by {moved:.3e} > {DRIFT_LIMIT}")
    return OrbitPoint(u, v)


def _near_base(a):
    """Pair (e_1 + A e_1, e_1 - A^H e_1), the first-order part of the pair of
    exp(A) H0 exp(-A); Hermitian bit for bit when A is anti-Hermitian."""
    e1 = np.eye(len(a))[0]
    return pair_point(e1 + a[:, 0], e1 - a[0].conj())


def r_w0_basis(line):
    """Orthonormal basis of the Hermitian orthogonal complement of a line.

    This is the right translation by the longest Weyl element in the pair
    chart: P^n -> P^n*, [u] -> [u]^perp.
    """
    return complement(_unit(np.asarray(line, dtype=complex).reshape(-1)))


def potential(h, x):
    """Height superpotential f_H(x) = <H, x> = 2d sum_i h_i x_ii of a point
    or of stacked matrices; complex valued."""
    xm = x.x if isinstance(x, OrbitPoint) else np.asarray(x)
    return 2.0 * xm.shape[-1] * np.einsum("i,...ii->...", np.asarray(h, dtype=complex), xm)


def critical_points(generator):
    """Critical points of the superpotential on the minimal orbit.

    ``generator`` is either the rank n or the vector diag(n, -1, ..., -1);
    any other diagonal raises UnsupportedOrbitError.  Returns the n+1
    diagonal matrices carrying n in slot j, i.e. the Weyl orbit of H0.
    """
    if np.isscalar(generator):
        n = int(generator)
    else:
        h = np.asarray(generator, dtype=float)
        n = len(h) - 1
        if not np.allclose(np.sort(h), np.sort(minimal_cartan(n)), atol=1e-12) or h[0] != n:
            raise UnsupportedOrbitError(f"only the minimal orbit diag({n}, -1, ...) is supported")
    eye = np.eye(n + 1, dtype=complex)
    return [pair_point(e, e) for e in eye]


def tangent_frame(pt):
    """Hermitian-orthonormal complex basis of the tangent space im ad(x).

    The rank-one maps u b^H and c v^H, with b and c running over
    orthonormal bases of the complements of u and v, span the tangent
    space; one QR of their flattening makes them orthonormal.
    """
    u, v = pt.line, pt.normal
    d = len(u)
    cands = np.concatenate([
        u[None, :, None] * complement(u).T.conj()[:, None, :],
        complement(v).T[:, :, None] * v.conj()[None, None, :],
    ])
    q, _ = np.linalg.qr(cands.reshape(len(cands), -1).T)
    return list(q.T.reshape(-1, d, d) / np.sqrt(2.0 * d))
