"""The minimal adjoint orbit of sl(n+1, C).

The orbit of H0 = diag(n, -1, ..., -1) is the isospectral set of traceless
matrices with a simple eigenvalue n and eigenvalue -1 of multiplicity n.
Points are represented in the transversal-pair chart: an eigenline [u] in
P^n together with a transversal hyperplane of unit normal v, glued by the
linear map that acts as n on the line and as -1 on the hyperplane,

    x + I = (n+1) u v^H / (v^H u).

This module is the only one that knows that representation.  Its kernel
is batch-first (leading axes index points) and runs in the dtype of its
input, extended precision included:

* ``split`` reads the pair off x + I as a rank-one factorization and
  reports how far that moves x;
* ``assemble`` is the formula above and ``pair_tangent`` its derivative;
* ``complement`` is an orthonormal basis of the hyperplane of a normal;
* ``project_pair`` is the closed-form projection onto the tangent space
  im ad(x) = {u b^H : b ⊥ u} + {c v^H : c ⊥ v}.

Everything else here is a view over these five.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import MembershipError, ShapeError, StepSizeError, TransversalityError, UnsupportedOrbitError
from .liecore import cartan_matrix, killing_form, minimal_cartan

TRANSVERSALITY_TOL = 1e-8
MEMBERSHIP_TOL = 1e-8
DRIFT_LIMIT = 0.5


def _vdot(a, b):
    """Batched a^H b over the last axis."""
    return (a.conj() * b).sum(axis=-1)


def _unit(a):
    return a / np.sqrt(_vdot(a, a).real)[..., None]


def _matvec(m, v):
    return (m @ v[..., None])[..., 0]


def split(xs):
    """Pair (u, v) of near-orbit matrices and how far the chart moves them.

    On the orbit x + I has rank one, so its largest-norm column spans the
    eigenline and its largest-norm row is the conjugate hyperplane normal;
    both are returned normalized.  ``moved`` is |assemble(u, v) - x|_F,
    zero up to rounding on the orbit and first order in the distance off
    it.  Column and row swap under x -> m x^H m for diagonal unitary
    involutions m, so the split commutes with those reflections.  Raises
    StepSizeError when x + I is zero or not finite, or when the column and
    row are orthogonal (v^H u = 0, the incidence divisor).
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
    moved = np.sqrt((np.abs(_assemble(u, v, s) - xs) ** 2).sum(axis=(-2, -1)))
    return u, v, moved


def _assemble(u, v, s):
    d = u.shape[-1]
    outer = u[..., :, None] * v.conj()[..., None, :]
    return d * outer / s[..., None, None] - np.eye(d, dtype=outer.dtype)


def assemble(u, v):
    """Chart point (n+1) u v^H / (v^H u) - I of lines u and normals v."""
    return _assemble(u, v, _vdot(v, u))


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


def project_pair(u, v, m):
    """Hermitian-orthogonal projection of m onto {u b^H : b ⊥ u} + {c v^H : c ⊥ v}.

    For unit u, v this is the tangent space of the orbit at the chart
    point of (u, v).  The normal equations give b = P_u m^H u - (c^H u) P_u v
    and c = P_v m v - (b^H v) P_v u, with P_w = I - w w^H; the two scalars
    c^H u and b^H v are coupled through t = 1 - |v^H u|^2 and solved for in
    closed form.
    """
    s2 = np.abs(_vdot(v, u)) ** 2
    t = (1.0 - s2)[..., None]
    mhu = _matvec(np.swapaxes(m, -1, -2).conj(), u)
    beta0 = mhu - u * _vdot(u, mhu)[..., None]
    gamma0 = _matvec(m, v)
    gamma0 = gamma0 - v * _vdot(v, gamma0)[..., None]
    p = _vdot(gamma0, u)[..., None]
    q = _vdot(beta0, v)[..., None]
    a = (p - t * q.conj()) / (s2 * (2.0 - s2))[..., None]
    b = q - t * a.conj()
    beta = beta0 - a * (v - u * _vdot(u, v)[..., None])
    gamma = gamma0 - b * (u - v * _vdot(v, u)[..., None])
    return u[..., :, None] * beta.conj()[..., None, :] + gamma[..., :, None] * v.conj()[..., None, :]


def invert_pair(u, v, m):
    """Minimum-norm w with [x, w] = m at the chart point x of (u, v), and
    the part of m outside im ad(x), which [x, w] misses.

    With P = u v^H / (v^H u) and x = (n+1) P - I, w0 = [P, m] / (n+1)
    solves the equation on im ad(x), where [P, [P, m]] = m.  The kernel of
    ad(x) is orthogonal to im ad(x^H), the tangent space of the swapped
    pair (v, u), so projecting w0 there gives the minimum-norm solution.
    The missed part is P m P + (I - P) m (I - P).
    """
    d = u.shape[-1]
    s = _vdot(v, u)[..., None]
    mu = _matvec(m, u) / s
    vm = _matvec(np.swapaxes(m, -1, -2), v.conj()) / s
    pm = u[..., :, None] * vm[..., None, :]
    mp = mu[..., :, None] * v.conj()[..., None, :]
    pmp = (_vdot(v, mu)[..., None] / s)[..., None] * u[..., :, None] * v.conj()[..., None, :]
    return project_pair(v, u, (pm - mp) / d), m - pm - mp + 2.0 * pmp


def retract_batch(xs):
    """Snap stacked near-orbit matrices onto the orbit through the pair chart.

    Raises StepSizeError when the chart moves some matrix further than
    DRIFT_LIMIT in Frobenius norm (or the matrix is not finite).
    """
    u, v, moved = split(xs)
    _check_moved(moved, DRIFT_LIMIT)
    return assemble(u, v)


def _check_moved(moved, drift_limit):
    bad = np.flatnonzero(~(np.asarray(moved) <= drift_limit))
    if bad.size:
        raise StepSizeError(
            f"retraction moved a point by {np.max(moved):.3e} > {drift_limit} "
            f"(batch index {bad[0]}); reduce the integration step"
        )


def as_points(xs):
    """OrbitPoints of stacked orbit matrices, keeping the matrices as given."""
    u, v, _ = split(xs)
    return [OrbitPoint(x=x.copy(), line=a, normal=b) for x, a, b in zip(xs, u, v)]


@dataclass(frozen=True)
class OrbitPoint:
    """Orbit point with its cached pair coordinates.

    ``line`` is a unit vector spanning the eigenline for eigenvalue n and
    ``normal`` the unit normal of the (-1)-eigenspace.
    """

    x: np.ndarray
    line: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for arr in (self.x, self.line, self.normal):
            arr.setflags(write=False)

    @property
    def n(self):
        return self.x.shape[0] - 1

    @property
    def transversality(self):
        """|normal^H line|: 1 exactly when the line is orthogonal to the
        hyperplane, 0 on the incidence divisor."""
        return float(abs(np.vdot(self.normal, self.line)))

    @property
    def hyper(self):
        """Orthonormal basis of the (-1)-eigenspace in its columns."""
        return complement(self.normal)

    def residual(self):
        return membership_residual(self.x)

    def to_json(self):
        entries = [[float(z.real), float(z.imag)] for z in self.x.ravel()]
        return {"n": self.n, "entries": entries}

    @staticmethod
    def from_json(obj):
        d = obj["n"] + 1
        flat = np.array([re + 1j * im for re, im in obj["entries"]])
        return retract(flat.reshape(d, d))


def membership_residual(x):
    """Frobenius residual of the minimal polynomial (x - n)(x + 1)."""
    x = np.asarray(x, dtype=complex)
    d = x.shape[0]
    n = d - 1
    return np.linalg.norm(x @ x - (n - 1) * x - n * np.eye(d))


def pair_point(line, normal, tol=TRANSVERSALITY_TOL):
    """Orbit point of an eigenline and a hyperplane given by its normal.

    Raises TransversalityError when the line lies in the hyperplane within
    tolerance; the point's transversality |v^H u| is the conditioning proxy.
    """
    u = _unit(np.asarray(line, dtype=complex).reshape(-1))
    v = _unit(np.asarray(normal, dtype=complex).reshape(-1))
    trans = float(abs(_vdot(v, u)))
    if trans < tol:
        raise TransversalityError(f"line lies in hyperplane within tolerance ({trans:.3e})")
    return OrbitPoint(x=assemble(u, v), line=u, normal=v)


def phi_pair(line, hyper, tol=TRANSVERSALITY_TOL):
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
    if trans < tol:
        raise TransversalityError(f"line lies in hyperplane within tolerance ({trans:.3e})")
    return pair_point(u, normal, tol)


def split_eigen(x, tol=MEMBERSHIP_TOL):
    """Eigenline and hyperplane basis of an orbit matrix (inverse of phi_pair).

    Raises MembershipError when x is further than ``tol`` from the orbit
    point its pair coordinates assemble to.
    """
    u, v, moved = split(np.asarray(x, dtype=complex))
    if not moved <= tol:
        raise MembershipError(f"matrix is {moved:.3e} off the orbit (tolerance {tol:.1e})")
    return u, complement(v)


def retract(x, drift_limit=DRIFT_LIMIT):
    """Snap a near-orbit matrix onto the orbit through the pair chart.

    Points on the orbit are fixed to rounding; off it the move is first
    order in the distance.  Raises StepSizeError past ``drift_limit``.
    """
    u, v, moved = split(np.asarray(x, dtype=complex))
    _check_moved(moved, drift_limit)
    return pair_point(u, v)


def r_w0_basis(line):
    """Orthonormal basis of the Hermitian orthogonal complement of a line.

    This is the right translation by the longest Weyl element in the pair
    chart: P^n -> P^n*, [u] -> [u]^perp.
    """
    return complement(_unit(np.asarray(line, dtype=complex).reshape(-1)))


def potential(h, x):
    """Height superpotential f_H(x) = <H, x>; complex valued."""
    xm = x.x if isinstance(x, OrbitPoint) else np.asarray(x, dtype=complex)
    return killing_form(cartan_matrix(h), xm)


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


def tangent_project(pt, v):
    """Hermitian-orthogonal projection of an ambient matrix onto im ad(x)."""
    return project_pair(pt.line, pt.normal, np.asarray(v, dtype=complex))


def point_json_dump(points, path_or_file, extra=None):
    """Dump orbit points (plus optional parallel per-point fields) as JSON."""
    records = []
    for k, pt in enumerate(points):
        rec = pt.to_json()
        if extra:
            rec.update({key: vals[k] for key, vals in extra.items()})
        records.append(rec)
    payload = json.dumps(records, indent=1)
    if hasattr(path_or_file, "write"):
        path_or_file.write(payload)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(payload)
