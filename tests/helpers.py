"""Small constructions that only the tests read."""

import numpy as np

from orbitflow.errors import SamplingError
from orbitflow.liecore import WeylElement, cartan_matrix, minimal_cartan, weyl_action, weyl_group
from orbitflow.orbit import potential, retract
from orbitflow.util import complex_gaussian, realify


def gram_schmidt_real(mats, inner):
    """Gram-Schmidt with real coefficients under a real inner product,
    dropping a vector of length 1e-10 or less: the reference for frames
    that ``graphs.graph_tangent_frame`` builds by one QR."""
    basis = []
    for m in mats:
        v = m.astype(complex).copy()
        for b in basis:
            v = v - inner(v, b) * b
        nrm = np.sqrt(inner(v, v))
        if nrm > 1e-10:
            basis.append(v / nrm)
    return basis


def identity_weyl(d):
    return WeylElement(tuple(range(1, d + 1)))


def weyl_orbit(h, tol=1e-12):
    """Distinct images of a Cartan vector under the Weyl group."""
    seen = []
    for w in weyl_group(len(h)):
        v = weyl_action(w, h)
        if not any(np.allclose(v, s, atol=tol) for s in seen):
            seen.append(v)
    return seen


def random_special_unitary(rng, d):
    q, r = np.linalg.qr(complex_gaussian(rng, (d, d)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** (1.0 / d)


def vanishing_sphere_point(h, c, direction):
    """Bisect the level f1 = c along the compact motion expm(t direction) H0.

    An independent reference for the flag-thimble landings of
    ``cycles.vanishing_sphere``.  Stops once |f1 - c| < 1e-11; raises
    SamplingError when the level is not reached by t = 25.
    """
    from scipy.linalg import expm

    h = np.asarray(h, dtype=float)
    n = len(h) - 1
    h0m = cartan_matrix(minimal_cartan(n))

    def f1_along(t):
        g = expm(t * direction)
        return potential(h, g @ h0m @ g.conj().T).real

    t_hi, t_lo = 0.1, 0.0
    while f1_along(t_hi) > c and t_hi < 25.0:
        t_lo, t_hi = t_hi, 2.0 * t_hi
    if f1_along(t_hi) > c:
        raise SamplingError("level not reached along the given direction")
    for _ in range(100):
        t = 0.5 * (t_lo + t_hi)
        f = f1_along(t)
        if abs(f - c) < 1e-11:
            break
        if f > c:
            t_lo = t
        else:
            t_hi = t
    g = expm(t * direction)
    return retract(g @ h0m @ g.conj().T)


def ambient_lagrangian_check(mats, k=4):
    """``thimble.lagrangian_check`` with the neighbours searched in all 2 d^2
    real coordinates of the chart points and every secant Gram in one block.

    An independent reference for the graph-coordinate search: returns the
    neighbour indices of the search (self first) and the max normalized
    |omega|.
    """
    from scipy.spatial import cKDTree

    mats = np.ascontiguousarray(mats)
    nsamp, d = mats.shape[0], mats.shape[-1]
    kk = min(k, nsamp - 1)
    cloud = realify(mats)
    _, idx = cKDTree(cloud).query(cloud, k=kk + 1)
    flat = mats.reshape(nsamp, -1)
    diffs = flat[idx[:, 1:]] - flat[:, None, :]
    long = np.linalg.norm(diffs, axis=-1) > 1e3 * np.finfo(float).eps * np.abs(flat).max()
    pairs = long[:, :, None] & long[:, None, :] & ~np.eye(kk, dtype=bool)
    gram = 2.0 * d * np.einsum("nad,nbd->nab", diffs, diffs.conj())
    norms = np.sqrt(np.abs(np.einsum("naa->na", gram).real))
    denom = norms[:, :, None] * norms[:, None, :]
    return idx, float((np.abs(gram.imag[pairs]) / denom[pairs]).max())


def phi_rate(h, m, orient, r0, z=False):
    """The rate of the log-moduli phi, shape (batch, d), of graph lines
    r0 e^phi, m = +/-1, under orient * grad f1, or orient * Z with ``z``:
    c = (sigma / d) [(h - rho + a sigma) m - a] or c = (d / sigma) (rho - h) m,
    with w = |u|^2, sigma = sum m w / sum w, rho = sum h w / sum w and
    a = (sum h m w / sum w - rho sigma) / (2 - sigma^2).  An independent
    reference for the two-scalar rule of ``thimble``."""
    def rate(phi):
        w = (r0 * np.exp(phi - phi.max(axis=-1, keepdims=True))) ** 2
        sigma, rho, hm = ((q * w).sum(-1, keepdims=True) / w.sum(-1, keepdims=True)
                          for q in (m, h, h * m))
        if z:
            return orient * (len(h) / sigma) * (rho - h) * m
        a = (hm - rho * sigma) / (2.0 - sigma ** 2)
        return orient * (sigma / len(h)) * ((h - rho + a * sigma) * m - a)
    return rate


def phi_rk4(phi, rate, dt):
    """One classical RK4 step of the log-moduli phi."""
    k1 = rate(phi)
    k2 = rate(phi + 0.5 * dt * k1)
    k3 = rate(phi + 0.5 * dt * k2)
    k4 = rate(phi + dt * k3)
    return phi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def phi_landing(r0, h, m, c, step):
    """Lines r0 e^phi of graph pairs flowed along grad f1 towards the level
    f1 = c in RK4 steps of ``phi_rate`` on the grid ``step``, then landed by
    bisection in the length of one more RK4 step: a reference for
    ``thimble.flow_to_level`` on an explicit grid."""
    from orbitflow.thimble import line_height

    def height(phi):
        return line_height(h, m, r0 * np.exp(phi - phi.max(axis=-1, keepdims=True)))

    orient = np.where(height(np.zeros(r0.shape)) > c, -1.0, 1.0)
    rate = phi_rate(h, m, orient[:, None], r0)
    phi, active = np.zeros(r0.shape), np.ones(len(r0), dtype=bool)
    while active.any():
        stepped = phi_rk4(phi, rate, step)
        active &= ~(orient * (height(stepped) - c) > 0)
        phi[active] = stepped[active]
    lo, hi = np.zeros(len(r0)), np.full(len(r0), float(step))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = orient * (height(phi_rk4(phi, rate, mid[:, None])) - c) > 0
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return r0 * np.exp(phi_rk4(phi, rate, hi[:, None]))
