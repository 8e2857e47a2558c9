"""Small constructions that only the tests read."""

import numpy as np

from orbitflow.errors import SamplingError
from orbitflow.liecore import WeylElement, cartan_matrix, minimal_cartan, weyl_action, weyl_group
from orbitflow.orbit import potential, retract
from orbitflow.util import complex_gaussian, realify


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
