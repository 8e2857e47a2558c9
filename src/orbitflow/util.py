"""Small linear-algebra and sampling helpers used throughout the package."""

import numpy as np


def complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_traceless(rng, d, scale=1.0):
    """Random element of sl(d, C) with entries of the given scale."""
    g = scale * complex_gaussian(rng, (d, d))
    return g - (np.trace(g) / d) * np.eye(d)


def random_compact(rng, d, scale=1.0):
    """Random anti-Hermitian traceless matrix (compact real form)."""
    g = complex_gaussian(rng, (d, d))
    a = g - g.conj().T
    a = a - (np.trace(a) / d) * np.eye(d)
    nrm = np.linalg.norm(a)
    return scale * a / nrm if nrm > 0 else a


def random_unit_vector(rng, d):
    v = complex_gaussian(rng, d)
    return v / np.linalg.norm(v)


def realify(mats):
    """Stack complex matrices into real row vectors (Re parts then Im parts)."""
    arr = np.asarray(mats)
    flat = arr.reshape(arr.shape[0], -1)
    return np.hstack([flat.real, flat.imag])


def unrealify(rows, d):
    rows = np.atleast_2d(rows)
    half = rows.shape[1] // 2
    return (rows[:, :half] + 1j * rows[:, half:]).reshape(-1, d, d)


def orthonormal_rows(rows):
    """Real orthonormal basis for the row span, dropping near-dependent rows."""
    q, r = np.linalg.qr(np.atleast_2d(rows).T)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
    return q[:, keep].T


def subspace_intersection_real(rows_a, rows_b, cutoff=1e-8):
    """Intersection of two real row-spans via principal angles.

    Returns rows spanning the intersection: principal directions whose
    singular value exceeds 1 - cutoff.
    """
    qa = orthonormal_rows(rows_a)
    qb = orthonormal_rows(rows_b)
    if qa.size == 0 or qb.size == 0:
        return np.zeros((0, rows_a.shape[1]))
    u, s, _ = np.linalg.svd(qa @ qb.T, full_matrices=False)
    mask = s >= 1.0 - cutoff
    return (qa.T @ u[:, mask]).T

