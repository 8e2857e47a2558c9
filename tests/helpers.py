"""Small constructions that only the tests read."""

import numpy as np

from orbitflow.liecore import WeylElement, weyl_action, weyl_group
from orbitflow.util import complex_gaussian


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
