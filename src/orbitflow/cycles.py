"""Real subspaces V_w, the isotropic distribution, Hamiltonian lifts and
vanishing-cycle spheres in the compact flag.

The flag here is the intersection of the orbit with the Hermitian matrices;
it carries the restriction of the height function, whose levels just below
the maximum are the vanishing-cycle spheres.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LevelRangeError, SamplingError
from .liecore import RootSystemAn, b_norm, cartan_matrix, minimal_cartan, pi_w
from .orbit import critical_points, potential, retract, tangent_frame, tangent_project
from .util import realify, subspace_intersection_real, unrealify

INTERSECTION_CUTOFF = 1e-8


@dataclass(frozen=True)
class VwSubspace:
    """Real subspace h_R + sum(u_a, a in Pi_w) + sum(iu_a, a not in Pi_w)."""

    w: object
    basis: tuple
    labels: tuple

    @property
    def dim(self):
        return len(self.basis)


def build_vw(w):
    """Basis of V_w; the Hermitian form takes real values on it."""
    n = w.dim - 1
    rs = RootSystemAn(n)
    inverted = pi_w(w)
    basis, labels = [], []
    for k, hvec in enumerate(rs.cartan_basis()):
        basis.append(hvec)
        labels.append(f"h{k + 1}")
    for alpha in rs.positive_roots:
        if alpha in inverted:
            vecs, tag = rs.compact_root_basis(alpha), "u"
        else:
            vecs, tag = rs.hermitian_root_basis(alpha), "iu"
        basis.extend(vecs)
        labels.extend([f"{tag}{alpha}a", f"{tag}{alpha}b"])
    return VwSubspace(w=w, basis=tuple(basis), labels=tuple(labels))


def delta_w(w, pt, cutoff=INTERSECTION_CUTOFF):
    """Pointwise intersection V_w ∩ T_x O, computed by principal angles."""
    vw = build_vw(w)
    frame = tangent_frame(pt)
    tangent_real = [m for e in frame for m in (e, 1j * e)]
    rows = subspace_intersection_real(
        realify(np.array(vw.basis)), realify(np.array(tangent_real)), cutoff
    )
    d = pt.x.shape[0]
    return list(unrealify(rows, d)) if rows.size else []


def grad_height(x_elem, pt):
    """Gradient on the orbit of f_X(y) = b_tau(X, y).

    The ambient Riesz representative of df_X is X itself, so the gradient is
    the Hermitian-orthogonal projection of X onto the tangent space.
    """
    return tangent_project(pt, np.asarray(x_elem, dtype=complex))


def ham_height(x_elem, pt):
    """Hamiltonian field of f_X: ham = -i grad (tangent spaces are complex)."""
    return -1j * grad_height(x_elem, pt)


def flag_sample(n, count, radius, rng):
    """Hermitian orbit points Ad(exp(A)) H0 with A compact, |A| <= radius."""
    from scipy.linalg import expm

    from .util import random_compact

    h0m = cartan_matrix(minimal_cartan(n))
    out = []
    for _ in range(count):
        a = random_compact(rng, n + 1, scale=radius * rng.uniform())
        g = expm(a)
        out.append(retract(g @ h0m @ g.conj().T))
    return out


def _flag_directions(rs, rng, count):
    """Random compact directions with a nonzero tangent component at H0."""
    roots = [a for a in rs.positive_roots if a[0] == 1]  # tangent roots at H0
    gens = [g for a in roots for g in rs.compact_root_basis(a)]
    dirs = []
    for _ in range(count):
        coeff = rng.standard_normal(len(gens))
        a = sum(c * g for c, g in zip(coeff, gens))
        dirs.append(a / b_norm(a))
    return dirs


def vanishing_sphere(h, c, count, rng, tol=1e-8, max_ray=25.0):
    """Sample the level f1 = c of the flag height near its maximum H0.

    The maximum sits at H0 with negative definite Hessian, so levels just
    below it are spheres of codimension one in the flag; each sample is
    found by bisection along a one-parameter compact motion of H0.
    """
    h = np.asarray(h, dtype=float)
    n = len(h) - 1
    rs = RootSystemAn(n)
    crit_values = sorted(potential(h, p).real for p in critical_points(n))
    top, second = crit_values[-1], crit_values[-2]
    if not second < c < top:
        raise LevelRangeError(f"level {c} outside the attracting range ({second}, {top})")
    samples = []
    for a in _flag_directions(rs, rng, 20 * count):
        try:
            samples.append(vanishing_sphere_point(h, c, a, tol, max_ray))
        except SamplingError:
            continue
        if len(samples) == count:
            return samples
    raise SamplingError(f"could not place {count} level samples (got {len(samples)})")


def vanishing_sphere_point(h, c, direction, tol=1e-10, max_ray=25.0):
    """Bisect the level f1 = c along one prescribed compact direction.

    Stops once |f1 - c| < tol / 10; raises SamplingError when the level is
    not reached within ``max_ray`` along the direction.
    """
    from scipy.linalg import expm

    h = np.asarray(h, dtype=float)
    n = len(h) - 1
    h0m = cartan_matrix(minimal_cartan(n))

    def f1_along(t):
        g = expm(t * direction)
        return potential(h, g @ h0m @ g.conj().T).real

    t_hi, t_lo = 0.1, 0.0
    while f1_along(t_hi) > c and t_hi < max_ray:
        t_lo, t_hi = t_hi, 2.0 * t_hi
    if f1_along(t_hi) > c:
        raise SamplingError("level not reached along the given direction")
    for _ in range(100):
        t = 0.5 * (t_lo + t_hi)
        f = f1_along(t)
        if abs(f - c) < 0.1 * tol:
            break
        if f > c:
            t_lo = t
        else:
            t_hi = t
    g = expm(t * direction)
    return retract(g @ h0m @ g.conj().T)
