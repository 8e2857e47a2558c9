"""Real subspaces V_w, the isotropic distribution, Hamiltonian lifts and
vanishing-cycle spheres in the compact flag.

The flag here is the intersection of the orbit with the Hermitian matrices,
the graph of m_1^- = 1; the levels of its height just below the maximum are
the vanishing-cycle spheres, the boundaries of the flag thimble.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LevelRangeError
from .liecore import RootSystemAn, pi_w
from .orbit import OrbitPoint, _near_base, tangent_frame, tangent_project
from .thimble import line_height, trace_thimble
from .util import random_compact, realify, subspace_intersection_real, unrealify


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


def delta_w(w, pt):
    """Pointwise intersection V_w ∩ T_x O, computed by principal angles."""
    vw = build_vw(w)
    frame = tangent_frame(pt)
    tangent_real = [m for e in frame for m in (e, 1j * e)]
    rows = subspace_intersection_real(
        realify(np.array(vw.basis)), realify(np.array(tangent_real)), 1e-8
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
    """Hermitian orbit points of the pairs (u, u), u = e_1 + A e_1, of
    anti-Hermitian traceless A with |A| uniform in [0, radius)."""
    return [_near_base(random_compact(rng, n + 1, scale=radius * rng.uniform()))
            for _ in range(count)]


def vanishing_sphere(h, c, count, rng):
    """Sample the level f1 = c of the flag, the graph of m_1^- = 1, below
    its maximum [e_1]: the landed ends of ``count`` flows of its thimble
    (``trace_thimble([(1, "-")], ...)``, one seed radius), in flow order,
    as the points of the pairs (u, u) of their unit lines u.  Raises
    ValueError when count < 1, and LevelRangeError unless f1 peaks at [e_1]
    and c lies between its two largest values."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    values = line_height(np.asarray(h, dtype=float), 1.0, np.eye(len(h)))
    if values.argmax() != 0:
        raise LevelRangeError(f"f1 is largest at [e_{values.argmax() + 1}], not at [e_1]")
    second, top = np.sort(values)[-2:]
    if not second < c < top:
        raise LevelRangeError(f"level {c} outside the attracting range ({second}, {top})")
    landed = trace_thimble([(1, "-")], h, top - c, count, radii=1, rng=rng,
                           record_sep=np.inf)[-count:]
    return [OrbitPoint(u, u) for u in landed.line]
