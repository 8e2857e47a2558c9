"""Lagrangian graphs of twisted orthogonal-complement maps.

A diagonal torus element m twists the map [u] -> [u]^perp into
[u] -> m [u]^perp; the graph of the twisted map sits inside the orbit as
the set of chart points Phi([u], m [u]^perp), the image of
u -> assemble(u, m u), so its tangent frame at any point is the chart
derivative ``orbit.pair_tangent`` along the complement of u.  For
involutive m these graphs are fixed sets of the anti-linear map
x -> m x^dagger m, carry a real height function, and support the definite
restricted Hessians that make the critical points attractors or repellers
inside the graph.
"""

import io
from dataclasses import dataclass

import numpy as np

from .errors import GraphIntegrityError, ParityError, SamplingError
from .liecore import (
    RootSystemAn,
    bracket,
    cartan_matrix,
    killing_form,
    minimal_cartan,
    root_eval,
    weyl_action,
)
from .orbit import OrbitPoint, assemble, complement, pair_of, pair_point, pair_tangent, potential
from .util import random_unit_vector, realify, unrealify

REJECT_TOL = 1e-6


@dataclass(frozen=True)
class GraphSpec:
    """Diagonal torus element with unit determinant.

    ``m_diag`` holds the unit-modulus diagonal entries, m = exp(iH1) for a
    real Cartan vector H1; sign data is read from m_diag directly, with no
    logarithm and so no branch ambiguity.
    """

    m_diag: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = np.asarray(self.m_diag, dtype=complex)
        if abs(np.prod(m) - 1.0) > 1e-10:
            raise ValueError(f"det m = {np.prod(m)} is not 1")
        if np.abs(np.abs(m) - 1.0).max() > 1e-10:
            raise ValueError("entries of m must be unit modulus")
        object.__setattr__(self, "m_diag", m)
        m.setflags(write=False)

    @property
    def dim(self):
        return len(self.m_diag)

    def phase(self, alpha):
        """exp(-i alpha_kj(H1)) = conj(m_k) m_j for the root (k, j)."""
        k, j = alpha
        return np.conj(self.m_diag[k - 1]) * self.m_diag[j - 1]


def identity_graph(n):
    return GraphSpec(np.ones(n + 1, dtype=complex), name="id")


def sign_pattern(n, j, sign):
    """Real diagonal of m_j^+/-: +1 before slot j, -1 after it, the slot
    itself carrying the sign, times -(+/-)(-1)^j.  Its graph is that of -m."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    d = n + 1
    if not 1 <= j <= d:
        raise ValueError(f"j must be in 1..{d}")
    diag = np.where(np.arange(1, d + 1) < j, 1.0, -1.0)
    diag[j - 1] = 1.0 if sign == "+" else -1.0
    return (-1.0 if sign == "+" else 1.0) * (-1.0) ** j * diag


def _unit_determinant(diag):
    """Whether a +/-1 diagonal lies in the unit-determinant torus."""
    return np.prod(diag) > 0


def m_j_pm(n, j, sign):
    """Torus involution m_j^+/- at [e_j], of diagonal ``sign_pattern``; a
    (j, sign) outside ``twists(n)`` (odd n) raises ParityError."""
    diag = sign_pattern(n, j, sign)
    if not _unit_determinant(diag):
        raise ParityError(f"m_{j}^{sign} has determinant -1 at odd rank n={n}; there the unit-"
                          "determinant torus holds m_j^- for odd j and m_j^+ for even j")
    return GraphSpec(diag.astype(complex), name=f"m{j}{sign}")


def twists(n):
    """The (j, sign) pairs for which m_j^sign exists at rank n, those whose
    ``sign_pattern`` has determinant +1: every pair at even n, and at odd n
    (j, '-') for odd j and (j, '+') for even j."""
    return [(j, s) for j in range(1, n + 2) for s in ("+", "-")
            if _unit_determinant(sign_pattern(n, j, s))]


def graph_point(u, g):
    """Chart point Phi([u], m [u]^perp) on the graph of the twisted map.

    For unitary diagonal m the hyperplane m [u]^perp has normal m u.
    """
    u = np.asarray(u, dtype=complex)
    return pair_point(u, g.m_diag * u)


def graph_membership(x, g):
    """Membership residual |(I - nu nu^H) m u| in the graph of an OrbitPoint,
    or of each of stacked orbit matrices or (lines, normals) pairs; g is a
    GraphSpec or the diagonal m, one per row if stacked.

    This is the length of the part of m u inside the hyperplane (normal
    nu), i.e. of (w_i, m u) over any orthonormal hyperplane basis w_i.  It
    vanishes exactly when the (-1)-eigenspace is the m-twist of the
    eigenline's orthogonal complement; for g = identity this is the
    Hermitian-ness test.
    """
    u, nu = pair_of(x)
    mu = (g.m_diag if isinstance(g, GraphSpec) else g) * u
    res = np.linalg.norm(mu - nu * (nu.conj() * mu).sum(axis=-1, keepdims=True), axis=-1)
    return float(res) if isinstance(x, OrbitPoint) else res


def untwist(pt, g):
    """Pull the hyperplane back by m; graph membership of pt under g equals
    identity membership of the untwisted point."""
    return pair_point(pt.line, np.conj(g.m_diag) * pt.normal)


def graph_tangent_frame(pt, m):
    """b_tau-orthonormal real frame (2n, d, d) at pt of the graph of the diagonal m.

    The graph of any unit-modulus twist m is the image of u -> assemble(u, m u),
    so its tangent space is spanned by the chart derivative along c_k and
    i c_k, with c_k the columns of complement(u): one QR of these 2n, realified
    (b_tau is 2d times the real dot product), each vector flipped by the sign
    of its pivot, orthonormalizes them in order as one by one, up to rounding.
    Raises GraphIntegrityError unless each pivot is above 1e-10 in b_tau length.
    """
    u, d = pt.line, pt.n + 1
    c = complement(u).T
    deltas = np.stack([c, 1j * c], axis=1).reshape(-1, d)
    q, r = np.linalg.qr(realify(pair_tangent(u, m * u, deltas, m * deltas)).T)
    pivots = np.sqrt(2.0 * d) * np.diag(r)
    rank = np.count_nonzero(np.abs(pivots) > 1e-10)
    if rank != 2 * pt.n:
        raise GraphIntegrityError(f"graph tangent frame has dimension {rank}, expected {2 * pt.n}")
    return unrealify((q * np.sign(pivots)).T / np.sqrt(2.0 * d), d)


def graph_generators(g, j):
    """Algebra elements b per root (k, j), k != j, whose brackets [b, x_c]
    with the critical point [e_j] span the graph's tangent space there;
    these are the inputs of the Hessian oracle ``hessian_full``."""
    d = g.dim
    rs = RootSystemAn(d - 1)
    gens = []
    for k in range(1, d + 1):
        if k == j:
            continue
        eps = g.phase((k, j))
        gens.append(
            (
                (k, j),
                rs.x_alpha((k, j)) - eps * rs.x_alpha((j, k)),
                1j * (rs.x_alpha((k, j)) + eps * rs.x_alpha((j, k))),
            )
        )
    return gens


def hessian_full(a_elem, b_elem, w, h):
    """Second derivative -<[B, wH0], [A, H]> of the height at wH0."""
    a_elem = np.asarray(a_elem, dtype=complex)
    b_elem = np.asarray(b_elem, dtype=complex)
    n = a_elem.shape[0] - 1
    xc = cartan_matrix(weyl_action(w, minimal_cartan(n)))
    return -killing_form(bracket(b_elem, xc), bracket(a_elem, cartan_matrix(h)))


@dataclass(frozen=True)
class HessianRow:
    k: int
    root: tuple
    alpha_crit: float         # alpha_kj at the critical diagonal, = -(n+1)
    alpha_h: float
    phase: complex            # e^{-i alpha_kj(H1)}, = eps_k eps_j for involutions
    value: complex            # multiplicity 2


@dataclass(frozen=True)
class HessianReport:
    j: int
    graph: GraphSpec
    rows: tuple

    @property
    def definiteness(self):
        vals = np.array([r.value for r in self.rows])
        if np.abs(vals.imag).max() > 1e-10:
            return "complex"
        if np.all(vals.real > 0):
            return "positive"
        if np.all(vals.real < 0):
            return "negative"
        return "indefinite"

    def values(self):
        return [r.value for r in self.rows]


def hessian_restricted(h, j, g):
    """Diagonal restricted Hessian -2 a(wH0) a(H) e^{-i a(H1)} per root (k, j).

    Each value carries multiplicity two (the two generators of the root);
    mixed terms between them vanish.
    """
    d = g.dim
    n = d - 1
    crit = np.full(d, -1.0)
    crit[j - 1] = n
    rows = []
    for k in range(1, d + 1):
        if k == j:
            continue
        alpha = (k, j)
        a_crit = float(root_eval(alpha, crit))
        a_h = float(np.real(root_eval(alpha, h)))
        phase = g.phase(alpha)
        rows.append(
            HessianRow(k=k, root=alpha, alpha_crit=a_crit, alpha_h=a_h,
                       phase=phase, value=-2.0 * a_crit * a_h * phase)
        )
    return HessianReport(j=j, graph=g, rows=tuple(rows))


def hessian_report_csv(reports, h):
    """CSV table: j, sign, k, alpha(wH0), alpha(H), phase, value, definiteness."""
    buf = io.StringIO()
    buf.write("j,sign,k,alpha_crit,alpha_h,eps_k_eps_j,value_re,value_im,definiteness\n")
    for rep in reports:
        sign = rep.graph.name[-1] if rep.graph.name else "?"
        for row in rep.rows:
            buf.write(
                f"{rep.j},{sign},{row.k},{row.alpha_crit:.17g},{row.alpha_h:.17g},"
                f"{row.phase.real:.17g},{row.value.real:.17g},{row.value.imag:.17g},"
                f"{rep.definiteness}\n"
            )
    return buf.getvalue()


def _transversal_unit(rng, weights):
    """Random unit vector u with |(u, Du)| at least REJECT_TOL."""
    d = len(weights)
    for _ in range(200):
        u = random_unit_vector(rng, d)
        if abs(np.vdot(weights * u, u)) >= REJECT_TOL:
            return u
    raise SamplingError("no transversal sample within the retry budget")


def _measure_imag(u, twist_diag, h):
    """|Im f_H| and |Im diag| of the twisted chart point, in extended
    precision.

    The admission bound 1e-6 on the transversality proxy lets samples come
    within conditioning 1e12 of the incidence divisor, where double
    precision cannot distinguish a genuinely real height from roundoff;
    the measurement therefore runs in clongdouble end to end.
    """
    u = np.asarray(u, dtype=np.clongdouble)
    x = assemble(u, np.asarray(twist_diag, dtype=np.clongdouble) * u)
    f = potential(h, x)
    return float(abs(f.imag)), float(np.abs(np.diag(x).imag).max())


def reality_check(diag, h, samples, rng):
    """Maximal |Im f_H| and |Im diag| over random points of the graph of an
    invertible diagonal twist D, the chart points Phi([u], (D u)^perp).

    For the sign involutions and for real D both are zero in exact
    arithmetic; the return value measures the numerical defect.  Samples
    with |(u, D u)| / max |D_i| below REJECT_TOL are redrawn.
    """
    diag = np.asarray(diag, dtype=complex)
    if np.abs(diag).min() < 1e-12:
        raise ValueError("diagonal twist must be invertible")
    weights = diag / np.abs(diag).max()
    max_im_f = 0.0
    max_im_diag = 0.0
    for _ in range(samples):
        u = _transversal_unit(rng, weights)
        im_f, im_diag = _measure_imag(u, diag, h)
        max_im_f = max(max_im_f, im_f)
        max_im_diag = max(max_im_diag, im_diag)
    return {"max_im_f": max_im_f, "max_im_diag": max_im_diag}
