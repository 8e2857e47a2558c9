"""Root-system algebra of type A_n inside sl(n+1, C).

Conventions used by every other module:

* bilinear pairing  <X, Y> = 2(n+1) tr(XY), so that the Weyl-normalized
  root vectors X_a = s E_ij with s = 1/sqrt(2(n+1)) satisfy <X_a, X_-a> = 1;
* conjugation tau(X) = -X^dagger, fixing the compact form su(n+1);
* Hermitian form  H_tau(X, Y) = -<X, tau Y> = 2(n+1) tr(X Y^dagger), whose
  real part b_tau is a positive inner product and whose imaginary part
  omega is the ambient symplectic form;
* the Weyl group is S_{n+1} acting by permutation of diagonal entries.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


def _square(x):
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {x.shape}")
    return x


def _pair_dim(x, y):
    x, y = _square(x), _square(y)
    if x.shape != y.shape:
        raise ShapeError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x, y, x.shape[0]


def bracket(x, y):
    return x @ y - y @ x


def killing_form(x, y):
    """Invariant bilinear pairing 2(n+1) tr(XY)."""
    x, y, d = _pair_dim(x, y)
    return 2.0 * d * np.trace(x @ y)


def tau(x):
    """Conjugation with respect to the compact real form: X -> -X^dagger."""
    return -_square(x).conj().T


def hermitian_form(x, y):
    """H_tau(X, Y) = -<X, tau Y>; Hermitian and positive definite."""
    x, y, d = _pair_dim(x, y)
    return 2.0 * d * np.vdot(y, x)


def b_tau(x, y):
    """Real part of H_tau: the ambient inner product."""
    return hermitian_form(x, y).real


def omega(x, y):
    """Imaginary part of H_tau: the ambient symplectic form."""
    return hermitian_form(x, y).imag


def b_norm(x):
    return np.sqrt(b_tau(x, x))


def cartan_matrix(h):
    """Diagonal matrix of a Cartan vector."""
    return np.diag(np.asarray(h, dtype=complex))


def root_eval(alpha, h):
    """alpha_ij(H) = h_i - h_j for 1-based indices."""
    i, j = alpha
    h = np.asarray(h)
    return h[i - 1] - h[j - 1]


def default_cartan(n):
    """Dominant regular zero-sum vector with unit spacing, e.g. (1, 0, -1)."""
    return np.array([n + 1 - k - n / 2.0 for k in range(1, n + 2)])


def minimal_cartan(n):
    """Generator diag(n, -1, ..., -1) of the minimal orbit."""
    h = -np.ones(n + 1)
    h[0] = n
    return h


class RootSystemAn:
    """Roots, Weyl-normalized root vectors and derived generators for A_n."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("rank must be at least 1")
        self.n = int(n)
        self.dim = self.n + 1
        self.killing_scale = 2.0 * self.dim
        self.weyl_scale = 1.0 / np.sqrt(self.killing_scale)

    @property
    def roots(self):
        d = self.dim
        return tuple((i, j) for i in range(1, d + 1) for j in range(1, d + 1) if i != j)

    @property
    def positive_roots(self):
        d = self.dim
        return tuple((i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1))

    def x_alpha(self, alpha):
        """Weyl root vector s E_ij with <X_a, X_-a> = 1."""
        i, j = alpha
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[i - 1, j - 1] = self.weyl_scale
        return m

    def a_alpha(self, alpha):
        """A_a = X_a - X_-a, a generator of the compact form."""
        i, j = alpha
        return self.x_alpha((i, j)) - self.x_alpha((j, i))

    def s_alpha(self, alpha):
        """S_a = X_a + X_-a, a Hermitian generator."""
        i, j = alpha
        return self.x_alpha((i, j)) + self.x_alpha((j, i))

    def z_alpha(self, alpha):
        """Z_a = i(X_a + X_-a), the second compact generator."""
        return 1j * self.s_alpha(alpha)

    def cartan_basis(self):
        """Real basis E_kk - E_{k+1,k+1} of the real Cartan subalgebra."""
        out = []
        for k in range(self.n):
            m = np.zeros((self.dim, self.dim), dtype=complex)
            m[k, k] = 1.0
            m[k + 1, k + 1] = -1.0
            out.append(m)
        return out

    def compact_root_basis(self, alpha):
        """Real basis {A_a, Z_a} of u_a = (g_a + g_-a) ∩ u."""
        return [self.a_alpha(alpha), self.z_alpha(alpha)]

    def hermitian_root_basis(self, alpha):
        """Real basis {iA_a, S_a} of iu_a = (g_a + g_-a) ∩ iu."""
        return [1j * self.a_alpha(alpha), self.s_alpha(alpha)]


@dataclass(frozen=True)
class WeylElement:
    """Permutation of {1, ..., n+1}; perm[i-1] = w(i)."""

    perm: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.perm)}: {self.perm}")

    def __call__(self, i):
        return self.perm[i - 1]

    @property
    def dim(self):
        return len(self.perm)

    def inverse(self):
        inv = [0] * self.dim
        for i, wi in enumerate(self.perm, start=1):
            inv[wi - 1] = i
        return WeylElement(tuple(inv))

    def compose(self, other):
        """(self ∘ other)(i) = self(other(i))."""
        return WeylElement(tuple(self(other(i)) for i in range(1, self.dim + 1)))

    def length(self):
        return len(pi_w(self))


def longest_weyl(d):
    """Order-reversing permutation k -> d + 1 - k."""
    return WeylElement(tuple(range(d, 0, -1)))


def weyl_group(d):
    for p in itertools.permutations(range(1, d + 1)):
        yield WeylElement(p)


def pi_w(w):
    """Positive roots sent to negative roots: {a_ij : i < j, w(i) > w(j)}."""
    d = w.dim
    return frozenset(
        (i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1) if w(i) > w(j)
    )


def weyl_action(w, h):
    """Coordinate permutation (wH)_k = h_{w^{-1}(k)}."""
    h = np.asarray(h)
    winv = w.inverse()
    return np.array([h[winv(k) - 1] for k in range(1, w.dim + 1)])
