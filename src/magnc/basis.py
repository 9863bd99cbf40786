"""Generalized Laguerre basis of the Landau problem and the four magnetic momenta.

The orthonormal family psi_{n, m} diagonalizes the 2D isotropic oscillator
Q = (K1^2 + K2^2 + G1^2 + G2^2)/2 with eigenvalue n + m + 1.  The first index n
is the Landau level (laddered by the magnetic momenta K1, K2, which generate
the Landau dynamics), the second index m is the degeneracy index (laddered by
the dual momenta G1, G2, which commute with every operator built on the level
index).  Everything downstream — the coefficient algebra, the Dirac operator,
the kernel calculus — is written against the ladder tables pinned here.

Ladder phase conventions (discovered against the quadrature oracle, see
``verify_ladder_phases``), with u = (x1 + i x2)/(sqrt(2) l):

    (K1 + iK2) psi_{n,m} =  i sqrt(2(n+1)) psi_{n+1,m}
    (K1 - iK2) psi_{n,m} = -i sqrt(2 n)    psi_{n-1,m}
    (G1 + iG2) psi_{n,m} =    sqrt(2(m+1)) psi_{n,m+1}
    (G1 - iG2) psi_{n,m} =    sqrt(2 m)    psi_{n,m-1}

so [K1, K2] = [G1, G2] = -i and b± = -(G1 ± iG2)/sqrt(2) acts as
b+ psi_{n,m} = -sqrt(m+1) psi_{n,m+1}, b- psi_{n,m} = -sqrt(m) psi_{n,m-1},
giving b+ b- = m on the interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite, lgamma, pi
from numbers import Integral

import numpy as np

__all__ = [
    "QuadratureScheme",
    "PhaseConventionError",
    "eval_generalized_laguerre",
    "eval_basis_function",
    "ladder_blocks_1d",
    "number_ladders",
    "verify_ladder_phases",
    "default_radius",
    "magnetic_length",
    "require_same_length",
]

MOMENTA = ("K1", "K2", "G1", "G2")


def magnetic_length(lb) -> float:
    """l_B as a float; the one check that it is positive and that l_B^2 and
    l_B^-2 are finite and nonzero (NaN, +-inf and lengths whose square
    overflows or underflows are rejected)."""
    lb = float(lb)
    sq = lb * lb
    if not (lb > 0 and isfinite(sq) and sq > 0 and isfinite(1.0 / sq)):
        raise ValueError(
            f"magnetic length must be positive with l_B^2 and l_B^-2 finite and nonzero, got {lb}")
    return lb


def require_same_length(l1: float, l2: float, what: str):
    """The one comparison of two magnetic lengths: ValueError unless they
    agree to 1e-15 relative."""
    if abs(l1 - l2) > 1e-15 * max(l1, l2):
        raise ValueError(f"{what} live at different magnetic lengths: {l1} and {l2}")


def default_radius(n_max: int, m_max: int) -> float:
    """Integration cutoff (units of l) below whose tail everything is < 1e-10."""
    return float(np.sqrt(4.0 * (n_max + m_max) + 25.0))


@dataclass(frozen=True)
class QuadratureScheme:
    """Tensor-product Gauss-Legendre rule on the square |x_i| <= radius * l."""

    radius: float
    nodes_per_axis: int = 64

    def __post_init__(self):
        if not (self.radius > 0 and isfinite(self.radius)):
            raise ValueError(f"quadrature radius must be positive and finite, got {self.radius}")
        if self.nodes_per_axis < 8:
            raise ValueError("need at least 8 nodes per axis")

    def nodes_1d(self, lb: float = 1.0):
        """1D nodes and weights scaled to [-radius*lb, radius*lb]."""
        x, w = np.polynomial.legendre.leggauss(self.nodes_per_axis)
        r = self.radius * lb
        return x * r, w * r


class PhaseConventionError(RuntimeError):
    """Ladder rules and quadrature oracle disagree: a phase convention is wrong."""


# ---------------------------------------------------------------------------
# Laguerre polynomials: the explicit finite sum, no recurrences.
# ---------------------------------------------------------------------------

def _laguerre_terms_start(n: int, alpha: float) -> tuple[int, float]:
    """First index j0 with a nonzero coefficient and the value c_{j0}.

    The j-th coefficient is prod_{i=j+1..n}(alpha+i) / (j! (n-j)!).  For
    integer alpha in [-n, -1] the product vanishes for all j < -alpha, so the
    sum effectively starts at j0 = -alpha with c_{j0} = 1/j0!.
    """
    a_int = round(alpha)
    if abs(alpha - a_int) < 1e-14 and -n <= a_int <= -1:
        j0 = -a_int
        return j0, float(np.exp(-lgamma(j0 + 1)))
    # generic start j0 = 0: c_0 = prod_{i=1..n}(alpha+i) / n!, done in log scale
    log_abs = -lgamma(n + 1)
    sign = 1.0
    for i in range(1, n + 1):
        f = alpha + i
        if f == 0.0:
            return 0, 0.0  # cannot happen for the cases above, kept defensive
        log_abs += np.log(abs(f))
        if f < 0:
            sign = -sign
    return 0, sign * float(np.exp(log_abs))


def eval_generalized_laguerre(n: int, alpha: float, zeta):
    """L_n^(alpha)(zeta) as the explicit finite sum, stable for n + |alpha| <= 200.

    Terms are generated by running ratios t_{j+1} = t_j * (-zeta) (n-j) /
    ((j+1)(alpha+j+1)) starting from the first nonvanishing coefficient, so
    negative (integer or not) alpha is handled uniformly and no factorial
    ratio is ever materialized.  Works elementwise on arrays.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    zeta = np.asarray(zeta, dtype=float)
    j0, c0 = _laguerre_terms_start(n, alpha)
    term = c0 * (-zeta) ** j0
    total = np.array(term, dtype=float, copy=True)
    for j in range(j0, n):
        term = term * (-zeta) * (n - j) / ((j + 1) * (alpha + j + 1))
        total = total + term
    if not np.all(np.isfinite(total)):
        raise FloatingPointError(
            f"Laguerre sum overflowed for n={n}, alpha={alpha}"
        )
    if total.ndim == 0:
        return float(total)
    return total


# ---------------------------------------------------------------------------
# Basis functions.
# ---------------------------------------------------------------------------

def _index_pair(idx) -> tuple[int, int]:
    """(n, m) as ints: a bool or non-integral index raises TypeError instead
    of being truncated, a negative one ValueError."""
    n, m = idx
    if not all(isinstance(i, Integral) and not isinstance(i, bool) for i in (n, m)):
        raise TypeError(f"basis indices must be integers, got n={n!r}, m={m!r}")
    if n < 0 or m < 0:
        raise ValueError("basis indices must be nonnegative")
    return int(n), int(m)


def _polar_parts(x, l: float):
    """u = (x1 + i x2)/(sqrt2 l), zeta = |u|^2 and the ground state psi_{0,0}."""
    x = np.asarray(x, dtype=float)
    u = (x[..., 0] + 1j * x[..., 1]) / (np.sqrt(2.0) * l)
    zeta = u.real**2 + u.imag**2
    return u, zeta, np.exp(-zeta / 2.0) / (np.sqrt(2.0 * pi) * l)


def _prefactor(n: int, m: int):
    """The closed form psi_{n,m}/psi_{0,0} = amp base^d L_lo^(d)(zeta), as
    (amp, lo, d, bar): lo = min(n, m), d = |n - m|, base = ubar when ``bar``
    (m > n) and u otherwise, and amp = sqrt(lo!/(lo + d)!) with the sign
    (-1)^(m-n) when m > n.

    For m > n the power of (x1 + i x2) in the defining product is negative;
    the vanishing low-order Laguerre coefficients absorb it, leaving this
    finite form.
    """
    lo, d = min(n, m), abs(n - m)
    amp = np.exp(0.5 * (lgamma(lo + 1) - lgamma(lo + d + 1)))
    if n < m and d % 2:
        amp = -amp
    return amp, lo, d, n < m


def _basis_over_psi00(n: int, m: int, u, zeta):
    """psi_{n,m} / psi_{0,0} from shared u = (x1 + i x2)/(sqrt2 l) and zeta = |u|^2.

    The power is built by repeated multiplication (numpy's complex ``**``
    with an integer exponent takes the general-power path).
    """
    amp, lo, d, bar = _prefactor(n, m)
    base = np.conj(u) if bar else u
    val = amp * eval_generalized_laguerre(lo, d, zeta)
    for _ in range(d):
        val = val * base
    return val


def _basis_over_psi00_monomials(n: int, m: int) -> np.ndarray:
    """D with psi_{n,m}/psi_{0,0} = sum_{r,s} D[r, s] v1^r v2^s, v = x/(sqrt2 l).

    The closed form of ``_prefactor`` as a polynomial: with u = v1 + i v2
    and zeta = u ubar, the term c_j (-zeta)^j of L_lo^(d) times u^d or
    ubar^d is expanded binomially.  The c_j follow the running ratio of
    ``eval_generalized_laguerre``.  D is (n+m+1) x (n+m+1) and independent of l.
    """
    amp, lo, d, bar = _prefactor(n, m)
    out = np.zeros((n + m + 1, n + m + 1), dtype=complex)
    j0, c = _laguerre_terms_start(lo, d)
    for j in range(j0, lo + 1):
        p, q = (j, j + d) if bar else (j + d, j)
        cj = amp * c * (-1.0) ** j
        # u^p ubar^q = sum C(p,i1) C(q,i2) i^(i1-i2) v1^(p+q-i1-i2) v2^(i1+i2)
        for i1 in range(p + 1):
            for i2 in range(q + 1):
                out[p + q - i1 - i2, i1 + i2] += (
                    cj * comb(p, i1) * comb(q, i2) * 1j ** ((i1 - i2) % 4))
        c = c * (lo - j) / ((j + 1) * (d + j + 1))
    return out


def eval_basis_function(idx, x, lb=1.0):
    """psi_{n,m}(x), x in Cartesian coordinates (units of length).

    Finite everywhere (see ``_prefactor`` for m > n) and 0 at x = 0
    whenever n != m.
    """
    n, m = _index_pair(idx)
    u, zeta, psi00 = _polar_parts(x, magnetic_length(lb))
    val = np.asarray(psi00 * _basis_over_psi00(n, m, u, zeta), dtype=complex)
    if not np.all(np.isfinite(val)):
        raise FloatingPointError(f"basis function ({n},{m}) evaluated non-finite")
    if val.ndim == 0:
        return complex(val)
    return val


def _separable_basis(labels, t: np.ndarray, w: np.ndarray, lb: float):
    """Monomial tables M and 1-D factors phi of the labels' states on the
    tensor grid of nodes t and weights w.

    With v = t/(sqrt2 l) and phi[p][c] = exp(-v_c^2 / 2) v_c^p w_c,
        psi_k(t_c, t_d) w_c w_d = sum_{p,q} M[k][p,q] phi[p][c] phi[q][d] / (sqrt(2 pi) l),
    M[k] being ``_basis_over_psi00_monomials`` of label k, zero-padded to the
    largest n + m among the labels.
    """
    deg = max(n + m for n, m in labels)
    M = np.zeros((len(labels), deg + 1, deg + 1), dtype=complex)
    for k, (n, m) in enumerate(labels):
        M[k, : n + m + 1, : n + m + 1] = _basis_over_psi00_monomials(n, m)
    v = t / (np.sqrt(2.0) * lb)
    phi = np.stack([v**p * np.exp(-0.5 * v**2) * w for p in range(deg + 1)])
    if not np.all(np.isfinite(phi)):
        raise FloatingPointError("basis quadrature tables are non-finite")
    return M, phi


# ---------------------------------------------------------------------------
# Ladder matrices of the momenta.
# ---------------------------------------------------------------------------

def ladder_blocks_1d(size: int):
    """Raising/lowering matrices (a+, a-) with entries sqrt(k) on one index."""
    k = np.sqrt(np.arange(1, size, dtype=float))
    return np.diag(k, -1), np.diag(k, 1)


def number_ladders(size: int, which: str) -> np.ndarray:
    """1D Hermitian ladder matrix of one momentum on its own index.

    K1, K2 act on the level index n; G1, G2 act on the degeneracy index m.
    Entries follow the oracle-pinned tables in the module docstring.
    """
    ap, am = ladder_blocks_1d(size)
    s = 1.0 / np.sqrt(2.0)
    if which == "K1":
        return 1j * s * (ap - am)
    if which in ("K2", "G1"):
        return s * (ap + am)
    if which == "G2":
        return -1j * s * (ap - am)
    raise ValueError(f"unknown momentum {which!r}")


# ---------------------------------------------------------------------------
# Quadrature oracle.
# ---------------------------------------------------------------------------

def verify_ladder_phases(lb=1.0, n_sub: int = 3, m_sub: int = 3) -> float:
    """Compare the ladder tables against the quadrature oracle as whole matrices.

    For each momentum, every matrix element between the states n < n_sub,
    m < m_sub (index m * n_sub + n) is integrated and compared with the
    table, so a wrong entry anywhere in the sub-block shows.  A state is its
    ``_separable_basis`` table, sum_{p,q} M[p,q] phi_p(t1) phi_q(t2) with
    phi_p = exp(-v^2/2) v^p, v = t/(sqrt2 l), on which the momenta
        K1 = -i l d1 - x2/2l,  K2 = -i l d2 + x1/2l,
        G1 = -i l d2 - x1/2l,  G2 = -i l d1 + x2/2l
    act exactly as index shifts on each axis:
        -i l d/dt phi_p = -i (p phi_{p-1} - phi_{p+1}) / sqrt2,  t/2l phi_p = phi_{p+1} / sqrt2.
    Every matrix element is then a contraction with the 1-D Gram
    G[p', p] = sum_c w_c exp(-v_c^2) v_c^(p'+p) on the Gauss-Legendre nodes:
    the tensor quadrature summed in another order, with no function
    evaluated on the 2-D grid.  Returns the worst deviation; raises
    PhaseConventionError beyond 1e-6.
    """
    tol = 1e-6
    l = magnetic_length(lb)
    t, w = QuadratureScheme(default_radius(n_sub + 1, m_sub + 1)).nodes_1d(l)
    idxs = [(n, m) for m in range(m_sub) for n in range(n_sub)]
    # the top state's image (n_sub, m_sub - 1) sets the degree of the tables
    M, phi = _separable_basis(idxs + [(n_sub, m_sub - 1)], t, np.ones_like(w), l)
    M = M[:-1]
    gram = (phi * w) @ phi.T
    up = np.eye(len(phi), k=-1)                            # phi_p -> phi_{p+1}
    d = np.diag(np.arange(1.0, len(phi)), 1) - up          # sqrt2 l d/dt
    d1, d2, v1, v2 = d @ M, M @ d.T, up @ M, M @ up.T
    images = {"K1": -1j * d1 - v2, "K2": -1j * d2 + v1,
              "G1": -1j * d2 - v1, "G2": -1j * d1 + v2}
    # got[bra, ket] = sum (G conj(M_bra) G)[p, q] image_ket[p, q] / (2 pi l^2),
    # the momenta's common 1/sqrt2 taken into the bras
    bras = (gram @ np.conj(M) @ gram).reshape(len(idxs), -1) / (2.0 * pi * l**2 * np.sqrt(2.0))
    worst = 0.0
    for which in MOMENTA:
        got = bras @ images[which].reshape(len(idxs), -1).T
        want = (np.kron(np.eye(m_sub), number_ladders(n_sub, which)) if which[0] == "K"
                else np.kron(number_ladders(m_sub, which), np.eye(n_sub)))
        worst = max(worst, float(np.abs(got - want).max()))
    if worst > tol:
        raise PhaseConventionError(
            f"ladder rules vs quadrature disagree by {worst:.3e} (> {tol:.1e})"
        )
    return worst
