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

from dataclasses import dataclass, field
from math import lgamma, pi

import numpy as np
import scipy.sparse as sp

__all__ = [
    "BasisIndex",
    "MagneticLength",
    "QuadratureScheme",
    "PhaseConventionError",
    "eval_generalized_laguerre",
    "eval_basis_function",
    "basis_with_gradient",
    "momentum_matrix",
    "ladder_blocks_1d",
    "number_ladders",
    "b_plus_matrix",
    "b_minus_matrix",
    "momentum_quadrature",
    "verify_ladder_phases",
    "gram_matrix",
    "default_radius",
    "save_oracle_cache",
    "load_oracle_cache",
]

MOMENTA = ("K1", "K2", "G1", "G2")


@dataclass(frozen=True)
class BasisIndex:
    """Basis label (n, m): Landau level n >= 0, degeneracy index m >= 0."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError(f"basis indices must be nonnegative, got {self}")


@dataclass(frozen=True)
class MagneticLength:
    """The length scale l_B > 0 set by the magnetic field."""

    lb: float = 1.0

    def __post_init__(self):
        if not (self.lb > 0 and np.isfinite(self.lb)):
            raise ValueError(f"magnetic length must be positive, got {self.lb}")


def default_radius(n_max: int, m_max: int) -> float:
    """Integration cutoff (units of l) below whose tail everything is < 1e-10."""
    return float(np.sqrt(4.0 * (n_max + m_max) + 25.0))


@dataclass(frozen=True)
class QuadratureScheme:
    """Tensor-product Gauss-Legendre rule on the square |x_i| <= radius * l."""

    radius: float
    nodes_per_axis: int = 64
    rule: str = "gauss-legendre"

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("quadrature radius must be positive")
        if self.nodes_per_axis < 8:
            raise ValueError("need at least 8 nodes per axis")
        if self.rule != "gauss-legendre":
            raise ValueError(f"unknown rule {self.rule!r}")

    def nodes_1d(self, lb: float = 1.0):
        """1D nodes and weights scaled to [-radius*lb, radius*lb]."""
        x, w = np.polynomial.legendre.leggauss(self.nodes_per_axis)
        r = self.radius * lb
        return x * r, w * r

    def grid(self, lb: float = 1.0):
        """Flattened 2D nodes (N,2) and weights (N,)."""
        x, w = self.nodes_1d(lb)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        ww = np.outer(w, w)
        pts = np.stack([x1.ravel(), x2.ravel()], axis=-1)
        return pts, ww.ravel()


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
    if isinstance(idx, BasisIndex):
        return idx.n, idx.m
    n, m = idx
    if n < 0 or m < 0:
        raise ValueError("basis indices must be nonnegative")
    return int(n), int(m)


def _lb_value(lb) -> float:
    if isinstance(lb, MagneticLength):
        return lb.lb
    lb = float(lb)
    if lb <= 0:
        raise ValueError("magnetic length must be positive")
    return lb


def _polar_parts(x, l: float):
    """u = (x1 + i x2)/(sqrt2 l), zeta = |u|^2 and the ground state psi_{0,0}."""
    x = np.asarray(x, dtype=float)
    u = (x[..., 0] + 1j * x[..., 1]) / (np.sqrt(2.0) * l)
    zeta = u.real**2 + u.imag**2
    return u, zeta, np.exp(-zeta / 2.0) / (np.sqrt(2.0 * pi) * l)


def _basis_over_psi00(n: int, m: int, u, zeta):
    """psi_{n,m} / psi_{0,0} from shared u = (x1 + i x2)/(sqrt2 l) and zeta = |u|^2.

    For m > n the power of (x1 + i x2) in the defining product is negative;
    the vanishing low-order Laguerre coefficients absorb it, leaving the
    finite closed form (-1)^(m-n) sqrt(n!/m!) ubar^(m-n) L_n^(m-n).  The
    power is built by repeated multiplication (numpy's complex ``**`` with an
    integer exponent takes the general-power path).
    """
    lo, d = min(n, m), abs(n - m)
    base = u if n >= m else np.conj(u)
    amp = np.exp(0.5 * (lgamma(lo + 1) - lgamma(lo + d + 1)))
    if n < m and d % 2:
        amp = -amp
    val = amp * eval_generalized_laguerre(lo, d, zeta)
    for _ in range(d):
        val = val * base
    return val


def eval_basis_function(idx, x, lb=1.0):
    """psi_{n,m}(x), x in Cartesian coordinates (units of length).

    Finite everywhere (see ``_basis_over_psi00`` for m > n) and 0 at x = 0
    whenever n != m.
    """
    n, m = _index_pair(idx)
    u, zeta, psi00 = _polar_parts(x, _lb_value(lb))
    val = np.asarray(psi00 * _basis_over_psi00(n, m, u, zeta), dtype=complex)
    if not np.all(np.isfinite(val)):
        raise FloatingPointError(f"basis function ({n},{m}) evaluated non-finite")
    if val.ndim == 0:
        return complex(val)
    return val


def basis_with_gradient(idx, x, lb=1.0):
    """(psi, d psi/dx1, d psi/dx2) evaluated exactly (closed-form derivative).

    Used by the quadrature oracle for first-order differential operators.
    """
    n, m = _index_pair(idx)
    l = _lb_value(lb)
    x = np.asarray(x, dtype=float)
    u, zeta, psi00 = _polar_parts(x, l)
    # dzeta/dx_i = x_i / l^2
    dz1, dz2 = x[..., 0] / l**2, x[..., 1] / l**2

    if n >= m:
        p, q, alpha = n - m, m, n - m
        amp = np.exp(0.5 * (lgamma(m + 1) - lgamma(n + 1)))
        base = u
        db1 = 1.0 / (np.sqrt(2.0) * l)          # du/dx1
        db2 = 1j / (np.sqrt(2.0) * l)           # du/dx2
    else:
        p, q, alpha = m - n, n, m - n
        amp = np.exp(0.5 * (lgamma(n + 1) - lgamma(m + 1)))
        amp *= -1.0 if (m - n) % 2 else 1.0
        base = np.conj(u)
        db1 = 1.0 / (np.sqrt(2.0) * l)
        db2 = -1j / (np.sqrt(2.0) * l)

    L = eval_generalized_laguerre(q, alpha, zeta)
    dL = -eval_generalized_laguerre(q - 1, alpha + 1, zeta) if q > 0 else 0.0

    pw = base ** p
    psi = amp * psi00 * pw * L
    # d psi = amp * [ d(psi00) pw L + psi00 d(pw) L + psi00 pw dL ]
    if p > 0:
        pw_m1 = base ** (p - 1)
        dpw1, dpw2 = p * pw_m1 * db1, p * pw_m1 * db2
    else:
        dpw1 = dpw2 = 0.0
    g1 = amp * (-0.5 * dz1 * psi00 * pw * L + psi00 * dpw1 * L + psi00 * pw * dL * dz1)
    g2 = amp * (-0.5 * dz2 * psi00 * pw * L + psi00 * dpw2 * L + psi00 * pw * dL * dz2)
    return (
        np.asarray(psi, dtype=complex),
        np.asarray(g1, dtype=complex),
        np.asarray(g2, dtype=complex),
    )


# ---------------------------------------------------------------------------
# Ladder matrices of the momenta.
# ---------------------------------------------------------------------------

def ladder_blocks_1d(size: int):
    """Raising/lowering matrices (a+, a-) with entries sqrt(k) on one index."""
    k = np.sqrt(np.arange(1, size, dtype=float))
    raise_ = sp.diags(k, -1)
    lower = sp.diags(k, 1)
    return raise_.tocsr(), lower.tocsr()


def number_ladders(size: int, which: str) -> sp.csr_matrix:
    """1D Hermitian ladder matrix of one momentum on its own index.

    K1, K2 act on the level index n; G1, G2 act on the degeneracy index m.
    Entries follow the oracle-pinned tables in the module docstring.
    """
    ap, am = ladder_blocks_1d(size)
    s = 1.0 / np.sqrt(2.0)
    if which == "K1":
        return (1j * s * (ap - am)).tocsr()
    if which == "K2":
        return (s * (ap + am)).tocsr()
    if which == "G1":
        return (s * (ap + am)).tocsr()
    if which == "G2":
        return (-1j * s * (ap - am)).tocsr()
    raise ValueError(f"unknown momentum {which!r}")


def b_plus_matrix(size: int) -> sp.csr_matrix:
    """b+ = -(G1 + iG2)/sqrt(2) on the degeneracy index: entries -sqrt(m+1)."""
    ap, _ = ladder_blocks_1d(size)
    return (-ap).tocsr()


def b_minus_matrix(size: int) -> sp.csr_matrix:
    """b- = -(G1 - iG2)/sqrt(2) on the degeneracy index: entries -sqrt(m)."""
    _, am = ladder_blocks_1d(size)
    return (-am).tocsr()


def momentum_matrix(which: str, n_max: int, m_max: int, lb=1.0) -> sp.csr_matrix:
    """Matrix of one momentum on the truncated (n, m) lattice.

    Layout: index = m * n_max + n (degeneracy-major).  The matrices are
    dimensionless (coordinates in units of l), hence independent of lb; the
    argument is accepted for interface symmetry with the quadrature oracle.
    """
    _lb_value(lb)
    if n_max < 2 or m_max < 2:
        raise ValueError("truncation sizes must be >= 2")
    if which in ("K1", "K2"):
        one_d = number_ladders(n_max, which)
        return sp.kron(sp.identity(m_max, format="csr"), one_d, format="csr")
    if which in ("G1", "G2"):
        one_d = number_ladders(m_max, which)
        return sp.kron(one_d, sp.identity(n_max, format="csr"), format="csr")
    raise ValueError(f"unknown momentum {which!r}")


# ---------------------------------------------------------------------------
# Quadrature oracle.
# ---------------------------------------------------------------------------

def _apply_momentum_pointwise(which: str, idx, pts, lb: float):
    """(Op psi_idx)(x) on sample points, from the exact gradient."""
    psi, g1, g2 = basis_with_gradient(idx, pts, lb)
    x1, x2 = pts[..., 0], pts[..., 1]
    if which == "K1":
        return -1j * lb * g1 - x2 / (2.0 * lb) * psi
    if which == "K2":
        return -1j * lb * g2 + x1 / (2.0 * lb) * psi
    if which == "G1":
        return -1j * lb * g2 - x1 / (2.0 * lb) * psi
    if which == "G2":
        return -1j * lb * g1 + x2 / (2.0 * lb) * psi
    raise ValueError(f"unknown momentum {which!r}")


def momentum_quadrature(which: str, bra, ket, lb=1.0, scheme: QuadratureScheme | None = None):
    """<psi_bra, Op psi_ket> by tensor quadrature (the phase-pinning oracle)."""
    l = _lb_value(lb)
    nb, mb = _index_pair(bra)
    nk, mk = _index_pair(ket)
    if scheme is None:
        scheme = QuadratureScheme(default_radius(max(nb, nk) + 1, max(mb, mk) + 1))
    pts, w = scheme.grid(l)
    op_ket = _apply_momentum_pointwise(which, (nk, mk), pts, l)
    bra_vals = eval_basis_function((nb, mb), pts, l)
    return complex(np.sum(w * np.conj(bra_vals) * op_ket))


def gram_matrix(max_total: int, lb=1.0, scheme: QuadratureScheme | None = None):
    """Quadrature overlaps <psi_a, psi_b> for all indices with n + m <= max_total.

    Returns (labels, gram) with gram[a, b] the overlap; orthonormality says
    gram is the identity up to quadrature error.
    """
    l = _lb_value(lb)
    if scheme is None:
        scheme = QuadratureScheme(default_radius(max_total, max_total))
    labels = [(n, m) for n in range(max_total + 1) for m in range(max_total + 1 - n)]
    pts, w = scheme.grid(l)
    vals = np.stack([eval_basis_function(ix, pts, l) for ix in labels])
    gram = (np.conj(vals) * w) @ vals.T
    return labels, gram


def verify_ladder_phases(lb=1.0, n_sub: int = 3, m_sub: int = 3,
                         scheme: QuadratureScheme | None = None,
                         tol: float = 1e-6) -> float:
    """Compare the ladder tables against the quadrature oracle entrywise.

    Checks every matrix element of the four momenta inside the sub-block
    n < n_sub, m < m_sub (the gradient evaluations are shared across the
    four operators).  Returns the worst deviation; raises
    PhaseConventionError beyond ``tol``.
    """
    l = _lb_value(lb)
    if scheme is None:
        scheme = QuadratureScheme(default_radius(n_sub + 1, m_sub + 1))
    pts, w = scheme.grid(l)
    x1, x2 = pts[..., 0], pts[..., 1]
    idxs = [(n, m) for n in range(n_sub) for m in range(m_sub)]
    bra_vals = {ix: w * np.conj(eval_basis_function(ix, pts, l)) for ix in idxs}
    closed = {which: momentum_matrix(which, n_sub, m_sub, l).toarray()
              for which in MOMENTA}
    worst = 0.0
    for ket in idxs:
        psi, g1, g2 = basis_with_gradient(ket, pts, l)
        op_ket = {
            "K1": -1j * l * g1 - x2 / (2.0 * l) * psi,
            "K2": -1j * l * g2 + x1 / (2.0 * l) * psi,
            "G1": -1j * l * g2 - x1 / (2.0 * l) * psi,
            "G2": -1j * l * g1 + x2 / (2.0 * l) * psi,
        }
        for which in MOMENTA:
            for bra in _ladder_targets(which, ket, n_sub, m_sub):
                got = complex(np.sum(bra_vals[bra] * op_ket[which]))
                want = closed[which][_flat(bra, n_sub), _flat(ket, n_sub)]
                worst = max(worst, abs(got - want))
    if worst > tol:
        raise PhaseConventionError(
            f"ladder rules vs quadrature disagree by {worst:.3e} (> {tol:.1e})"
        )
    return worst


def save_oracle_cache(path, n_sub: int, m_sub: int, lb=1.0,
                      scheme: QuadratureScheme | None = None):
    """Cache quadrature matrix elements: one record per entry.

    Text format, keyed by the truncation and rule in the header; records are
    ``which n m n' m' re im`` for every ladder-reachable entry.
    """
    l = _lb_value(lb)
    if scheme is None:
        scheme = QuadratureScheme(default_radius(n_sub + 1, m_sub + 1))
    with open(path, "w") as fh:
        fh.write(f"# n_max={n_sub} m_max={m_sub} lb={l:.12g} "
                 f"radius={scheme.radius:.12g} nodes={scheme.nodes_per_axis} "
                 f"rule={scheme.rule}\n")
        fh.write("which n m n2 m2 re im\n")
        for which in MOMENTA:
            for ket in [(n, m) for n in range(n_sub) for m in range(m_sub)]:
                for bra in _ladder_targets(which, ket, n_sub, m_sub):
                    v = momentum_quadrature(which, bra, ket, l, scheme)
                    fh.write(
                        f"{which} {ket[0]} {ket[1]} {bra[0]} {bra[1]} "
                        f"{v.real:.15g} {v.imag:.15g}\n"
                    )


def load_oracle_cache(path) -> dict:
    """Read a cache file back as {(which, n, m, n', m'): complex}."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("which"):
                continue
            which, n, m, n2, m2, re, im = line.split()
            out[(which, int(n), int(m), int(n2), int(m2))] = complex(
                float(re), float(im)
            )
    return out


def _flat(idx, n_max: int) -> int:
    n, m = idx
    return m * n_max + n


def _ladder_targets(which: str, ket, n_sub: int, m_sub: int):
    """Bra indices with a potentially nonzero element, plus same-site controls."""
    n, m = ket
    out = [(n, m)]
    if which in ("K1", "K2"):
        if n + 1 < n_sub:
            out.append((n + 1, m))
        if n - 1 >= 0:
            out.append((n - 1, m))
        if m + 1 < m_sub:
            out.append((n, m + 1))  # must be zero: K's keep m fixed
    else:
        if m + 1 < m_sub:
            out.append((n, m + 1))
        if m - 1 >= 0:
            out.append((n, m - 1))
        if n + 1 < n_sub:
            out.append((n + 1, m))  # must be zero: G's keep n fixed
    return out
