"""Reference constructions shared by the tests: lattice-sized operators,
and the exact cocycle tier as a chain of ``MagneticElement`` objects."""

from functools import cache, reduce

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from magnc.algebra import UnitalElement, compose, spatial_derivative, trace_int
from magnc.basis import number_ladders
from magnc.dirac import (BLOCK_SHIFTS, GAMMA_SIGNS, defect_stacks, reg_inverse, sector_blocks,
                         sector_represent)
from magnc.spectra import classify_decay, stable_spectrum


def momentum_matrix(which: str, n_max: int, m_max: int) -> sp.csr_matrix:
    """Matrix of one momentum on the truncated (n, m) lattice.

    Layout: index = m * n_max + n (degeneracy-major).  The matrices are
    dimensionless (coordinates in units of l), hence independent of lb.
    """
    if n_max < 2 or m_max < 2:
        raise ValueError("truncation sizes must be >= 2")
    if which in ("K1", "K2"):
        return sp.kron(sp.identity(m_max), number_ladders(n_max, which), format="csr")
    if which in ("G1", "G2"):
        return sp.kron(number_ladders(m_max, which), sp.identity(n_max), format="csr")
    raise ValueError(f"unknown momentum {which!r}")


def kron_dirac(ctx) -> sp.csr_matrix:
    """D as the sum of three ``sp.kron`` products of the sector blocks with
    the degeneracy diagonals 1, diag_+1(sqrt(m+1)) and diag_-1(sqrt m)."""
    m0, plus, minus = sector_blocks(ctx, ctx.n_tot)
    root = np.sqrt(np.arange(1.0, ctx.m_tot))
    return (sp.kron(sp.identity(ctx.m_tot, format="csr"), m0, format="csr")
            + sp.kron(sp.diags(root, 1), plus, format="csr")
            + sp.kron(sp.diags(root, -1), minus, format="csr"))


def product_phase(ctx, d: sp.csr_matrix) -> sp.csr_matrix:
    """F = D @ |D_eps|^-1 as a generic sparse product with a CSR diagonal."""
    return (d @ reg_inverse(ctx, 1.0).op.tocsr()).tocsr()


def commutator(x: sp.csr_matrix, y: sp.csr_matrix) -> sp.csr_matrix:
    """x @ y - y @ x from two generic sparse products."""
    return (x @ y - y @ x).tocsr()


def defect_products(f: sp.csr_matrix, pa: sp.csr_matrix, fsq: sp.csr_matrix,
                    signs: np.ndarray) -> dict:
    """R, Fsq_comm and F_comm from generic sparse products, F^2 a CSR
    diagonal; R keeps the entries of [F, pi(A)] between equal ``signs``,
    doubled."""
    fcomm = commutator(f, pa)
    x = fcomm.tocoo()
    even = signs[x.row] == signs[x.col]
    r = sp.csr_matrix((2 * x.data[even], (x.row[even], x.col[even])), shape=fcomm.shape)
    return {"R": r, "Fsq_comm": commutator(fsq, pa), "F_comm": fcomm}


def pattern_block_svdvals(op: sp.spmatrix) -> np.ndarray:
    """The min(shape) singular values of a sparse matrix, descending: one
    dense SVD per connected block of its nonzero pattern (rows and columns
    joined by a nonzero entry), and zeros for the rank the blocks lack."""
    op = sp.csr_matrix(op)
    pattern = op != 0
    n_comp, labels = connected_components(sp.bmat([[None, pattern], [pattern.T, None]]),
                                          directed=False)
    rows, cols = labels[: op.shape[0]], labels[op.shape[0]:]
    blocks = [scipy.linalg.svdvals(op[rows == c][:, cols == c].toarray())
              for c in range(n_comp) if (rows == c).any() and (cols == c).any()]
    mu = np.concatenate(blocks + [np.zeros(min(op.shape) - sum(map(len, blocks)))])
    return np.sort(mu)[::-1]


def sparse_deviation(x: sp.csr_matrix, y: sp.spmatrix, mask: np.ndarray) -> float:
    """Largest |entry| of the sparse difference x - y over rows and columns
    in ``mask``."""
    d = (x - y).tocsr().tocoo()
    keep = mask[d.row] & mask[d.col]
    return float(np.abs(d.data[keep]).max()) if np.any(keep) else 0.0


def sector_energies(ctx, levels: int, sectors: int) -> np.ndarray:
    """Row m is the diagonal of D^2 + eps on the level window n < ``levels``
    of sector m, for m < ``sectors``."""
    m = np.arange(sectors)[:, None, None]
    n = np.arange(levels)[None, :, None]
    return ((m + n + 1.0) + BLOCK_SHIFTS + ctx.eps).reshape(sectors, 4 * levels)


def fredholm_sector_traces(a0, a1, a2, ctx) -> np.ndarray:
    """Sector traces T(m), m < m_max, of Gamma pi(A0) [F, pi(A1)] [F, pi(A2)]
    as one quadratic form per sector, T(m) = sum_delta c_delta(m)
    W(m + delta)^T K_delta W(m), W(m) the diagonal of |D_eps|^-1 on sector m
    (``fredholm_kernels`` states the kernels K_delta)."""
    levels = max(a.support_bound for a in (a0, a1, a2)) + 2
    k0, k_plus, k_minus = fredholm_kernels(a0, a1, a2, ctx, GAMMA_SIGNS)

    def form(u, k, v):
        # u^T k v row by row, in real products
        return np.sum((u @ k.real) * v, axis=1) + 1j * np.sum((u @ k.imag) * v, axis=1)

    w = sector_energies(ctx, levels, ctx.m_max + 1) ** -0.5   # rows m = 0..m_max
    v = w[:-1]
    m = np.arange(ctx.m_max)
    t = form(v, k0, v)
    t += (m + 1) * form(w[1:], k_plus, v)
    t[1:] += m[1:] * form(w[:-2], k_minus, v[1:])
    return t


def fredholm_closed_form(a0, a1, a2, ctx) -> tuple[complex, complex]:
    """The 1/m coefficient c of the sector traces, expanded in 1/m with
    W(m)_i = (m + a_i)^-1/2: c = 1^T K0 1 - 1/2 sum_ij (K+ + K-)_ij (a_i + a_j),
    a the energies of sector 0.  Returns (c / 2, 1^T (K+ + K-) 1); the first
    is tau2 when the second, the O(1) coefficient, vanishes."""
    levels = max(a.support_bound for a in (a0, a1, a2)) + 2
    k0, k_plus, k_minus = fredholm_kernels(a0, a1, a2, ctx, GAMMA_SIGNS)
    a = sector_energies(ctx, levels, 1)[0]
    k = k_plus + k_minus
    return 0.5 * (k0.sum() - 0.5 * np.sum(k * (a[:, None] + a[None, :]))), k.sum()


def fredholm_kernels(a0, a1, a2, ctx, signs) -> np.ndarray:
    """The (3, 4 levels, 4 levels) stack of K_delta, delta = 0, +1, -1, on the
    level window max support + 2, each kernel as twelve separate products.

    F = D diag(W), and D is block-tridiagonal in m (``sector_blocks``), so
    sector m's trace runs over the intermediate sectors m + delta, whose two
    D blocks carry the factor c = 1, m + 1, m.  Each of the four terms of
    [F, pi1][F, pi2] is tr(X diag(u) Y diag(v)) = u^T (Y o X^T) v with
    u = W(m + delta), v = W(m); ``signs`` are Gamma's spin signs."""
    levels = max(a.support_bound for a in (a0, a1, a2)) + 2
    m0, plus, minus = sector_blocks(ctx, levels)
    p0, p1, p2 = (sector_represent(a, ctx, levels) for a in (a0, a1, a2))
    gp0 = np.tile(signs, levels)[:, None] * p0

    def kernel(d_out, d_back):
        terms = ((p2 @ gp0 @ d_out, p1 @ d_back), (gp0 @ d_out, -p1 @ p2 @ d_back),
                 (p2 @ gp0 @ p1 @ d_out, -d_back), (gp0 @ p1 @ d_out, p2 @ d_back))
        return sum(y * x.T for x, y in terms)

    return np.stack([kernel(m0, m0), kernel(plus, minus), kernel(minus, plus)])


def gradient(a):
    """(grad_1 A, grad_2 A) as elements."""
    return spatial_derivative(a, 1), spatial_derivative(a, 2)


def delta1(x, y):
    """delta1 from the gradients x of A1 and y of A2, as an element."""
    return compose(x[0], y[1]) - compose(x[1], y[0])


def deltas(a1, a2):
    """(delta0, delta1) of one pair as elements, on one gradient per element
    and axis."""
    x, y = gradient(a1), gradient(a2)
    return compose(x[0], y[0]) + compose(x[1], y[1]), delta1(x, y)


def psi(u0, u1, u2) -> complex:
    """The derivation-trace cocycle on unital elements, one object per
    intermediate: u0's scalar times tr delta1, plus tr(A0 delta1)."""
    u0, u1, u2 = (UnitalElement.lift(u) for u in (u0, u1, u2))
    d1 = deltas(u1.element, u2.element)[1]
    return u0.scalar * trace_int(d1) + trace_int(compose(u0.element, d1))


def hochschild_b(phi, args) -> complex:
    """The coboundary sum of a cochain given as a function of unital
    elements, term by term on unital products."""
    args = [UnitalElement.lift(a) for a in args]
    total = 0j
    for j in range(len(args) - 1):
        total += (-1.0) ** j * phi(*args[:j], args[j] @ args[j + 1], *args[j + 2:])
    return total + (-1.0) ** (len(args) - 1) * phi(args[-1] @ args[0], *args[1:-1])


def quasi_even_from_one_table(ctx, test_set) -> dict:
    """``spectra.verify_quasi_even`` with every defect stack of both
    truncations built into one table at the first product and held to the
    end: the verdicts any release order must reproduce exactly."""
    levels = max(a.support_bound for a in test_set) + 1

    @cache
    def table(c) -> list[dict]:
        return [dict(defect_stacks(a, c, levels)) for a in test_set]

    def verdict(*factors):
        def build(c):
            return reduce(np.matmul, [table(c)[i][key] for i, key in factors])
        return classify_decay(stable_spectrum(build, ctx))

    n = len(test_set)
    return {"F_comm": [verdict((i, "F_comm")) for i in range(n)],
            "Fsq_comm": [verdict((i, "Fsq_comm")) for i in range(n)],
            "left": [verdict((i, "R"), (i + 1, "F_comm")) for i in range(n - 1)],
            "right": [verdict((i + 1, "F_comm"), (i, "R")) for i in range(n - 1)],
            "triple": [verdict((i, "F_comm"), (i + 1, "F_comm"), (i + 2, "F_comm"))
                       for i in range(n - 2)]}
