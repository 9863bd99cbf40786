"""Truncated magnetic Dirac operator, gradings, phases and defect operators.

Everything lives on the lattice (n, m, i): level index n < n_tot, degeneracy
index m < m_tot, spinor component i < 4, flattened degeneracy-major as
idx = (m * n_tot + n) * 4 + i.  The square of the Dirac operator is exactly
diagonal in this basis (Q + diag(-1, 0, +1, 0) blockwise), so regularized
inverse powers and the phase have exact matrix elements; truncation only cuts
rows and columns, and identities are asserted on the interior window.  The
lattice operators are the reference; the checks read the same operators off
their sector blocks (``sector_blocks``) or as L-block stacks
(``defect_stacks``, ``phase_square_deviation``) without building the
lattice, so only the lattice builders import scipy.sparse.

Two bounded caches hold tables no element changes, read-only for every
caller: ``_lattice``, keyed on the context, one slot, the lattice D and F,
and ``_sector_blocks``, keyed on the level window, at most 32 windows, the
(3, 4 levels, 4 levels) stack M0, M+, M- that ``sector_blocks`` returns.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import MagneticElement, TruncationError, UnitalElement, spatial_derivative
from .basis import magnetic_length, number_ladders, require_same_length

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "GAMMA",
    "GAMMA_GRADING",
    "GAMMA_SIGNS",
    "CHI_GRADING",
    "BLOCK_SHIFTS",
    "DiracContext",
    "QuartetOperator",
    "InteriorIdentityError",
    "require_fits",
    "build_dirac",
    "oscillator_energies",
    "reg_inverse",
    "dirac_phase",
    "phase_square_deviation",
    "represent",
    "sector_blocks",
    "sector_represent",
    "commutator_with_D",
    "defect_operators",
    "defect_stacks",
    "interior_mask",
    "max_interior_deviation",
]

# Hermitian generators of Cl_4: gamma_i gamma_j + gamma_j gamma_i = 2 delta_ij.
GAMMA = (
    np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex),
    np.array([[0, 0, 0, 1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [-1j, 0, 0, 0]], dtype=complex),
    np.array([[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    np.array([[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]], dtype=complex),
)

# Grading used by the quasi-even structure and the (trivially pairing) one.
GAMMA_GRADING = 1j * GAMMA[0] @ GAMMA[1]          # diag(1, 1, -1, -1)
GAMMA_SIGNS = np.real(np.diag(GAMMA_GRADING)).copy()   # (+1, +1, -1, -1)
CHI_GRADING = GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]  # diag(-1, 1, -1, 1)

# D^2 = Q x 1 + diag(BLOCK_SHIFTS): derived from the gamma choice above.
BLOCK_SHIFTS = np.array([-1.0, 0.0, 1.0, 0.0])


class InteriorIdentityError(RuntimeError):
    """An operator identity failed on the interior of the truncation."""


@dataclass(frozen=True)
class DiracContext:
    """Physical and truncation parameters shared by all spectral computations."""

    lb: float = 1.0
    eps: float = 0.5
    n_max: int = 16
    m_max: int = 4096
    buffer: int = 4

    def __post_init__(self):
        object.__setattr__(self, "lb", magnetic_length(self.lb))
        # eps - 1 > -1 in floating point, exactly where the shifted resolvent
        # ladders have no pole; also rejects eps <= 0
        if not (np.isfinite(self.eps) and self.shifted_energies().min() > -1):
            raise ValueError(
                f"regularization must be finite and keep eps - 1 above -1, got {self.eps}"
            )
        if self.buffer < 2:
            raise ValueError("buffer must be >= 2")
        if self.n_max < 2 or self.m_max < 2:
            raise ValueError("truncation sizes must be >= 2")

    @property
    def n_tot(self) -> int:
        return self.n_max + self.buffer

    @property
    def m_tot(self) -> int:
        return self.m_max + self.buffer

    @property
    def dim(self) -> int:
        return 4 * self.n_tot * self.m_tot

    def shifted_energies(self) -> np.ndarray:
        """eps + BLOCK_SHIFTS, the four diagonal shifts of |D_eps|^2 blocks."""
        return self.eps + BLOCK_SHIFTS


@dataclass
class QuartetOperator:
    """Sparse operator on the truncated (n, m) lattice tensor C^4; an exact
    diagonal (``reg_inverse``, ``exact_phase_square``) is held as a
    ``dia_matrix`` of its diagonal, every other operator as CSR."""

    op: sp.csr_matrix | sp.dia_matrix
    ctx: DiracContext

    def hermiticity_defect(self) -> float:
        d = self.op - self.op.conj().T
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())

    def verify_m_diagonal(self) -> bool:
        """Degeneracy-diagonal: no entry couples two different sectors m."""
        coo = self.op.tocoo()
        block = 4 * self.ctx.n_tot
        return bool(np.all(coo.row // block == coo.col // block))


def interior_mask(ctx: DiracContext, margin: int | None = None) -> np.ndarray:
    """Boolean mask of lattice sites at distance >= margin from the edge."""
    if margin is None:
        margin = ctx.buffer
    n_ok = np.arange(ctx.n_tot) < ctx.n_tot - margin
    m_ok = np.arange(ctx.m_tot) < ctx.m_tot - margin
    site = np.outer(m_ok, n_ok).ravel()
    return np.repeat(site, 4)


def max_interior_deviation(x: QuartetOperator, y: QuartetOperator | None = None,
                           margin: int | None = None) -> float:
    """Largest |entry| of x - y over interior rows and columns.

    A y held as an exact diagonal is subtracted from x's diagonal only, the
    same entries, and the same float, as the sparse difference."""
    mask = interior_mask(x.ctx, margin)
    diagonal = y is not None and y.op.format == "dia" and not y.op.offsets.any()
    d = (x.op if y is None or diagonal else x.op - y.op).tocsr()
    rows = _entry_rows(d)
    keep = mask[rows] & mask[d.indices]
    if not diagonal:
        return float(np.abs(d.data[keep]).max(initial=0.0))
    on = (d.diagonal() - y.op.diagonal())[mask]
    off = d.data[keep & (rows != d.indices)]
    return float(max(np.abs(off).max(initial=0.0), np.abs(on).max(initial=0.0)))


def _entry_rows(m: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))


def _each_sector(ctx: DiracContext, block) -> sp.csr_matrix:
    """The lattice operator acting as ``block`` on every degeneracy sector."""
    import scipy.sparse as sp

    return sp.kron(sp.identity(ctx.m_tot, format="csr"), block, format="csr")


def sector_blocks(ctx: DiracContext, levels: int) -> np.ndarray:
    """D on the level window n < ``levels`` of one degeneracy sector: the
    read-only (3, 4 levels, 4 levels) stack M0, M+, M- of ``_sector_blocks``.

    D is block-tridiagonal in m: block (m, m) is M0, block (m, m+1) is
    sqrt(m+1) M+ and block (m, m-1) is sqrt(m) M-.  Rows and columns are
    (n, i) in lattice order.  The blocks are defined directly,
    M0 = (K1 g1 + K2 g2)/sqrt2 and M+- = 1 x (g3 +- i g4)/2, what
    (G1 g3 + G2 g4)/sqrt2 leaves once the degeneracy ladder's sqrt(m+1) and
    sqrt(m) are factored out, and depend on the window only; ``build_dirac``
    assembles the lattice D from exactly these blocks.  A window outside
    1..n_tot raises TruncationError.
    """
    if not 1 <= levels <= ctx.n_tot:
        raise TruncationError(f"level window {levels} outside 1..{ctx.n_tot}")
    return _sector_blocks(levels)


@lru_cache(maxsize=32)
def _sector_blocks(levels: int) -> np.ndarray:
    """M0, M+ and M- of the level window n < ``levels`` stacked in one
    read-only (3, 4 levels, 4 levels) array, built once per window."""
    s = 1 / np.sqrt(2.0)
    k1, k2 = (number_ladders(levels, k) for k in ("K1", "K2"))
    eye = np.eye(levels)
    blocks = np.stack([(np.kron(k1, GAMMA[0]) + np.kron(k2, GAMMA[1])) * s,
                       np.kron(eye, s * GAMMA[2] + 1j * s * GAMMA[3]) * s,
                       np.kron(eye, s * GAMMA[2] - 1j * s * GAMMA[3]) * s])
    blocks.flags.writeable = False
    return blocks


def build_dirac(ctx: DiracContext, check: bool = True) -> QuartetOperator:
    """D = (K1 g1 + K2 g2 + G1 g3 + G2 g4)/sqrt(2) on the truncated lattice,
    assembled as 1 x M0 + diag_+1(sqrt(m+1)) x M+ + diag_-1(sqrt m) x M-
    from ``sector_blocks``.

    Built once per context with F (``_lattice``) and shared by every caller,
    which must not modify it.  With ``check`` the diagonal identity
    D^2 = Q + diag(-1, 0, +1, 0) is asserted on the interior to 1e-10,
    compared on the diagonal.
    """
    import scipy.sparse as sp

    d = _lattice(ctx)[0]
    if check:
        q = QuartetOperator(sp.diags(oscillator_energies(ctx, include_eps=False)), ctx)
        dev = max_interior_deviation(QuartetOperator(d.op @ d.op, ctx), q, margin=2)
        if dev > 1e-10:
            raise InteriorIdentityError(
                f"D^2 differs from its diagonal closed form by {dev:.3e} on the interior"
            )
    return d


@lru_cache(maxsize=1)
def _lattice(ctx: DiracContext) -> tuple[QuartetOperator, QuartetOperator]:
    """The unchecked D and F of ``ctx``.

    One slot: the lattice builders of one context (a checked ``dirac_phase``
    and ``build_dirac``, ``commutator_with_D``, ``defect_operators``) share
    one D and one F, and a sweep over many truncations holds only the last
    pair.  F = D |D_eps|^-1 scales D's columns by the exact diagonal: each
    entry is the one product the sparse product D @ ``reg_inverse`` forms,
    and each row lists its entries in that product's order, D's reversed,
    so that F and every product with it are the sparse product's bit for bit.
    """
    import scipy.sparse as sp

    m0, plus, minus = sector_blocks(ctx, ctx.n_tot)
    root = np.sqrt(np.arange(1.0, ctx.m_tot))
    d = (_each_sector(ctx, m0) + sp.kron(sp.diags(root, 1), plus, format="csr")
         + sp.kron(sp.diags(root, -1), minus, format="csr"))
    ptr = d.indptr
    order = np.repeat(ptr[:-1] + ptr[1:] - 1, np.diff(ptr)) - np.arange(d.nnz)
    cols = d.indices[order]
    w = reg_inverse(ctx, 1.0).op.diagonal()
    f = sp.csr_matrix((d.data[order] * w[cols], cols, ptr), shape=d.shape)
    return QuartetOperator(d, ctx), QuartetOperator(f, ctx)


def _energies(eps: float | None, sectors: int, levels: int) -> np.ndarray:
    """(n + m + 1 + shift_i) (+ eps) for m < sectors, n < levels, in lattice order."""
    n = np.arange(levels)
    m = np.arange(sectors)
    q = (m[:, None] + n[None, :] + 1.0).ravel()
    e = q[:, None] + BLOCK_SHIFTS[None, :]
    if eps is not None:
        e = e + eps
    return e.ravel()


def oscillator_energies(ctx: DiracContext, include_eps: bool = True) -> np.ndarray:
    """Diagonal of D^2 (+ eps): (n + m + 1 + shift_i) + eps over the lattice.

    The entry at site (m, n, i) depends on k = m + n and i only: the energies
    are formed once per k < m_tot + n_tot - 1, and sector m's row is the
    window of that table from k = m on."""
    table = _energies(ctx.eps if include_eps else None, ctx.m_tot + ctx.n_tot - 1, 1)
    return sliding_window_view(table, 4 * ctx.n_tot)[::4].ravel()


def reg_inverse(ctx: DiracContext, s: float) -> QuartetOperator:
    """|D_eps|^{-s} = (D^2 + eps)^{-s/2}, exactly diagonal on the lattice
    (held as its diagonal)."""
    import scipy.sparse as sp

    if s < 1:
        raise ValueError("inverse power must satisfy s >= 1")
    e = oscillator_energies(ctx)
    if e.min() <= 0:
        raise ValueError("regularized spectrum not positive; need eps > 0")
    return QuartetOperator(sp.diags(e ** (-s / 2.0)), ctx)


def dirac_phase(ctx: DiracContext, check: bool = True) -> QuartetOperator:
    """F = D |D_eps|^{-1}; Hermitian compression with exact matrix elements.

    Built once per context with D (``_lattice``, D's columns scaled by the
    exact diagonal) and shared by every caller, which must not modify it;
    ``check`` asserts Hermiticity and the exact form of F^2 on the interior,
    here on the lattice with F^2 compared on the diagonal
    (``phase_square_deviation`` is the same deviation read off F's L-blocks).
    """
    f = _lattice(ctx)[1]
    if check:
        herm = f.hermiticity_defect()
        if herm > 1e-12:
            raise InteriorIdentityError(f"Dirac phase not Hermitian: {herm:.3e}")
        dev = max_interior_deviation(QuartetOperator((f.op @ f.op).tocsr(), ctx),
                                     exact_phase_square(ctx), margin=2)
        if dev > 1e-10:
            raise InteriorIdentityError(
                f"F^2 - 1 + eps|D_eps|^-2 = {dev:.3e} on the interior"
            )
    return f


def phase_square_deviation(ctx: DiracContext) -> float:
    """Largest interior |entry| of F^2 - (1 - eps |D_eps|^{-2}), margin 2,
    the lattice deviation of ``dirac_phase``'s check read off F's L-blocks
    on the full level window: F conserves L, so (F^2)_L = F_L F_L."""
    levels = ctx.n_tot
    f, e = _phase_blocks(ctx, levels, np.arange(ctx.m_tot))
    dev = f @ f
    del f
    # the exact form is diagonal: subtracted from the diagonal in place
    site = np.arange(4 * levels)
    dev[:, site, site] -= 1.0 - ctx.eps / e
    # the sector of each site of slot L: L, or L - 1 for s in {1, 2}
    m = (np.arange(ctx.m_tot)[:, None] - np.tile(_UPPER_SPINS, levels)) % ctx.m_tot
    inside = (m < ctx.m_tot - 2) & (np.repeat(np.arange(levels), 4) < levels - 2)
    dev[~(inside[:, :, None] & inside[:, None, :])] = 0
    return float(np.abs(dev).max(initial=0.0))


def exact_phase_square(ctx: DiracContext) -> QuartetOperator:
    """F^2 = 1 - eps |D_eps|^{-2} as an exact diagonal operator (held as its
    diagonal)."""
    import scipy.sparse as sp

    return QuartetOperator(sp.diags(1.0 - ctx.eps / oscillator_energies(ctx)), ctx)


def require_fits(ctx: DiracContext, *elements: MagneticElement, margin: int = 0):
    """The one check of elements against a context: each has its magnetic
    length and a support of at most n_max - ``margin``, else TruncationError."""
    for e in elements:
        require_same_length(e.lb, ctx.lb, "element and context")
        if e.support_bound > ctx.n_max - margin:
            raise TruncationError(f"support {e.support_bound} exceeds the level truncation "
                                  f"{ctx.n_max} less a margin of {margin}")


def represent(a, ctx: DiracContext) -> QuartetOperator:
    """Diagonal representation (c*1 + A) x 1_4 on the quartet space: the
    ``sector_represent`` block of the full level window in every sector."""
    return QuartetOperator(_each_sector(ctx, sector_represent(a, ctx, ctx.n_tot)), ctx)


_EYE4 = np.eye(4)
_EYE4.flags.writeable = False


def sector_represent(a, ctx: DiracContext, levels: int) -> np.ndarray:
    """(c*1 + A) x 1_4 on the level window n < ``levels`` of one sector, the
    window ``sector_blocks`` sees; A x 1_4 is A broadcast against 1_4, the
    products ``np.kron`` forms."""
    u = UnitalElement.lift(a)
    require_fits(ctx, u.element)
    block = u.element.padded(levels)[:, None, :, None] * _EYE4[:, None, :]
    return block.reshape(4 * levels, 4 * levels) + u.scalar * np.eye(4 * levels)


def commutator_with_D(a: MagneticElement, ctx: DiracContext,
                      check: bool = True) -> QuartetOperator:
    """[D, pi(A)], asserted equal to its derivation closed form on the interior.

    The closed form is grad_1 A x (i g2 / (sqrt2 l)) - grad_2 A x (i g1 / (sqrt2 l)),
    which couples this operator to the derivation convention of the algebra.
    """
    require_fits(ctx, a, margin=1)
    d = _lattice(ctx)[0]
    pa = represent(a, ctx)
    comm = QuartetOperator((d.op @ pa.op - pa.op @ d.op).tocsr(), ctx)
    if check:
        scale = 1j / (np.sqrt(2.0) * ctx.lb)
        g1a, g2a = (spatial_derivative(a, j).padded(ctx.n_tot) for j in (1, 2))
        closed = _each_sector(ctx, np.kron(g1a, scale * GAMMA[1])
                              - np.kron(g2a, scale * GAMMA[0]))
        dev = max_interior_deviation(comm, QuartetOperator(closed, ctx), margin=2)
        if dev > 1e-10:
            raise InteriorIdentityError(
                f"[D, pi(A)] differs from its derivation form by {dev:.3e}"
            )
    return comm


def defect_operators(a: MagneticElement, ctx: DiracContext) -> dict:
    """The three defect operators of the quasi-even structure for one element.

    R        = Gamma [F, pi(A)] Gamma + [F, pi(A)]
    Fsq_comm = [F^2, pi(A)]  (through the exact diagonal form of F^2)
    F_comm   = [F, pi(A)]

    Gamma is the exact sign diagonal GAMMA_SIGNS on every site, so R keeps
    the entries of [F, pi(A)] between equal signs, doubled; F^2 pi(A) and
    pi(A) F^2 scale pi(A)'s rows and columns by F^2's exact diagonal.
    """
    import scipy.sparse as sp

    require_fits(ctx, a, margin=ctx.buffer)
    f = _lattice(ctx)[1]
    pa = represent(a, ctx)
    fcomm = (f.op @ pa.op - pa.op @ f.op).tocsr()
    signs = np.tile(GAMMA_SIGNS, ctx.dim // 4)
    x = fcomm.tocoo()
    even = signs[x.row] == signs[x.col]
    r = sp.csr_matrix((2 * x.data[even], (x.row[even], x.col[even])), shape=fcomm.shape)
    fsq = exact_phase_square(ctx).op.diagonal()
    p = pa.op
    fsq_comm = (sp.csr_matrix((fsq[_entry_rows(p)] * p.data, p.indices, p.indptr), shape=p.shape)
                - sp.csr_matrix((p.data * fsq[p.indices], p.indices, p.indptr),
                                shape=p.shape)).tocsr()
    return {
        "R": QuartetOperator(r, ctx),
        "Fsq_comm": QuartetOperator(fsq_comm, ctx),
        "F_comm": QuartetOperator(fcomm, ctx),
    }


_UPPER_SPINS = np.array([False, True, True, False])   # s in {1, 2}


def _phase_blocks(ctx: DiracContext, levels: int,
                  ls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F's L-blocks at the labels ``ls`` (0 <= L < m_tot) on the level window
    n < ``levels``, a (len(ls), 4 levels, 4 levels) stack, with the
    (len(ls), 4 levels) energies (+ eps) of the blocks' sites.

    Block L holds the sites (m = L, s in {0, 3}) and (m = L - 1, s in
    {1, 2}) at position 4 n + s.  M0 keeps both groups and M+ (M-) maps
    s in {0, 3} to s in {1, 2} (back), so D_L = M0 + sqrt(L) (M+ + M-).  The
    half-empty edge blocks L = 0 and L = m_tot fill complementary positions
    and share label 0, where sqrt(0) keeps them apart.  F_L weights D_L's
    columns by |D_eps|^-1 of their sites.  The stack is formed in place, in
    one array of its size.
    """
    m0, plus, minus = sector_blocks(ctx, levels)
    # the sector of each site: L, or L - 1 for s in {1, 2} (label 0: m_tot - 1)
    m = (ls[:, None] - np.tile(_UPPER_SPINS, levels)) % ctx.m_tot
    e = (m + np.repeat(np.arange(levels), 4) + 1.0) + np.tile(BLOCK_SHIFTS, levels) + ctx.eps
    f = np.sqrt(ls.astype(float))[:, None, None] * (plus + minus)
    f += m0
    f *= e[:, None, :] ** -0.5
    return f, e


def defect_stacks(a: MagneticElement, ctx: DiracContext, levels: int) -> Mapping:
    """The three ``defect_operators`` as stacked L-blocks, (m_tot, 4 levels,
    4 levels) arrays, on the level window n < ``levels``.

    Each operator conserves L = m + [s in {1, 2}] and is built from F's
    L-blocks (``_phase_blocks``); a window one level past the support holds
    every entry.  [F, pi(A)] is formed here, in place, and held; R and
    [F^2, pi(A)] are formed from it and from pi(A)'s block at each read, so
    a caller holds each stack only while it needs it.
    """
    require_fits(ctx, a, margin=ctx.buffer)
    if a.support_bound >= levels:
        raise TruncationError(f"window {levels} must pass the support {a.support_bound}")
    p = sector_represent(a, ctx, levels)
    f, e = _phase_blocks(ctx, levels, np.arange(ctx.m_tot))
    fcomm = f @ p
    fcomm -= p @ f
    return _DefectStacks(fcomm, p, 1.0 - ctx.eps / e, np.tile(GAMMA_SIGNS, levels))


class _DefectStacks(Mapping):
    """``defect_stacks``' read of one element: "F_comm" is the held stack,
    "R" and "Fsq_comm" a new stack at each read, each formed in place."""

    def __init__(self, fcomm: np.ndarray, p: np.ndarray, fsq: np.ndarray, signs: np.ndarray):
        self._fcomm, self._p, self._fsq = fcomm, p, fsq
        self._odd = signs[:, None] != signs[None, :]

    def __getitem__(self, key: str) -> np.ndarray:
        if key == "F_comm":
            return self._fcomm
        if key == "R":
            # Gamma's exact sign diagonal keeps the entries between equal signs
            r = 2 * self._fcomm
            r[:, self._odd] = 0
            return r
        if key == "Fsq_comm":
            # F^2's exact diagonal scales pi(A)'s rows and columns
            out = self._fsq[:, :, None] * self._p
            out -= self._p * self._fsq[:, None, :]
            return out
        raise KeyError(key)

    def __iter__(self):
        return iter(("R", "Fsq_comm", "F_comm"))

    def __len__(self) -> int:
        return 3
