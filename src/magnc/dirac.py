"""Truncated magnetic Dirac operator, gradings, phases and defect operators.

Everything lives on the lattice (n, m, i): level index n < n_tot, degeneracy
index m < m_tot, spinor component i < 4, flattened degeneracy-major as
idx = (m * n_tot + n) * 4 + i.  The square of the Dirac operator is exactly
diagonal in this basis (Q + diag(-1, 0, +1, 0) blockwise), so regularized
inverse powers and the phase have exact matrix elements; truncation only cuts
rows and columns, and identities are asserted on the interior window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .algebra import MagneticElement, UnitalElement, spatial_derivative
from .basis import magnetic_length, number_ladders, require_same_length

__all__ = [
    "GAMMA",
    "GAMMA_GRADING",
    "GAMMA_SIGNS",
    "CHI_GRADING",
    "BLOCK_SHIFTS",
    "DiracContext",
    "QuartetOperator",
    "SectorBlocks",
    "InteriorIdentityError",
    "build_dirac",
    "split_dirac",
    "oscillator_energies",
    "reg_inverse",
    "dirac_phase",
    "phase_square_deviation",
    "represent",
    "sector_blocks",
    "sector_weights",
    "sector_represent",
    "commutator_with_D",
    "defect_operators",
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
    """Sparse operator on the truncated (n, m) lattice tensor C^4."""

    op: sp.csr_matrix
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
    """Largest |entry| of x - y over interior rows and columns."""
    d = x.op if y is None else (x.op - y.op).tocsr()
    mask = interior_mask(x.ctx, margin)
    coo = d.tocoo()
    keep = mask[coo.row] & mask[coo.col]
    if not np.any(keep):
        return 0.0
    return float(np.abs(coo.data[keep]).max())


def _kron3(a, b, c):
    return sp.kron(sp.kron(a, b, format="csr"), c, format="csr")


def build_dirac(ctx: DiracContext, check: bool = True) -> QuartetOperator:
    """D = (K1 g1 + K2 g2 + G1 g3 + G2 g4)/sqrt(2) on the truncated lattice.

    With ``check`` the diagonal identity D^2 = Q + diag(-1, 0, +1, 0) is
    asserted on the interior to 1e-10.
    """
    dm, dp = split_dirac(ctx)
    out = QuartetOperator((dm.op + dp.op).tocsr(), ctx)
    if check:
        sq = (out.op @ out.op).tocsr()
        target = sp.diags(oscillator_energies(ctx, include_eps=False))
        dev = max_interior_deviation(
            QuartetOperator(sq, ctx), QuartetOperator(target.tocsr(), ctx), margin=2
        )
        if dev > 1e-10:
            raise InteriorIdentityError(
                f"D^2 differs from its diagonal closed form by {dev:.3e} on the interior"
            )
    return out


def split_dirac(ctx: DiracContext) -> tuple[QuartetOperator, QuartetOperator]:
    """(D_minus, D_plus): level-ladder part and degeneracy-ladder part.

    The two parts touch disjoint entries (D_minus moves n, D_plus moves m),
    so their sum is D entry for entry.
    """
    im = sp.identity(ctx.m_tot, format="csr")
    inn = sp.identity(ctx.n_tot, format="csr")
    k1 = number_ladders(ctx.n_tot, "K1")
    k2 = number_ladders(ctx.n_tot, "K2")
    g1 = number_ladders(ctx.m_tot, "G1")
    g2 = number_ladders(ctx.m_tot, "G2")
    gam = [sp.csr_matrix(g) for g in GAMMA]
    dm = _kron3(im, k1, gam[0]) + _kron3(im, k2, gam[1])
    dp = _kron3(g1, inn, gam[2]) + _kron3(g2, inn, gam[3])
    # scaled in place (the same product a sparse ``/`` forms), sparing a
    # lattice-sized copy of each part
    dm.data *= 1 / np.sqrt(2.0)
    dp.data *= 1 / np.sqrt(2.0)
    return (
        QuartetOperator(dm.tocsr(), ctx),
        QuartetOperator(dp.tocsr(), ctx),
    )


class SectorBlocks(NamedTuple):
    """D and the grading on the level window of one degeneracy sector.

    D is block-tridiagonal in m: block (m, m) is ``m0``, block (m, m+1) is
    sqrt(m+1) ``plus`` and block (m, m-1) is sqrt(m) ``minus``; ``gamma`` is
    the grading's diagonal block.  Rows and columns are (n, i) in lattice
    order, n < the window's level count.
    """

    m0: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    gamma: np.ndarray


def _sector_block(t: QuartetOperator, m: int, m2: int, levels: int) -> np.ndarray:
    """Dense (m, m2) degeneracy block of a lattice operator, levels n < ``levels``."""
    block = 4 * t.ctx.n_tot
    rows = slice(m * block, m * block + 4 * levels)
    cols = slice(m2 * block, m2 * block + 4 * levels)
    return t.op[rows, cols].toarray()


def sector_blocks(ctx: DiracContext, levels: int) -> SectorBlocks:
    """The blocks of D and Gamma on the level window n < ``levels``: D's read
    off ``split_dirac`` on a two-sector copy of ``ctx``, Gamma's the tiled
    ``GAMMA_SIGNS``.

    Cached on that copy, so contexts differing only in m_max share one
    entry; building the blocks costs about as much as the quadratic forms
    of one direct-route Fredholm character.  The arrays are read-only.
    """
    if not 1 <= levels <= ctx.n_tot:
        raise ValueError(f"level window {levels} outside 1..{ctx.n_tot}")
    return _two_sector_blocks(replace(ctx, m_max=2), levels)


@lru_cache(maxsize=4)
def _two_sector_blocks(two: DiracContext, levels: int) -> SectorBlocks:
    dm, dp = split_dirac(two)
    blocks = SectorBlocks(_sector_block(dm, 0, 0, levels), _sector_block(dp, 0, 1, levels),
                          _sector_block(dp, 1, 0, levels),
                          np.diag(np.tile(GAMMA_SIGNS, levels)).astype(complex))
    for b in blocks:
        b.setflags(write=False)
    return blocks


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
    """Diagonal of D^2 (+ eps): (n + m + 1 + shift_i) + eps over the lattice."""
    return _energies(ctx.eps if include_eps else None, ctx.m_tot, ctx.n_tot)


def reg_inverse(ctx: DiracContext, s: float) -> QuartetOperator:
    """|D_eps|^{-s} = (D^2 + eps)^{-s/2}, exactly diagonal on the lattice."""
    if s < 1:
        raise ValueError("inverse power must satisfy s >= 1")
    e = oscillator_energies(ctx)
    if e.min() <= 0:
        raise ValueError("regularized spectrum not positive; need eps > 0")
    d = sp.diags(e ** (-s / 2.0)).tocsr()
    return QuartetOperator(d, ctx)


def sector_weights(ctx: DiracContext, levels: int) -> np.ndarray:
    """Row m is the diagonal of |D_eps|^-1 on the level window n < ``levels``
    of sector m, for m = 0..m_max (the sectors the first m_max couple to)."""
    e = _energies(ctx.eps, ctx.m_max + 1, levels)
    return (e ** -0.5).reshape(ctx.m_max + 1, 4 * levels)


def dirac_phase(ctx: DiracContext, check: bool = True) -> QuartetOperator:
    """F = D |D_eps|^{-1}; Hermitian compression with exact matrix elements.

    Built once per context and shared by every caller, which must not modify
    it; ``check`` asserts Hermiticity and the exact form of F^2 on the
    interior.
    """
    f = _phase(ctx)
    if check:
        herm = f.hermiticity_defect()
        if herm > 1e-12:
            raise InteriorIdentityError(f"Dirac phase not Hermitian: {herm:.3e}")
        dev = phase_square_deviation(ctx)
        if dev > 1e-10:
            raise InteriorIdentityError(
                f"F^2 - 1 + eps|D_eps|^-2 = {dev:.3e} on the interior"
            )
    return f


@lru_cache(maxsize=2)
def _phase(ctx: DiracContext) -> QuartetOperator:
    """The unchecked phase of ``ctx``.

    The two slots cover ``spectra.stable_spectrum``, which alternates between
    a context and its shrunken copy; the bound keeps a sweep over many
    truncations from holding every F it has built.
    """
    d = build_dirac(ctx, check=False)
    w = reg_inverse(ctx, 1.0)
    return QuartetOperator((d.op @ w.op).tocsr(), ctx)


def phase_square_deviation(ctx: DiracContext) -> float:
    """Largest interior |entry| of F^2 - (1 - eps |D_eps|^{-2}), margin 2."""
    f = _phase(ctx).op
    return max_interior_deviation(QuartetOperator((f @ f).tocsr(), ctx),
                                  exact_phase_square(ctx), margin=2)


def exact_phase_square(ctx: DiracContext) -> QuartetOperator:
    """F^2 = 1 - eps |D_eps|^{-2} as an exact diagonal operator."""
    d = sp.diags(1.0 - ctx.eps / oscillator_energies(ctx)).tocsr()
    return QuartetOperator(d, ctx)


def _lift_for(a, ctx: DiracContext) -> UnitalElement:
    """``a`` as a unital element, checked against the context's magnetic
    length and level truncation."""
    u = UnitalElement.lift(a)
    require_same_length(u.lb, ctx.lb, "element and context")
    if u.element.support_bound > ctx.n_max:
        raise ValueError(
            f"support {u.element.support_bound} exceeds the level truncation {ctx.n_max}"
        )
    return u


def represent(a, ctx: DiracContext) -> QuartetOperator:
    """Diagonal representation (c*1 + A) x 1_4 on the quartet space."""
    u = _lift_for(a, ctx)
    block = sp.csr_matrix(u.element.padded(ctx.n_tot))
    op = _kron3(sp.identity(ctx.m_tot, format="csr"), block, sp.identity(4, format="csr"))
    if u.scalar != 0:
        op = op + u.scalar * sp.identity(ctx.dim, format="csr")
    return QuartetOperator(op.tocsr(), ctx)


def sector_represent(a, ctx: DiracContext, levels: int) -> np.ndarray:
    """(c*1 + A) x 1_4 on the level window n < ``levels`` of one sector: the
    diagonal block of ``represent`` that ``sector_blocks``' window sees."""
    u = _lift_for(a, ctx)
    if u.element.support_bound > levels:
        raise ValueError(f"support {u.element.support_bound} exceeds the window {levels}")
    block = u.element.padded(levels)[:levels, :levels]
    return np.kron(block, np.eye(4)) + u.scalar * np.eye(4 * levels)


def commutator_with_D(a: MagneticElement, ctx: DiracContext,
                      check: bool = True) -> QuartetOperator:
    """[D, pi(A)], asserted equal to its derivation closed form on the interior.

    The closed form is grad_1 A x (i g2 / (sqrt2 l)) - grad_2 A x (i g1 / (sqrt2 l)),
    which couples this operator to the derivation convention of the algebra.
    """
    if a.support_bound >= ctx.n_max:
        raise ValueError("need support strictly below the level truncation minus one")
    d = build_dirac(ctx, check=False)
    pa = represent(a, ctx)
    comm = QuartetOperator((d.op @ pa.op - pa.op @ d.op).tocsr(), ctx)
    if check:
        im = sp.identity(ctx.m_tot, format="csr")
        scale = 1j / (np.sqrt(2.0) * ctx.lb)
        g1a = sp.csr_matrix(spatial_derivative(a, 1).padded(ctx.n_tot))
        g2a = sp.csr_matrix(spatial_derivative(a, 2).padded(ctx.n_tot))
        closed = _kron3(im, g1a, sp.csr_matrix(scale * GAMMA[1])) - _kron3(
            im, g2a, sp.csr_matrix(scale * GAMMA[0])
        )
        dev = max_interior_deviation(comm, QuartetOperator(closed.tocsr(), ctx), margin=2)
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
    the entries of [F, pi(A)] between equal signs, doubled.
    """
    if a.support_bound > ctx.n_max - ctx.buffer:
        raise ValueError("support must stay within the truncation minus the buffer")
    f = dirac_phase(ctx, check=False)
    pa = represent(a, ctx)
    fcomm = (f.op @ pa.op - pa.op @ f.op).tocsr()
    signs = np.tile(GAMMA_SIGNS, ctx.dim // 4)
    x = fcomm.tocoo()
    even = signs[x.row] == signs[x.col]
    r = sp.csr_matrix((2 * x.data[even], (x.row[even], x.col[even])), shape=fcomm.shape)
    fsq = exact_phase_square(ctx)
    fsq_comm = (fsq.op @ pa.op - pa.op @ fsq.op).tocsr()
    return {
        "R": QuartetOperator(r, ctx),
        "Fsq_comm": QuartetOperator(fsq_comm, ctx),
        "F_comm": QuartetOperator(fcomm, ctx),
    }
