"""Truncated magnetic Dirac operator, gradings, phases and defect operators.

Everything lives on the lattice (n, m, i): level index n < n_tot, degeneracy
index m < m_tot, spinor component i < 4, flattened degeneracy-major as
idx = (m * n_tot + n) * 4 + i.  The square of the Dirac operator is exactly
diagonal in this basis (Q + diag(-1, 0, +1, 0) blockwise), so regularized
inverse powers and the phase have exact matrix elements; truncation only cuts
rows and columns, and identities are asserted on the interior window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .algebra import MagneticElement, UnitalElement, spatial_derivative
from .basis import MagneticLength, number_ladders

__all__ = [
    "GAMMA",
    "GAMMA_GRADING",
    "CHI_GRADING",
    "BLOCK_SHIFTS",
    "DiracContext",
    "QuartetOperator",
    "InteriorIdentityError",
    "build_dirac",
    "split_dirac",
    "oscillator_energies",
    "reg_inverse",
    "dirac_phase",
    "gamma_grading",
    "chi_grading",
    "represent",
    "commutator_with_D",
    "defect_operators",
    "dual_landau_projection",
    "interior_mask",
    "max_interior_deviation",
    "sector_traces",
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
        lb = self.lb if isinstance(self.lb, MagneticLength) else MagneticLength(self.lb)
        object.__setattr__(self, "lb", lb.lb)
        if not (self.eps > 0 and np.isfinite(self.eps)):
            raise ValueError(f"regularization must be positive and finite, got {self.eps}")
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
    diag_in_m: bool = False
    name: str = ""

    def __matmul__(self, other):
        if isinstance(other, QuartetOperator):
            return QuartetOperator(
                (self.op @ other.op).tocsr(), self.ctx,
                self.diag_in_m and other.diag_in_m,
                f"({self.name}@{other.name})",
            )
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, QuartetOperator):
            return QuartetOperator(
                (self.op + other.op).tocsr(), self.ctx,
                self.diag_in_m and other.diag_in_m,
                f"({self.name}+{other.name})",
            )
        return NotImplemented

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, c):
        if np.isscalar(c):
            return QuartetOperator(
                (c * self.op).tocsr(), self.ctx, self.diag_in_m, self.name
            )
        return NotImplemented

    __rmul__ = __mul__

    def dagger(self) -> "QuartetOperator":
        return QuartetOperator(
            self.op.conj().T.tocsr(), self.ctx, self.diag_in_m, self.name + "*"
        )

    def diagonal(self) -> np.ndarray:
        return self.op.diagonal()

    def hermiticity_defect(self) -> float:
        d = self.op - self.op.conj().T
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())

    def verify_m_diagonal(self) -> bool:
        """Structural check of the diag_in_m flag: no cross-sector entries."""
        coo = self.op.tocoo()
        block = 4 * self.ctx.n_tot
        return bool(np.all(coo.row // block == coo.col // block))


def _flatten_index(ctx: DiracContext):
    return lambda n, m, i: (m * ctx.n_tot + n) * 4 + i


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


def _sp_gamma(g) -> sp.csr_matrix:
    return sp.csr_matrix(g)


def build_dirac(ctx: DiracContext, check: bool = True) -> QuartetOperator:
    """D = (K1 g1 + K2 g2 + G1 g3 + G2 g4)/sqrt(2) on the truncated lattice.

    With ``check`` the diagonal identity D^2 = Q + diag(-1, 0, +1, 0) is
    asserted on the interior to 1e-10.
    """
    im = sp.identity(ctx.m_tot, format="csr")
    inn = sp.identity(ctx.n_tot, format="csr")
    k1 = number_ladders(ctx.n_tot, "K1")
    k2 = number_ladders(ctx.n_tot, "K2")
    g1 = number_ladders(ctx.m_tot, "G1")
    g2 = number_ladders(ctx.m_tot, "G2")
    d = (
        _kron3(im, k1, _sp_gamma(GAMMA[0]))
        + _kron3(im, k2, _sp_gamma(GAMMA[1]))
        + _kron3(g1, inn, _sp_gamma(GAMMA[2]))
        + _kron3(g2, inn, _sp_gamma(GAMMA[3]))
    ) / np.sqrt(2.0)
    out = QuartetOperator(d.tocsr(), ctx, diag_in_m=False, name="D")
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
    """(D_minus, D_plus): level-ladder part and degeneracy-ladder part."""
    im = sp.identity(ctx.m_tot, format="csr")
    inn = sp.identity(ctx.n_tot, format="csr")
    k1 = number_ladders(ctx.n_tot, "K1")
    k2 = number_ladders(ctx.n_tot, "K2")
    g1 = number_ladders(ctx.m_tot, "G1")
    g2 = number_ladders(ctx.m_tot, "G2")
    dm = (_kron3(im, k1, _sp_gamma(GAMMA[0])) + _kron3(im, k2, _sp_gamma(GAMMA[1]))) / np.sqrt(2.0)
    dp = (_kron3(g1, inn, _sp_gamma(GAMMA[2])) + _kron3(g2, inn, _sp_gamma(GAMMA[3]))) / np.sqrt(2.0)
    return (
        QuartetOperator(dm.tocsr(), ctx, diag_in_m=True, name="D-"),
        QuartetOperator(dp.tocsr(), ctx, diag_in_m=False, name="D+"),
    )


def oscillator_energies(ctx: DiracContext, include_eps: bool = True) -> np.ndarray:
    """Diagonal of D^2 (+ eps): (n + m + 1 + shift_i) + eps over the lattice."""
    n = np.arange(ctx.n_tot)
    m = np.arange(ctx.m_tot)
    q = (m[:, None] + n[None, :] + 1.0).ravel()
    e = q[:, None] + BLOCK_SHIFTS[None, :]
    if include_eps:
        e = e + ctx.eps
    return e.ravel()


def reg_inverse(ctx: DiracContext, s: float) -> QuartetOperator:
    """|D_eps|^{-s} = (D^2 + eps)^{-s/2}, exactly diagonal on the lattice."""
    if s < 1:
        raise ValueError("inverse power must satisfy s >= 1")
    e = oscillator_energies(ctx)
    if e.min() <= 0:
        raise ValueError("regularized spectrum not positive; need eps > 0")
    d = sp.diags(e ** (-s / 2.0)).tocsr()
    return QuartetOperator(d, ctx, diag_in_m=True, name=f"|D_eps|^-{s}")


def dirac_phase(ctx: DiracContext, check: bool = True) -> QuartetOperator:
    """F = D |D_eps|^{-1}; Hermitian compression with exact matrix elements."""
    d = build_dirac(ctx, check=False)
    w = reg_inverse(ctx, 1.0)
    f = QuartetOperator((d.op @ w.op).tocsr(), ctx, diag_in_m=False, name="F")
    if check:
        herm = f.hermiticity_defect()
        if herm > 1e-12:
            raise InteriorIdentityError(f"Dirac phase not Hermitian: {herm:.3e}")
        fsq = (f.op @ f.op).tocsr()
        target = sp.diags(1.0 - ctx.eps / oscillator_energies(ctx)).tocsr()
        dev = max_interior_deviation(
            QuartetOperator(fsq, ctx), QuartetOperator(target, ctx), margin=2
        )
        if dev > 1e-10:
            raise InteriorIdentityError(
                f"F^2 - 1 + eps|D_eps|^-2 = {dev:.3e} on the interior"
            )
    return f


@lru_cache(maxsize=2)
def cached_phase(ctx: DiracContext) -> QuartetOperator:
    """The unchecked phase F of ``ctx``, shared by the defect operators and
    the direct route of the Fredholm character; callers must not modify it.

    The two slots cover ``spectra.stable_spectrum``, which alternates between
    a context and its shrunken copy; the bound keeps a sweep over many
    truncations from holding every F it has built.
    """
    return dirac_phase(ctx, check=False)


def exact_phase_square(ctx: DiracContext) -> QuartetOperator:
    """F^2 = 1 - eps |D_eps|^{-2} as an exact diagonal operator."""
    d = sp.diags(1.0 - ctx.eps / oscillator_energies(ctx)).tocsr()
    return QuartetOperator(d, ctx, diag_in_m=True, name="F^2")


def gamma_grading(ctx: DiracContext) -> QuartetOperator:
    """The quasi-even grading, diag(+1, +1, -1, -1) on the spinor factor."""
    site = sp.identity(ctx.n_tot * ctx.m_tot, format="csr")
    g = sp.kron(site, sp.csr_matrix(GAMMA_GRADING), format="csr")
    return QuartetOperator(g, ctx, diag_in_m=True, name="Gamma")


def chi_grading(ctx: DiracContext) -> QuartetOperator:
    """The anticommuting grading, diag(-1, +1, -1, +1) on the spinor factor."""
    site = sp.identity(ctx.n_tot * ctx.m_tot, format="csr")
    g = sp.kron(site, sp.csr_matrix(CHI_GRADING), format="csr")
    return QuartetOperator(g, ctx, diag_in_m=True, name="chi")


def represent(a, ctx: DiracContext) -> QuartetOperator:
    """Diagonal representation (c*1 + A) x 1_4 on the quartet space."""
    u = UnitalElement.lift(a)
    if abs(u.lb - ctx.lb) > 1e-15 * max(u.lb, ctx.lb):
        raise ValueError("element and context magnetic lengths differ")
    if u.element.support_bound > ctx.n_max:
        raise ValueError(
            f"support {u.element.support_bound} exceeds the level truncation {ctx.n_max}"
        )
    block = sp.csr_matrix(u.element.padded(ctx.n_tot))
    op = _kron3(sp.identity(ctx.m_tot, format="csr"), block, sp.identity(4, format="csr"))
    if u.scalar != 0:
        op = op + u.scalar * sp.identity(ctx.dim, format="csr")
    return QuartetOperator(op.tocsr(), ctx, diag_in_m=True, name="pi(A)")


def commutator_with_D(a: MagneticElement, ctx: DiracContext,
                      check: bool = True, tol: float = 1e-10) -> QuartetOperator:
    """[D, pi(A)], asserted equal to its derivation closed form on the interior.

    The closed form is grad_1 A x (i g2 / (sqrt2 l)) - grad_2 A x (i g1 / (sqrt2 l)),
    which couples this operator to the derivation convention of the algebra.
    """
    if a.support_bound >= ctx.n_max:
        raise ValueError("need support strictly below the level truncation minus one")
    d = build_dirac(ctx, check=False)
    pa = represent(a, ctx)
    comm = QuartetOperator(
        (d.op @ pa.op - pa.op @ d.op).tocsr(), ctx, diag_in_m=False, name="[D,pi(A)]"
    )
    if check:
        im = sp.identity(ctx.m_tot, format="csr")
        scale = 1j / (np.sqrt(2.0) * ctx.lb)
        g1a = sp.csr_matrix(spatial_derivative(a, 1).padded(ctx.n_tot))
        g2a = sp.csr_matrix(spatial_derivative(a, 2).padded(ctx.n_tot))
        closed = _kron3(im, g1a, _sp_gamma(scale * GAMMA[1])) - _kron3(
            im, g2a, _sp_gamma(scale * GAMMA[0])
        )
        dev = max_interior_deviation(comm, QuartetOperator(closed.tocsr(), ctx), margin=2)
        if dev > tol:
            raise InteriorIdentityError(
                f"[D, pi(A)] differs from its derivation form by {dev:.3e}"
            )
    return comm


def defect_operators(a: MagneticElement, ctx: DiracContext) -> dict:
    """The three defect operators of the quasi-even structure for one element.

    R        = Gamma [F, pi(A)] Gamma + [F, pi(A)]
    Fsq_comm = [F^2, pi(A)]  (through the exact diagonal form of F^2)
    gamma_F_anticomm = {Gamma, F}
    """
    if a.support_bound > ctx.n_max - ctx.buffer:
        raise ValueError("support must stay within the truncation minus the buffer")
    f = cached_phase(ctx)
    pa = represent(a, ctx)
    g = gamma_grading(ctx)
    fcomm = (f.op @ pa.op - pa.op @ f.op).tocsr()
    r = (g.op @ fcomm @ g.op + fcomm).tocsr()
    fsq = exact_phase_square(ctx)
    fsq_comm = (fsq.op @ pa.op - pa.op @ fsq.op).tocsr()
    anti = (g.op @ f.op + f.op @ g.op).tocsr()
    return {
        "R": QuartetOperator(r, ctx, name="R(A)"),
        "Fsq_comm": QuartetOperator(fsq_comm, ctx, diag_in_m=True, name="[F^2,pi(A)]"),
        "gamma_F_anticomm": QuartetOperator(anti, ctx, name="{Gamma,F}"),
        "F_comm": QuartetOperator(fcomm, ctx, name="[F,pi(A)]"),
    }


def dual_landau_projection(ctx: DiracContext, m: int) -> QuartetOperator:
    """P_m: projection onto the m-th degeneracy sector (all n, all spinors)."""
    if not 0 <= m < ctx.m_tot:
        raise ValueError("sector index out of range")
    e = sp.csr_matrix(
        (np.ones(1), (np.array([m]), np.array([m]))), shape=(ctx.m_tot, ctx.m_tot)
    )
    op = _kron3(e, sp.identity(ctx.n_tot, format="csr"), sp.identity(4, format="csr"))
    return QuartetOperator(op.tocsr(), ctx, diag_in_m=True, name=f"P_{m}")


def sector_traces(t: QuartetOperator, m_stop: int | None = None) -> np.ndarray:
    """Per-degeneracy-sector traces of the diagonal, sectors m < m_stop."""
    ctx = t.ctx
    if m_stop is None:
        m_stop = ctx.m_max
    d = t.op.diagonal()
    block = 4 * ctx.n_tot
    d = d[: m_stop * block]
    return d.reshape(m_stop, block).sum(axis=1)
