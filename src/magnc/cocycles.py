"""The three cyclic 2-cocycles and the integer pairings they compute.

Two evaluation tiers coexist deliberately.  The derivation-trace cocycle, the
gap label and the Chern number are exact finite computations on coefficient
blocks.  The phase-module quantities (noncommutative integral, the two
Dirac-operator characters, the graded two-form traces) are honest Dixmier
extrapolations over the degeneracy ladder; their agreement with the exact
tier is the content of the verification suite.  The Fredholm-module
character's direct route is a finite trace too: the 1/L coefficient of its
L-block traces, read off the Dirac operator's sector blocks and witnessed
by an extrapolation of the phase's blocks.
"""

from __future__ import annotations

from dataclasses import replace
from math import isfinite
from typing import NamedTuple

import numpy as np

from .algebra import (
    MagneticElement,
    TruncationError,
    UnitalElement,
    _k_ladders,
    is_projection,
    trace_int,
)
from .basis import require_same_length
from .dirac import (
    CHI_GRADING,
    GAMMA_GRADING,
    GAMMA_SIGNS,
    DiracContext,
    _phase_blocks,
    require_fits,
    sector_blocks,
    sector_represent,
)
from .spectra import (
    DEFAULT_LADDER,
    DIXMIER_REL_TOL,
    CocycleValue,
    _dixmier_arrays,
    _ROUNDING,
    _weights_at_zero,
    shifted_resolvent_ladder,
)

__all__ = [
    "CocycleValue",
    "Cochain",
    "psi",
    "gap_label",
    "chern_number",
    "nc_integral",
    "ch_dix",
    "ch_hat",
    "graded_two_form_trace",
    "graded_one_form_product_trace",
    "tau2",
    "hochschild_b",
    "psi_cochain",
]


class Cochain:
    """Multilinear functional on the unitized algebra, as ``hochschild_b``
    reads it: the evaluator takes one ``_Stack`` per slot, all of one batch
    and one level window, and returns the (batch,) array of values."""

    def __init__(self, degree: int, evaluator):
        if degree < 0:
            raise ValueError("cochain degree must be nonnegative")
        self.degree = degree
        self.evaluator = evaluator


# ---------------------------------------------------------------------------
# Exact tier: coefficient blocks stacked on one level window.
# ---------------------------------------------------------------------------

class _Stack(NamedTuple):
    """A batch of unital elements c 1 + A on one level window s: scalars c
    (batch,) and blocks A (batch, s, s) at the magnetic length ``lb``."""

    scalar: np.ndarray
    block: np.ndarray
    lb: float

    def full(self) -> np.ndarray:
        """c 1 + A on the window."""
        return self.block + self.scalar[:, None, None] * np.eye(self.block.shape[-1])

    def __matmul__(self, other: "_Stack") -> "_Stack":
        # (c 1 + A)(c' 1 + A') = c c' 1 + (A A' + c A' + c' A); an overflow
        # surfaces in the checked output of ``_exact``
        with np.errstate(over="ignore", invalid="ignore"):
            block = (self.block @ other.block + self.scalar[:, None, None] * other.block
                     + other.scalar[:, None, None] * self.block)
        return _Stack(self.scalar * other.scalar, block, self.lb)


def _join(*stacks: _Stack) -> _Stack:
    """One batch of the stacks' entries, in order."""
    return _Stack(np.concatenate([z.scalar for z in stacks]),
                  np.concatenate([z.block for z in stacks]), stacks[0].lb)


def _stack(*args) -> list[_Stack]:
    """Each argument (an element or a unital element) as a batch of one on
    the window s = largest stored block + 1, padded once.  Products of the
    arguments stay supported below s, and s holds their gradients exactly.
    Arguments at different magnetic lengths raise ValueError."""
    units = [UnitalElement.lift(a) for a in args]
    lb = units[0].lb
    for u in units[1:]:
        require_same_length(lb, u.lb, "elements")
    s = 1 + max(u.element.block.shape[0] for u in units)
    return [_Stack(np.array([u.scalar]), u.element.padded(s)[None], lb) for u in units]


def _gradient(z: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """(grad_1 A, grad_2 A) of every entry, two (batch, s, s) arrays:
    -i l [K2, A] and +i l [K1, A] (units drop under the derivations)."""
    k1, k2 = _k_ladders(z.block.shape[-1])
    a = z.block
    return -1j * z.lb * (k2 @ a - a @ k2), 1j * z.lb * (k1 @ a - a @ k1)


def _delta1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """delta1 = grad_1 A1 grad_2 A2 - grad_2 A1 grad_1 A2 from the gradients
    x of A1 and y of A2, the curl-type bilinear."""
    return x[0] @ y[1] - x[1] @ y[0]


def _pair_gradients(z1: _Stack, z2: _Stack) -> tuple[tuple, tuple]:
    """The gradients x of every A1 and y of every A2, from one gradient call
    on both slots' entries."""
    b = len(z1.block)
    g1, g2 = _gradient(_join(z1, z2))
    return (g1[:b], g2[:b]), (g1[b:], g2[b:])


def _deltas(z1: _Stack, z2: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """(delta0, delta1) of every pair, delta0 = grad_1 A1 grad_1 A2 +
    grad_2 A1 grad_2 A2."""
    x, y = _pair_gradients(z1, z2)
    return x[0] @ y[0] + x[1] @ y[1], _delta1(x, y)


def _exact(z0: _Stack, z1: _Stack, z2: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """(Z0 delta0(Z1, Z2), Z0 delta1(Z1, Z2)), two (batch, s, s) arrays,
    checked finite once: finite input whose products leave double precision
    raises OverflowError, without floating-point warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = z0.full()
        out = tuple(z @ d for d in _deltas(z1, z2))
    if not all(np.isfinite(p).all() for p in out):
        raise OverflowError("the exact cocycle of this input overflows double precision")
    return out


def _psi(z0: _Stack, z1: _Stack, z2: _Stack) -> np.ndarray:
    """psi of every entry, the trace of Z0 delta1(Z1, Z2) (delta0 is not
    formed), with Z0 delta1 checked finite as ``_exact`` checks its output."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = z0.full() @ _delta1(*_pair_gradients(z1, z2))
    if not np.isfinite(p).all():
        raise OverflowError("the exact cocycle of this input overflows double precision")
    return np.trace(p, axis1=1, axis2=2)


def psi(a0, a1, a2) -> CocycleValue:
    """The derivation-trace 2-cocycle on elements or unital elements, an
    exact finite computation."""
    return CocycleValue(complex(_psi(*_stack(a0, a1, a2))[0]), "exact-algebraic", 0.0, True)


def _require_projection(p: MagneticElement):
    if not is_projection(p):
        raise ValueError("input is not a projection (P* = P = P^2 fails)")


def gap_label(p: MagneticElement) -> float:
    """Trace pairing of a projection class; an integer for honest projections."""
    _require_projection(p)
    val = trace_int(p)
    if abs(val.imag) > 1e-9:
        raise ValueError(f"projection trace came out non-real: {val}")
    return float(val.real)


def chern_number(p: MagneticElement) -> float:
    """(i / l^2) times the derivation-trace cocycle on (P, P, P)."""
    _require_projection(p)
    val = (1j / p.lb**2) * psi(p, p, p).value
    if abs(val.imag) > 1e-8:
        raise ValueError(f"Chern pairing came out non-real: {val}")
    return float(val.real)


# ---------------------------------------------------------------------------
# Dixmier tier: block ladders over the shifted oscillator resolvents.
# ---------------------------------------------------------------------------

def _dixmier_functional(coefs, diags, weights, shifts, ladder) -> CocycleValue:
    """sum_t coef_t sum_i w_ti Tr_Dix((Q + xi_i)^{-1} S_t) over the terms t
    on one list of shifts xi: ``coefs`` (terms,), the diagonals ``diags``
    (terms, s) of the S_t and ``weights`` w (terms, shifts).  One ladder
    call per term for all its shifted blocks, one extrapolation
    (``_dixmier_arrays``) for the blocks of every term, and one weighted
    accumulation: each block's value is the column beside its sigma_N rungs
    (at the ladder's counts), summed over shifts from 0 and then over terms.
    The error is the linear bound sum_t |coef_t| sum_i |w_ti| error_ti.

    The value is measurable when every block is.  A block whose top rung
    does not exceed its shift 1 + xi is not: its sector sums have not reached
    their logarithmic growth, and at a large enough shift they vanish in
    floating point.  The output is checked finite once:
    finite input whose ladders leave double precision raises OverflowError,
    without floating-point warnings."""
    shape = (len(coefs), len(shifts), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.concatenate([shifted_resolvent_ladder(d, shifts, ladder)[1] for d in diags])
        ns, values, errors, sigmas, flags = _dixmier_arrays(ladder, sums, DIXMIER_REL_TOL)
        rows = weights[:, :, None] * np.concatenate([sigmas, values[:, None]], 1).reshape(shape)
        total = (coefs[:, None] * rows.sum(axis=1)).sum(axis=0)
        spread = np.abs(weights) * errors.reshape(shape[:2])
        error = float((np.abs(coefs) * spread.sum(axis=1)).sum())
    measurable = bool(flags.all() and ladder[-1] > 1 + max(shifts))
    if not (np.isfinite(total).all() and isfinite(error)):
        raise OverflowError("the Dixmier ladders of this input overflow double precision")
    return CocycleValue(complex(total[-1]), "dixmier-extrapolated", error, measurable,
                        total[:-1], ns)


# weights of the four shifted blocks: Gamma's spin signs (row 0) and the
# identity's (row 1)
_BLOCK_WEIGHTS = np.stack([GAMMA_SIGNS, np.ones_like(GAMMA_SIGNS)])


def nc_integral(a: MagneticElement, ctx: DiracContext,
                ladder=DEFAULT_LADDER) -> CocycleValue:
    """Quarter of the Dixmier trace of the volume-weighted representation.

    Extrapolated from exact sector partial sums; recovers the algebra trace
    on every finitely supported element.
    """
    require_fits(ctx, a)
    return _dixmier_functional(np.array([0.25]), np.diag(a.block)[None], _BLOCK_WEIGHTS[1:],
                               ctx.shifted_energies(), ladder)


def _graded_terms(coefs, z0: _Stack, z1: _Stack, z2: _Stack, ctx: DiracContext) -> tuple:
    """The terms (coefs, diags, weights) of coef |D_eps|^{-2} [ -(1/2l^2)
    pi(Z0 d0) Gamma + (i/2l^2) pi(Z0 d1) ] over the four shifted blocks
    (``ctx.shifted_energies()``), Gamma carrying ``GAMMA_SIGNS``: the d0 and
    the d1 term of each batch entry and its coefficient in turn."""
    c = np.asarray(coefs) / (2.0 * ctx.lb**2)
    diags = np.einsum("tbii->bti", np.array(_exact(z0, z1, z2)))
    return (np.array([-c, 1j * c]).T.ravel(), diags.reshape(2 * len(c), -1),
            np.concatenate([_BLOCK_WEIGHTS] * len(c)))


def ch_dix(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
           ctx: DiracContext, ladder=DEFAULT_LADDER) -> CocycleValue:
    """The local (Dirac-operator) character, block-resolved and extrapolated.

    The grading-weighted part cancels across the four shifted blocks only
    after extrapolation; the identity-weighted part carries the value.
    """
    require_fits(ctx, a0, a1, a2, margin=ctx.buffer)
    return _dixmier_functional(*_graded_terms([0.5], *_stack(a0, a1, a2), ctx),
                               ctx.shifted_energies(), ladder)


def ch_hat(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
           ctx: DiracContext, ladder=DEFAULT_LADDER) -> CocycleValue:
    """The character twisted by the anticommuting grading; vanishes termwise.

    Through the spin-trace factorization at a common diagonal shift (the
    block value is shift-independent) each term is one extrapolated ladder
    at the shift eps, weighted by tr(chi) or tr(chi Gamma).  Both traces are
    exactly zero, so the two extrapolations are still made (and flag the
    value when not measurable) but the weighted result is zero at float
    accuracy.
    """
    require_fits(ctx, a0, a1, a2, margin=ctx.buffer)
    coefs, diags, _ = _graded_terms([0.5], *_stack(a0, a1, a2), ctx)
    traces = np.trace(np.array([CHI_GRADING, CHI_GRADING @ GAMMA_GRADING]), axis1=1, axis2=2)
    v = _dixmier_functional(coefs, diags, traces[:, None], (ctx.eps,), ladder)
    return replace(v, method="spin-trace-factorized")


def graded_two_form_trace(a1: MagneticElement, a2: MagneticElement,
                          ctx: DiracContext, ladder=DEFAULT_LADDER) -> CocycleValue:
    """tr_Gamma(d pi(A1) d pi(A2)) through the trace-class reduction.

    Closedness of the graded trace makes this vanish for every pair.
    """
    require_fits(ctx, a1, a2, margin=ctx.buffer)
    return _dixmier_functional(
        *_graded_terms([1.0], *_stack(UnitalElement.unit(ctx.lb), a1, a2), ctx),
        ctx.shifted_energies(), ladder)


def two_form_scale(a1: MagneticElement, a2: MagneticElement, lb: float) -> float:
    """Reference magnitude for closedness checks: the size of the pieces
    whose cancellation is being asserted."""
    (d0,), (d1,) = _exact(*_stack(UnitalElement.unit(lb), a1, a2))
    return max(abs(np.trace(d0)), np.linalg.norm(d0), np.linalg.norm(d1), 1e-12) / (2.0 * lb**2)


def graded_one_form_product_trace(x0, x1: MagneticElement, y0, y1: MagneticElement,
                                  ctx: DiracContext,
                                  ladder=DEFAULT_LADDER) -> CocycleValue:
    """tr_Gamma(omega1 omega2) for one-forms omega = pi(.) d pi(.).

    Splits the middle factor with the derivation property of the
    quasi-differential, then reduces both three-factor terms.
    """
    require_fits(ctx, *(UnitalElement.lift(a).element for a in (x0, x1, y0, y1)),
                 margin=ctx.buffer)
    x0, x1, y0, y1 = _stack(x0, x1, y0, y1)
    # [F, pi(X1)] pi(Y0) = [F, pi(X1 Y0)] - pi(X1) [F, pi(Y0)]
    return _dixmier_functional(
        *_graded_terms([1.0, -1.0], _join(x0, x0 @ x1), _join(x1 @ y0, y0), _join(y1, y1), ctx),
        ctx.shifted_energies(), ladder)


# ---------------------------------------------------------------------------
# The Fredholm-module character, both evaluation routes.
# ---------------------------------------------------------------------------

def tau2(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
         ctx: DiracContext, route: str = "reduced",
         ladder=DEFAULT_LADDER) -> CocycleValue:
    """Half the graded trace of pi(A0) d pi(A1) d pi(A2).

    route "reduced": replace the two-form by its volume-weighted reduction
    (trace-class remainder dropped) and extrapolate the exact sector ladders.

    route "direct": the leading coefficient of the Fredholm module.  F's
    L-blocks are F_L = (sqrt(L) P + M0) (L + b)^-1/2 with P = M+ + M- and
    D_L^2 = L + b diagonal (``sector_blocks``): a series in L^-1/2 whose odd
    terms are Gamma-odd.  P commutes with pi(A), so the block trace
    T_L = tr(Gamma pi(A0) [F_L, pi(A1)] [F_L, pi(A2)]) starts at 1/L and has
    integer powers of 1/L only, and the Dixmier trace reads its 1/L
    coefficient: tau2 = 1/2 tr(Gamma pi(A0) [M0, pi(A1)] [M0, pi(A2)]) on
    the level window max support + 2, which holds every level the product
    passes through.  The error is 16 u times a bound on the sum of |terms|
    of that trace (u = 2^-53).  The value is measurable when [P, pi(A1)] and
    [P, pi(A2)] vanish within the same rule and the witness agrees: L T_L at
    the five L = m_max / 2^k, k < 5, from F's blocks, extrapolated to
    1/L = 0 at degree 4 and halved, lies within half its gap |degree 4 -
    degree 3| plus the rounding bounds of both.  The witness alone reads F,
    and needs its five L above the series radius max b = levels + eps, else
    TruncationError.
    """
    if route == "reduced":
        # with the trace-class remainder dropped, tau2 is the Dirac character
        return ch_dix(a0, a1, a2, ctx, ladder)
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")
    require_fits(ctx, a0, a1, a2, margin=ctx.buffer)
    levels = max(a.support_bound for a in (a0, a1, a2)) + 2
    ls = ctx.m_max >> np.arange(5)
    if not ls[-1] > levels + ctx.eps:
        raise TruncationError(f"route ii's witness needs five distinct L = m_max / 2^k, k < 5, "
                              f"above the series radius max b = {levels + ctx.eps:g}; "
                              f"m_max {ctx.m_max} gives {ls.tolist()}")
    m0, plus, minus = sector_blocks(ctx, levels)
    p = plus + minus
    p0, p1, p2 = (sector_represent(a, ctx, levels) for a in (a0, a1, a2))
    gp0 = np.tile(GAMMA_SIGNS, levels)[:, None] * p0
    # tr(Gamma pi(A0) [X, pi(A1)] [X, pi(A2)]) for X = M0 (the value), P
    # (which must commute) and the F_L (the witness)
    x = np.concatenate([m0[None], p[None], _phase_blocks(ctx, levels, ls)[0]])
    weights = _weights_at_zero(ls)
    with np.errstate(over="ignore", invalid="ignore"):
        c1, c2 = (x @ q - q @ x for q in (p1, p2))
        t = np.sum((gp0 @ c1) * c2.swapaxes(-1, -2), axis=(-1, -2))
        # the sums of |terms| bounded by Frobenius norms: |tr(X Y Z)| <=
        # |X| |Y| |Z| and |[X, q]| <= 2 |X| |q|, with |F_L| <= |P| + |M0|
        # entrywise since (L + b)^-1/2 <= min(1, L^-1/2) on block L
        n0, n1, n2, n_m0, n_p = (np.linalg.norm(y) for y in (p0, p1, p2, m0, p))
        error = 2 * _ROUNDING * n0 * n1 * n2 * n_m0**2
        rounding = 2 * _ROUNDING * n0 * n1 * n2 * (n_m0 + n_p)**2 * (np.abs(weights) @ ls)
    if not (np.isfinite(t).all() and isfinite(rounding)):
        raise OverflowError("route ii's traces of this input overflow double precision")
    value = 0.5 * t[0]
    commuting = (np.abs(c1[1]).max() <= 2 * _ROUNDING * n_p * n1
                 and np.abs(c2[1]).max() <= 2 * _ROUNDING * n_p * n2)
    witness = weights @ (ls * t[2:])
    gap = abs(witness - _weights_at_zero(ls[:4]) @ (ls[:4] * t[2:6]))
    agrees = abs(value - 0.5 * witness) <= 0.5 * gap + rounding + error
    return CocycleValue(complex(value), "fredholm-leading-coefficient", float(error),
                        bool(commuting and agrees))


# ---------------------------------------------------------------------------
# Hochschild machinery.
# ---------------------------------------------------------------------------

def _coboundary(phi: Cochain, zs) -> np.ndarray:
    """b phi on a batch of (n+2)-tuples, one ``_Stack`` per slot: the n + 2
    terms, alternating inner contractions plus the wrap-around term, as one
    evaluation of phi on stacked merged arguments."""
    zs, k = list(zs), len(zs)
    prods = [zs[j] @ zs[(j + 1) % k] for j in range(k)]
    terms = [zs[:j] + [prods[j]] + zs[j + 2:] for j in range(k - 1)] + [[prods[-1]] + zs[1:-1]]
    slots = [_join(*column) for column in zip(*terms)]
    return (-1.0) ** np.arange(k) @ phi.evaluator(*slots).reshape(k, -1)


def hochschild_b(phi: Cochain, args) -> complex:
    """The coboundary sum on an (n+2)-tuple of elements or unital elements:
    alternating inner contractions plus the wrap-around term."""
    n = phi.degree
    if len(args) != n + 2:
        raise ValueError(f"b of a {n}-cochain takes {n + 2} arguments, got {len(args)}")
    return complex(_coboundary(phi, _stack(*args))[0])


def psi_cochain() -> Cochain:
    """The derivation-trace cocycle on the unitization (units drop under
    the derivations; the scalar part of the first slot multiplies the plain
    trace of the curl bilinear)."""
    return Cochain(2, _psi)
