"""The three cyclic 2-cocycles and the integer pairings they compute.

Two evaluation tiers coexist deliberately.  The derivation-trace cocycle, the
gap label and the Chern number are exact finite computations on coefficient
blocks.  The phase-module quantities (noncommutative integral, the two
Dirac-operator characters, the graded two-form traces) are honest Dixmier
extrapolations over the degeneracy ladder; their agreement with the exact
tier is the content of the verification suite.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
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
    require_fits,
    sector_blocks,
    sector_represent,
    sector_weights,
)
from .spectra import (
    DEFAULT_LADDER,
    DIXMIER_REL_TOL,
    CocycleValue,
    _fit_arrays,
    dixmier_from_partial_sums,
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
    (``_fit_arrays``) for the blocks of every term, and one weighted
    accumulation: each block's fitted value is the column beside its sigma_N
    rungs (at the ladder's counts), summed over shifts from 0 and then over
    terms.  The |w|-weighted stderrs add in quadrature within a term and
    linearly across terms.

    The value is measurable when every block is.  A block whose top rung
    does not exceed its shift 1 + xi is not: its sector sums have not reached
    their logarithmic growth, and at a large enough shift they vanish in
    floating point.  The method is "dixmier-summable" when the fit reads
    every block as summable (the value is then exactly zero) and
    "dixmier-extrapolated" otherwise.  The output is checked finite once:
    finite input whose ladders leave double precision raises OverflowError,
    without floating-point warnings."""
    shape = (len(coefs), len(shifts), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.concatenate([shifted_resolvent_ladder(d, shifts, ladder)[1] for d in diags])
        ns, values, stderrs, sigmas, flags, summable = _fit_arrays(ladder, sums, DIXMIER_REL_TOL)
        rows = weights[:, :, None] * np.concatenate([sigmas, values[:, None]], 1).reshape(shape)
        total = (coefs[:, None] * rows.sum(axis=1)).sum(axis=0)
        spread = np.square(np.abs(weights) * stderrs.reshape(shape[:2]))
        error = float((np.abs(coefs) * np.sqrt(spread.sum(axis=1))).sum())
    measurable = bool(flags.all() and ladder[-1] > 1 + max(shifts))
    if not (np.isfinite(total).all() and isfinite(error)):
        raise OverflowError("the Dixmier ladders of this input overflow double precision")
    return CocycleValue(complex(total[-1]),
                        "dixmier-summable" if summable.all() else "dixmier-extrapolated",
                        error, measurable, total[:-1], ns)


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

def _fredholm_kernels(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
                      ctx: DiracContext, signs: np.ndarray) -> tuple[int, np.ndarray]:
    """The level window and the window matrices K_delta of route ii.

    The sector trace T(m) of Gamma pi(A0) [F, pi(A1)] [F, pi(A2)] is
    T(m) = sum_delta c_delta(m) W(m + delta)^T K_delta W(m), W(m) the row m
    of ``sector_weights``.  F = D diag(W), and D is block-tridiagonal in m
    (``sector_blocks``), so sector m's trace runs over the intermediate
    sectors m + delta, delta in (0, +1, -1), whose two D blocks carry the
    factor c = 1, m + 1, m.  Each of the four terms of [F, pi1][F, pi2] is
    tr(X diag(u) Y diag(v)) = u^T (Y o X^T) v with u = W(m + delta),
    v = W(m).  The window n < max support + 2 holds every level the product
    passes through, so T(m) is the lattice product's sector trace.  Returns
    the window's level count and the (3, 4 levels, 4 levels) stack of K_delta
    in the order delta = 0, +1, -1; ``signs`` are Gamma's spin signs
    (``GAMMA_SIGNS``).
    """
    levels = max(a.support_bound for a in (a0, a1, a2)) + 2
    p0, p1, p2 = (sector_represent(a, ctx, levels) for a in (a0, a1, a2))
    gp0 = np.tile(signs, levels)[:, None] * p0
    p2gp0 = p2 @ gp0
    # the four terms (X, Y): X = L D(m, m') on four left factors L and Y =
    # R D(m', m) (Y = -D(m', m) in the third), with D(m, m') = c' d_out and
    # D(m', m) = c'' d_back, for every delta in one stacked product each
    outs = sector_blocks(ctx, levels)    # M0, M+, M-
    backs = outs[[0, 2, 1]]
    x = np.stack([p2gp0, gp0, p2gp0 @ p1, gp0 @ p1]) @ outs[:, None]
    y = np.stack([p1, -p1 @ p2, p2]) @ backs[:, None]
    ys = (y[:, 0], y[:, 1], -backs, y[:, 2])
    return levels, sum(yt * x[:, t].swapaxes(-1, -2) for t, yt in enumerate(ys))


def _route_ii_windows(ctx: DiracContext) -> list[int]:
    """Route ii's sector windows m_max / 2^k, k < 6, at least 4 sectors each."""
    return sorted({max(4, ctx.m_max >> k) for k in range(6)})


@lru_cache(maxsize=8)
def _window_correlations(ctx: DiracContext, levels: int) -> np.ndarray:
    """A_delta(M) = sum_{m < M} c_delta(m) W(m + delta) W(m)^T at route ii's
    windows M, a read-only (windows, 3, 4 levels, 4 levels) real array.

    Route ii's window sums are bilinear, sum_{m < M} T(m) =
    sum_delta <K_delta, A_delta(M)> (``_fredholm_kernels``), and A depends
    on the context and the level window only: it is built once per
    (context, level window), one product per window segment with the three
    shifted weight tables stacked, and shared by every triple, which must
    not modify it.  At most 8 pairs are kept, 83 KB each at the window 6
    every support-4 triple reads.
    """
    w = sector_weights(ctx, levels)   # rows m = 0..m_max
    edges = [0, *_route_ii_windows(ctx)]
    segments = []
    for lo, hi in zip(edges, edges[1:]):
        c = np.arange(lo, hi, dtype=float)[:, None]
        # rows c_delta(m) W(m + delta), delta = 0, +1, -1, for m in [lo, hi)
        u = np.zeros((hi - lo, 3, 4 * levels))
        u[:, 0] = w[lo:hi]
        np.multiply(c + 1, w[lo + 1:hi + 1], out=u[:, 1])
        start = max(lo, 1)   # c = m is 0 at m = 0
        np.multiply(c[start - lo:], w[start - 1:hi - 1], out=u[start - lo:, 2])
        segments.append(u.reshape(hi - lo, -1).T @ w[lo:hi])
    out = np.cumsum(segments, axis=0).reshape(len(segments), 3, 4 * levels, 4 * levels)
    out.flags.writeable = False
    return out


def _route_ii_sums(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
                   ctx: DiracContext) -> np.ndarray:
    """sum_{m < M} T(m) at route ii's windows M, one contraction of the
    triple's kernels with the context's cached correlations."""
    levels, k = _fredholm_kernels(a0, a1, a2, ctx, GAMMA_SIGNS)
    a = _window_correlations(ctx, levels).reshape(-1, k.size)
    # real products, since a real-by-complex matmul costs more
    return a @ k.real.ravel() + 1j * (a @ k.imag.ravel())


def tau2(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
         ctx: DiracContext, route: str = "reduced",
         ladder=DEFAULT_LADDER) -> CocycleValue:
    """Half the graded trace of pi(A0) d pi(A1) d pi(A2).

    route "reduced": replace the two-form by its volume-weighted reduction
    (trace-class remainder dropped) and extrapolate the exact sector ladders.
    route "direct": the degeneracy-sector traces of
    Gamma pi(A0) [F, pi(A1)] [F, pi(A2)] at the context's truncation, summed
    over growing sector windows (``_route_ii_sums``: per-sector quadratic
    forms in the phase weights, contracted with the context's window
    correlations) and fitted against the logarithm of the sector count;
    coarser, with the larger provisional tolerance carried by the caller.
    """
    if route == "reduced":
        # with the trace-class remainder dropped, tau2 is the Dirac character
        return ch_dix(a0, a1, a2, ctx, ladder)
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")
    ms = _route_ii_windows(ctx)
    if len(ms) < 3:
        raise TruncationError(f"route ii needs three distinct sector windows; "
                              f"m_max {ctx.m_max} gives {ms}")
    require_fits(ctx, a0, a1, a2, margin=ctx.buffer)
    # the fit is linear, so the fit of the halved sums is the half
    return dixmier_from_partial_sums(ms, 0.5 * _route_ii_sums(a0, a1, a2, ctx), rel_tol=0.2)


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
