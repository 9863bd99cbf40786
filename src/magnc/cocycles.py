"""The three cyclic 2-cocycles and the integer pairings they compute.

Two evaluation tiers coexist deliberately.  The derivation-trace cocycle, the
gap label and the Chern number are exact finite computations on coefficient
blocks.  The phase-module quantities (noncommutative integral, the two
Dirac-operator characters, the graded two-form traces) are honest Dixmier
extrapolations over the degeneracy ladder; their agreement with the exact
tier is the content of the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import sqrt
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
    dixmier_fits,
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

@dataclass
class CocycleValue:
    """A cocycle evaluation with its method tag, error bar, measurable flag
    and, on the Dixmier tier, its combined logarithmic means sigma_N."""

    value: complex
    method: str
    error: float = 0.0
    measurable: bool = True
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.error < 0:
            raise ValueError("error bar must be nonnegative")


class Cochain:
    """Multilinear functional on the unitized algebra.

    The evaluator takes one ``_Stack`` per slot, all of one batch and one
    level window, and returns the (batch,) array of values; a call on
    elements stacks them as a batch of one.
    """

    def __init__(self, degree: int, evaluator):
        if degree < 0:
            raise ValueError("cochain degree must be nonnegative")
        self.degree = degree
        self.evaluator = evaluator

    def __call__(self, *args) -> complex:
        if len(args) != self.degree + 1:
            raise ValueError(
                f"{self.degree}-cochain takes {self.degree + 1} arguments, got {len(args)}"
            )
        return complex(self.evaluator(*_stack(*args))[0])


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


def _deltas(z1: _Stack, z2: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """(delta0, delta1) of every pair, delta0 = grad_1 A1 grad_1 A2 +
    grad_2 A1 grad_2 A2, on one gradient per element and axis."""
    x, y = _gradient(z1), _gradient(z2)
    return x[0] @ y[0] + x[1] @ y[1], _delta1(x, y)


def _exact(z0: _Stack, z1: _Stack, z2: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """(Z0 delta0(Z1, Z2), Z0 delta1(Z1, Z2)), two (batch, s, s) arrays: the
    one path of the exact tier.  Its output is checked finite once: finite
    input whose products leave double precision raises OverflowError,
    without floating-point warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = z0.full()
        out = tuple(z @ d for d in _deltas(z1, z2))
    if not all(np.isfinite(p).all() for p in out):
        raise OverflowError("the exact cocycle of this input overflows double precision")
    return out


def _psi(z0: _Stack, z1: _Stack, z2: _Stack) -> np.ndarray:
    """psi of every entry, the trace of Z0 delta1(Z1, Z2): the scalar part of
    the first slot multiplies the plain trace of delta1."""
    return np.trace(_exact(z0, z1, z2)[1], axis1=1, axis2=2)


def psi(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement) -> CocycleValue:
    """The derivation-trace 2-cocycle, an exact finite computation."""
    return CocycleValue(complex(_psi(*_stack(a0, a1, a2))[0]), "exact-algebraic", 0.0)


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

def _dixmier_functional(terms, ladder) -> CocycleValue:
    """sum_t coef_t sum_(xi, w) w Tr_Dix((Q + xi)^{-1} S_t) over terms
    ``(coef, diag S, [(xi, w), ...])``: one ladder call per term for all its
    shifted blocks, and one extrapolation (``dixmier_fits``) for the blocks of
    every term.  The |w|-weighted stderrs add in quadrature within a term and
    linearly across terms; the value is measurable when every block is.  A
    block whose top rung does not exceed its shift 1 + xi is not: its sector
    sums have not reached their logarithmic growth, and at a large enough
    shift they vanish in floating point.  sigma_N takes the same weights.
    The output is checked finite once: finite input whose ladders leave
    double precision raises OverflowError, without floating-point warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [shifted_resolvent_ladder(diag, [xi for xi, _ in blocks], ladder)[1]
                for _, diag, blocks in terms]
        fits = iter(dixmier_fits(ladder, np.concatenate(sums), DIXMIER_REL_TOL))
        value, error, sigma, measurable = 0.0, 0.0, 0.0, True
        for coef, _, blocks in terms:
            ests = [(w, next(fits)) for _, w in blocks]
            value += coef * sum(w * e.value for w, e in ests)
            error += abs(coef) * sqrt(sum((abs(w) * e.stderr) ** 2 for w, e in ests))
            sigma = sigma + coef * sum(w * e.sigma for w, e in ests)
            measurable &= all(e.measurable for _, e in ests)
            measurable &= all(ladder[-1] > 1 + xi for xi, _ in blocks)
    if not (np.isfinite(value) and np.isfinite(error) and np.isfinite(sigma).all()):
        raise OverflowError("the Dixmier ladders of this input overflow double precision")
    return CocycleValue(value, "dixmier-extrapolated", error, measurable, sigma)


def nc_integral(a: MagneticElement, ctx: DiracContext,
                ladder=DEFAULT_LADDER) -> CocycleValue:
    """Quarter of the Dixmier trace of the volume-weighted representation.

    Extrapolated from exact sector partial sums; recovers the algebra trace
    on every finitely supported element.
    """
    require_fits(ctx, a)
    return _dixmier_functional(
        [(0.25, np.diag(a.block), [(xi, 1.0) for xi in ctx.shifted_energies()])], ladder)


def _graded_terms(coefs, z0: _Stack, z1: _Stack, z2: _Stack, ctx: DiracContext) -> list:
    """Terms of coef |D_eps|^{-2} [ -(1/2l^2) pi(Z0 d0) Gamma + (i/2l^2) pi(Z0 d1) ]
    over the four shifted blocks, Gamma carrying ``GAMMA_SIGNS``, for each
    batch entry and its coefficient in turn."""
    p0, p1 = (np.einsum("bii->bi", p) for p in _exact(z0, z1, z2))
    shifts = ctx.shifted_energies()
    terms = []
    for coef, g0, g1 in zip(coefs, p0, p1):
        c = coef / (2.0 * ctx.lb**2)
        terms += [(-c, g0, list(zip(shifts, GAMMA_SIGNS))),
                  (1j * c, g1, [(xi, 1.0) for xi in shifts])]
    return terms


def ch_dix(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
           ctx: DiracContext, ladder=DEFAULT_LADDER) -> CocycleValue:
    """The local (Dirac-operator) character, block-resolved and extrapolated.

    The grading-weighted part cancels across the four shifted blocks only
    after extrapolation; the identity-weighted part carries the value.
    """
    require_fits(ctx, a0, a1, a2, margin=ctx.buffer)
    return _dixmier_functional(_graded_terms([0.5], *_stack(a0, a1, a2), ctx), ladder)


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
    tr_chi = complex(np.trace(CHI_GRADING))
    tr_chi_gamma = complex(np.trace(CHI_GRADING @ GAMMA_GRADING))
    c = 0.5 / (2.0 * ctx.lb**2)
    (g0,), (g1,) = (np.einsum("bii->bi", p) for p in _exact(*_stack(a0, a1, a2)))
    v = _dixmier_functional([(-c, g0, [(ctx.eps, tr_chi)]),
                             (1j * c, g1, [(ctx.eps, tr_chi_gamma)])], ladder)
    return replace(v, method="spin-trace-factorized")


def graded_two_form_trace(a1: MagneticElement, a2: MagneticElement,
                          ctx: DiracContext, ladder=DEFAULT_LADDER) -> CocycleValue:
    """tr_Gamma(d pi(A1) d pi(A2)) through the trace-class reduction.

    Closedness of the graded trace makes this vanish for every pair.
    """
    require_fits(ctx, a1, a2, margin=ctx.buffer)
    return _dixmier_functional(
        _graded_terms([1.0], *_stack(UnitalElement.unit(ctx.lb), a1, a2), ctx), ladder)


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
        _graded_terms([1.0, -1.0], _join(x0, x0 @ x1), _join(x1 @ y0, y0), _join(y1, y1), ctx),
        ladder)


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
    blocks = sector_blocks(ctx, levels)
    p0, p1, p2 = (sector_represent(a, ctx, levels) for a in (a0, a1, a2))
    gp0 = np.tile(signs, levels)[:, None] * p0

    def kernel(d_out, d_back):
        # (X, Y) of the four terms, with D(m, m') = c' d_out, D(m', m) = c'' d_back
        terms = ((p2 @ gp0 @ d_out, p1 @ d_back), (gp0 @ d_out, -p1 @ p2 @ d_back),
                 (p2 @ gp0 @ p1 @ d_out, -d_back), (gp0 @ p1 @ d_out, p2 @ d_back))
        return sum(y * x.T for x, y in terms)

    return levels, np.stack([kernel(blocks.m0, blocks.m0), kernel(blocks.plus, blocks.minus),
                             kernel(blocks.minus, blocks.plus)])


def _route_ii_windows(ctx: DiracContext) -> list[int]:
    """Route ii's sector windows m_max / 2^k, k < 6, at least 4 sectors each."""
    return sorted({max(4, ctx.m_max >> k) for k in range(6)})


@lru_cache(maxsize=1)
def _context_correlations(ctx: DiracContext) -> dict:
    """Route ii's window correlations of one context by level window, filled
    by ``_window_correlations``.  One slot, like ``dirac._lattice``: a sweep
    over contexts holds only the last context's, and the next evicts them."""
    return {}


def _window_correlations(ctx: DiracContext, levels: int) -> np.ndarray:
    """A_delta(M) = sum_{m < M} c_delta(m) W(m + delta) W(m)^T at route ii's
    windows M, a read-only (windows, 3, 4 levels, 4 levels) real array.

    Route ii's window sums are bilinear, sum_{m < M} T(m) =
    sum_delta <K_delta, A_delta(M)> (``_fredholm_kernels``), and A depends
    on the context and the level window only: it is built once per
    (context, level window), one product per window segment with the three
    shifted weight tables stacked, kept in ``_context_correlations`` (at most
    one entry per level window) and shared by every triple, which must not
    modify it.
    """
    store = _context_correlations(ctx)
    if levels in store:
        return store[levels]
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
    store[levels] = out
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
    est = dixmier_from_partial_sums(np.array(ms, dtype=float), _route_ii_sums(a0, a1, a2, ctx),
                                    rel_tol=0.2)
    return CocycleValue(0.5 * est.value, "dixmier-direct-partial-trace", 0.5 * est.stderr,
                        est.measurable)


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
