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
from math import sqrt

import numpy as np

from .algebra import (
    MagneticElement,
    UnitalElement,
    compose,
    is_projection,
    norms,
    spatial_derivative,
    trace_int,
)
from .basis import require_same_length
from .dirac import (
    CHI_GRADING,
    GAMMA_GRADING,
    GAMMA_SIGNS,
    DiracContext,
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
    "TruncationError",
    "Cochain",
    "delta0",
    "delta1",
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
    """Multilinear functional on the unitized algebra."""

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
        return complex(self.evaluator(*[UnitalElement.lift(a) for a in args]))


# ---------------------------------------------------------------------------
# Exact tier.
# ---------------------------------------------------------------------------

def delta0(a1: MagneticElement, a2: MagneticElement) -> MagneticElement:
    """grad_1 A1 grad_1 A2 + grad_2 A1 grad_2 A2."""
    return compose(spatial_derivative(a1, 1), spatial_derivative(a2, 1)) + compose(
        spatial_derivative(a1, 2), spatial_derivative(a2, 2)
    )


def delta1(a1: MagneticElement, a2: MagneticElement) -> MagneticElement:
    """grad_1 A1 grad_2 A2 - grad_2 A1 grad_1 A2, the curl-type bilinear."""
    return compose(spatial_derivative(a1, 1), spatial_derivative(a2, 2)) - compose(
        spatial_derivative(a1, 2), spatial_derivative(a2, 1)
    )


def psi(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement) -> CocycleValue:
    """The derivation-trace 2-cocycle, an exact finite computation."""
    val = trace_int(compose(a0, delta1(a1, a2)))
    return CocycleValue(val, "exact-algebraic", 0.0)


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

class TruncationError(ValueError):
    """An input does not fit the context's truncation: an element's support
    beyond the level cut, or too few sectors for route ii's windows."""


def _support_check(ctx: DiracContext, *els: MagneticElement, margin: int = 0):
    for e in els:
        require_same_length(e.lb, ctx.lb, "element and context")
        if e.support_bound > ctx.n_max - margin:
            raise TruncationError(
                f"support {e.support_bound} exceeds truncation {ctx.n_max} - {margin}"
            )


def _dixmier_functional(terms, ladder) -> CocycleValue:
    """sum_t coef_t sum_(xi, w) w Tr_Dix((Q + xi)^{-1} S_t) over terms
    ``(coef, S, [(xi, w), ...])``: one ladder call per term for all its
    shifted blocks, and one extrapolation (``dixmier_fits``) for the blocks of
    every term.  The |w|-weighted stderrs add in quadrature within a term and
    linearly across terms; the value is measurable when every block is.  A
    block whose top rung does not exceed its shift 1 + xi is not: its sector
    sums have not reached their logarithmic growth, and at a large enough
    shift they vanish in floating point.  sigma_N takes the same weights."""
    sums = [shifted_resolvent_ladder(s_el, [xi for xi, _ in blocks], ladder)[1]
            for _, s_el, blocks in terms]
    fits = iter(dixmier_fits(ladder, np.concatenate(sums), DIXMIER_REL_TOL))
    value, error, sigma, measurable = 0.0, 0.0, 0.0, True
    for coef, _, blocks in terms:
        ests = [(w, next(fits)) for _, w in blocks]
        value += coef * sum(w * e.value for w, e in ests)
        error += abs(coef) * sqrt(sum((abs(w) * e.stderr) ** 2 for w, e in ests))
        sigma = sigma + coef * sum(w * e.sigma for w, e in ests)
        measurable &= all(e.measurable for _, e in ests)
        measurable &= all(ladder[-1] > 1 + xi for xi, _ in blocks)
    return CocycleValue(value, "dixmier-extrapolated", error, measurable, sigma)


def nc_integral(a: MagneticElement, ctx: DiracContext,
                ladder=DEFAULT_LADDER) -> CocycleValue:
    """Quarter of the Dixmier trace of the volume-weighted representation.

    Extrapolated from exact sector partial sums; recovers the algebra trace
    on every finitely supported element.
    """
    _support_check(ctx, a)
    return _dixmier_functional(
        [(0.25, a, [(xi, 1.0) for xi in ctx.shifted_energies()])], ladder)


def _graded_terms(coef: float, z0: UnitalElement, z1: MagneticElement,
                  z2: MagneticElement, ctx: DiracContext) -> list:
    """Terms of coef |D_eps|^{-2} [ -(1/2l^2) pi(Z0 d0) Gamma + (i/2l^2) pi(Z0 d1) ]
    over the four shifted blocks, Gamma carrying ``GAMMA_SIGNS``."""
    d0 = delta0(z1, z2)
    d1 = delta1(z1, z2)
    c = coef / (2.0 * ctx.lb**2)
    shifts = ctx.shifted_energies()
    return [(-c, z0.scalar * d0 + compose(z0.element, d0), list(zip(shifts, GAMMA_SIGNS))),
            (1j * c, z0.scalar * d1 + compose(z0.element, d1), [(xi, 1.0) for xi in shifts])]


def ch_dix(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
           ctx: DiracContext, ladder=DEFAULT_LADDER) -> CocycleValue:
    """The local (Dirac-operator) character, block-resolved and extrapolated.

    The grading-weighted part cancels across the four shifted blocks only
    after extrapolation; the identity-weighted part carries the value.
    """
    _support_check(ctx, a0, a1, a2, margin=ctx.buffer)
    return _dixmier_functional(_graded_terms(0.5, UnitalElement.lift(a0), a1, a2, ctx),
                               ladder)


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
    _support_check(ctx, a0, a1, a2, margin=ctx.buffer)
    tr_chi = complex(np.trace(CHI_GRADING))
    tr_chi_gamma = complex(np.trace(CHI_GRADING @ GAMMA_GRADING))
    c = 0.5 / (2.0 * ctx.lb**2)
    v = _dixmier_functional([(-c, compose(a0, delta0(a1, a2)), [(ctx.eps, tr_chi)]),
                             (1j * c, compose(a0, delta1(a1, a2)), [(ctx.eps, tr_chi_gamma)])],
                            ladder)
    return replace(v, method="spin-trace-factorized")


def graded_two_form_trace(a1: MagneticElement, a2: MagneticElement,
                          ctx: DiracContext, ladder=DEFAULT_LADDER) -> CocycleValue:
    """tr_Gamma(d pi(A1) d pi(A2)) through the trace-class reduction.

    Closedness of the graded trace makes this vanish for every pair.
    """
    _support_check(ctx, a1, a2, margin=ctx.buffer)
    return _dixmier_functional(_graded_terms(1.0, UnitalElement.unit(ctx.lb), a1, a2, ctx),
                               ladder)


def two_form_scale(a1: MagneticElement, a2: MagneticElement, lb: float) -> float:
    """Reference magnitude for closedness checks: the size of the pieces
    whose cancellation is being asserted."""
    d0 = delta0(a1, a2)
    d1 = delta1(a1, a2)
    return max(
        abs(trace_int(d0)), norms(d0)["hs_norm"], norms(d1)["hs_norm"], 1e-12
    ) / (2.0 * lb**2)


def graded_one_form_product_trace(x0, x1: MagneticElement, y0, y1: MagneticElement,
                                  ctx: DiracContext,
                                  ladder=DEFAULT_LADDER) -> CocycleValue:
    """tr_Gamma(omega1 omega2) for one-forms omega = pi(.) d pi(.).

    Splits the middle factor with the derivation property of the
    quasi-differential, then reduces both three-factor terms.
    """
    x0 = UnitalElement.lift(x0)
    y0 = UnitalElement.lift(y0)
    _support_check(ctx, x0.element, x1, y0.element, y1, margin=ctx.buffer)
    # [F, pi(X1)] pi(Y0) = [F, pi(X1 Y0)] - pi(X1) [F, pi(Y0)]
    x1y0 = y0.scalar * x1 + compose(x1, y0.element)
    return _dixmier_functional(
        _graded_terms(1.0, x0, x1y0, y1, ctx)
        + _graded_terms(-1.0, x0 @ UnitalElement(0.0, x1), y0.element, y1, ctx), ladder)


# ---------------------------------------------------------------------------
# The Fredholm-module character, both evaluation routes.
# ---------------------------------------------------------------------------

def _fredholm_sector_traces(a0: MagneticElement, a1: MagneticElement,
                            a2: MagneticElement, ctx: DiracContext) -> np.ndarray:
    """Sector traces T(m), m < m_max, of Gamma pi(A0) [F, pi(A1)] [F, pi(A2)].

    F = D diag(W), and D is block-tridiagonal in m (``sector_blocks``), so
    sector m's trace runs over the intermediate sectors m' = m + delta,
    delta in (0, +1, -1), whose two D blocks carry the factor c = 1, m + 1,
    m.  Each of the four terms of [F, pi1][F, pi2] is tr(X diag(u) Y diag(v))
    = u^T (Y o X^T) v with u = W(m'), v = W(m), hence
    T(m) = sum_delta c_delta(m) W(m')^T K_delta W(m) with three fixed window
    matrices K_delta.  The window n < max support + 2 holds every level the
    product passes through, so T(m) is the lattice product's sector trace.
    """
    levels = max(a.support_bound for a in (a0, a1, a2)) + 2
    blocks = sector_blocks(ctx, levels)
    p0, p1, p2 = (sector_represent(a, ctx, levels) for a in (a0, a1, a2))
    gp0 = np.tile(GAMMA_SIGNS, levels)[:, None] * p0

    def kernel(d_out, d_back):
        # (X, Y) of the four terms, with D(m, m') = c' d_out, D(m', m) = c'' d_back
        terms = ((p2 @ gp0 @ d_out, p1 @ d_back), (gp0 @ d_out, -p1 @ p2 @ d_back),
                 (p2 @ gp0 @ p1 @ d_out, -d_back), (gp0 @ p1 @ d_out, p2 @ d_back))
        return sum(y * x.T for x, y in terms)

    def form(u, k, v):
        # u^T k v row by row; real products, since a real-by-complex matmul
        # costs ten times as much
        return np.sum((u @ k.real) * v, axis=1) + 1j * np.sum((u @ k.imag) * v, axis=1)

    w = sector_weights(ctx, levels)   # rows m = 0..m_max
    v = w[:-1]
    m = np.arange(ctx.m_max)
    t = form(v, kernel(blocks.m0, blocks.m0), v)
    t += (m + 1) * form(w[1:], kernel(blocks.plus, blocks.minus), v)
    t[1:] += m[1:] * form(w[:-2], kernel(blocks.minus, blocks.plus), v[1:])
    return t


def tau2(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
         ctx: DiracContext, route: str = "reduced",
         ladder=DEFAULT_LADDER) -> CocycleValue:
    """Half the graded trace of pi(A0) d pi(A1) d pi(A2).

    route "reduced": replace the two-form by its volume-weighted reduction
    (trace-class remainder dropped) and extrapolate the exact sector ladders.
    route "direct": the degeneracy-sector traces of
    Gamma pi(A0) [F, pi(A1)] [F, pi(A2)] at the context's truncation,
    evaluated as per-sector quadratic forms in the phase weights
    (``_fredholm_sector_traces``), summed over growing sector windows and
    fitted against the logarithm of the sector count; coarser, with the
    larger provisional tolerance carried by the caller.
    """
    if route == "reduced":
        # with the trace-class remainder dropped, tau2 is the Dirac character
        return ch_dix(a0, a1, a2, ctx, ladder)
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")
    ms = sorted({max(4, ctx.m_max >> k) for k in range(6)})   # windows m_max / 2^k
    if len(ms) < 3:
        raise TruncationError(f"route ii needs three distinct sector windows; "
                              f"m_max {ctx.m_max} gives {ms}")
    _support_check(ctx, a0, a1, a2, margin=ctx.buffer)
    csum = np.cumsum(_fredholm_sector_traces(a0, a1, a2, ctx))
    est = dixmier_from_partial_sums(np.array(ms, dtype=float),
                                    np.array([csum[m - 1] for m in ms]), rel_tol=0.2)
    return CocycleValue(0.5 * est.value, "dixmier-direct-partial-trace", 0.5 * est.stderr,
                        est.measurable)


# ---------------------------------------------------------------------------
# Hochschild machinery.
# ---------------------------------------------------------------------------

def hochschild_b(phi: Cochain, args) -> complex:
    """The coboundary sum on an (n+2)-tuple: alternating inner contractions
    plus the wrap-around term."""
    args = [UnitalElement.lift(a) for a in args]
    n = phi.degree
    if len(args) != n + 2:
        raise ValueError(f"b of a {n}-cochain takes {n + 2} arguments, got {len(args)}")
    total = 0j
    for j in range(n + 1):
        merged = args[:j] + [args[j] @ args[j + 1]] + args[j + 2 :]
        total += (-1.0) ** j * phi(*merged)
    wrap = [args[-1] @ args[0]] + args[1:-1]
    total += (-1.0) ** (n + 1) * phi(*wrap)
    return complex(total)


def psi_cochain() -> Cochain:
    """The derivation-trace cocycle on the unitization (units drop under
    the derivations; the scalar part of the first slot multiplies the plain
    trace of the curl bilinear)."""

    def ev(u0: UnitalElement, u1: UnitalElement, u2: UnitalElement) -> complex:
        d1 = delta1(u1.element, u2.element)
        return u0.scalar * trace_int(d1) + trace_int(compose(u0.element, d1))

    return Cochain(2, ev)
