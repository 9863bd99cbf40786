"""The three cyclic 2-cocycles and the integer pairings they compute.

Two evaluation tiers coexist deliberately.  The derivation-trace cocycle, the
gap label and the Chern number are exact finite computations on coefficient
blocks.  The phase-module quantities (noncommutative integral, the two
Dirac-operator characters, the graded trace) are honest Dixmier
extrapolations over the degeneracy ladder; their agreement with the exact
tier is the content of the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np
import scipy.sparse as sp

from .algebra import (
    MagneticElement,
    UnitalElement,
    compose,
    is_projection,
    spatial_derivative,
    trace_int,
    zero_element,
)
from .dirac import (
    CHI_GRADING,
    GAMMA,
    GAMMA_GRADING,
    DiracContext,
    QuartetOperator,
    cached_phase,
    gamma_grading,
    represent,
    sector_traces,
)
from .spectra import (
    DEFAULT_LADDER,
    DixmierEstimate,
    dixmier_from_partial_sums,
    shifted_resolvent_ladder,
)

__all__ = [
    "CocycleValue",
    "Cochain",
    "delta0",
    "delta1",
    "psi",
    "gap_label",
    "chern_number",
    "nc_integral",
    "ch_dix",
    "ch_hat",
    "graded_trace",
    "graded_two_form_trace",
    "graded_one_form_product_trace",
    "tau2",
    "hochschild_b",
    "hochschild_coboundary",
    "psi_cochain",
    "trace_cochain",
    "physical_observables",
]

GAMMA_SIGNS = np.real(np.diag(GAMMA_GRADING)).copy()   # (+1, +1, -1, -1)


@dataclass
class CocycleValue:
    """A cocycle evaluation with its method tag and error bar."""

    value: complex
    method: str
    error: float = 0.0

    def __post_init__(self):
        if self.error < 0:
            raise ValueError("error bar must be nonnegative")


class Cochain:
    """Multilinear functional on the unitized algebra."""

    def __init__(self, degree: int, evaluator, name: str = ""):
        if degree < 0:
            raise ValueError("cochain degree must be nonnegative")
        self.degree = degree
        self.evaluator = evaluator
        self.name = name

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


def _require_projection(p: MagneticElement, tol: float = 1e-10):
    if not is_projection(p, tol):
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

def _support_check(ctx: DiracContext, *els: MagneticElement, margin: int = 0):
    for e in els:
        if e.support_bound > ctx.n_max - margin:
            raise ValueError(
                f"support {e.support_bound} exceeds truncation {ctx.n_max} - {margin}"
            )


def _block_estimates(s_el: MagneticElement, ctx: DiracContext,
                     ladder) -> list[DixmierEstimate]:
    """Dixmier estimates of (Q + eps + shift_i)^{-1} S for the four blocks."""
    out = []
    for xi in ctx.shifted_energies():
        ns, sums = shifted_resolvent_ladder(s_el, xi, ladder)
        out.append(dixmier_from_partial_sums(ns, sums))
    return out


def nc_integral(a: MagneticElement, ctx: DiracContext,
                ladder=DEFAULT_LADDER) -> CocycleValue:
    """Quarter of the Dixmier trace of the volume-weighted representation.

    Extrapolated from exact sector partial sums; recovers the algebra trace
    on every finitely supported element.
    """
    _support_check(ctx, a)
    ests = _block_estimates(a, ctx, ladder)
    value = sum(e.value for e in ests) / 4.0
    err = sqrt(sum(e.stderr**2 for e in ests)) / 4.0
    note_flags = [e for e in ests if not e.measurable]
    cv = CocycleValue(value, "dixmier-extrapolated", err)
    if note_flags:
        cv.method = "dixmier-extrapolated (flagged: not measurable at this truncation)"
    return cv


def _graded_functional(z0: UnitalElement, z1: MagneticElement,
                       z2: MagneticElement, ctx: DiracContext,
                       ladder, spin_signs: np.ndarray) -> CocycleValue:
    """Dixmier trace of |D_eps|^{-2} [ -(1/2l^2) pi(Z0 d0) G + (i/2l^2) pi(Z0 d1) ]
    with G the grading carrying ``spin_signs`` on the four blocks."""
    lb = ctx.lb
    d0 = delta0(z1, z2)
    d1 = delta1(z1, z2)
    s0 = z0.scalar * d0 + compose(z0.element, d0)
    s1 = z0.scalar * d1 + compose(z0.element, d1)
    e0 = _block_estimates(s0, ctx, ladder)
    e1 = _block_estimates(s1, ctx, ladder)
    c0 = -1.0 / (2.0 * lb**2)
    c1 = 1j / (2.0 * lb**2)
    value = c0 * sum(s * e.value for s, e in zip(spin_signs, e0))
    value += c1 * sum(e.value for e in e1)
    err = abs(c0) * sqrt(sum(e.stderr**2 for e in e0))
    err += abs(c1) * sqrt(sum(e.stderr**2 for e in e1))
    return CocycleValue(value, "dixmier-extrapolated", err)


def ch_dix(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
           ctx: DiracContext, ladder=DEFAULT_LADDER) -> CocycleValue:
    """The local (Dirac-operator) character, block-resolved and extrapolated.

    The grading-weighted part cancels across the four shifted blocks only
    after extrapolation; the identity-weighted part carries the value.
    """
    _support_check(ctx, a0, a1, a2, margin=ctx.buffer)
    t = _graded_functional(UnitalElement.lift(a0), a1, a2, ctx, ladder, GAMMA_SIGNS)
    return CocycleValue(0.5 * t.value, t.method, 0.5 * t.error)


def ch_hat(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
           ctx: DiracContext, ladder=DEFAULT_LADDER,
           block_resolved: bool = False) -> CocycleValue:
    """The character twisted by the anticommuting grading; vanishes termwise.

    Through the spin-trace factorization every sector term is a scalar ladder
    value multiplied by tr(g1 g2 g3 g4) or tr(g3 g4), both exactly zero, so
    the result is zero at float accuracy with no extrapolation.  The
    ``block_resolved`` route keeps the four shifts separate and vanishes only
    within the extrapolation error; it is kept as a cross-check.
    """
    _support_check(ctx, a0, a1, a2, margin=ctx.buffer)
    if block_resolved:
        chi_signs = np.real(np.diag(CHI_GRADING)).copy()
        d0 = delta0(a1, a2)
        d1 = delta1(a1, a2)
        s0 = compose(a0, d0)
        s1 = compose(a0, d1)
        e0 = _block_estimates(s0, ctx, ladder)
        e1 = _block_estimates(s1, ctx, ladder)
        chi_gamma = np.real(np.diag(CHI_GRADING @ GAMMA_GRADING)).copy()
        c0 = -1.0 / (2.0 * ctx.lb**2)
        c1 = 1j / (2.0 * ctx.lb**2)
        value = c0 * sum(s * e.value for s, e in zip(chi_signs, e0))
        value += c1 * sum(s * e.value for s, e in zip(chi_gamma, e1))
        err = abs(c0) * sqrt(sum(e.stderr**2 for e in e0))
        err += abs(c1) * sqrt(sum(e.stderr**2 for e in e1))
        return CocycleValue(0.5 * value, "dixmier-extrapolated", 0.5 * err)
    # spin-trace factorization at a common diagonal shift (the block value is
    # shift-independent): each term multiplies an exactly vanishing 4x4 trace.
    tr_chi = complex(np.trace(CHI_GRADING))
    tr_chi_gamma = complex(np.trace(CHI_GRADING @ GAMMA_GRADING))
    d0 = delta0(a1, a2)
    d1 = delta1(a1, a2)
    ns, sums0 = shifted_resolvent_ladder(compose(a0, d0), ctx.eps, ladder)
    est0 = dixmier_from_partial_sums(ns, sums0)
    ns, sums1 = shifted_resolvent_ladder(compose(a0, d1), ctx.eps, ladder)
    est1 = dixmier_from_partial_sums(ns, sums1)
    c0 = -1.0 / (2.0 * ctx.lb**2)
    c1 = 1j / (2.0 * ctx.lb**2)
    value = 0.5 * (c0 * est0.value * tr_chi + c1 * est1.value * tr_chi_gamma)
    err = 0.5 * (abs(c0 * tr_chi) * est0.stderr + abs(c1 * tr_chi_gamma) * est1.stderr)
    return CocycleValue(value, "spin-trace-factorized", err)


def graded_trace(omega: QuartetOperator, ctx: DiracContext,
                 ladder=None) -> CocycleValue:
    """Grading-twisted Dixmier trace of a degeneracy-diagonal operator.

    Sector traces (eigenvalue sums per degeneracy sector) are accumulated
    over a geometric ladder of sector counts and extrapolated.  Trace-class
    inputs extrapolate to zero.
    """
    if not omega.diag_in_m:
        raise ValueError(
            "graded_trace needs a degeneracy-diagonal operator; reduce the "
            "two-form first (graded_two_form_trace)"
        )
    g = gamma_grading(ctx)
    tw = QuartetOperator((g.op @ omega.op).tocsr(), ctx, diag_in_m=True)
    s = sector_traces(tw, ctx.m_max)
    csum = np.cumsum(s)
    if ladder is None:
        ladder = _direct_ladder(ctx.m_max)
    sums = np.array([csum[m - 1] for m in ladder])
    est = dixmier_from_partial_sums(np.array(ladder, dtype=float), sums)
    cv = CocycleValue(est.value, "dixmier-extrapolated", est.stderr)
    if not est.measurable:
        cv.method += " (flagged: not measurable at this truncation)"
    return cv


def _direct_ladder(m_max: int, rungs: int = 6) -> list[int]:
    ms = [max(4, m_max >> k) for k in range(rungs)][::-1]
    return sorted(set(ms))


def graded_two_form_trace(a1: MagneticElement, a2: MagneticElement,
                          ctx: DiracContext, ladder=DEFAULT_LADDER) -> CocycleValue:
    """tr_Gamma(d pi(A1) d pi(A2)) through the trace-class reduction.

    Closedness of the graded trace makes this vanish for every pair.
    """
    _support_check(ctx, a1, a2, margin=ctx.buffer)
    unit = UnitalElement(1.0, zero_element(ctx.lb))
    return _graded_functional(unit, a1, a2, ctx, ladder, GAMMA_SIGNS)


def two_form_scale(a1: MagneticElement, a2: MagneticElement, lb: float) -> float:
    """Reference magnitude for closedness checks: the size of the pieces
    whose cancellation is being asserted."""
    from .algebra import norms

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
    # [F, pi(X1)] pi(Y0) = [F, pi(X1 Y0)] - pi(X1) [F, pi(Y0)]
    x1y0 = y0.scalar * x1 + compose(x1, y0.element)
    t1 = _graded_functional(x0, x1y0, y1, ctx, ladder, GAMMA_SIGNS)
    t2 = _graded_functional(x0 @ UnitalElement(0.0, x1), y0.element, y1, ctx,
                            ladder, GAMMA_SIGNS)
    return CocycleValue(t1.value - t2.value, "dixmier-extrapolated",
                        t1.error + t2.error)


# ---------------------------------------------------------------------------
# The Fredholm-module character, both evaluation routes.
# ---------------------------------------------------------------------------

def tau2(a0: MagneticElement, a1: MagneticElement, a2: MagneticElement,
         ctx: DiracContext, route: str = "reduced",
         ladder=DEFAULT_LADDER) -> CocycleValue:
    """Half the graded trace of pi(A0) d pi(A1) d pi(A2).

    route "reduced": replace the two-form by its volume-weighted reduction
    (trace-class remainder dropped) and extrapolate the exact sector ladders.
    route "direct": truncated partial traces of the honest sparse product
    Gamma pi(A0) [F, pi(A1)] [F, pi(A2)] over growing degeneracy windows,
    divided by the logarithm of the sector count; coarser, with the larger
    provisional tolerance carried by the caller.
    route "both": evaluates the two routes and flags a disagreement beyond
    10% in the returned method string.
    """
    _support_check(ctx, a0, a1, a2, margin=ctx.buffer)
    if route == "both":
        v_red = tau2(a0, a1, a2, ctx, "reduced", ladder)
        v_dir = tau2(a0, a1, a2, ctx, "direct", ladder)
        scale = max(abs(v_red.value), abs(v_dir.value), 1e-12)
        gap = abs(v_red.value - v_dir.value) / scale
        method = f"dixmier-two-routes (direct within {gap:.1%})"
        if gap > 0.10:
            method += " [flagged: routes disagree beyond 10%]"
        return CocycleValue(v_red.value, method, v_red.error + gap * scale)
    if route == "reduced":
        t = _graded_functional(UnitalElement.lift(a0), a1, a2, ctx, ladder,
                               GAMMA_SIGNS)
        return CocycleValue(0.5 * t.value, t.method, 0.5 * t.error)
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")
    f = cached_phase(ctx)
    pa0 = represent(a0, ctx)
    pa1 = represent(a1, ctx)
    pa2 = represent(a2, ctx)
    c1 = (f.op @ pa1.op - pa1.op @ f.op).tocsr()
    c2 = (f.op @ pa2.op - pa2.op @ f.op).tocsr()
    g = gamma_grading(ctx)
    omega = (g.op @ pa0.op @ c1 @ c2).tocsr()
    diag = omega.diagonal()
    block = 4 * ctx.n_tot
    sect = diag[: ctx.m_max * block].reshape(ctx.m_max, block).sum(axis=1)
    csum = np.cumsum(sect)
    ms = _direct_ladder(ctx.m_max)
    sums = np.array([csum[m - 1] for m in ms])
    est = dixmier_from_partial_sums(np.array(ms, dtype=float), sums,
                                    rel_tol=0.2)
    cv = CocycleValue(0.5 * est.value, "dixmier-direct-partial-trace", 0.5 * est.stderr)
    if not est.measurable:
        cv.method += " (flagged: not measurable at this truncation)"
    return cv


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


def hochschild_coboundary(phi: Cochain) -> Cochain:
    """b(phi) as a cochain of one higher degree (enables b(b(.)) checks)."""
    return Cochain(phi.degree + 1, lambda *args: hochschild_b(phi, args),
                   name=f"b({phi.name})")


def psi_cochain(lb: float = 1.0) -> Cochain:
    """The derivation-trace cocycle on the unitization (units drop under
    the derivations; the scalar part of the first slot multiplies the plain
    trace of the curl bilinear)."""

    def ev(u0: UnitalElement, u1: UnitalElement, u2: UnitalElement) -> complex:
        d1 = delta1(u1.element, u2.element)
        return u0.scalar * trace_int(d1) + trace_int(compose(u0.element, d1))

    return Cochain(2, ev, name="psi")


def trace_cochain(lb: float = 1.0) -> Cochain:
    """The algebra trace as a 0-cochain (defined on the algebra part)."""

    def ev(u0: UnitalElement) -> complex:
        if u0.scalar != 0:
            raise ValueError("the trace is not defined on the unit")
        return trace_int(u0.element)

    return Cochain(0, ev, name="trace")


# ---------------------------------------------------------------------------
# Physical observables.
# ---------------------------------------------------------------------------

def physical_observables(p: MagneticElement, lb: float | None = None) -> dict:
    """Integrated density of states and Hall conductance of a projection.

    idos carries units of inverse area (1 / (2 pi l^2) per unit of trace);
    the Hall value is reported in conductance quanta e^2/h.
    """
    if lb is None:
        lb = p.lb
    gl = gap_label(p)
    c = chern_number(p)
    return {
        "idos": gl / (2.0 * pi * lb**2),
        "hall_in_conductance_quanta": c,
    }
