"""Singular-value machinery: Dixmier estimation, closed-form laws, decay classes.

Two independent routes run through this module everywhere: closed-form
singular-value laws vs numerically computed spectra, and logarithmic-mean
ladders (exact digamma partial sums for degeneracy-diagonal integrands) vs
their affine extrapolation in 1/log N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, reduce

import numpy as np

from .algebra import MagneticElement, TruncationError
from .dirac import BLOCK_SHIFTS, DiracContext, defect_stacks

__all__ = [
    "SingularSpectrum",
    "DixmierEstimate",
    "IdealVerdict",
    "singular_values",
    "dixmier_from_partial_sums",
    "dixmier_fits",
    "require_ladder",
    "shifted_resolvent_ladder",
    "stable_spectrum",
    "d4_partial_sums",
    "d4_dixmier",
    "closed_form_mu",
    "c_alpha",
    "classify_decay",
    "verify_quasi_even",
    "build_shifted_commutator",
    "DEFAULT_LADDER",
    "DIXMIER_REL_TOL",
    "digamma",
    "trigamma",
]

DEFAULT_LADDER = (10**3, 10**4, 10**5, 10**6, 10**7)
# residual bound of a measurable Dixmier fit, relative to its largest sigma_N
DIXMIER_REL_TOL = 0.05


@dataclass
class SingularSpectrum:
    """Descending singular values."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        self.mu = np.sort(mu)[::-1].copy()

    @property
    def count(self) -> int:
        return len(self.mu)


@dataclass
class DixmierEstimate:
    """Extrapolated logarithmic mean with its ladder and fit diagnostics:
    the logarithmic means ``sigma`` at the counts ``ns``."""

    value: complex
    stderr: float
    ns: np.ndarray
    sigma: np.ndarray
    measurable: bool
    note: str


@dataclass
class IdealVerdict:
    """Decay classification of a singular spectrum."""

    exponent: float
    r_squared: float
    verdict: str


# ---------------------------------------------------------------------------
# Digamma and trigamma for x > 0.
# ---------------------------------------------------------------------------

_STEPS = np.arange(10.0)


def digamma(x):
    """psi(x) for x > 0, elementwise: ten recurrence steps
    psi(x) = psi(x + 10) - sum_k 1/(x + k), then the asymptotic series of
    psi(x + 10) through the B_12 term (remainder below 1e-15)."""
    x = np.asarray(x, dtype=float)
    y = x + 10.0
    r = (1.0 / y) ** 2
    tail = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * (
        1 / 132 - r * (691 / 32760))))))
    return np.log(y) - 0.5 / y - tail - np.sum(1.0 / (x[..., None] + _STEPS), axis=-1)


def trigamma(x):
    """psi'(x) for x > 0, elementwise: psi'(x) = psi'(x + 10) + sum_k
    1/(x + k)^2, then the asymptotic series of psi'(x + 10) through B_12."""
    x = np.asarray(x, dtype=float)
    y = x + 10.0
    r = (1.0 / y) ** 2
    tail = r * (1 / 6 - r * (1 / 30 - r * (1 / 42 - r * (1 / 30 - r * (
        5 / 66 - r * (691 / 2730))))))
    return (1.0 + 0.5 / y + tail) / y + np.sum((x[..., None] + _STEPS) ** -2.0, axis=-1)


# ---------------------------------------------------------------------------
# Singular values of block-diagonal operators.
# ---------------------------------------------------------------------------

def singular_values(stack: np.ndarray) -> SingularSpectrum:
    """All singular values of a block-diagonal operator, descending, from
    one stacked SVD of its (blocks, rows, columns) array of blocks.

    Criterion 2's operators conserve L = m + [s in {1, 2}] and come as the
    L-block stacks of ``dirac.defect_stacks``.
    """
    return SingularSpectrum(np.linalg.svd(stack, compute_uv=False).ravel())


# ---------------------------------------------------------------------------
# Dixmier estimation: affine extrapolation of logarithmic means in 1/log N.
# ---------------------------------------------------------------------------

def dixmier_from_partial_sums(ns, sums, rel_tol: float = DIXMIER_REL_TOL) -> DixmierEstimate:
    """Fit sigma_N = sum_N / log N against 1/log N; the intercept is the trace.

    The one-ladder case of ``dixmier_fits``, which states the rules.
    """
    return dixmier_fits(ns, np.asarray(sums)[None], rel_tol)[0]


def require_ladder(ns) -> np.ndarray:
    """The counts N of a Dixmier ladder as floats: at least three rungs,
    strictly increasing from N >= 2, or ValueError."""
    ns = np.asarray(ns, dtype=float)
    if not (len(ns) >= 3 and ns[0] >= 2 and (np.diff(ns) > 0).all()):
        raise ValueError("a ladder needs three or more rungs, strictly increasing from N >= 2")
    return ns


def dixmier_fits(ns, sums, rel_tol: float) -> list[DixmierEstimate]:
    """One estimate per row of a (ladders, rungs) array of partial sums.

    The logarithmic means converge only at O(1/log N); the affine fit in
    1/log N removes the leading correction.  Ladders whose partial sums are
    outright convergent (increments per unit of log N decaying geometrically
    across the finite rungs, the ratio test) belong to summable spectra,
    whose value is exactly zero.  A ladder whose residuals exceed ``rel_tol``
    of the value scale is marked not measurable at this truncation; so is
    one with a non-finite rung.

    The fit has one design for every row, so it is one fixed linear map:
    the design's pseudo-inverse, applied to each row elementwise for the
    value and the residual, and every row reads the same bits alone or in a
    batch.
    """
    ns = require_ladder(ns)
    sums = np.asarray(sums)
    logs = np.log(ns)
    design = np.stack([np.ones_like(logs), 1.0 / logs], axis=-1)
    # a complex infinite rung reads inf+nanj, and a non-finite or overflowing
    # row is flagged below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = sums / logs
        coef = (sigma[:, None, :] * np.linalg.pinv(design)).sum(axis=-1)
        resid = sigma - (design * coef[:, None, :]).sum(axis=-1)
        resid_ms = np.sum(np.abs(resid) ** 2, axis=1) / max(len(ns) - 2, 1)
    top = np.abs(sigma).max(axis=1)
    finite = np.isfinite(sums).all(axis=1)
    summable = np.zeros(len(sums), dtype=bool)
    if len(ns) >= 4:
        inc = np.abs(np.diff(sums[finite], axis=1))
        # increments per unit of log N: rungs closing up are not convergence
        slope = inc / np.diff(logs)
        ratios = slope[:, 1:] / np.maximum(slope[:, :-1], 1e-300)
        peak = np.abs(sums[finite]).max(axis=1)
        # a log-spaced ladder has constant increments exactly when the
        # spectrum is borderline-harmonic; geometric decay means summable
        flat = inc[:, -2:] <= 1e-12 * np.where(peak > 0, peak, 1.0)[:, None]
        summable[finite] = flat.all(axis=1) | (ratios[:, -2:] < 0.45).all(axis=1)
    value = np.where(summable, 0.0, coef[:, 0])
    stderr = np.sqrt(resid_ms * np.linalg.inv(design.T @ design)[0, 0])
    stderr[summable] = np.abs(sums[summable, -1] - sums[summable, -2]) / logs[-1]
    measurable = summable | (np.sqrt(resid_ms) <= rel_tol * np.maximum(top, 1e-12))
    return [DixmierEstimate(v, float(e), ns, row, bool(m),
                            "partial sums converge (summable spectrum)" if conv
                            else "" if m else "not measurable at this truncation")
            for v, e, row, m, conv in zip(value.tolist(), stderr, sigma, measurable, summable)]


def shifted_resolvent_ladder(diag, xi, ladder=DEFAULT_LADDER):
    """Exact partial sums of the sector traces of (Q + xi)^{-1} S, from the
    diagonal ``diag`` of S (its only part the traces read).

    Each degeneracy sector contributes sum_n S_nn / (n + m + 1 + xi); summing
    m < N gives sum_n S_nn (digamma(N + n + 1 + xi) - digamma(n + 1 + xi)),
    with no truncation error in either index.  ``xi`` is one shift or an
    array of them: the sums have shape xi.shape + (rungs,), from one digamma
    call.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= -1):
        raise ValueError("diagonal shift must exceed -1")
    ns = np.asarray(ladder, dtype=float)
    if len(diag) == 0 or not np.any(diag):
        return ns, np.zeros(xi.shape + ns.shape, dtype=complex)
    a = (np.arange(len(diag)) + 1.0 + xi[..., None])[..., None, :]
    psi = digamma(np.concatenate([a, ns[:, None] + a], axis=-2))
    return ns, (psi[..., 1:, :] - psi[..., :1, :]) @ diag


def d4_partial_sums(eps: float, ladder=DEFAULT_LADDER):
    """Partial sums for |D_eps|^{-4} at level cuts hitting the requested counts.

    Eigenvalues are (j + xi_i)^{-2} with multiplicity j at level j >= 1 over
    the four shifted blocks; the count at cut J is N = 2 J (J + 1) and the
    sums have exact digamma/trigamma closed forms.  Rungs that round to one
    cut would repeat a count and raise ValueError.
    """
    cuts: dict[int, list[int]] = {}
    for n_req in ladder:
        cuts.setdefault(max(int(round(np.sqrt(n_req / 2.0))), 2), []).append(int(n_req))
    shared = [f"{rungs} -> J = {j}" for j, rungs in cuts.items() if len(rungs) > 1]
    if shared:
        raise ValueError("ladder rungs collapse onto one d4 level cut: " + "; ".join(shared))
    j = np.array(list(cuts), dtype=float)
    xi = eps + BLOCK_SHIFTS
    top = j[:, None] + 1 + xi
    # sum_{r=1..J} r/(r+xi)^2 = [digamma(J+1+xi)-digamma(1+xi)]
    #                          - xi [trigamma(1+xi)-trigamma(J+1+xi)]
    terms = digamma(top) - digamma(1 + xi) - xi * (trigamma(1 + xi) - trigamma(top))
    return 2 * j * (j + 1), terms.sum(axis=1)


def d4_dixmier(eps: float, ladder) -> DixmierEstimate:
    """Tr_Dix |D_eps|^{-4} (2 in the paper's normalization) from ``d4_partial_sums``."""
    return dixmier_from_partial_sums(*d4_partial_sums(eps, ladder))


# ---------------------------------------------------------------------------
# Closed-form singular-value laws and their numerical counterparts.
# ---------------------------------------------------------------------------

def c_alpha(j: int, k: int, eps: float, eps2: float, m) -> np.ndarray:
    """The bounded prefactor of the square-root-resolvent commutator law."""
    zj, zk = j + eps2, k + eps
    m1 = np.asarray(m, dtype=float) + 1.0
    rj = np.sqrt(1.0 + zj / m1)
    rk = np.sqrt(1.0 + zk / m1)
    return np.abs(zj - zk) / (rj * rk * (rj + rk))


def closed_form_mu(kind: str, j: int, k: int, eps: float, eps2: float,
                   eps3: float, m) -> np.ndarray:
    """Exact singular values at sector m for the three closed-form families.

    zeta_j = j + eps2 and zeta_k = k + eps attach the second and first shift
    respectively; xi_k = k + eps3 enters only the J family.  All shifted
    values must stay positive (shifts > -1).
    """
    zj, zk, xk = j + eps2, k + eps, k + eps3
    if eps <= -1 or eps2 <= -1:
        raise ValueError("shifts must exceed -1")
    m1 = np.asarray(m, dtype=float) + 1.0
    if kind == "C":
        return c_alpha(j, k, eps, eps2, m) / m1**1.5
    if kind == "D":
        return np.abs(zj - zk) / ((m1 + zj) * (m1 + zk))
    if kind == "J":
        if eps3 <= -1:
            raise ValueError("shifts must exceed -1")
        root = np.sqrt((m1 + zj) * (m1 + zk))
        return np.abs(m1 + xk - root) / ((m1 + xk) * root)
    raise ValueError(f"unknown closed-form family {kind!r}")


def build_shifted_commutator(kind: str, a: MagneticElement, levels: int,
                             sectors: int, eps: float, eps2: float,
                             eps3: float = 0.0) -> np.ndarray:
    """Numerical counterparts of the closed-form families, sector by sector.

    kind "C": Q_eps^{-1/2} A - A Q_eps2^{-1/2};  "D": resolvent version;
    "J": Q_eps^{-1/2} A Q_eps2^{-1/2} - Q_eps3^{-1} A.  Q = m + n + 1 is
    diagonal and A acts on the level index only, so each family is
    degeneracy-diagonal: the result stacks its (levels, levels) blocks of
    sectors m < ``sectors``.
    """
    a = a.padded(levels)
    q = np.arange(sectors)[:, None] + np.arange(levels)[None, :] + 1.0
    if kind == "C":
        return (q + eps)[:, :, None] ** -0.5 * a - a * (q + eps2)[:, None, :] ** -0.5
    if kind == "D":
        return (q + eps)[:, :, None] ** -1.0 * a - a * (q + eps2)[:, None, :] ** -1.0
    if kind == "J":
        return ((q + eps)[:, :, None] ** -0.5 * a * (q + eps2)[:, None, :] ** -0.5
                - (q + eps3)[:, :, None] ** -1.0 * a)
    raise ValueError(f"unknown closed-form family {kind!r}")


# ---------------------------------------------------------------------------
# Decay classification.
# ---------------------------------------------------------------------------

def classify_decay(mu) -> IdealVerdict:
    """Log-log tail fit of the ranked singular values.

    Fits mu_r ~ (r+1)^e over the tail half, maps e to the weak-Schatten order
    p = -1/e, and upgrades to "trace-class" when consecutive octave sums of
    the tail decay geometrically (a summability ratio test).  Values at or
    below 1e-14 are dropped before the fit.  Poor fits (R^2 < 0.95) return
    "unclassified".
    """
    if isinstance(mu, SingularSpectrum):
        mu = mu.mu
    else:
        mu = np.sort(np.asarray(mu, dtype=float))[::-1]
    if len(mu) < 64:
        raise ValueError("need at least 64 singular values to classify")
    mu = mu[mu > 1e-14]
    if len(mu) < 64:
        return IdealVerdict(-np.inf, 1.0, "trace-class")
    lo = len(mu) // 2
    r = np.arange(1, len(mu) + 1, dtype=float)
    x, y = np.log(r[lo:]), np.log(mu[lo:])
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    exponent = float(slope)

    if r2 < 0.95:
        verdict = "unclassified"
    elif _octave_summable(mu):
        verdict = "trace-class"
    else:
        p = -1.0 / exponent if exponent < 0 else np.inf
        verdict = f"weak-S{p:.3g}"
    return IdealVerdict(exponent, r2, verdict)


def _octave_summable(mu: np.ndarray) -> bool:
    """Tail octave sums must decay geometrically for a summable spectrum.

    For mu ~ r^e the ratio of consecutive octave sums tends to 2^(1+e); the
    0.85 cutoff (e below roughly -1.2) keeps a noise margin on truncated
    spectra while rejecting everything at or above the harmonic borderline.
    Like the exponent fit, the test reads only the tail half (here of the
    octave ratios): the pre-asymptotic head says nothing about summability.
    """
    sums = []
    hi = len(mu)
    while hi >= 32:
        lo = hi // 2
        sums.append(mu[lo:hi].sum())
        hi = lo
    sums = sums[::-1]
    if len(sums) < 3:
        return False
    ratios = np.array([b / a for a, b in zip(sums, sums[1:]) if a > 0])
    if len(ratios) == 0:
        return False
    return bool(np.median(ratios[len(ratios) // 2:]) < 0.85 and ratios[-1] < 0.9)


# ---------------------------------------------------------------------------
# Quasi-even module verification.
# ---------------------------------------------------------------------------

def stable_spectrum(build, ctx: DiracContext) -> SingularSpectrum:
    """Ranked singular values stable under shrinking the degeneracy truncation.

    The compressed spectrum is exact on a ranked prefix and falls off
    spuriously near its capacity; comparing m_max with m_max / 2, at least
    64 (agreement to 1e-6 relative), isolates the honest prefix, which is
    what decay fits may use.  A context whose comparison truncation is not
    the smaller one (m_max <= 64) is a ``TruncationError``.

    The two block stacks agree, bit for bit, in most blocks they share (all
    but the edge slot for ``dirac.defect_stacks``): those blocks are
    decomposed once, and each truncation's spectrum is assembled from them
    and from its own differing blocks.
    """
    small = replace(ctx, m_max=max(ctx.m_max // 2, 64))
    if small.m_max >= ctx.m_max:
        raise TruncationError(f"m_max {ctx.m_max} leaves no smaller truncation to compare with")
    big, sml = build(ctx), build(small)
    n = min(len(big), len(sml)) if big.shape[1:] == sml.shape[1:] else 0
    same = (big[:n] == sml[:n]).all(axis=(1, 2))
    shared = singular_values(big[:n][same]).mu
    s_big = SingularSpectrum(np.concatenate(
        [shared, singular_values(np.concatenate([big[:n][~same], big[n:]])).mu]))
    if s_big.count == 0 or s_big.mu[0] <= 1e-14:
        # the zero operator: trivially stable, trivially summable
        return SingularSpectrum(np.zeros(64))
    s_small = SingularSpectrum(np.concatenate(
        [shared, singular_values(np.concatenate([sml[:n][~same], sml[n:]])).mu]))
    n = min(s_big.count, s_small.count)
    big, sml = s_big.mu[:n], s_small.mu[:n]
    scale = big[0] if n and big[0] > 0 else 1.0
    ok = np.abs(big - sml) <= 1e-6 * np.maximum(big, 1e-300) + 1e-12 * scale
    bad = np.nonzero(~ok)[0]
    stop = int(bad[0]) if len(bad) else n
    if stop < 64:
        raise RuntimeError(
            f"stable prefix too short ({stop}); increase the truncation"
        )
    return SingularSpectrum(big[:stop])


def verify_quasi_even(ctx: DiracContext, test_set: list[MagneticElement]) -> dict:
    """Classify the defect products of the phase module on a test set.

    For each element: [F, pi(A)] should sit in the weak ideal of order 2
    (ranked exponent -1/2), [F^2, pi(A)] and the mixed products
    R(A) [F, pi(A')] (both orders) and triple commutator products should be
    trace class.  All spectra are read on the truncation-stable prefix
    (computed at two truncations).  The defect operators are built once per
    element and truncation as L-block stacks on one level window, one level
    past the largest support, so every product is a batched matmul.  Returns
    verdicts with fitted exponents.
    """
    levels = max(a.support_bound for a in test_set) + 1

    @cache
    def table(c: DiracContext) -> list[dict]:
        return [defect_stacks(a, c, levels) for a in test_set]

    def verdict(*factors):
        """Decay verdict of the product of (element index, defect key) factors."""
        def build(c):
            return reduce(np.matmul, [table(c)[i][key] for i, key in factors])
        return classify_decay(stable_spectrum(build, ctx))

    report: dict = {"elements": [], "pairs": [], "triples": []}
    for i, a in enumerate(test_set):
        v_f = verdict((i, "F_comm"))
        v_sq = verdict((i, "Fsq_comm"))
        report["elements"].append(
            {
                "support": a.support_bound,
                "F_comm": v_f,
                "Fsq_comm": v_sq,
                "F_comm_ok": abs(v_f.exponent + 0.5) <= 0.1,
                "Fsq_ok": v_sq.verdict == "trace-class",
            }
        )
    for i in range(len(test_set) - 1):
        v_l = verdict((i, "R"), (i + 1, "F_comm"))
        v_r = verdict((i + 1, "F_comm"), (i, "R"))
        report["pairs"].append(
            {
                "left": v_l,
                "right": v_r,
                "ok": v_l.verdict == "trace-class" and v_r.verdict == "trace-class",
            }
        )
    for i in range(len(test_set) - 2):
        v = verdict((i, "F_comm"), (i + 1, "F_comm"), (i + 2, "F_comm"))
        report["triples"].append(
            {"verdict": v, "ok": v.verdict == "trace-class" and v.exponent <= -1.4}
        )
    report["ok"] = (
        all(e["F_comm_ok"] and e["Fsq_ok"] for e in report["elements"])
        and all(p["ok"] for p in report["pairs"])
        and all(t["ok"] for t in report["triples"])
    )
    return report
