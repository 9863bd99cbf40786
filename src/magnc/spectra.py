"""Singular-value machinery: Dixmier estimation, closed-form laws, decay classes.

Two independent routes run through this module everywhere: closed-form
singular-value laws vs numerically computed spectra, and logarithmic-mean
ladders (exact digamma partial sums for degeneracy-diagonal integrands) vs
their affine extrapolation in 1/log N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .algebra import MagneticElement, TruncationError
from .dirac import BLOCK_SHIFTS, DiracContext, defect_stacks

__all__ = [
    "SingularSpectrum",
    "CocycleValue",
    "IdealVerdict",
    "singular_values",
    "dixmier_from_partial_sums",
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
class CocycleValue:
    """A value of either tier with its method tag, error bar and measurable
    flag and, from a Dixmier fit, its logarithmic means sigma_N at the
    counts ``ns``."""

    value: complex
    method: str
    error: float
    measurable: bool
    sigma: np.ndarray | None = None
    ns: np.ndarray | None = None

    def __post_init__(self):
        if self.error < 0:
            raise ValueError("error bar must be nonnegative")


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

def dixmier_from_partial_sums(ns, sums, rel_tol: float = DIXMIER_REL_TOL) -> CocycleValue:
    """Fit sigma_N = sum_N / log N against 1/log N; the intercept is the trace.

    Row 0 of ``_fit_arrays``, which states the rules; the method tag is
    "dixmier-summable" where the ratio test read the partial sums as
    convergent, "dixmier-extrapolated" otherwise.
    """
    ns, value, stderr, sigma, measurable, summable = _fit_arrays(ns, np.asarray(sums)[None],
                                                                 rel_tol)
    return CocycleValue(value.tolist()[0],
                        "dixmier-summable" if summable[0] else "dixmier-extrapolated",
                        float(stderr[0]), bool(measurable[0]), sigma[0], ns)


class _FitMap(NamedTuple):
    """The parts of the Dixmier fit fixed by a ladder, all read-only: the
    counts N, log N and its increments, the design [1, 1/log N], its
    pseudo-inverse and inv(design^T design)[0, 0]."""

    ns: np.ndarray
    logs: np.ndarray
    dlogs: np.ndarray
    design: np.ndarray
    pinv: np.ndarray
    var0: float


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _fit_map(ladder: tuple) -> _FitMap:
    """The fit map of a ladder tuple, built once: ``require_ladder``'s
    check, then the parts every fit on that ladder shares."""
    ns = np.array(ladder, dtype=float)
    if not (len(ns) >= 3 and ns[0] >= 2 and (np.diff(ns) > 0).all()):
        raise ValueError("a ladder needs three or more rungs, strictly increasing from N >= 2")
    logs = np.log(ns)
    design = np.stack([np.ones_like(logs), 1.0 / logs], axis=-1)
    var0 = float(np.linalg.inv(design.T @ design)[0, 0])
    return _FitMap(*map(_read_only, (ns, logs, np.diff(logs), design, np.linalg.pinv(design))),
                   var0)


def _ladder_key(ns) -> tuple:
    """A ladder as a tuple of floats, the key of the ladder caches."""
    ns = np.asarray(ns, dtype=float)
    if ns.ndim != 1:
        raise ValueError("a ladder needs three or more rungs, strictly increasing from N >= 2")
    return tuple(ns.tolist())


def require_ladder(ns) -> np.ndarray:
    """The counts N of a Dixmier ladder as a read-only float array: at least
    three rungs, strictly increasing from N >= 2, or ValueError."""
    return _fit_map(_ladder_key(ns)).ns


def _fit_arrays(ns, sums, rel_tol: float):
    """The Dixmier fit of every row of a (ladders, rungs) array of partial
    sums, as arrays: (counts N, value, stderr, sigma, measurable, summable),
    from the ladder's cached ``_fit_map``.

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
    fit = _fit_map(_ladder_key(ns))
    logs = fit.logs
    sums = np.asarray(sums)
    # a complex infinite rung reads inf+nanj, and a non-finite or overflowing
    # row is flagged below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = sums / logs
        coef = (sigma[:, None, :] * fit.pinv).sum(axis=-1)
        resid = sigma - (fit.design * coef[:, None, :]).sum(axis=-1)
        resid_ms = (np.abs(resid) ** 2).sum(axis=1) / max(len(logs) - fit.design.shape[1], 1)
    top = np.abs(sigma).max(axis=1)
    finite = np.isfinite(sums).all(axis=1)
    summable = np.zeros(len(sums), dtype=bool)
    if len(logs) >= 4:
        rows = sums[finite]
        inc = np.abs(rows[:, 1:] - rows[:, :-1])
        # increments per unit of log N: rungs closing up are not convergence
        slope = inc / fit.dlogs
        ratios = slope[:, 1:] / np.maximum(slope[:, :-1], 1e-300)
        peak = np.abs(rows).max(axis=1)
        # a log-spaced ladder has constant increments exactly when the
        # spectrum is borderline-harmonic; geometric decay means summable
        flat = inc[:, -2:] <= 1e-12 * np.where(peak > 0, peak, 1.0)[:, None]
        summable[finite] = flat.all(axis=1) | (ratios[:, -2:] < 0.45).all(axis=1)
    value = np.where(summable, 0.0, coef[:, 0])
    stderr = np.sqrt(resid_ms * fit.var0)
    if summable.any():
        stderr[summable] = np.abs(sums[summable, -1] - sums[summable, -2]) / logs[-1]
    measurable = summable | (np.sqrt(resid_ms) <= rel_tol * np.maximum(top, 1e-12))
    return fit.ns, value, stderr, sigma, measurable, summable


@lru_cache(maxsize=64)
def _resolvent_table(shifts: tuple, ladder: tuple, size: int) -> np.ndarray:
    """digamma(N + n + 1 + xi) - digamma(n + 1 + xi), a read-only
    (shifts, rungs, size) array, built once per (shifts, ladder, window)."""
    a = (np.arange(size) + 1.0 + np.array(shifts)[:, None])[:, None, :]
    psi = digamma(np.concatenate([a, np.array(ladder)[:, None] + a], axis=1))
    return _read_only(psi[:, 1:] - psi[:, :1])


def shifted_resolvent_ladder(diag, xi, ladder=DEFAULT_LADDER):
    """Exact partial sums of the sector traces of (Q + xi)^{-1} S, from the
    diagonal ``diag`` of S (its only part the traces read).

    Each degeneracy sector contributes sum_n S_nn / (n + m + 1 + xi); summing
    m < N gives sum_n S_nn (digamma(N + n + 1 + xi) - digamma(n + 1 + xi)),
    with no truncation error in either index.  ``xi`` is one shift or an
    array of them: the sums have shape xi.shape + (rungs,), one product of
    ``diag`` with the digamma table of the shifts, the ladder and the window
    (``_resolvent_table``).
    """
    xi, diag = np.asarray(xi, dtype=float), np.asarray(diag)
    if (xi <= -1).any():
        raise ValueError("diagonal shift must exceed -1")
    ns = np.asarray(ladder, dtype=float)
    table = _resolvent_table(tuple(xi.ravel().tolist()), _ladder_key(ns), len(diag))
    return ns, table.reshape(xi.shape + table.shape[1:]) @ diag


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


def d4_dixmier(eps: float, ladder) -> CocycleValue:
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

def classify_decay(spectrum: SingularSpectrum) -> IdealVerdict:
    """Log-log tail fit of a spectrum's ranked singular values (the
    ``SingularSpectrum`` that ``stable_spectrum`` returns).

    Fits mu_r ~ (r+1)^e over the tail half, maps e to the weak-Schatten order
    p = -1/e, and upgrades to "trace-class" when consecutive octave sums of
    the tail decay geometrically (a summability ratio test).  Values at or
    below 1e-14 are dropped before the fit.  Poor fits (R^2 < 0.95) return
    "unclassified".
    """
    mu = spectrum.mu
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


def verify_quasi_even(ctx: DiracContext,
                      test_set: list[MagneticElement]) -> dict[str, list[IdealVerdict]]:
    """Decay verdicts of the defect products of the phase module on a test set.

    Keyed by product: "F_comm" and "Fsq_comm", [F, pi(A)] and [F^2, pi(A)]
    per element; "left" and "right", R(A) [F, pi(A')] and [F, pi(A')] R(A)
    per consecutive pair (A, A'); "triple", the product of three consecutive
    [F, pi(A)].  All spectra are read on the truncation-stable prefix
    (computed at two truncations).  Every product is a batched matmul of
    L-block stacks on one level window, one level past the largest support.
    Each stack is read off ``defect_stacks`` once per element and truncation,
    at its first product, and dropped after its last: [F^2, pi(A)] after its
    own verdict, R(A) after "right", [F, pi(A)] after the last triple that
    reads it.  The bounds the verdicts must meet belong to the caller.
    """
    levels = max(a.support_bound for a in test_set) + 1
    n = len(test_set)
    products = {"F_comm": [[(i, "F_comm")] for i in range(n)],
                "Fsq_comm": [[(i, "Fsq_comm")] for i in range(n)],
                "left": [[(i, "R"), (i + 1, "F_comm")] for i in range(n - 1)],
                "right": [[(i + 1, "F_comm"), (i, "R")] for i in range(n - 1)],
                "triple": [[(i, "F_comm"), (i + 1, "F_comm"), (i + 2, "F_comm")]
                           for i in range(n - 2)]}
    readers = [(name, factors) for name, by_product in products.items() for factors in by_product]
    # the index of the last reader of each (element, key) stack and of each element
    last = {factor: k for k, (_, factors) in enumerate(readers) for factor in factors}
    last_of = {i: max(k for (j, _), k in last.items() if j == i) for i in range(n)}
    defects, held = {}, {}   # keyed (truncation, element) and (truncation, element, key)

    def stack(c, i, key):
        if (c, i, key) not in held:
            if (c, i) not in defects:
                defects[c, i] = defect_stacks(test_set[i], c, levels)
            held[c, i, key] = defects[c, i][key]
        return held[c, i, key]

    verdicts = {name: [] for name in products}
    for k, (name, factors) in enumerate(readers):
        def build(c):
            return reduce(np.matmul, [stack(c, i, key) for i, key in factors])
        verdicts[name].append(classify_decay(stable_spectrum(build, ctx)))
        held = {h: v for h, v in held.items() if last[h[1:]] > k}
        defects = {d: v for d, v in defects.items() if last_of[d[1]] > k}
    return verdicts
