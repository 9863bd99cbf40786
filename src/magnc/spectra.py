"""Singular-value machinery: ideal norms, Dixmier estimation, closed-form laws.

Two independent routes run through this module everywhere: closed-form
singular-value laws vs numerically computed spectra, and logarithmic-mean
ladders (exact digamma partial sums for degeneracy-diagonal integrands) vs
their affine extrapolation in 1/log N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.special import digamma, polygamma

from .algebra import MagneticElement
from .basis import b_minus_matrix, b_plus_matrix
from .dirac import BLOCK_SHIFTS, DiracContext, QuartetOperator, defect_operators

__all__ = [
    "SingularSpectrum",
    "DixmierEstimate",
    "IdealVerdict",
    "singular_values",
    "sector_singular_values",
    "ideal_norm",
    "dixmier_estimate",
    "dixmier_from_spectrum",
    "dixmier_from_partial_sums",
    "shifted_resolvent_ladder",
    "tr_dix_shifted_resolvent",
    "stable_spectrum",
    "d4_partial_sums",
    "closed_form_mu",
    "c_alpha",
    "classify_decay",
    "verify_quasi_even",
    "build_shifted_commutator",
    "DEFAULT_LADDER",
]

DEFAULT_LADDER = (10**3, 10**4, 10**5, 10**6, 10**7)


@dataclass
class SingularSpectrum:
    """Descending singular values with provenance."""

    mu: np.ndarray
    source: str = ""

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        self.mu = np.sort(mu)[::-1].copy()

    @property
    def count(self) -> int:
        return len(self.mu)


@dataclass
class DixmierEstimate:
    """Extrapolated logarithmic mean with its ladder and fit diagnostics."""

    value: complex
    stderr: float
    ladder: list
    fit: tuple
    measurable: bool = True
    note: str = ""


@dataclass
class IdealVerdict:
    """Decay classification of a singular spectrum."""

    exponent: float
    r_squared: float
    norms: dict
    verdict: str


# ---------------------------------------------------------------------------
# Singular values of lattice operators.
# ---------------------------------------------------------------------------

def _n_window(op: sp.csr_matrix, ctx: DiracContext) -> int:
    """Smallest n_win so every nonzero entry has level index < n_win."""
    coo = op.tocoo()
    if coo.nnz == 0:
        return 1
    block = 4 * ctx.n_tot
    ns = np.concatenate([(coo.row % block) // 4, (coo.col % block) // 4])
    return int(ns.max()) + 1


def _window_selection(ctx: DiracContext, n_win: int) -> np.ndarray:
    base = (np.arange(ctx.m_tot)[:, None] * ctx.n_tot + np.arange(n_win)[None, :]) * 4
    return (base[..., None] + np.arange(4)).ravel()


def _blockwise_svdvals(op: sp.csr_matrix) -> np.ndarray:
    """All min(shape) singular values, one dense SVD per block of the pattern.

    Rows and columns are the two vertex classes of a bipartite graph with an
    edge per nonzero; its connected components are the diagonal blocks of a
    row and column permutation of ``op``, so the spectrum is the union of the
    block spectra, padded with zeros.  Exact for any sparsity pattern; the
    conserved J = n - m + s of D and F keeps the blocks small.
    """
    # imported here: csgraph adds about 3 MB of resident memory to every
    # process that imports the package, most of which never take an SVD
    from scipy.sparse.csgraph import connected_components

    n_rows = op.shape[0]
    pattern = op != 0
    graph = sp.bmat([[None, pattern], [pattern.T, None]])
    n_comp, labels = connected_components(graph, directed=False)
    # permute so block c holds rows r_off[c]:r_off[c+1], columns c_off[c]:c_off[c+1]
    row_order = np.argsort(labels[:n_rows], kind="stable")
    col_order = np.argsort(labels[n_rows:], kind="stable")
    bounds = np.arange(n_comp + 1)
    r_off = np.searchsorted(labels[:n_rows][row_order], bounds)
    c_off = np.searchsorted(labels[n_rows:][col_order], bounds)
    perm = op[row_order][:, col_order].tocoo()
    perm.sum_duplicates()
    nz = perm.data != 0
    rows, cols, vals = perm.row[nz], perm.col[nz], perm.data[nz]
    nz_off = np.searchsorted(rows, r_off)
    mu = []
    for c in np.nonzero(np.diff(nz_off))[0]:
        block = np.zeros((r_off[c + 1] - r_off[c], c_off[c + 1] - c_off[c]), op.dtype)
        k = slice(nz_off[c], nz_off[c + 1])
        block[rows[k] - r_off[c], cols[k] - c_off[c]] = vals[k]
        mu.append(scipy.linalg.svdvals(block))
    mu.append(np.zeros(min(op.shape) - sum(len(m) for m in mu)))
    return np.sort(np.concatenate(mu))[::-1]


def singular_values(t, k: int | None = None) -> SingularSpectrum:
    """Top-k singular values (all of them when k is None), descending.

    Lattice operators are first restricted to their level window (rows and
    columns with level index below the highest occupied one); every input
    then takes one dense SVD per connected block of its nonzero pattern.
    """
    if isinstance(t, QuartetOperator):
        sel = _window_selection(t.ctx, _n_window(t.op, t.ctx))
        op = t.op[sel][:, sel].tocsr()
    else:
        op = sp.csr_matrix(t)
    mu = _blockwise_svdvals(op)
    if k is not None:
        if k > len(mu):
            raise ValueError(f"requested {k} singular values, have {len(mu)}")
        mu = mu[:k]
    return SingularSpectrum(mu, source=getattr(t, "name", ""))


def sector_singular_values(t: QuartetOperator, m_stop: int) -> list[np.ndarray]:
    """Per-degeneracy-sector singular values of an m-diagonal operator."""
    if not isinstance(t, QuartetOperator) or not t.verify_m_diagonal():
        raise ValueError("per-sector singular values need an m-diagonal operator")
    block = 4 * t.ctx.n_tot
    return [
        singular_values(t.op[m * block : (m + 1) * block, m * block : (m + 1) * block]).mu
        for m in range(m_stop)
    ]


# ---------------------------------------------------------------------------
# Count-limited ideal norms.
# ---------------------------------------------------------------------------

def _mu_array(mu) -> np.ndarray:
    if isinstance(mu, SingularSpectrum):
        return mu.mu
    return np.sort(np.asarray(mu, dtype=float))[::-1]


def ideal_norm(mu, kind: str, p_or_q: float) -> float:
    """Count-limited evaluation of one operator-ideal norm.

    kinds: "schatten" (p > 0), "weak" (sup (m+1)^{1/p} mu_m, p > 0),
    "calderon" (p > 1 power form; p == 1 gives the logarithmic form),
    "macaev" (q >= 1).  Sup-type values are monotone nondecreasing in the
    number of singular values supplied.
    """
    mu = _mu_array(mu)
    p = float(p_or_q)
    if kind == "schatten":
        if p <= 0:
            raise ValueError("Schatten order must be positive")
        return float(np.sum(mu**p) ** (1.0 / p))
    if kind == "weak":
        if p <= 0:
            raise ValueError("weak order must be positive")
        m = np.arange(1, len(mu) + 1, dtype=float)
        return float(np.max(m ** (1.0 / p) * mu))
    if kind == "calderon":
        if p < 1:
            raise ValueError("Calderon order must be >= 1")
        csum = np.cumsum(mu)
        n = np.arange(1, len(mu) + 1, dtype=float)
        if p == 1:
            if len(mu) < 2:
                raise ValueError("logarithmic Calderon norm needs N >= 2")
            return float(np.max(csum[1:] / np.log(n[1:])))
        return float(np.max(csum / n ** (1.0 - 1.0 / p)))
    if kind == "macaev":
        if p < 1:
            raise ValueError("Macaev order must be >= 1")
        m = np.arange(1, len(mu) + 1, dtype=float)
        return float(np.sum(mu / m ** (1.0 - 1.0 / p)))
    raise ValueError(f"unknown ideal norm kind {kind!r}")


# ---------------------------------------------------------------------------
# Dixmier estimation: affine extrapolation of logarithmic means in 1/log N.
# ---------------------------------------------------------------------------

def dixmier_from_partial_sums(ns, sums, rel_tol: float = 0.05) -> DixmierEstimate:
    """Fit sigma_N = sum_N / log N against 1/log N; the intercept is the trace.

    The logarithmic means converge only at O(1/log N); the affine fit removes
    the leading correction.  Ladders whose partial sums are outright
    convergent (increments decaying geometrically across the rungs, the
    ratio test) belong to summable spectra, whose value is exactly zero.
    A ladder whose residuals exceed ``rel_tol`` of the value scale is flagged
    not measurable at this truncation.
    """
    ns = np.asarray(ns, dtype=float)
    sums = np.asarray(sums)
    if len(ns) < 3:
        raise ValueError("need at least three ladder rungs")
    if np.any(ns < 2) or np.any(np.diff(ns) <= 0):
        raise ValueError("ladder must be increasing with N >= 2")
    logs = np.log(ns)
    sigma = sums / logs
    if len(ns) >= 4:
        inc = np.abs(np.diff(sums))
        scale = float(np.max(np.abs(sums))) or 1.0
        tiny = inc <= 1e-12 * scale
        ratios = inc[1:] / np.maximum(inc[:-1], 1e-300)
        # a log-spaced ladder has constant increments exactly when the
        # spectrum is borderline-harmonic; geometric decay means summable
        if np.all(tiny[-2:]) or np.all(ratios[-2:] < 0.45):
            bound = float(np.abs(sums[-1] - sums[-2])) / logs[-1]
            val = 0j if np.iscomplexobj(sigma) else 0.0
            ladder = [
                (int(n), complex(s) if np.iscomplexobj(sigma) else float(s))
                for n, s in zip(ns, sigma)
            ]
            return DixmierEstimate(val, bound, ladder, (val, val), True,
                                   "partial sums converge (summable spectrum)")
    x = 1.0 / logs
    design = np.stack([np.ones_like(x), x], axis=-1)
    coef, *_ = np.linalg.lstsq(design, sigma, rcond=None)
    resid = sigma - design @ coef
    dof = max(len(ns) - 2, 1)
    gram_inv = np.linalg.inv(design.T @ design)
    resid_ms = float(np.sum(np.abs(resid) ** 2) / dof)
    stderr = float(np.sqrt(resid_ms * gram_inv[0, 0]))
    value = coef[0]
    scale = max(float(np.max(np.abs(sigma))), 1e-12)
    measurable = bool(np.sqrt(resid_ms) <= rel_tol * scale)
    note = "" if measurable else "not measurable at this truncation"
    if np.iscomplexobj(sigma):
        ladder = [(int(n), complex(s)) for n, s in zip(ns, sigma)]
        return DixmierEstimate(complex(value), stderr, ladder,
                               (complex(coef[0]), complex(coef[1])), measurable, note)
    ladder = [(int(n), float(s)) for n, s in zip(ns, sigma)]
    return DixmierEstimate(float(value), stderr, ladder,
                           (float(coef[0]), float(coef[1])), measurable, note)


def dixmier_from_spectrum(mu, ladder=DEFAULT_LADDER) -> DixmierEstimate:
    """Dixmier estimate from a positive singular spectrum and a count ladder."""
    mu = _mu_array(mu)
    ladder = [int(n) for n in ladder if n <= len(mu)]
    if len(ladder) < 3:
        raise ValueError("spectrum too short for the requested ladder")
    csum = np.cumsum(mu)
    sums = np.array([csum[n - 1] for n in ladder])
    return dixmier_from_partial_sums(np.array(ladder, dtype=float), sums)


def dixmier_estimate(data, ladder=DEFAULT_LADDER) -> DixmierEstimate:
    """Dispatch on input: a spectrum, or precomputed (N, partial sum) pairs."""
    if isinstance(data, SingularSpectrum) or (
        isinstance(data, np.ndarray) and data.ndim == 1 and not np.iscomplexobj(data)
    ):
        return dixmier_from_spectrum(data, ladder)
    ns, sums = data
    return dixmier_from_partial_sums(ns, sums)


def shifted_resolvent_ladder(s_el: MagneticElement, xi: float,
                             ladder=DEFAULT_LADDER):
    """Exact partial sums of the sector traces of (Q + xi)^{-1} S.

    Each degeneracy sector contributes sum_n S_nn / (n + m + 1 + xi); summing
    m < N gives sum_n S_nn (digamma(N + n + 1 + xi) - digamma(n + 1 + xi)),
    with no truncation error in either index.
    """
    if xi <= -1:
        raise ValueError("diagonal shift must exceed -1")
    diag = np.diag(s_el.block)
    ns = np.asarray(ladder, dtype=float)
    if len(diag) == 0 or not np.any(diag):
        return ns, np.zeros(len(ns), dtype=complex)
    n_idx = np.arange(len(diag), dtype=float)
    a = n_idx + 1.0 + xi
    sums = np.array([np.sum(diag * (digamma(n + a) - digamma(a))) for n in ns])
    return ns, sums


def tr_dix_shifted_resolvent(s_el: MagneticElement, xi: float,
                             ladder=DEFAULT_LADDER) -> DixmierEstimate:
    """Dixmier trace of (Q + xi)^{-1} S by ladder extrapolation."""
    ns, sums = shifted_resolvent_ladder(s_el, xi, ladder)
    return dixmier_from_partial_sums(ns, sums)


def d4_partial_sums(eps: float, ladder=DEFAULT_LADDER):
    """Partial sums for |D_eps|^{-4} at level cuts hitting the requested counts.

    Eigenvalues are (j + xi_i)^{-2} with multiplicity j at level j >= 1 over
    the four shifted blocks; the count at cut J is N = 2 J (J + 1) and the
    sums have exact digamma/trigamma closed forms.
    """
    shifts = eps + BLOCK_SHIFTS
    ns, sums = [], []
    for n_req in ladder:
        j = max(int(round(np.sqrt(n_req / 2.0))), 2)
        n_act = 2 * j * (j + 1)
        total = 0.0
        for xi in shifts:
            # sum_{r=1..J} r/(r+xi)^2 = [digamma(J+1+xi)-digamma(1+xi)]
            #                          - xi [trigamma(1+xi)-trigamma(J+1+xi)]
            total += digamma(j + 1 + xi) - digamma(1 + xi)
            total -= xi * (polygamma(1, 1 + xi) - polygamma(1, j + 1 + xi))
        ns.append(n_act)
        sums.append(total)
    return np.array(ns, dtype=float), np.array(sums)


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


def _scalar_lattice(a: MagneticElement, n_tot: int, m_tot: int) -> sp.csr_matrix:
    block = sp.csr_matrix(a.padded(n_tot))
    return sp.kron(sp.identity(m_tot, format="csr"), block, format="csr")


def build_shifted_commutator(kind: str, a: MagneticElement, n_tot: int,
                             m_tot: int, eps: float, eps2: float,
                             eps3: float = 0.0, b_sign: int = 0) -> sp.csr_matrix:
    """Numerical counterparts of the closed-form families on the (n, m) lattice.

    kind "C": Q_eps^{-1/2} A - A Q_eps2^{-1/2};  "D": resolvent version;
    "J": Q_eps^{-1/2} A Q_eps2^{-1/2} - Q_eps3^{-1} A.  With ``b_sign`` = +-1
    the C family is multiplied on the left by the degeneracy ladder b+-.
    Index layout m-major: idx = m * n_tot + n.
    """
    n = np.arange(n_tot)
    m = np.arange(m_tot)
    q = (m[:, None] + n[None, :] + 1.0).ravel()
    pa = _scalar_lattice(a, n_tot, m_tot)
    if kind == "C":
        left = sp.diags((q + eps) ** -0.5)
        right = sp.diags((q + eps2) ** -0.5)
        out = (left @ pa - pa @ right).tocsr()
        if b_sign:
            b1 = b_plus_matrix(m_tot) if b_sign > 0 else b_minus_matrix(m_tot)
            b = sp.kron(b1, sp.identity(n_tot, format="csr"), format="csr")
            out = (b @ out).tocsr()
        return out
    if kind == "D":
        left = sp.diags((q + eps) ** -1.0)
        right = sp.diags((q + eps2) ** -1.0)
        return (left @ pa - pa @ right).tocsr()
    if kind == "J":
        half_l = sp.diags((q + eps) ** -0.5)
        half_r = sp.diags((q + eps2) ** -0.5)
        res = sp.diags((q + eps3) ** -1.0)
        return (half_l @ pa @ half_r - res @ pa).tocsr()
    raise ValueError(f"unknown closed-form family {kind!r}")


# ---------------------------------------------------------------------------
# Decay classification.
# ---------------------------------------------------------------------------

def classify_decay(mu, fit_floor: float = 1e-14) -> IdealVerdict:
    """Log-log tail fit of the ranked singular values.

    Fits mu_r ~ (r+1)^e over the tail half, maps e to the weak-Schatten order
    p = -1/e, and upgrades to "trace-class" when consecutive octave sums of
    the tail decay geometrically (a summability ratio test).  Poor fits
    (R^2 < 0.95) return "unclassified".
    """
    mu = _mu_array(mu)
    if len(mu) < 64:
        raise ValueError("need at least 64 singular values to classify")
    good = mu > fit_floor
    mu = mu[good]
    if len(mu) < 64:
        return IdealVerdict(-np.inf, 1.0, {}, "trace-class")
    lo = len(mu) // 2
    r = np.arange(1, len(mu) + 1, dtype=float)
    x, y = np.log(r[lo:]), np.log(mu[lo:])
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    exponent = float(slope)

    summable = _octave_summable(mu)
    norms = _norm_panel(mu, exponent)
    if r2 < 0.95:
        verdict = "unclassified"
    elif summable:
        verdict = "trace-class"
    else:
        p = -1.0 / exponent if exponent < 0 else np.inf
        verdict = f"weak-S{p:.3g}"
    return IdealVerdict(exponent, r2, norms, verdict)


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


def _norm_panel(mu: np.ndarray, exponent: float) -> dict:
    p = -1.0 / exponent if exponent < -1e-3 else np.inf
    panel = {}

    def saturated(series: np.ndarray) -> bool:
        q = max(len(series) // 4, 1)
        head, tail = series[-q - 1], series[-1]
        return bool(abs(tail - head) <= 0.01 * max(abs(tail), 1e-300))

    m = np.arange(1, len(mu) + 1, dtype=float)
    if np.isfinite(p):
        weak_series = np.maximum.accumulate(m ** (1.0 / p) * mu)
        panel[f"weak-{p:.3g}"] = (float(weak_series[-1]), saturated(weak_series))
        if p > 1:
            cal_series = np.maximum.accumulate(np.cumsum(mu) / m ** (1.0 - 1.0 / p))
            panel[f"calderon-{p:.3g}+"] = (float(cal_series[-1]), saturated(cal_series))
    cal1 = np.maximum.accumulate(np.cumsum(mu)[1:] / np.log(m[1:]))
    panel["calderon-1+"] = (float(cal1[-1]), saturated(cal1))
    panel["schatten-1"] = (float(np.sum(mu)), saturated(np.cumsum(mu)))
    panel["macaev-2-"] = (
        float(np.sum(mu / m**0.5)),
        saturated(np.cumsum(mu / m**0.5)),
    )
    return panel


# ---------------------------------------------------------------------------
# Quasi-even module verification.
# ---------------------------------------------------------------------------

def stable_spectrum(build, ctx: DiracContext, shrink: float = 0.5,
                    agree_rtol: float = 1e-6) -> SingularSpectrum:
    """Ranked singular values stable under shrinking the degeneracy truncation.

    The compressed spectrum is exact on a ranked prefix and falls off
    spuriously near its capacity; comparing two truncations isolates the
    honest prefix, which is what decay fits may use.
    """
    small = DiracContext(lb=ctx.lb, eps=ctx.eps, n_max=ctx.n_max,
                         m_max=max(int(ctx.m_max * shrink), 64),
                         buffer=ctx.buffer)
    s_big = singular_values(build(ctx))
    if s_big.count == 0 or s_big.mu[0] <= 1e-14:
        # the zero operator: trivially stable, trivially summable
        return SingularSpectrum(np.zeros(64), source=s_big.source + " [zero]")
    s_small = singular_values(build(small))
    n = min(s_big.count, s_small.count)
    big, sml = s_big.mu[:n], s_small.mu[:n]
    scale = big[0] if n and big[0] > 0 else 1.0
    ok = np.abs(big - sml) <= agree_rtol * np.maximum(big, 1e-300) + 1e-12 * scale
    bad = np.nonzero(~ok)[0]
    stop = int(bad[0]) if len(bad) else n
    if stop < 64:
        raise RuntimeError(
            f"stable prefix too short ({stop}); increase the truncation"
        )
    return SingularSpectrum(big[:stop], source=s_big.source + " [stable prefix]")


def verify_quasi_even(ctx: DiracContext, test_set: list[MagneticElement]) -> dict:
    """Classify the defect products of the phase module on a test set.

    For each element: [F, pi(A)] should sit in the weak ideal of order 2
    (ranked exponent -1/2), [F^2, pi(A)] and the mixed products
    R(A) [F, pi(A')] (both orders) and triple commutator products should be
    trace class.  All spectra are read on the truncation-stable prefix
    (computed at two truncations).  Returns verdicts with fitted exponents
    and norm panels.
    """
    report: dict = {"elements": [], "pairs": [], "triples": []}

    for a in test_set:
        v_f = classify_decay(stable_spectrum(
            lambda c: defect_operators(a, c)["F_comm"], ctx))
        v_sq = classify_decay(stable_spectrum(
            lambda c: defect_operators(a, c)["Fsq_comm"], ctx))
        report["elements"].append(
            {
                "support": a.support_bound,
                "F_comm": v_f,
                "Fsq_comm": v_sq,
                "F_comm_ok": abs(v_f.exponent + 0.5) <= 0.1,
                "Fsq_ok": v_sq.verdict == "trace-class",
            }
        )
    for a, a2 in zip(test_set, test_set[1:]):
        def left(c, a=a, a2=a2):
            r, fc = defect_operators(a, c)["R"], defect_operators(a2, c)["F_comm"]
            return QuartetOperator((r.op @ fc.op).tocsr(), c, name="R(A)[F,A']")

        def right(c, a=a, a2=a2):
            r, fc = defect_operators(a, c)["R"], defect_operators(a2, c)["F_comm"]
            return QuartetOperator((fc.op @ r.op).tocsr(), c, name="[F,A']R(A)")

        v_l = classify_decay(stable_spectrum(left, ctx))
        v_r = classify_decay(stable_spectrum(right, ctx))
        report["pairs"].append(
            {
                "left": v_l,
                "right": v_r,
                "ok": v_l.verdict == "trace-class" and v_r.verdict == "trace-class",
            }
        )
    for a0, a1, a2 in zip(test_set, test_set[1:], test_set[2:]):
        def triple(c, a0=a0, a1=a1, a2=a2):
            f0, f1, f2 = (defect_operators(x, c)["F_comm"].op for x in (a0, a1, a2))
            return QuartetOperator((f0 @ f1 @ f2).tocsr(), c, name="triple")

        v = classify_decay(stable_spectrum(triple, ctx))
        report["triples"].append(
            {"verdict": v, "ok": v.verdict == "trace-class" and v.exponent <= -1.4}
        )
    report["ok"] = (
        all(e["F_comm_ok"] and e["Fsq_ok"] for e in report["elements"])
        and all(p["ok"] for p in report["pairs"])
        and all(t["ok"] for t in report["triples"])
    )
    return report
