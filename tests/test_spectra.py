"""Singular-value machinery: Dixmier ladders, closed-form laws, decay classes."""

import tracemalloc
import warnings
from collections import Counter
from collections.abc import Mapping
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from magnc import spectra
from magnc.algebra import (MagneticElement, TruncationError, landau_projection, random_element,
                           upsilon)
from magnc.basis import ladder_blocks_1d
from magnc.dirac import (
    DiracContext,
    QuartetOperator,
    build_dirac,
    defect_operators,
    defect_stacks,
)
from magnc.spectra import (
    DEFAULT_LADDER,
    IdealVerdict,
    SingularSpectrum,
    build_shifted_commutator,
    c_alpha,
    classify_decay,
    closed_form_mu,
    d4_partial_sums,
    _dixmier_arrays,
    digamma,
    dixmier_from_partial_sums,
    require_ladder,
    shifted_resolvent_ladder,
    singular_values,
    stable_spectrum,
    trigamma,
    verify_quasi_even,
)
from oracles import pattern_block_svdvals, quasi_even_from_one_table

CTX = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=96, buffer=4)
SMALL = DiracContext(lb=1.0, eps=0.5, n_max=4, m_max=8, buffer=2)


def harmonic(count, c=1.0):
    return c / np.arange(1.0, count + 1.0)


def spectrum_ladder(mu, ladder=DEFAULT_LADDER):
    """(counts, partial sums) of a spectrum, ranked descending, at ``ladder``."""
    csum = np.cumsum(np.sort(mu)[::-1])
    return np.array(ladder, dtype=float), np.array([csum[n - 1] for n in ladder])


def occupied_levels(t):
    """The highest level a nonzero of the lattice operator ``t`` occupies, plus one."""
    coo = t.op.tocoo()
    block = 4 * t.ctx.n_tot
    return int(np.concatenate([coo.row % block, coo.col % block]).max(initial=0)) // 4 + 1


def level_window(t):
    """Indices of the sites n < ``occupied_levels(t)`` of every sector m: the
    rows and columns of ``l_blocks(t)``."""
    block = 4 * t.ctx.n_tot
    return (np.arange(t.ctx.m_tot)[:, None] * block
            + np.arange(4 * occupied_levels(t))).ravel()


def l_blocks(t, levels=None):
    """Oracle: the lattice operator ``t`` as its (m_tot, 4 levels, 4 levels)
    stack of L-blocks, L = m + [s in {1, 2}], on the window n < ``levels``
    (default: the occupied levels).  Block L holds the sites (m = L,
    s in {0, 3}) and (m = L - 1, s in {1, 2}) at position 4 n + s; the
    half-empty edge blocks L = 0 and L = m_tot share slot 0.  An entry
    coupling two values of L raises ValueError."""
    coo = t.op.tocoo()
    coo.sum_duplicates()
    coo.eliminate_zeros()
    # lattice index -> (sector m, position 4 n + s within the sector)
    m_row, p_row = np.divmod(coo.row, 4 * t.ctx.n_tot)
    m_col, p_col = np.divmod(coo.col, 4 * t.ctx.n_tot)
    l_row = m_row + np.isin(p_row % 4, (1, 2))
    if np.any(l_row != m_col + np.isin(p_col % 4, (1, 2))):
        raise ValueError("operator couples different L = m + [s in {1, 2}]")
    width = 4 * (occupied_levels(t) if levels is None else levels)
    stack = np.zeros((t.ctx.m_tot, width, width), t.op.dtype)
    stack[l_row % t.ctx.m_tot, p_row, p_col] = coo.data
    return stack


class TestSingularValues:
    def test_identity_block(self):
        eye = QuartetOperator(sp.identity(SMALL.dim, format="csr"), SMALL)
        sv = singular_values(l_blocks(eye))
        assert sv.count == SMALL.dim
        assert np.allclose(sv.mu, 1.0)

    def test_descending_order(self):
        sv = singular_values(defect_stacks(random_element(3, 3, 1.0), CTX, 4)["F_comm"])
        assert np.all(np.diff(sv.mu) <= 0)

    def test_hermitian_absolute_eigenvalues(self):
        d = build_dirac(SMALL, check=False)
        sv = singular_values(l_blocks(d))
        want = np.sort(np.abs(np.linalg.eigvalsh(d.op.toarray())))[::-1]
        assert np.allclose(sv.mu, want, rtol=1e-12, atol=1e-12)

    def test_regularized_inverse_closed_form(self):
        from magnc.dirac import reg_inverse

        w = reg_inverse(CTX, 2.0)
        sv = singular_values(l_blocks(w))
        want = np.sort(1.0 / (CTX.eps + np.array(
            [n + m + 1 + s for n in range(CTX.n_tot) for m in range(CTX.m_tot)
             for s in (-1.0, 0.0, 1.0, 0.0)]
        )))[::-1]
        assert np.allclose(sv.mu[:100], want[:100], rtol=1e-12)

    def test_operator_breaking_l_rejected(self):
        # b+ = -a+ raises m at fixed (n, s), so it couples L to L + 1
        b_plus = -ladder_blocks_1d(SMALL.m_tot)[0]
        b = sp.kron(sp.kron(b_plus, sp.identity(SMALL.n_tot)), sp.identity(4), format="csr")
        with pytest.raises(ValueError, match="couples different L"):
            l_blocks(QuartetOperator(b, SMALL))

    def test_blockwise_path_matches_dense(self):
        # the L-block stack of an operator whose nonzero pattern splits into
        # many blocks, against the lattice operator's window through the
        # pattern-block oracle (checked against one dense SVD below)
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=4, m_max=256, buffer=2)
        mu_blocks = singular_values(defect_stacks(upsilon(0, 1), ctx, 3)["F_comm"]).mu
        d = defect_operators(upsilon(0, 1), ctx)["F_comm"]
        sel = level_window(d)
        want = pattern_block_svdvals(d.op[sel][:, sel])
        assert len(mu_blocks) == len(want)
        assert np.allclose(mu_blocks, want, atol=1e-9)

    def test_pattern_block_oracle_matches_dense(self):
        # the oracle's blocks against one dense SVD of a small lattice window
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=4, m_max=16, buffer=2)
        d = defect_operators(upsilon(0, 1), ctx)["F_comm"]
        sel = level_window(d)
        window = d.op[sel][:, sel]
        dense = np.linalg.svd(window.toarray(), compute_uv=False)
        assert np.abs(pattern_block_svdvals(window) - dense).max() <= 1e-12

    @pytest.mark.parametrize("which", ["D", "F", "F_comm"])
    def test_stacked_path_matches_per_block_svd(self, which):
        # the lattice operator's L-blocks go through one stacked SVD; the
        # oracle takes one SVD per connected block of the nonzero pattern
        from magnc.dirac import dirac_phase

        ctx = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=48, buffer=4)
        t = {"D": lambda: build_dirac(ctx, check=False),
             "F": lambda: dirac_phase(ctx, check=False),
             "F_comm": lambda: defect_operators(random_element(3, 3, 1.0), ctx)["F_comm"]}[which]()
        sel = level_window(t)
        want = pattern_block_svdvals(t.op[sel][:, sel])
        got = singular_values(l_blocks(t)).mu
        assert len(got) == len(want) == len(sel)
        assert np.abs(got - want).max() <= 1e-12


class TestDefectStacks:
    """``defect_stacks`` against the lattice ``defect_operators``, placed into
    L-blocks by the oracle ``l_blocks``."""

    @pytest.mark.parametrize("ctx", [CTX, DiracContext(lb=1.3, eps=0.25, n_max=6,
                                                       m_max=20, buffer=2)])
    def test_stacks_equal_the_lattice(self, ctx):
        test_set = [upsilon(0, 1, ctx.lb), random_element(8, 3, 1.0, ctx.lb),
                    random_element(9, 3, 1.0, ctx.lb)]
        levels = 4
        stacks = [defect_stacks(a, ctx, levels) for a in test_set]
        lattice = [{k: v.op for k, v in defect_operators(a, ctx).items()} for a in test_set]

        def assert_equal(stack, op):
            assert np.abs(stack - l_blocks(QuartetOperator(op.tocsr(), ctx), levels)).max() <= 1e-12

        for got, want in zip(stacks, lattice):
            assert set(got) == set(want) == {"R", "Fsq_comm", "F_comm"}
            for key in want:
                assert got[key].shape == (ctx.m_tot, 4 * levels, 4 * levels)
                assert_equal(got[key], want[key])
        assert_equal(stacks[0]["R"] @ stacks[1]["F_comm"], lattice[0]["R"] @ lattice[1]["F_comm"])
        assert_equal(stacks[0]["F_comm"] @ stacks[1]["F_comm"] @ stacks[2]["F_comm"],
                     lattice[0]["F_comm"] @ lattice[1]["F_comm"] @ lattice[2]["F_comm"])

    def test_window_must_pass_the_support(self):
        with pytest.raises(TruncationError, match="window"):
            defect_stacks(random_element(8, 3, 1.0), CTX, 3)
        with pytest.raises(TruncationError, match=f"margin of {CTX.buffer}"):
            defect_stacks(upsilon(0, CTX.n_max - 1), CTX, CTX.n_tot)


class TestPolygamma:
    """The numpy digamma and trigamma of the exact ladders against mpmath."""

    @staticmethod
    def arguments():
        # a log grid over [0.01, 3e7] with the root of psi, and the arguments
        # N + n + 1 + xi of the default ladders (n < 20, xi = eps + shift)
        grid = np.concatenate([np.geomspace(0.01, 3e7, 300), [1.4616321449683623]])
        shifts = np.array([0.5 + b for b in (-1.0, 0.0, 1.0)] + [0.15, 2.0])
        a = (np.arange(20.0)[:, None] + 1.0 + shifts).ravel()
        return np.concatenate([grid, a, np.add.outer(DEFAULT_LADDER, a).ravel()])

    def test_digamma_against_mpmath(self):
        import mpmath as mp

        x = self.arguments()
        want = np.array([float(mp.psi(0, mp.mpf(v))) for v in x])
        assert np.all(np.abs(digamma(x) - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    def test_trigamma_against_mpmath(self):
        import mpmath as mp

        x = self.arguments()
        want = np.array([float(mp.psi(1, mp.mpf(v))) for v in x])
        assert np.all(np.abs(trigamma(x) - want) <= 1e-14 * want)

    def test_ladders_match_the_per_rung_scipy_loops(self):
        # the batched ladders against their former per-rung loops on scipy
        from scipy.special import digamma as sp_digamma, polygamma

        a_el = random_element(3, 6, 1.0)
        diag = np.diag(a_el.block)
        for xi in (-0.5, 0.5, 1.5):
            a = np.arange(len(diag)) + 1.0 + xi
            want = [np.sum(diag * (sp_digamma(n + a) - sp_digamma(a))) for n in DEFAULT_LADDER]
            _, got = shifted_resolvent_ladder(diag, xi)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        for eps in (0.25, 0.5, 2.0):
            ns, got = d4_partial_sums(eps)
            j = np.round(np.sqrt(ns / 2.0))[:, None]
            xi = eps + np.array([-1.0, 0.0, 1.0, 0.0])
            want = (sp_digamma(j + 1 + xi) - sp_digamma(1 + xi)
                    - xi * (polygamma(1, 1 + xi) - polygamma(1, j + 1 + xi))).sum(axis=1)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_elementwise_on_any_shape(self):
        x = np.array([[0.5, 3.0], [40.0, 1e6]])
        assert digamma(x).shape == trigamma(x).shape == x.shape
        assert digamma(x)[1, 0] == digamma(40.0)


class TestDixmierEstimation:
    def test_harmonic_recovers_constant(self):
        for c in (1.0, 3.7):
            est = dixmier_from_partial_sums(*spectrum_ladder(harmonic(DEFAULT_LADDER[-1], c)))
            assert est.value == pytest.approx(c, rel=0.01)
            assert est.measurable

    def test_finite_rank_vanishes(self):
        mu = np.zeros(DEFAULT_LADDER[-1])
        mu[:64] = 2.0
        est = dixmier_from_partial_sums(*spectrum_ladder(mu))
        assert abs(est.value) < 1e-4

    def test_trace_class_power_law_vanishes(self):
        # estimator sanity: a summable spectrum must read as zero at 1e-4
        mu = harmonic(DEFAULT_LADDER[-1]) ** 1.5
        est = dixmier_from_partial_sums(*spectrum_ladder(mu))
        assert abs(est.value) <= est.error < 1e-4

    def test_non_finite_rung_is_not_measurable(self):
        # a summable ladder with one infinite rung: no zero is reported
        ns, sums = spectrum_ladder(harmonic(DEFAULT_LADDER[-1]) ** 1.5)
        sums[1] = np.inf
        assert not dixmier_from_partial_sums(ns, sums).measurable

    def test_overflowing_residuals_are_not_measurable(self):
        # finite rungs at 1e200 that oscillate by 30%: flagged, no warning
        ns = np.array(DEFAULT_LADDER, dtype=float)
        wavy = 1e200 * np.log(ns) * (1.0 + 0.3 * (-1.0) ** np.arange(len(ns)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not dixmier_from_partial_sums(ns, wavy).measurable

    def test_d4_normalization(self):
        ns, sums = d4_partial_sums(0.5)
        est = dixmier_from_partial_sums(ns, sums)
        assert est.value == pytest.approx(2.0, rel=0.02)

    def test_d4_other_regularizations(self):
        # the residue's corrections grow with the shifts (4.0e-6 at eps 2);
        # the normalization is still recovered
        for eps in (0.25, 1.0, 2.0):
            ns, sums = d4_partial_sums(eps)
            est = dixmier_from_partial_sums(ns, sums)
            assert est.value == pytest.approx(2.0, rel=0.05)

    def test_linearity_on_merged_spectra(self):
        n = DEFAULT_LADDER[-1]
        mu1 = harmonic(n, 1.0)
        mu2 = harmonic(n, 0.5)
        merged = np.sort(np.concatenate([mu1, mu2]))[::-1][:n]
        e1, e2, em = (dixmier_from_partial_sums(*spectrum_ladder(mu))
                      for mu in (mu1, mu2, merged))
        tol = 3 * (e1.error + e2.error + em.error) + 0.01 * 1.5
        assert abs(em.value - (e1.value + e2.value)) < tol

    def test_oscillating_ladder_flagged(self):
        ns = np.array([10.0**k for k in range(2, 8)])
        sums = np.log(ns) * (1.0 + 0.5 * (-1.0) ** np.arange(6))
        est = dixmier_from_partial_sums(ns, sums)
        assert not est.measurable
        assert est.method == "dixmier-extrapolated"

    def test_resolvent_ladder_projection(self):
        for j in range(3):
            est = dixmier_from_partial_sums(
                *shifted_resolvent_ladder(np.diag(landau_projection(j).block), 0.5))
            assert est.value == pytest.approx(1.0, rel=0.01)

    def test_resolvent_ladder_offdiagonal_vanishes(self):
        est = dixmier_from_partial_sums(*shifted_resolvent_ladder(np.diag(upsilon(0, 1).block),
                                                                  0.5))
        assert abs(est.value) < 1e-3

    def test_zero_complex_diagonal_gives_positive_zeros(self):
        # no branch of its own: the digamma table times +0 complex zeros
        xi = np.array([[-0.5, 0.0], [0.7, 2.0]])
        _, sums = shifted_resolvent_ladder(np.zeros(4, dtype=complex), xi)
        assert sums.shape == xi.shape + (len(DEFAULT_LADDER),) and sums.dtype == complex
        assert not sums.any()
        assert not np.signbit(sums.real).any() and not np.signbit(sums.imag).any()

    def test_resolvent_shift_independence(self):
        # the extrapolated value does not depend on the diagonal shift
        a = random_element(3, 4, 1.0)
        vals = [dixmier_from_partial_sums(*shifted_resolvent_ladder(np.diag(a.block), xi)).value
                for xi in (-0.5, 0.0, 0.7, 2.0)]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-3, abs=1e-6)

    def test_dispatch(self):
        est = dixmier_from_partial_sums(
            *spectrum_ladder(harmonic(10**6), ladder=(10**3, 10**4, 10**5, 10**6)))
        assert est.value == pytest.approx(1.0, rel=0.02)

    def test_rejects_short_ladders(self):
        with pytest.raises(ValueError):
            dixmier_from_partial_sums([10, 100], [1.0, 2.0])

    @pytest.mark.parametrize("ladder", [[], [10, 100], [1, 10, 100], [10, 100, 100],
                                        [100, 10, 1000], [np.nan, 10, 100], [10, np.nan, 100]])
    def test_one_ladder_validator(self, ladder):
        # the Dixmier rule and the CLI's --ladder share this check
        with pytest.raises(ValueError, match="three or more rungs"):
            require_ladder(ladder)
        assert require_ladder([2, 3, 4]).tolist() == [2.0, 3.0, 4.0]


def same_bits(x, y) -> bool:
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


class TestBatchedDixmierFits:
    NS = [10**k for k in range(2, 8)]

    def ladders(self):
        """Harmonic, power law 1.5 (summable), all zero, an infinite
        rung, and the oscillating ladder of
        ``test_oscillating_ladder_flagged``, on one set of rungs."""
        mu = harmonic(10**7)
        inf_rung = spectrum_ladder(mu**1.5, self.NS)[1]
        inf_rung[2] = np.inf
        return np.stack([spectrum_ladder(mu, self.NS)[1], spectrum_ladder(mu**1.5, self.NS)[1],
                         np.zeros(len(self.NS)), inf_rung,
                         np.log(self.NS) * (1.0 + 0.5 * (-1.0) ** np.arange(6.0))])

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 0.5j], ids=["real", "complex"])
    def test_each_row_reads_as_it_would_alone(self, scale):
        # complex division reads the infinite rung as inf+nanj, without a warning
        sums = scale * self.ladders()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ns, value, error, sigma, measurable = _dixmier_arrays(self.NS, sums, 0.05)
            alone = [dixmier_from_partial_sums(self.NS, row) for row in sums]
        assert {a.method for a in alone} == {"dixmier-extrapolated"}
        assert [a.measurable for a in alone] == [True, True, True, False, False]
        for i, a in enumerate(alone):
            assert same_bits(value[i], a.value) and same_bits(error[i], a.error)
            assert same_bits(sigma[i], a.sigma) and same_bits(ns, a.ns)
            assert bool(measurable[i]) is a.measurable

    def test_permuting_rows_permutes_the_estimates(self):
        sums = self.ladders()
        perm = [3, 0, 4, 2, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = _dixmier_arrays(self.NS, sums, 0.05)[1:]
            permuted = _dixmier_arrays(self.NS, sums[perm], 0.05)[1:]
        for j, i in enumerate(perm):
            for got, want in zip(permuted, fits):
                assert same_bits(got[j], want[i])


class TestClosedFormLaws:
    def test_d_kind_direct_value(self):
        got = closed_form_mu("D", 0, 1, 0.5, 0.5, 0.0, 0)
        assert got == pytest.approx(abs(0.5 - 1.5) / (1.5 * 2.5), abs=1e-12)

    def test_d_kind_vanishes_on_diagonal(self):
        got = closed_form_mu("D", 2, 2, 0.3, 0.3, 0.0, np.arange(10))
        assert np.abs(np.asarray(got)).max() == 0.0

    def test_alpha_bound_nonnegative_shifts(self):
        m = np.arange(500)
        for e1 in (0.0, 0.5, 2.0):
            for e2 in (0.0, 0.5, 2.0):
                for (j, k) in [(0, 1), (0, 4), (3, 1)]:
                    am = c_alpha(j, k, e1, e2, m)
                    assert np.all(am <= abs((j + e2) - (k + e1)) / 2 + 1e-13)

    def test_alpha_bound_fails_for_negative_shifts_at_small_m(self):
        # documented caveat: shifts in (-1, 0) break the bound at small m
        am = c_alpha(0, 1, -0.5, -0.5, 0)
        assert am > abs(-0.5 - 0.5) / 2

    def test_c_kind_matches_sparse_operator(self):
        y = upsilon(0, 2)
        num = build_shifted_commutator("C", y, 5, 64, 0.5, 1.5)
        assert num.shape == (64, 5, 5)
        law = closed_form_mu("C", 0, 2, 0.5, 1.5, 0.0, np.arange(64))
        assert np.abs(np.abs(num).max(axis=(1, 2)) - law).max() < 1e-12

    def test_d_kind_matches_sparse_operator_all_interior(self):
        for (j, k, e1, e2) in [(0, 1, 0.5, 0.5), (1, 3, 0.25, 1.25), (2, 0, 1.5, 0.5)]:
            size = max(j, k) + 3
            num = build_shifted_commutator("D", upsilon(j, k), size, 72, e1, e2)
            law = closed_form_mu("D", j, k, e1, e2, 0.0, np.arange(72))
            assert np.abs(np.abs(num).max(axis=(1, 2)) - law).max() < 1e-8

    def test_j_kind_matches_sparse_operator(self):
        j, k, e1, e2, e3 = 1, 2, 0.5, 0.5, 1.5
        size = 6
        num = build_shifted_commutator("J", upsilon(j, k), size, 64, e1, e2, e3)
        law = closed_form_mu("J", j, k, e1, e2, e3, np.arange(64))
        assert np.abs(np.abs(num).max(axis=(1, 2)) - law).max() < 1e-10

    def test_b_ladder_weighting(self):
        # left multiplication by b+- lifts the decay from -3/2 to -1
        y = upsilon(0, 1)
        c = sp.block_diag(build_shifted_commutator("C", y, 4, 96, 0.5, 0.5), format="csr")
        # b+ = -a+ on the degeneracy index of the m-major (m, n) lattice
        b_plus = sp.kron(-ladder_blocks_1d(96)[0], sp.identity(4), format="csr")
        num = (b_plus @ c).tocsr()
        law_c = closed_form_mu("C", 0, 1, 0.5, 0.5, 0.0, np.arange(88))
        for m in range(40, 80):
            lo, hi = m * 4, (m + 1) * 4
            # b+ maps sector m to m+1: the block sits one sector up
            blk = num[(m + 1) * 4 : (m + 2) * 4, lo:hi].toarray()
            want = np.sqrt(m + 1.0) * law_c[m]
            assert abs(np.abs(blk).max() - want) < 1e-10

    def test_rejects_bad_shifts(self):
        with pytest.raises(ValueError):
            closed_form_mu("D", 0, 1, -1.5, 0.0, 0.0, 0)

    @pytest.mark.parametrize("kind", ["C", "D", "J"])
    def test_block_wider_than_its_support(self, kind):
        # a stored 3 x 3 block of support 2 is cut to the window 2, bit for bit
        b = np.zeros((3, 3), dtype=complex)
        b[0, 1] = 1.0
        got = build_shifted_commutator(kind, MagneticElement(b), 2, 16, 0.5, 1.5, 0.25)
        want = build_shifted_commutator(kind, upsilon(1, 0), 2, 16, 0.5, 1.5, 0.25)
        assert got.shape == (16, 2, 2) and np.array_equal(got, want)
        with pytest.raises(TruncationError, match="support 2 exceeds the window 1"):
            build_shifted_commutator(kind, MagneticElement(b), 1, 16, 0.5, 1.5, 0.25)


class TestClassification:
    def test_exact_power_law_half(self):
        mu = np.arange(1.0, 5001.0) ** -0.5
        v = classify_decay(SingularSpectrum(mu))
        assert v.exponent == pytest.approx(-0.5, abs=1e-3)
        assert v.verdict.startswith("weak-S2")

    def test_trace_class_power_law(self):
        mu = np.arange(1.0, 5001.0) ** -2.0
        v = classify_decay(SingularSpectrum(mu))
        assert v.verdict == "trace-class"

    def test_rising_head_then_summable_tail(self):
        # a flat head makes the first octave sums rise (ratio 2); only the
        # r^-1.43 tail decides summability
        mu = np.maximum(np.arange(1.0, 4097.0), 256.0) ** -1.43
        v = classify_decay(SingularSpectrum(mu))
        assert v.exponent == pytest.approx(-1.43, abs=1e-3)
        assert v.verdict == "trace-class"

    @pytest.mark.parametrize("exponent", [-1.0, -1.1, -0.5])
    def test_harmonic_and_slower_decay_not_trace_class(self, exponent):
        v = classify_decay(SingularSpectrum(np.arange(1.0, 4097.0) ** exponent))
        assert v.exponent == pytest.approx(exponent, abs=1e-3)
        assert v.verdict != "trace-class"

    def test_unclassified_on_noise(self):
        rng = np.random.default_rng(1)
        mu = np.sort(np.abs(rng.standard_normal(512)) + 0.5 * rng.random(512))[::-1]
        mu = mu * (1.0 + 0.5 * np.sin(np.arange(512)))
        v = classify_decay(SingularSpectrum(np.abs(mu)))
        assert v.verdict in ("unclassified", "trace-class") or v.r_squared >= 0.95

    def test_needs_enough_values(self):
        with pytest.raises(ValueError):
            classify_decay(SingularSpectrum(np.ones(16)))


class TestQuasiEvenVerification:
    def test_lowest_projection_and_transition(self):
        # the full corpus (pairs, triples) runs in the acceptance suite at a
        # larger truncation; this covers the lowest projection and one
        # transition operator, with the single cross pair
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=256, buffer=4)
        verdicts = verify_quasi_even(ctx, [landau_projection(0), upsilon(0, 1)])
        assert {k: len(v) for k, v in verdicts.items()} == {
            "F_comm": 2, "Fsq_comm": 2, "left": 1, "right": 1, "triple": 0}
        assert all(abs(v.exponent + 0.5) <= 0.1 for v in verdicts["F_comm"])
        assert all(v.verdict == "trace-class"
                   for key in ("Fsq_comm", "left", "right") for v in verdicts[key])

    def test_defect_operators_built_once_per_element_and_truncation(self, monkeypatch):
        # criterion 2's inputs: 11 products read off one table per truncation
        import magnc.spectra as spectra

        calls = []
        build = spectra.defect_stacks
        monkeypatch.setattr(spectra, "defect_stacks",
                            lambda a, c, levels: calls.append(c) or build(a, c, levels))
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=384, buffer=4)
        test_set = [upsilon(0, 1), random_element(5, 3, 1.0), random_element(6, 3, 1.0)]
        verdicts = verify_quasi_even(ctx, test_set)
        # measurements only: the bounds they must meet are the caller's
        assert sorted(verdicts) == ["F_comm", "Fsq_comm", "left", "right", "triple"]
        assert sum(len(vs) for vs in verdicts.values()) == 11
        assert all(isinstance(v, IdealVerdict) for vs in verdicts.values() for v in vs)
        assert all(abs(v.exponent + 0.5) <= 0.1 for v in verdicts["F_comm"])
        assert all(v.verdict == "trace-class" for key in ("Fsq_comm", "left", "right", "triple")
                   for v in verdicts[key])
        assert verdicts["triple"][0].exponent <= -1.4
        assert len(calls) == 2 * len(test_set)
        assert sorted({c.m_max for c in calls}) == [192, 384]

    @pytest.mark.parametrize("lb, eps, seed", [(1.0, 0.5, 1), (2.0, 0.5, 7), (1.0, 1.0, 370)])
    def test_memory_budget_at_criterion_2(self, lb, eps, seed):
        # criterion 2's inputs: every stack of both truncations held from the
        # first product to the last took 23.7 MiB; each held from its first
        # reader to its last takes under 16
        ctx = DiracContext(lb=lb, eps=eps, n_max=8, m_max=384, buffer=4)
        test_set = [upsilon(0, 1, lb), random_element(seed + 5, 3, 1.0, lb),
                    random_element(seed + 6, 3, 1.0, lb)]
        tracemalloc.start()
        try:
            verify_quasi_even(ctx, test_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_verdicts_equal_one_table_held_to_the_end(self, size, monkeypatch):
        # each stack is read off defect_stacks once per element and
        # truncation, and released after its last reader, for any number of
        # elements: the verdicts are those of the table that holds them all
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=384, buffer=4)
        test_set = [upsilon(0, 1), random_element(5, 3, 1.0), random_element(6, 3, 1.0),
                    random_element(7, 3, 1.0)][:size]
        want = quasi_even_from_one_table(ctx, test_set)
        reads = Counter()
        build = spectra.defect_stacks

        class Counted(Mapping):
            def __init__(self, a, c, levels):
                self.stacks = build(a, c, levels)
                self.tag = next(i for i, b in enumerate(test_set) if b is a), c.m_max

            def __getitem__(self, key):
                reads[(*self.tag, key)] += 1
                return self.stacks[key]

            def __iter__(self):
                return iter(self.stacks)

            def __len__(self):
                return len(self.stacks)

        monkeypatch.setattr(spectra, "defect_stacks", Counted)
        assert verify_quasi_even(ctx, test_set) == want
        # every key of every element, but R of the last, at both truncations
        assert len(reads) == 2 * (3 * size - 1)
        assert set(reads.values()) == {1}

    def test_criterion_2_builds_no_lattice_operator(self, monkeypatch):
        import magnc.dirac as dirac
        from magnc.cli import RunConfig, check_singular_value_laws

        def lattice(*args, **kwargs):
            raise AssertionError("criterion 2 built a lattice operator")

        for name in ("build_dirac", "dirac_phase", "defect_operators"):
            monkeypatch.setattr(dirac, name, lattice)
        assert check_singular_value_laws(RunConfig())["pass"]

    def test_fsq_sector_values_match_scaled_resolvent_law(self):
        # [F^2, pi(Y)] = -eps [|D_eps|^{-2}, pi(Y)]: blockwise the resolvent law
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=6, m_max=64, buffer=4)
        d = defect_operators(upsilon(0, 1), ctx)["Fsq_comm"]
        assert d.verify_m_diagonal()
        block = 4 * ctx.n_tot
        per_sector = [np.linalg.svd(d.op[m * block:(m + 1) * block,
                                         m * block:(m + 1) * block].toarray(),
                                    compute_uv=False)
                      for m in range(40)]
        shifts = ctx.eps + np.array([-1.0, 0.0, 1.0, 0.0])
        for m in range(2, 40):
            want = sorted(
                (ctx.eps * closed_form_mu("D", 0, 1, s, s, 0.0, m) for s in shifts),
                reverse=True,
            )
            got = per_sector[m][:4]
            assert np.allclose(got, want, atol=1e-10)

    def test_stable_prefix_guard(self):
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=6, m_max=96, buffer=4)

        def build(c):
            return defect_stacks(upsilon(0, 1), c, 3)["F_comm"]

        sv = stable_spectrum(build, ctx)
        assert sv.count >= 64
        assert np.all(np.diff(sv.mu) <= 1e-15)

    def test_shared_blocks_are_decomposed_once(self, monkeypatch):
        # the two truncations' L-block stacks agree bit for bit except at the
        # edge slot 0; a block forced to differ in the middle of the smaller
        # stack is decomposed too, and cuts the stable prefix
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=6, m_max=128, buffer=4)
        mid = 40
        decomposed = []
        exact = spectra.singular_values

        def recorded(stack):
            decomposed.extend(stack)
            return exact(stack)

        monkeypatch.setattr(spectra, "singular_values", recorded)

        def build(c, factor=1.0):
            out = defect_stacks(upsilon(0, 1), c, 3)["F_comm"]
            if c.m_max < ctx.m_max:
                out[mid] *= factor
            return out

        clean = stable_spectrum(build, ctx)
        big, small = build(ctx), build(replace(ctx, m_max=64))
        assert len(decomposed) == len(big) + 1   # the edge slot of the smaller stack
        decomposed.clear()
        cut = stable_spectrum(lambda c: build(c, 1.0 + 1e-3), ctx)
        assert len(decomposed) == len(big) + 2
        assert any(np.array_equal(b, small[mid] * (1.0 + 1e-3)) for b in decomposed)
        assert 64 <= cut.count < clean.count
        assert np.array_equal(cut.mu, clean.mu[:cut.count])

    @pytest.mark.parametrize("m_max", [40, 64])
    def test_stable_prefix_needs_a_smaller_comparison(self, m_max):
        # the comparison truncation is m_max / 2, at least 64: at m_max 64 it
        # is the same context and at 40 a larger one, which proves nothing
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=6, m_max=m_max, buffer=4)

        def build(c):
            return defect_stacks(upsilon(0, 1), c, 3)["F_comm"]

        with pytest.raises(TruncationError, match="no smaller truncation"):
            stable_spectrum(build, ctx)

    def test_anticommutator_commutator_decay(self):
        # [{Gamma, F}, pi(Y)] carries the ladder-lifted resolvent rate: the
        # ranked exponent is -1 (not the -3/2 of the bare square-root family)
        from magnc.dirac import GAMMA_GRADING, dirac_phase, represent

        ctx = DiracContext(lb=1.0, eps=0.5, n_max=6, m_max=384, buffer=4)

        def build(c):
            g = sp.kron(sp.identity(c.dim // 4), sp.csr_matrix(GAMMA_GRADING))
            f = dirac_phase(c, check=False).op
            anti = g @ f + f @ g
            pa = represent(upsilon(0, 1), c).op
            return l_blocks(QuartetOperator((anti @ pa - pa @ anti).tocsr(), c))

        sv = stable_spectrum(build, ctx)
        v = classify_decay(sv)
        assert v.exponent == pytest.approx(-1.0, abs=0.07)
