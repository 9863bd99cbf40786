"""Singular-value machinery: norms, Dixmier ladders, closed-form laws."""

import numpy as np
import pytest

from magnc.algebra import landau_projection, random_element, upsilon
from magnc.dirac import DiracContext, defect_operators
from magnc.spectra import (
    DEFAULT_LADDER,
    SingularSpectrum,
    build_shifted_commutator,
    c_alpha,
    classify_decay,
    closed_form_mu,
    d4_partial_sums,
    dixmier_estimate,
    dixmier_from_partial_sums,
    dixmier_from_spectrum,
    ideal_norm,
    sector_singular_values,
    shifted_resolvent_ladder,
    singular_values,
    stable_spectrum,
    tr_dix_shifted_resolvent,
    verify_quasi_even,
)

CTX = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=96, buffer=4)


def harmonic(count, c=1.0):
    return c / np.arange(1.0, count + 1.0)


class TestSingularValues:
    def test_identity_block(self):
        eye = np.eye(12)
        sv = singular_values(eye)
        assert np.allclose(sv.mu, 1.0)

    def test_descending_order(self):
        sv = singular_values(np.diag([0.1, 3.0, 1.0]))
        assert np.all(np.diff(sv.mu) <= 0)

    def test_hermitian_absolute_eigenvalues(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((9, 9))
        h = h + h.T
        sv = singular_values(h)
        want = np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]
        assert np.allclose(sv.mu, want, rtol=1e-12, atol=1e-12)

    def test_regularized_inverse_closed_form(self):
        from magnc.dirac import reg_inverse

        w = reg_inverse(CTX, 2.0)
        sv = singular_values(w)
        want = np.sort(1.0 / (CTX.eps + np.array(
            [n + m + 1 + s for n in range(CTX.n_tot) for m in range(CTX.m_tot)
             for s in (-1.0, 0.0, 1.0, 0.0)]
        )))[::-1]
        assert np.allclose(sv.mu[:100], want[:100], rtol=1e-12)

    def test_top_k_request(self):
        sv = singular_values(np.diag(np.arange(1.0, 9.0)), k=3)
        assert list(sv.mu) == [8.0, 7.0, 6.0]

    def test_blockwise_path_matches_dense(self):
        # a lattice operator whose nonzero pattern splits into many blocks
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=4, m_max=256, buffer=2)
        d = defect_operators(upsilon(0, 1), ctx)["F_comm"]
        mu_blocks = singular_values(d).mu
        from magnc.spectra import _n_window, _window_selection

        sel = _window_selection(ctx, _n_window(d.op, ctx))
        import scipy.linalg

        dense = scipy.linalg.svdvals(d.op[sel][:, sel].toarray())
        n = min(len(mu_blocks), len(dense))
        assert np.allclose(mu_blocks[:n], np.sort(dense)[::-1][:n], atol=1e-9)

    def test_permuted_blocks_with_empty_lines(self):
        # blocks 3x3 (complex), 2x4 and 1x1, two empty rows and three empty
        # columns, rows and columns shuffled, plus a stored zero joining two
        # blocks: the spectrum is the dense one, count min(shape)
        import scipy.linalg
        import scipy.sparse as sp

        rng = np.random.default_rng(3)
        blocks = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                  rng.standard_normal((2, 4)), rng.standard_normal((1, 1)),
                  np.zeros((2, 3))]
        core = sp.block_diag(blocks, format="coo")
        stored_zero = sp.coo_matrix(([0.0], ([0], [5])), shape=core.shape)
        mat = sp.coo_matrix((np.concatenate([core.data, stored_zero.data]),
                             (np.concatenate([core.row, stored_zero.row]),
                              np.concatenate([core.col, stored_zero.col]))),
                            shape=core.shape).tocsr()
        mat = mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])]
        assert mat.shape == (8, 11)
        sv = singular_values(mat)
        want = scipy.linalg.svdvals(mat.toarray())
        assert sv.count == len(want) == 8
        assert np.allclose(sv.mu, want, rtol=1e-12, atol=1e-12)


class TestIdealNorms:
    def test_weak_star_of_harmonic(self):
        assert ideal_norm(harmonic(4096), "weak", 1.0) == pytest.approx(1.0)

    def test_calderon_log_of_harmonic(self):
        # sup over N of H_N / log N is attained at N = 2: 1.5 / log 2
        got = ideal_norm(harmonic(4096), "calderon", 1.0)
        brute = max(
            np.cumsum(harmonic(4096))[n - 1] / np.log(n) for n in range(2, 4097)
        )
        assert got == pytest.approx(brute, rel=1e-12)
        assert got == pytest.approx(2.16404, abs=5e-6)

    def test_schatten_two_finite_rank(self):
        mu = np.array([3.0, 4.0])
        assert ideal_norm(mu, "schatten", 2.0) == pytest.approx(5.0)

    def test_weak_vs_calderon_sandwich(self):
        # weak-star <= Calderon <= p/(p-1) weak-star for p > 1
        rng = np.random.default_rng(5)
        for p in (1.5, 2.0, 3.0):
            mu = np.sort(rng.pareto(2.0, 2000) + 1e-3)[::-1]
            ws = ideal_norm(mu, "weak", p)
            cal = ideal_norm(mu, "calderon", p)
            assert ws <= cal * (1 + 1e-12)
            assert cal <= p / (p - 1) * ws * (1 + 1e-12)

    def test_sup_norms_monotone_in_count(self):
        mu = harmonic(512) ** 0.5
        for kind, p in [("weak", 2.0), ("calderon", 2.0), ("calderon", 1.0)]:
            assert ideal_norm(mu[:128], kind, p) <= ideal_norm(mu, kind, p) + 1e-15

    def test_macaev_harmonic_partial(self):
        mu = harmonic(256)
        want = float(np.sum(mu / np.arange(1.0, 257.0) ** 0.5))
        assert ideal_norm(mu, "macaev", 2.0) == pytest.approx(want)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ideal_norm(harmonic(16), "nuclear", 1.0)


class TestDixmierEstimation:
    def test_harmonic_recovers_constant(self):
        for c in (1.0, 3.7):
            est = dixmier_from_spectrum(harmonic(DEFAULT_LADDER[-1], c))
            assert est.value == pytest.approx(c, rel=0.01)
            assert est.measurable

    def test_finite_rank_vanishes(self):
        mu = np.zeros(DEFAULT_LADDER[-1])
        mu[:64] = 2.0
        est = dixmier_from_spectrum(mu)
        assert abs(est.value) < 1e-4

    def test_trace_class_power_law_vanishes(self):
        # estimator sanity: a summable spectrum must read as zero at 1e-4
        mu = harmonic(DEFAULT_LADDER[-1]) ** 1.5
        est = dixmier_from_spectrum(mu)
        assert abs(est.value) < 1e-4
        assert est.stderr < 1e-4
        assert "summable" in est.note

    def test_d4_normalization(self):
        ns, sums = d4_partial_sums(0.5)
        est = dixmier_from_partial_sums(ns, sums)
        assert est.value == pytest.approx(2.0, rel=0.02)

    def test_d4_other_regularizations(self):
        # the affine-in-1/log N model degrades slowly as the shifts grow
        # (curvature of the lowest rung); the normalization is still recovered
        for eps in (0.25, 1.0, 2.0):
            ns, sums = d4_partial_sums(eps)
            est = dixmier_from_partial_sums(ns, sums)
            assert est.value == pytest.approx(2.0, rel=0.05)

    def test_linearity_on_merged_spectra(self):
        n = DEFAULT_LADDER[-1]
        mu1 = harmonic(n, 1.0)
        mu2 = harmonic(n, 0.5)
        merged = np.sort(np.concatenate([mu1, mu2]))[::-1][:n]
        e1 = dixmier_from_spectrum(mu1)
        e2 = dixmier_from_spectrum(mu2)
        em = dixmier_from_spectrum(merged)
        tol = 3 * (e1.stderr + e2.stderr + em.stderr) + 0.01 * 1.5
        assert abs(em.value - (e1.value + e2.value)) < tol

    def test_oscillating_ladder_flagged(self):
        ns = np.array([10.0**k for k in range(2, 8)])
        sums = np.log(ns) * (1.0 + 0.5 * (-1.0) ** np.arange(6))
        est = dixmier_from_partial_sums(ns, sums)
        assert not est.measurable
        assert "not measurable" in est.note

    def test_resolvent_ladder_projection(self):
        for j in range(3):
            est = tr_dix_shifted_resolvent(landau_projection(j), 0.5)
            assert est.value == pytest.approx(1.0, rel=0.01)

    def test_resolvent_ladder_offdiagonal_vanishes(self):
        est = tr_dix_shifted_resolvent(upsilon(0, 1), 0.5)
        assert abs(est.value) < 1e-3

    def test_resolvent_shift_independence(self):
        # the extrapolated value does not depend on the diagonal shift
        a = random_element(3, 4, 1.0)
        vals = [tr_dix_shifted_resolvent(a, xi).value for xi in (-0.5, 0.0, 0.7, 2.0)]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-3, abs=1e-6)

    def test_dispatch(self):
        est = dixmier_estimate(harmonic(10**6), ladder=(10**3, 10**4, 10**5, 10**6))
        assert est.value == pytest.approx(1.0, rel=0.02)

    def test_rejects_short_ladders(self):
        with pytest.raises(ValueError):
            dixmier_from_partial_sums([10, 100], [1.0, 2.0])


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
        law = closed_form_mu("C", 0, 2, 0.5, 1.5, 0.0, np.arange(56))
        for m in range(56):
            blk = num[m * 5 : (m + 1) * 5, m * 5 : (m + 1) * 5].toarray()
            assert abs(np.abs(blk).max() - law[m]) < 1e-12

    def test_d_kind_matches_sparse_operator_all_interior(self):
        for (j, k, e1, e2) in [(0, 1, 0.5, 0.5), (1, 3, 0.25, 1.25), (2, 0, 1.5, 0.5)]:
            size = max(j, k) + 3
            num = build_shifted_commutator("D", upsilon(j, k), size, 72, e1, e2)
            law = closed_form_mu("D", j, k, e1, e2, 0.0, np.arange(64))
            for m in range(64):
                blk = num[m * size : (m + 1) * size, m * size : (m + 1) * size]
                assert abs(np.abs(blk.toarray()).max() - law[m]) < 1e-8

    def test_j_kind_matches_sparse_operator(self):
        j, k, e1, e2, e3 = 1, 2, 0.5, 0.5, 1.5
        size = 6
        num = build_shifted_commutator("J", upsilon(j, k), size, 64, e1, e2, e3)
        law = closed_form_mu("J", j, k, e1, e2, e3, np.arange(56))
        for m in range(56):
            blk = num[m * size : (m + 1) * size, m * size : (m + 1) * size]
            assert abs(np.abs(blk.toarray()).max() - law[m]) < 1e-10

    def test_b_ladder_weighting(self):
        # left multiplication by b+- lifts the decay from -3/2 to -1
        y = upsilon(0, 1)
        num = build_shifted_commutator("C", y, 4, 96, 0.5, 0.5, b_sign=+1)
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


class TestClassification:
    def test_exact_power_law_half(self):
        mu = np.arange(1.0, 5001.0) ** -0.5
        v = classify_decay(mu)
        assert v.exponent == pytest.approx(-0.5, abs=1e-3)
        assert v.verdict.startswith("weak-S2")

    def test_trace_class_power_law(self):
        mu = np.arange(1.0, 5001.0) ** -2.0
        v = classify_decay(mu)
        assert v.verdict == "trace-class"

    def test_rising_head_then_summable_tail(self):
        # a flat head makes the first octave sums rise (ratio 2); only the
        # r^-1.43 tail decides summability
        mu = np.maximum(np.arange(1.0, 4097.0), 256.0) ** -1.43
        v = classify_decay(mu)
        assert v.exponent == pytest.approx(-1.43, abs=1e-3)
        assert v.verdict == "trace-class"

    @pytest.mark.parametrize("exponent", [-1.0, -1.1, -0.5])
    def test_harmonic_and_slower_decay_not_trace_class(self, exponent):
        v = classify_decay(np.arange(1.0, 4097.0) ** exponent)
        assert v.exponent == pytest.approx(exponent, abs=1e-3)
        assert v.verdict != "trace-class"

    def test_unclassified_on_noise(self):
        rng = np.random.default_rng(1)
        mu = np.sort(np.abs(rng.standard_normal(512)) + 0.5 * rng.random(512))[::-1]
        mu = mu * (1.0 + 0.5 * np.sin(np.arange(512)))
        v = classify_decay(np.abs(mu))
        assert v.verdict in ("unclassified", "trace-class") or v.r_squared >= 0.95

    def test_needs_enough_values(self):
        with pytest.raises(ValueError):
            classify_decay(np.ones(16))

    def test_norm_panel_present(self):
        v = classify_decay(np.arange(1.0, 2001.0) ** -0.5)
        assert any(key.startswith("weak-") for key in v.norms)
        assert "calderon-1+" in v.norms


class TestQuasiEvenVerification:
    def test_lowest_projection_and_transition(self):
        # the full corpus (pairs, triples) runs in the acceptance suite at a
        # larger truncation; this covers the lowest projection and one
        # transition operator, with the single cross pair
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=256, buffer=4)
        rep = verify_quasi_even(ctx, [landau_projection(0), upsilon(0, 1)])
        for e in rep["elements"]:
            assert abs(e["F_comm"].exponent + 0.5) <= 0.1
            assert e["Fsq_comm"].verdict == "trace-class"
        assert rep["pairs"][0]["ok"]
        assert rep["ok"]

    def test_fsq_sector_values_match_scaled_resolvent_law(self):
        # [F^2, pi(Y)] = -eps [|D_eps|^{-2}, pi(Y)]: blockwise the resolvent law
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=6, m_max=64, buffer=4)
        d = defect_operators(upsilon(0, 1), ctx)["Fsq_comm"]
        per_sector = sector_singular_values(d, 40)
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
            return defect_operators(upsilon(0, 1), c)["F_comm"]

        sv = stable_spectrum(build, ctx)
        assert sv.count >= 64
        assert np.all(np.diff(sv.mu) <= 1e-15)

    def test_anticommutator_commutator_decay(self):
        # [{Gamma, F}, pi(Y)] carries the ladder-lifted resolvent rate: the
        # ranked exponent is -1 (not the -3/2 of the bare square-root family)
        from magnc.dirac import QuartetOperator, represent

        ctx = DiracContext(lb=1.0, eps=0.5, n_max=6, m_max=384, buffer=4)

        def build(c):
            anti = defect_operators(upsilon(0, 1), c)["gamma_F_anticomm"]
            pa = represent(upsilon(0, 1), c)
            return QuartetOperator((anti.op @ pa.op - pa.op @ anti.op).tocsr(), c)

        sv = stable_spectrum(build, ctx)
        v = classify_decay(sv)
        assert v.exponent == pytest.approx(-1.0, abs=0.07)
