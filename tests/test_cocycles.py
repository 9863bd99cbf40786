"""The three 2-cocycles, the integer pairings, and the Hochschild machinery."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from magnc import cocycles, spectra
from magnc.algebra import (
    MagneticElement,
    TruncationError,
    UnitalElement,
    conjugated_projection,
    landau_projection,
    projection_sum,
    random_element,
    trace_int,
    upsilon,
    zero_element,
)
from magnc.cli import RunConfig, _cocycle_corpus, _corpus
from magnc.cocycles import (
    Cochain,
    _coboundary,
    _deltas,
    _dixmier_functional,
    _exact,
    _gradient,
    _stack,
    chern_number,
    ch_dix,
    ch_hat,
    gap_label,
    graded_one_form_product_trace,
    graded_two_form_trace,
    hochschild_b,
    nc_integral,
    psi,
    psi_cochain,
    tau2,
    two_form_scale,
)
from magnc.spectra import (
    DEFAULT_LADDER,
    d4_dixmier,
    d4_partial_sums,
    dixmier_from_partial_sums,
    shifted_resolvent_ladder,
)
from magnc.dirac import (
    BLOCK_SHIFTS,
    CHI_GRADING,
    GAMMA_GRADING,
    GAMMA_SIGNS,
    DiracContext,
    QuartetOperator,
    dirac_phase,
    reg_inverse,
    represent,
    sector_blocks,
)
import oracles
from oracles import fredholm_closed_form, fredholm_sector_traces
from test_mutants import clear_caches, phase_power_1_1

CTX = DiracContext(lb=1.0, eps=0.5, n_max=16, m_max=512, buffer=4)
LB = 1.0
CHI_SIGNS = np.real(np.diag(CHI_GRADING)).copy()       # (-1, +1, -1, +1)
CHI_GAMMA_SIGNS = CHI_SIGNS * GAMMA_SIGNS


def rand(seed, k=4):
    return random_element(seed, k, 1.0, LB)


class TestExactTier:
    def test_psi_on_lowest_projection(self):
        # inverting the Chern normalization: the pairing value is -i l^2
        for lb in (1.0, 1.7):
            p = landau_projection(0, lb)
            val = psi(p, p, p).value
            assert val == pytest.approx(-1j * lb**2, abs=1e-12)

    def test_psi_kills_unit_slots(self):
        a = rand(1)
        one = UnitalElement.unit(LB)
        assert psi(a, one, a).value == pytest.approx(0.0, abs=1e-14)
        assert psi(a, a, one).value == pytest.approx(0.0, abs=1e-14)

    def test_psi_cyclic(self):
        for seed in range(50):
            a0, a1, a2 = rand(3 * seed), rand(3 * seed + 1), rand(3 * seed + 2)
            lhs = psi(a0, a1, a2).value
            rhs = psi(a2, a0, a1).value
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_gap_label_landau_levels(self):
        for j in range(6):
            assert gap_label(landau_projection(j, LB)) == pytest.approx(1.0, abs=1e-9)

    def test_gap_label_zero_and_sums(self):
        assert gap_label(zero_element(LB)) == 0.0
        assert gap_label(projection_sum((0, 1), LB)) == pytest.approx(2.0, abs=1e-9)

    def test_gap_label_rejects_non_projection(self):
        with pytest.raises(ValueError):
            gap_label(rand(3))

    def test_chern_landau_levels(self):
        for j in range(6):
            assert chern_number(landau_projection(j, LB)) == pytest.approx(1.0, abs=1e-8)

    def test_chern_additive_on_orthogonal_sum(self):
        assert chern_number(projection_sum((0, 1), LB)) == pytest.approx(2.0, abs=1e-8)
        assert chern_number(zero_element(LB)) == 0.0

    def test_chern_on_conjugated_projections(self):
        for seed in range(10):
            p = conjugated_projection(seed, 6, LB)
            c = chern_number(p)
            assert c == pytest.approx(1.0, abs=1e-8)

    def test_deltas_are_the_two_bilinears_bit_for_bit(self):
        # on the stacked gradients: delta0 = x1 y1 + x2 y2, delta1 = x1 y2 - x2 y1,
        # and the exact path is Z0 times both
        for seed in range(10):
            z0, z1, z2 = _stack(rand(2 * seed + 50), rand(2 * seed, 1 + seed % 5),
                                rand(2 * seed + 1, 4))
            (x1, x2), (y1, y2) = _gradient(z1), _gradient(z2)
            d0, d1 = _deltas(z1, z2)
            assert np.array_equal(d0, x1 @ y1 + x2 @ y2)
            assert np.array_equal(d1, x1 @ y2 - x2 @ y1)
            p0, p1 = _exact(z0, z1, z2)
            assert np.array_equal(p0, z0.block @ d0) and np.array_equal(p1, z0.block @ d1)

    def test_each_pair_takes_one_gradient_per_element_and_axis(self, monkeypatch):
        # one stacked gradient, both axes, of both derivation slots at once
        calls = []
        exact = cocycles._gradient

        def counted(z):
            calls.append(z.block.shape)
            return exact(z)

        monkeypatch.setattr(cocycles, "_gradient", counted)
        a0, a1, a2 = rand(71), rand(72), rand(73)
        for fn in (lambda: graded_two_form_trace(a1, a2, CTX), lambda: ch_dix(a0, a1, a2, CTX),
                   lambda: ch_hat(a0, a1, a2, CTX), lambda: two_form_scale(a1, a2, LB),
                   lambda: psi(a0, a1, a2)):
            calls.clear()
            fn()
            assert calls == [(2, 5, 5)]

    def test_streda_equality(self):
        for seed in range(10):
            p = conjugated_projection(seed + 50, 5, LB)
            assert chern_number(p) == pytest.approx(gap_label(p), abs=1e-8)

    def test_scale_covariance(self):
        # psi scales as l^2, so the Chern pairing is independent of l
        block = conjugated_projection(7, 5, 1.0).block
        for lb in (0.5, 2.0, 3.3):
            p = MagneticElement(block, lb)
            val = psi(p, p, p).value
            assert val == pytest.approx(-1j * lb**2 * 1.0, rel=1e-9)
            assert chern_number(p) == pytest.approx(1.0, abs=1e-8)


LENGTHS = st.sampled_from([0.7, 1.0, 2.0])


@st.composite
def elements(draw, lb):
    """A seeded element of support 1-8 whose stored block may run up to three
    zero levels past its support."""
    support = draw(st.integers(1, 8))
    stored = support + draw(st.integers(0, 3))
    block = np.zeros((stored, stored), dtype=complex)
    block[:support, :support] = random_element(draw(st.integers(0, 2**32 - 1)), support,
                                               1.0, lb).block
    return MagneticElement(block, lb)


@st.composite
def unitals(draw, lb):
    """c 1 + A with a nonzero scalar c."""
    c = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
    return UnitalElement(c, draw(elements(lb)))


def operand_scale(lb, *args) -> float:
    """l^2 s prod_i (|c_i| sqrt(s) + |A_i|_F) on the stacked window s: a bound
    of the size of every term of the exact tier on these operands."""
    us = [UnitalElement.lift(a) for a in args]
    s = 1 + max(u.element.block.shape[0] for u in us)
    return lb**2 * s * np.prod([abs(u.scalar) * np.sqrt(s) + np.linalg.norm(u.element.block)
                                for u in us])


class TestStackedPathAgainstObjectOracle:
    """The stacked exact tier against the object chain of ``oracles``, to
    1e-13 of the operands' scale."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), lb=LENGTHS)
    def test_deltas(self, data, lb):
        a1, a2 = data.draw(elements(lb)), data.draw(elements(lb))
        got = _deltas(*_stack(a1, a2))
        s = got[0].shape[-1]
        for g, want in zip(got, oracles.deltas(a1, a2)):
            assert np.abs(g[0] - want.padded(s)).max() <= 1e-13 * operand_scale(lb, a1, a2)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), lb=LENGTHS)
    def test_psi(self, data, lb):
        a0, a1, a2 = (data.draw(elements(lb)) for _ in range(3))
        u0, u1, u2 = (data.draw(unitals(lb)) for _ in range(3))
        scale = operand_scale(lb, a0, a1, a2)
        assert abs(psi(a0, a1, a2).value - oracles.psi(a0, a1, a2)) <= 1e-13 * scale
        scale = operand_scale(lb, u0, u1, u2)
        assert abs(psi(u0, u1, u2).value - oracles.psi(u0, u1, u2)) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), lb=LENGTHS)
    def test_hochschild_b(self, data, lb):
        args = [data.draw(unitals(lb)) for _ in range(4)]
        got = hochschild_b(psi_cochain(), args)
        want = oracles.hochschild_b(oracles.psi, args)
        assert abs(got - want) <= 1e-13 * operand_scale(lb, *args)
        # and psi is a cocycle on the unitization
        assert abs(got) <= 1e-13 * operand_scale(lb, *args)

    @pytest.mark.parametrize("lb", [2.0, 1.0 + 1e-12])
    def test_mixed_magnetic_lengths_rejected(self, lb):
        a, b = rand(1), random_element(2, 4, 1.0, lb)
        phi = psi_cochain()
        for call in (lambda: psi(a, a, b), lambda: psi(b, a, a),
                     lambda: psi(UnitalElement(1.0, b), a, a),
                     lambda: hochschild_b(phi, (a, a, a, b)), lambda: two_form_scale(a, b, LB)):
            with pytest.raises(ValueError, match="different magnetic lengths"):
                call()


class TestNcIntegral:
    def test_landau_projection(self):
        v = nc_integral(landau_projection(0, LB), CTX)
        assert v.value == pytest.approx(1.0, rel=0.02)
        assert v.method.startswith("dixmier")

    def test_offdiagonal_vanishes(self):
        v = nc_integral(upsilon(0, 1, LB), CTX)
        assert abs(v.value) < 1e-3

    def test_zero(self):
        v = nc_integral(zero_element(LB), CTX)
        assert v.value == 0.0

    def test_each_block_of_upsilon_reads_zero_within_its_error(self):
        # the diagonal of Y_{0->1} is zero, so every block ladder is flat and
        # reads 0; Pi_1's ladders grow like log N and read 1 per block
        cfg = RunConfig()
        ctx = cfg.context()
        for a, want in ((upsilon(0, 1), 0.0), (landau_projection(1), 1.0)):
            sums = shifted_resolvent_ladder(np.diag(a.block), ctx.shifted_energies(), cfg.ladder)[1]
            _, values, errors, _, flags = spectra._dixmier_arrays(cfg.ladder, sums,
                                                                  spectra.DIXMIER_REL_TOL)
            assert (np.abs(values - want) <= errors).all() and flags.all()
            v = nc_integral(a, ctx, cfg.ladder)
            assert v.method == "dixmier-extrapolated" and v.measurable
        assert nc_integral(upsilon(0, 1), ctx, cfg.ladder).value == 0j

    def test_matches_algebra_trace(self):
        for seed in range(5):
            a = rand(seed)
            v = nc_integral(a, CTX)
            assert v.value == pytest.approx(trace_int(a), rel=0.02, abs=1e-3)

    def test_rejects_oversized_support(self):
        with pytest.raises(ValueError):
            nc_integral(upsilon(0, CTX.n_max + 2, LB), CTX)

    def test_level_weights_certify_the_trace(self):
        # off the ratio-test branch the Dixmier tier is one linear map of
        # diag A, so nc_integral(A) = sum_n A_nn phi_n with phi_n the value on
        # Pi_n, and |nc_integral(A) - tau(A)| <= |diag A|_1 max_n |phi_n - 1|
        cfg = RunConfig()
        ctx = cfg.context()
        phi = np.array([nc_integral(landau_projection(n), ctx, cfg.ladder).value
                        for n in range(4)])
        bound = np.abs(phi - 1.0).max()
        for seed in range(50):
            a = random_element(seed, 4)
            diag = np.diag(a.block)
            got = nc_integral(a, ctx, cfg.ladder).value
            l1 = np.abs(diag).sum()
            assert abs(got - diag @ phi) <= 1e-13 * l1
            assert abs(got - trace_int(a)) <= l1 * bound


class TestDiracCharacter:
    def test_lowest_projection(self):
        p = landau_projection(0, LB)
        v = ch_dix(p, p, p, CTX)
        assert v.value == pytest.approx(1.0, rel=0.05)

    def test_unit_slot_vanishes(self):
        # a unit in a derivation slot kills the commutators; realized here by
        # the zero element (the unit itself is not finitely supported)
        a = rand(2)
        v = ch_dix(a, zero_element(LB), a, CTX)
        assert abs(v.value) < 1e-12

    def test_matches_exact_cocycle_on_corpus(self):
        for seed in range(15):
            a0, a1, a2 = rand(3 * seed), rand(3 * seed + 1), rand(3 * seed + 2)
            want = (1j / LB**2) * psi(a0, a1, a2).value
            got = ch_dix(a0, a1, a2, CTX)
            assert abs(got.value - want) / max(abs(want), 1e-6) < 0.05

    def test_error_bar_reported(self):
        a = rand(9)
        v = ch_dix(a, a, a, CTX)
        assert v.error > 0


def per_shift_sum(coef, diag, signs):
    """Oracle: coef sum_i signs_i Tr_Dix((Q + xi_i)^{-1} S) from one
    ``dixmier_from_partial_sums`` per shift, with the linear error sum, and
    the same sum of the shifts' logarithmic means; ``diag`` is S's diagonal."""
    ests = [dixmier_from_partial_sums(*shifted_resolvent_ladder(diag, xi, DEFAULT_LADDER))
            for xi in CTX.shifted_energies()]
    return (coef * sum(s * e.value for s, e in zip(signs, ests)),
            abs(coef) * sum(abs(s) * e.error for s, e in zip(signs, ests)),
            all(e.measurable for e in ests),
            coef * sum(s * e.sigma for s, e in zip(signs, ests)))


class TestDixmierFunctional:
    def test_nc_integral_is_the_per_shift_sum(self):
        for a in (landau_projection(1, LB), rand(51), rand(52)):
            v = nc_integral(a, CTX)
            value, error, measurable, sigma = per_shift_sum(0.25, np.diag(a.block), np.ones(4))
            assert (v.value, v.error, v.measurable) == (value, error, measurable)
            np.testing.assert_allclose(v.sigma, sigma, rtol=1e-14)

    def test_ch_dix_is_the_per_shift_sum(self):
        for a0, a1, a2 in ((rand(53), rand(54), rand(55)), (landau_projection(0, LB),) * 3):
            v = ch_dix(a0, a1, a2, CTX)
            c = 0.5 / (2.0 * LB**2)
            (g0,), (g1,) = (np.einsum("bii->bi", p) for p in _exact(*_stack(a0, a1, a2)))
            v0, e0, m0, s0 = per_shift_sum(-c, g0, GAMMA_SIGNS)
            v1, e1, m1, s1 = per_shift_sum(1j * c, g1, np.ones(4))
            assert (v.value, v.error, v.measurable) == (v0 + v1, e0 + e1, m0 and m1)
            # the grading-weighted half is in the rows, not only in the value
            np.testing.assert_allclose(v.sigma, s0 + s1, rtol=1e-14)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls into the Dixmier rule and digamma entry points, keyed module.name."""
        counts = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                counts[f"{module.__name__.split('.')[-1]}.{name}"] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((cocycles, "_dixmier_arrays"), (spectra, "dixmier_from_partial_sums"),
                             (spectra, "digamma")):
            count(module, name)
        return counts

    @pytest.mark.parametrize("name, terms", [
        ("nc_integral", 1), ("ch_dix", 2), ("ch_hat", 2), ("graded_two_form_trace", 2),
        ("graded_one_form_product_trace", 4)])
    def test_one_batched_fit_per_functional(self, calls, name, terms):
        # a return to one fit per shifted block, or one ladder per shift,
        # shows up as extra calls; a cold cache builds at most one digamma
        # table per term, and a warm one builds none
        els = [rand(61), rand(62), rand(63), rand(64)]
        arity = {"nc_integral": 1, "graded_two_form_trace": 2,
                 "graded_one_form_product_trace": 4}.get(name, 3)
        clear_caches()
        for warm in (False, True):
            calls.clear()
            assert getattr(cocycles, name)(*els[:arity], CTX).measurable
            assert calls["cocycles._dixmier_arrays"] == 1
            assert (calls["spectra.digamma"] == 0) if warm else (
                1 <= calls["spectra.digamma"] <= terms)
            assert calls["spectra.dixmier_from_partial_sums"] == 0

    def test_route_ii_fits_nothing_and_d4_one_ladder(self, calls):
        clear_caches()
        tau2(rand(61), rand(62), rand(63), CTX, "direct")
        assert sum(calls.values()) == 0
        d4_dixmier(0.5, DEFAULT_LADDER)
        assert calls["spectra.dixmier_from_partial_sums"] == 1
        assert calls["cocycles._dixmier_arrays"] == 0

    @pytest.fixture
    def functional_inputs(self, monkeypatch):
        """The (coefs, diags, weights, shifts, ladder) of every functional call."""
        inputs = []
        functional = cocycles._dixmier_functional

        def spy(*args):
            inputs.append(args)
            return functional(*args)

        monkeypatch.setattr(cocycles, "_dixmier_functional", spy)
        return inputs

    @pytest.mark.parametrize("name", ["graded_one_form_product_trace", "ch_hat"])
    def test_value_stderr_and_sigma_weight_the_fitted_rows(self, functional_inputs, name):
        # the contract of the one weighted accumulation, against an explicit
        # weighting of _dixmier_arrays' rows: each term sums its shifts from
        # 0, the terms add from 0, and the |coef| |w|-weighted errors add
        # linearly
        els = [rand(81), rand(82), rand(83), rand(84)]
        v = (graded_one_form_product_trace(*els, CTX) if name != "ch_hat"
             else ch_hat(*els[:3], CTX))
        (coefs, diags, weights, shifts, ladder), = functional_inputs
        c = (1.0 if name != "ch_hat" else 0.5) / (2.0 * LB**2)
        if name == "ch_hat":
            # the d0 and d1 terms at the one shift eps, weighted by the spin traces
            assert coefs.tolist() == [-c, 1j * c] and list(shifts) == [CTX.eps]
            assert weights.tolist() == [[np.trace(CHI_GRADING)],
                                        [np.trace(CHI_GRADING @ GAMMA_GRADING)]]
        else:
            # the batch of two entries, coefficients +1 and -1
            assert coefs.tolist() == [-c, 1j * c, c, -1j * c]
            assert weights.tolist() == [list(GAMMA_SIGNS), [1.0] * 4] * 2
            assert list(shifts) == list(CTX.shifted_energies())
        k = len(shifts)
        sums = np.concatenate([shifted_resolvent_ladder(d, shifts, ladder)[1] for d in diags])
        ns, values, errors, sigmas, flags = spectra._dixmier_arrays(ladder, sums,
                                                                    spectra.DIXMIER_REL_TOL)
        value, error, sigma = 0.0, 0.0, 0.0
        for t, (coef, ws) in enumerate(zip(coefs.tolist(), weights.tolist())):
            block = slice(t * k, (t + 1) * k)
            value += coef * sum(w * x for w, x in zip(ws, values[block].tolist()))
            error += abs(coef) * sum(abs(w) * e for w, e in zip(ws, errors[block].tolist()))
            sigma = sigma + coef * sum(w * row for w, row in zip(ws, sigmas[block]))
        assert (v.value, v.error, v.measurable) == (value, error, bool(flags.all()))
        assert v.sigma.tolist() == sigma.tolist() and v.ns.tolist() == ns.tolist()

    def test_unmeasurable_block_flags_the_value(self):
        p = landau_projection(1, LB)
        for v in (nc_integral(p, CTX, [3, 10, 100]), ch_dix(p, p, p, CTX, [3, 10, 100])):
            assert not v.measurable
        assert nc_integral(p, CTX).measurable and ch_dix(p, p, p, CTX).measurable

    @pytest.mark.parametrize("lb", [2.0, 1.0 + 1e-12])
    def test_context_at_another_magnetic_length_rejected(self, lb):
        p = landau_projection(0, LB)
        ctx = DiracContext(lb=lb, eps=0.5, n_max=16, m_max=512, buffer=4)
        with pytest.raises(ValueError, match="different magnetic lengths"):
            nc_integral(p, ctx)
        with pytest.raises(ValueError, match="different magnetic lengths"):
            ch_dix(p, p, p, ctx)
        with pytest.raises(ValueError, match="different magnetic lengths"):
            graded_one_form_product_trace(p, p, p, p, ctx)

    def test_one_form_product_beyond_the_truncation_rejected(self):
        wide = random_element(1, 20, 1.0, LB)
        with pytest.raises(TruncationError):
            graded_one_form_product_trace(wide, wide, wide, wide, CTX)

    def test_one_form_product_of_underflowing_elements(self):
        # the products of 1e-300 elements underflow to zero blocks wider
        # than their support: the trace reads zero
        x, y = 1e-300 * rand(71), 1e-300 * rand(72)
        v = graded_one_form_product_trace(x, y, x, y, CTX)
        assert v.value == 0 and v.measurable


class TestDixmierCoverage:
    """Each Dixmier error covers the distance to a known limit, and stays
    below a tenth of the tolerance of the check that reads it, so a vacuous
    bar cannot pass."""

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 1.0, 2.0])
    def test_d4_reads_two(self, eps):
        # dixmier-normalization: |value - 2| / 2 <= 0.02
        v = d4_dixmier(eps, DEFAULT_LADDER)
        assert abs(v.value - 2.0) <= v.error <= 0.1 * 0.02 * 2.0 and v.measurable

    @pytest.mark.parametrize("lb", [0.7, 1.0, 2.0])
    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 1.0, 2.0])
    def test_nc_integral_reads_one_on_each_landau_level(self, eps, lb):
        # gap-labeling: |value - 1| <= 0.02
        ctx = RunConfig(eps=eps, lb=lb).context()
        for j in range(6):
            v = nc_integral(landau_projection(j, lb), ctx)
            assert abs(v.value - 1.0) <= v.error <= 0.1 * 0.02 and v.measurable, j

    @pytest.mark.parametrize("seed", [0, 1, 370])
    def test_ch_dix_reads_the_derivation_cocycle_on_the_corpus(self, seed):
        # connes-formula-1: |value - (i/l^2) psi| <= 0.05 max(|(i/l^2) psi|, floor)
        cfg = RunConfig(seed=seed)
        triples, targets, floor = _cocycle_corpus(cfg, 50)
        for t, want in zip(triples, targets):
            v = ch_dix(*t, cfg.context(), cfg.ladder)
            assert abs(v.value - want) <= v.error <= 0.1 * 0.05 * max(abs(want), floor)
            assert v.measurable

    def test_each_added_degree_lowers_the_d4_error(self):
        # the residue at eps 2 through the last 1, 2 and 3 secant ratios at
        # h = (N_k N_k+1)^-1/4 reads 6.7e-3, 6.7e-5 and 4.0e-6 from 2
        ns, sums = d4_partial_sums(2.0, DEFAULT_LADDER)
        ratio = np.diff(sums) / np.diff(np.log(ns))
        labels = (ns[:-1] * ns[1:]) ** 0.25
        values = [(ratio[-k:] * spectra._weights_at_zero(labels[-k:])).sum() for k in (1, 2, 3)]
        errors = [abs(v - 2.0) for v in values]
        assert errors[0] > errors[1] > errors[2]
        # degree 2 is the value; degree 1 is the value of the last three rungs
        assert values[2] == d4_dixmier(2.0, DEFAULT_LADDER).value
        assert values[1] == dixmier_from_partial_sums(ns[-3:], sums[-3:]).value


class TestChiTwistedCharacter:
    def test_projection_vanishes_termwise(self):
        p = landau_projection(0, LB)
        v = ch_hat(p, p, p, CTX)
        assert v.value == 0j
        assert v.method == "spin-trace-factorized"

    def test_random_triples_vanish(self):
        for seed in range(10):
            v = ch_hat(rand(3 * seed), rand(3 * seed + 1), rand(3 * seed + 2), CTX)
            assert abs(v.value) < 1e-10

    def test_zero_input(self):
        z = zero_element(LB)
        assert ch_hat(z, z, z, CTX).value == 0j

    def test_block_resolved_route_agrees(self):
        # the four shifts kept apart, chi and chi Gamma as sign vectors: the
        # grading-twisted character vanishes only within the extrapolation error
        a0, a1, a2 = rand(31), rand(32), rand(33)
        c = 0.5 / (2.0 * LB**2)
        shifts = CTX.shifted_energies()
        (g0,), (g1,) = (np.einsum("bii->bi", p) for p in _exact(*_stack(a0, a1, a2)))
        v = _dixmier_functional(np.array([-c, 1j * c]), np.array([g0, g1]),
                                np.array([CHI_SIGNS, CHI_GAMMA_SIGNS]), shifts, DEFAULT_LADDER)
        scale = max(abs((1j / LB**2) * psi(a0, a1, a2).value), 1e-9)
        assert abs(v.value) <= 3 * v.error + 0.01 * scale


class TestGradedTrace:
    def test_two_form_closedness(self):
        for seed in range(5):
            a1, a2 = rand(2 * seed + 100), rand(2 * seed + 101)
            v = graded_two_form_trace(a1, a2, CTX)
            scale = two_form_scale(a1, a2, LB)
            assert abs(v.value) <= 0.05 * scale

    def test_graded_anticyclicity_on_one_forms(self):
        for seed in range(3):
            x0, x1 = rand(4 * seed + 200), rand(4 * seed + 201)
            y0, y1 = rand(4 * seed + 202), rand(4 * seed + 203)
            v12 = graded_one_form_product_trace(x0, x1, y0, y1, CTX)
            v21 = graded_one_form_product_trace(y0, y1, x0, x1, CTX)
            tol = 3 * (v12.error + v21.error) + 1e-6
            assert abs(v12.value + v21.value) <= tol


class TestFredholmCharacter:
    def test_reduced_route_projection(self):
        p = landau_projection(0, LB)
        v = tau2(p, p, p, CTX, "reduced")
        assert v.value == pytest.approx(1.0, rel=0.05)

    def test_direct_route_projection(self):
        p = landau_projection(0, LB)
        v = tau2(p, p, p, CTX, "direct")
        assert v.measurable and v.method == "fredholm-leading-coefficient"
        assert abs(v.value - 1.0) <= v.error

    def test_unit_derivation_slot(self):
        a = rand(41)
        v = tau2(a, zero_element(LB), a, CTX, "reduced")
        assert abs(v.value) < 1e-12

    def test_routes_agree_with_exact_cocycle(self):
        for seed in range(4):
            a0, a1, a2 = rand(3 * seed + 300), rand(3 * seed + 301), rand(3 * seed + 302)
            want = (1j / LB**2) * psi(a0, a1, a2).value
            v_i = tau2(a0, a1, a2, CTX, "reduced")
            v_ii = tau2(a0, a1, a2, CTX, "direct")
            assert abs(v_i.value - want) / abs(want) < 0.05
            assert abs(v_ii.value - want) / abs(want) < 1e-12 and v_ii.measurable

    @pytest.mark.parametrize("m_max", [2, 3, 15, 48, 55])
    def test_direct_route_needs_five_labels_above_the_series_radius(self, m_max):
        # P0's window has 3 levels, so the radius max b is 3 + eps = 3.5; the
        # labels m_max >> k, k < 5, repeat below m_max 16 and end at 3 below 64
        p = landau_projection(0, LB)
        ctx = DiracContext(lb=LB, eps=0.5, n_max=8, m_max=m_max, buffer=4)
        with pytest.raises(TruncationError, match=f"radius max b = 3.5; m_max {m_max} gives"):
            tau2(p, p, p, ctx, "direct")

    def test_direct_route_computes_at_the_smallest_truncation(self):
        p = landau_projection(0, LB)
        v = tau2(p, p, p, DiracContext(lb=LB, eps=0.5, n_max=8, m_max=64, buffer=4), "direct")
        assert v.measurable and abs(v.value - 1.0) <= v.error

    def test_witness_rejects_a_wrong_phase_power(self, monkeypatch):
        # F = D |D_eps|^-1.1 leaves the value (it reads no F) and moves the
        # witness off it, far past the witness's gap
        triple = rand(71), rand(72), rand(73)
        v = tau2(*triple, CTX, "direct")
        monkeypatch.setattr(cocycles, "_phase_blocks", phase_power_1_1)
        w = tau2(*triple, CTX, "direct")
        assert v.measurable and not w.measurable
        assert (w.value, w.error) == (v.value, v.error)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), lb=st.floats(0.5, 3.0), support=st.integers(1, 6))
    def test_direct_route_is_independent_of_eps(self, seed, lb, support):
        # the value reads M0 alone, so every eps gives the same bits; the
        # witness reads eps through F and must agree at each
        triple = [random_element(3 * seed + s, support, 1.0, lb) for s in range(3)]
        want = (1j / lb**2) * psi(*triple).value
        values = [tau2(*triple, DiracContext(lb=lb, eps=eps, n_max=16, m_max=4096, buffer=4),
                       "direct") for eps in (0.1, 0.5, 2.0)]
        assert all(v.measurable for v in values)
        assert len({(v.value, v.error) for v in values}) == 1
        assert abs(values[0].value - want) <= values[0].error

    def test_unknown_route_rejected(self):
        a = rand(1)
        with pytest.raises(ValueError):
            tau2(a, a, a, CTX, "sideways")

    @pytest.mark.filterwarnings("error")
    def test_direct_route_overflow_raises_without_warnings(self):
        # finite coefficients whose traces leave double precision, as the
        # exact tier and the Dixmier functional report them
        block = np.zeros((2, 2), complex)
        block[0, 0] = block[1, 0] = block[0, 1] = 1e200
        a = MagneticElement(block, LB)
        with pytest.raises(OverflowError):
            tau2(a, a, a, CTX, "direct")


def sector_traces(t: QuartetOperator, m_stop: int | None = None) -> np.ndarray:
    """Per-degeneracy-sector traces of the diagonal, sectors m < m_stop."""
    ctx = t.ctx
    if m_stop is None:
        m_stop = ctx.m_max
    d = t.op.diagonal()
    block = 4 * ctx.n_tot
    d = d[: m_stop * block]
    return d.reshape(m_stop, block).sum(axis=1)


def lattice_sector_traces(a0, a1, a2, ctx):
    """Oracle: sector traces of the lattice product Gamma pi(A0) [F, pi(A1)] [F, pi(A2)]."""
    f = dirac_phase(ctx, check=False).op
    p0, p1, p2 = (represent(a, ctx).op for a in (a0, a1, a2))
    c1 = (f @ p1 - p1 @ f).tocsr()
    c2 = (f @ p2 - p2 @ f).tocsr()
    g = sp.kron(sp.identity(ctx.dim // 4), sp.csr_matrix(GAMMA_GRADING), format="csr")
    omega = (g @ p0 @ c1 @ c2).tocsr()
    return sector_traces(QuartetOperator(omega, ctx))


class TestFredholmSectorTraces:
    TRIPLES = [*_corpus(RunConfig().seed, LB)[0][:5], (landau_projection(0, LB),) * 3]

    def test_sector_traces_shape(self):
        ctx = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=48, buffer=4)
        s = sector_traces(reg_inverse(ctx, 2.0), 10)
        assert s.shape == (10,)
        want = sum(1.0 / (np.arange(ctx.n_tot) + 1.0 + sh + ctx.eps) for sh in BLOCK_SHIFTS)
        assert s[0] == pytest.approx(float(want.sum()), rel=1e-12)

    @pytest.mark.parametrize("triple", TRIPLES,
                             ids=[f"corpus-{i}" for i in range(5)] + ["P0-P0-P0"])
    def test_quadratic_forms_match_the_lattice_product(self, triple):
        a0, a1, a2 = triple
        for ctx in (DiracContext(lb=1.0, eps=0.5, n_max=16, m_max=64, buffer=4),
                    DiracContext(lb=1.0, eps=0.25, n_max=16, m_max=48, buffer=4)):
            want = lattice_sector_traces(a0, a1, a2, ctx)
            got = fredholm_sector_traces(a0, a1, a2, ctx)
            assert got.shape == (ctx.m_max,)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("triple", TRIPLES,
                             ids=[f"corpus-{i}" for i in range(5)] + ["P0-P0-P0"])
    def test_value_is_the_sector_traces_1_over_m_coefficient(self, triple):
        # T(m) = 2 tau2 / m + d / m^2 + ..., so r(m) = m (m T(m) - 2 tau2)
        # settles on d; a tau2 off by delta adds 2 delta m to r
        v = tau2(*triple, CTX, "direct")
        ms = 2 ** np.arange(10, 15)
        traces = fredholm_sector_traces(*triple, replace(CTX, m_max=ms[-1] + 1))
        r = ms * (ms * traces[ms] - 2 * v.value)
        assert np.ptp(r.real) + np.ptp(r.imag) <= 0.01 * np.abs(r).max()

    @pytest.mark.parametrize("eps", [0.1, 0.5, 2.0])
    def test_value_is_the_closed_form_of_the_sector_expansion(self, eps):
        ctx = replace(CTX, eps=eps)
        for triple in self.TRIPLES:
            half_c, leading = fredholm_closed_form(*triple, ctx)
            v = tau2(*triple, ctx, "direct")
            assert abs(leading) <= v.error
            assert abs(v.value - half_c) <= v.error

    def test_fredholm_pairing_is_the_chern_number(self):
        # the leading coefficient needs no large truncation: tau2(P, P, P)
        # equals Ch(P) within its rounding bound (plus 1e-13 for Ch's own
        # rounding) at 2^12 and 2^16 alike
        cfg = RunConfig(seed=0)
        for p in _corpus(cfg.seed, cfg.lb)[1]:
            want = chern_number(p)
            for m_max in (2**12, 2**16):
                ctx = DiracContext(lb=cfg.lb, eps=cfg.eps, n_max=cfg.n_max, m_max=m_max,
                                   buffer=cfg.buffer)
                v = tau2(p, p, p, ctx, "direct")
                assert v.measurable
                assert abs(v.value - want) <= v.error + 1e-13


def same_bits(x, y) -> bool:
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


class TestContextCaches:
    """The Dixmier tier's and route ii's caches hold data fixed by the
    context, the ladder and the level window (digamma tables, fit maps,
    sector blocks): every value reads the same bits from a cold cache and
    from a warm one."""

    def calls(self):
        a0, a1, a2, a3 = rand(81), rand(82), rand(83), rand(84)
        p = landau_projection(2, LB)
        return {"nc_integral": lambda: nc_integral(p, CTX),
                "nc_integral_random": lambda: nc_integral(a0, CTX),
                "ch_dix": lambda: ch_dix(a0, a1, a2, CTX),
                "ch_hat": lambda: ch_hat(a0, a1, a2, CTX),
                "graded_two_form_trace": lambda: graded_two_form_trace(a1, a2, CTX),
                "graded_one_form_product_trace":
                    lambda: graded_one_form_product_trace(a0, a1, a2, a3, CTX),
                "tau2_reduced": lambda: tau2(a0, a1, a2, CTX, "reduced"),
                "tau2_direct": lambda: tau2(a0, a1, a2, CTX, "direct")}

    def test_cold_and_warm_values_are_bit_identical(self):
        for name, call in self.calls().items():
            clear_caches()
            cold, warm = call(), call()
            assert same_bits(cold.value, warm.value) and same_bits(cold.error, warm.error), name
            assert cold.measurable == warm.measurable and cold.method == warm.method, name
            assert same_bits(cold.sigma, warm.sigma), name

    def test_cached_tables_and_blocks_are_read_only(self):
        ladder = tuple(float(n) for n in DEFAULT_LADDER)
        shifts = tuple(CTX.shifted_energies().tolist())
        cached = [spectra._resolvent_table(shifts, ladder, 5), sector_blocks(CTX, 6)]
        for arr in cached:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        # what a call returns is its own
        assert shifted_resolvent_ladder(np.ones(5), shifts, DEFAULT_LADDER)[1].flags.writeable

    def test_contexts_an_ulp_apart_share_no_table(self):
        clear_caches()
        near = DiracContext(lb=CTX.lb, eps=np.nextafter(CTX.eps, 1.0), n_max=CTX.n_max,
                            m_max=CTX.m_max, buffer=CTX.buffer)
        p = landau_projection(1, LB)
        for ctx in (CTX, near):
            nc_integral(p, ctx)
        info = spectra._resolvent_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
        for ctx in (near, CTX):
            nc_integral(p, ctx)
        assert spectra._resolvent_table.cache_info().hits == 2


class TestHochschild:
    def test_trace_is_a_cocycle(self):
        tr = Cochain(0, lambda u0: np.einsum("bii->b", u0.block))
        for seed in range(20):
            a0, a1 = rand(2 * seed), rand(2 * seed + 1)
            assert abs(hochschild_b(tr, (a0, a1))) < 1e-12

    def test_psi_is_a_cocycle(self):
        phi = psi_cochain()
        for seed in range(100):
            args = [rand(4 * seed + s) for s in range(4)]
            assert abs(hochschild_b(phi, args)) < 1e-9

    def test_coboundary_squares_to_zero(self):
        phi1 = Cochain(
            1,
            lambda u0, u1: np.einsum("bij,bji->b", u0.block, u1.block)
            + 0.5 * u0.scalar * np.einsum("bii->b", u1.block),
        )

        def b(phi):
            return Cochain(phi.degree + 1, lambda *zs: _coboundary(phi, zs))

        # b(b phi1) on four arguments is the coboundary sum of b phi1
        for seed in range(20):
            args = [rand(4 * seed + s, 3) for s in range(4)]
            assert abs(hochschild_b(b(phi1), args)) < 1e-10

    def test_arity_enforced(self):
        phi = psi_cochain()
        with pytest.raises(ValueError):
            hochschild_b(phi, (rand(0), rand(1)))


class TestParameterIndependence:
    def test_magnetic_length_covariance_of_dixmier_tier(self):
        # the extrapolated character is scale covariant exactly like the
        # exact cocycle: relative agreement is identical across lengths
        rels = []
        for lb in (0.7, 2.0):
            ctx = DiracContext(lb=lb, eps=0.5, n_max=16, m_max=512, buffer=4)
            a0, a1, a2 = (alg_random(s, lb) for s in (10, 11, 12))
            want = (1j / lb**2) * psi(a0, a1, a2).value
            got = ch_dix(a0, a1, a2, ctx).value
            rels.append(abs(got - want) / abs(want))
            assert nc_integral(
                landau_projection(0, lb), ctx
            ).value == pytest.approx(1.0, rel=0.02)
        assert rels[0] == pytest.approx(rels[1], rel=1e-6)
        assert max(rels) < 0.05

    def test_regularization_independence_of_character(self):
        # any eps > 0 works; eps < 1 exercises the negatively shifted block
        for eps in (0.25, 1.5):
            ctx = DiracContext(lb=LB, eps=eps, n_max=16, m_max=512, buffer=4)
            a0, a1, a2 = (alg_random(s, LB) for s in (20, 21, 22))
            want = (1j / LB**2) * psi(a0, a1, a2).value
            got = ch_dix(a0, a1, a2, ctx).value
            assert abs(got - want) / abs(want) < 0.05

    @settings(max_examples=30, deadline=None)
    @given(theta=st.floats(0.0, 2 * np.pi), seed=st.integers(0, 10**6))
    def test_rotation_covariance(self, theta, seed):
        # A_jk -> e^{i theta (j - k)} A_jk is conjugation by e^{i theta N}: it
        # keeps tau and rotates the two derivations into each other, so the
        # cocycles, the character and the integral keep their values
        def rotated(a):
            j, k = np.indices(a.block.shape)
            return MagneticElement(a.block * np.exp(1j * theta * (j - k)), a.lb)

        triple = tuple(rand(3 * seed + s) for s in range(3))
        turned = tuple(rotated(a) for a in triple)
        for evaluate in (lambda t: psi(*t), lambda t: ch_dix(*t, CTX),
                         lambda t: tau2(*t, CTX, "direct"), lambda t: nc_integral(t[0], CTX)):
            want = evaluate(triple).value
            assert abs(evaluate(turned).value - want) <= 1e-12 * abs(want)


def alg_random(seed, lb):
    return random_element(seed, 4, 1.0, lb)
