"""Dirac operator assembly, gradings, phases, and defect operators."""

import numpy as np
import pytest
import scipy.sparse as sp

from magnc.algebra import UnitalElement, landau_projection, random_element, upsilon, zero_element
from magnc.dirac import (
    BLOCK_SHIFTS,
    CHI_GRADING,
    GAMMA,
    GAMMA_GRADING,
    DiracContext,
    InteriorIdentityError,
    QuartetOperator,
    build_dirac,
    cached_phase,
    chi_grading,
    commutator_with_D,
    defect_operators,
    dirac_phase,
    dual_landau_projection,
    exact_phase_square,
    gamma_grading,
    interior_mask,
    max_interior_deviation,
    oscillator_energies,
    reg_inverse,
    represent,
    sector_traces,
    split_dirac,
)

CTX = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=48, buffer=4)


class TestCliffordData:
    def test_gammas_hermitian_involutive(self):
        for g in GAMMA:
            assert np.allclose(g, g.conj().T)
            assert np.allclose(g @ g, np.eye(4))

    def test_anticommutation(self):
        for i in range(4):
            for j in range(i + 1, 4):
                anti = GAMMA[i] @ GAMMA[j] + GAMMA[j] @ GAMMA[i]
                assert np.abs(anti).max() < 1e-15

    def test_gradings_diagonal(self):
        assert np.allclose(np.diag(GAMMA_GRADING), [1, 1, -1, -1])
        assert np.allclose(np.diag(CHI_GRADING), [-1, 1, -1, 1])

    def test_block_shift_multiset(self):
        assert sorted(BLOCK_SHIFTS) == [-1.0, 0.0, 0.0, 1.0]


class TestDiracOperator:
    def test_square_is_diagonal_closed_form(self):
        d = build_dirac(CTX, check=True)  # raises on interior failure
        sq = (d.op @ d.op).tocsr()
        target = sp.diags(oscillator_energies(CTX, include_eps=False)).tocsr()
        dev = max_interior_deviation(
            QuartetOperator(sq, CTX), QuartetOperator(target, CTX), margin=2
        )
        assert dev < 1e-10

    def test_hermitian(self):
        assert build_dirac(CTX, check=False).hermiticity_defect() < 1e-12

    def test_oscillator_block_eigenvalues(self):
        e = oscillator_energies(CTX, include_eps=False).reshape(-1, 4)
        # the two unshifted blocks carry exactly n + m + 1
        q = e[:, 1]
        n = np.arange(CTX.n_tot)
        m = np.arange(CTX.m_tot)
        want = (m[:, None] + n[None, :] + 1.0).ravel()
        assert np.allclose(q, want)

    def test_zero_mode_simple(self):
        e = oscillator_energies(CTX, include_eps=False)
        zeros = np.nonzero(np.abs(e) < 1e-12)[0]
        assert len(zeros) == 1

    def test_split_anticommutes(self):
        dm, dp = split_dirac(CTX)
        anti = QuartetOperator((dm.op @ dp.op + dp.op @ dm.op).tocsr(), CTX)
        assert max_interior_deviation(anti, margin=2) < 1e-10

    def test_split_sums_to_dirac(self):
        d = build_dirac(CTX, check=False)
        dm, dp = split_dirac(CTX)
        diff = (d.op - dm.op - dp.op)
        assert diff.nnz == 0 or np.abs(diff.data).max() < 1e-15

    def test_grading_signs_of_split(self):
        g = gamma_grading(CTX)
        dm, dp = split_dirac(CTX)
        minus = (g.op @ dm.op @ g.op + dm.op)
        plus = (g.op @ dp.op @ g.op - dp.op)
        assert np.abs(minus.data).max() < 1e-14 if minus.nnz else True
        assert np.abs(plus.data).max() < 1e-14 if plus.nnz else True

    def test_chi_anticommutes_with_dirac_exactly(self):
        d = build_dirac(CTX, check=False)
        chi = chi_grading(CTX)
        anti = chi.op @ d.op + d.op @ chi.op
        assert anti.nnz == 0 or np.abs(anti.data).max() < 1e-15


    def test_dirac_and_phase_conserve_j(self):
        # J = n - m + s with spinor weights s = (0, -1, 0, 1) is conserved,
        # which keeps the blocks of the singular-value path small
        idx = np.arange(CTX.dim)
        site, spin = idx // 4, idx % 4
        j = site % CTX.n_tot - site // CTX.n_tot + np.array([0, -1, 0, 1])[spin]
        for op in (build_dirac(CTX, check=False), dirac_phase(CTX, check=False)):
            coo = op.op.tocoo()
            assert coo.nnz > 0
            assert np.count_nonzero(j[coo.row] != j[coo.col]) == 0


class TestRegularizedInverse:
    def test_block_with_negative_shift_hits_inverse_eps(self):
        w = reg_inverse(CTX, 2.0)
        diag = w.op.diagonal().reshape(-1, 4)
        i_neg = int(np.argmin(BLOCK_SHIFTS))
        # lattice site (n, m) = (0, 0) is the first row of the sector layout
        assert diag[0, i_neg] == pytest.approx(1.0 / CTX.eps, rel=1e-14)

    def test_diagonal_in_m_flag(self):
        w = reg_inverse(CTX, 2.0)
        assert w.diag_in_m and w.verify_m_diagonal()

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            reg_inverse(CTX, 0.5)

    def test_rejects_nonpositive_regularization(self):
        with pytest.raises(ValueError):
            DiracContext(lb=1.0, eps=0.0, n_max=4, m_max=8, buffer=2)

    def test_positivity_for_small_eps(self):
        ctx = DiracContext(lb=1.0, eps=0.05, n_max=4, m_max=8, buffer=2)
        w = reg_inverse(ctx, 1.0)
        assert np.all(w.op.diagonal() > 0)


class TestDiracPhase:
    def test_hermitian(self):
        f = dirac_phase(CTX)
        assert f.hermiticity_defect() < 1e-12

    def test_square_identity_on_interior(self):
        f = dirac_phase(CTX, check=False)
        fsq = (f.op @ f.op).tocsr()
        target = exact_phase_square(CTX)
        dev = max_interior_deviation(
            QuartetOperator(fsq, CTX), target, margin=2
        )
        assert dev < 1e-10

    def test_norm_at_most_one(self):
        f = dirac_phase(CTX, check=False)
        # power iteration on F^T F is overkill: F is a compression of a
        # contraction, so every singular value is at most 1
        from scipy.sparse.linalg import svds

        top = svds(f.op, k=1, return_singular_vectors=False)[0]
        assert top <= 1.0 + 1e-10


class TestRepresentation:
    def test_commutes_with_grading(self):
        pa = represent(landau_projection(0), CTX)
        g = gamma_grading(CTX)
        comm = g.op @ pa.op - pa.op @ g.op
        assert comm.nnz == 0 or np.abs(comm.data).max() < 1e-15

    def test_unital_shift(self):
        u = UnitalElement(2.0, zero_element())
        pu = represent(u, CTX)
        assert np.allclose(pu.op.diagonal(), 2.0)

    def test_rejects_oversized_support(self):
        with pytest.raises(ValueError):
            represent(upsilon(0, CTX.n_max + 1), CTX)

    def test_commutator_equals_level_part_only(self):
        a = random_element(4, 3, 1.0)
        d = build_dirac(CTX, check=False)
        dm, _ = split_dirac(CTX)
        pa = represent(a, CTX)
        full = d.op @ pa.op - pa.op @ d.op
        part = dm.op @ pa.op - pa.op @ dm.op
        diff = full - part
        assert diff.nnz == 0 or np.abs(diff.data).max() < 1e-14

    def test_commutator_has_odd_grading_degree(self):
        a = random_element(4, 3, 1.0)
        c = commutator_with_D(a, CTX, check=True)
        g = gamma_grading(CTX)
        anti = QuartetOperator((g.op @ c.op @ g.op + c.op).tocsr(), CTX)
        assert max_interior_deviation(anti, margin=2) < 1e-12

    def test_commutator_derivation_form_enforced(self):
        # the built-in check must pass for honest inputs
        a = random_element(12, 4, 1.0)
        commutator_with_D(a, CTX, check=True)

    def test_unit_commutes(self):
        c = commutator_with_D(zero_element(), CTX)
        assert c.op.nnz == 0

    def test_commutator_product_decomposition(self):
        # [D, pi(A1)][D, pi(A2)] = -(1/2l^2) pi(d0) + (i/2l^2) pi(d1) Gamma
        from magnc.cocycles import delta0, delta1

        a1, a2 = random_element(21, 3, 1.0), random_element(22, 3, 1.0)
        c1 = commutator_with_D(a1, CTX, check=False)
        c2 = commutator_with_D(a2, CTX, check=False)
        prod = QuartetOperator((c1.op @ c2.op).tocsr(), CTX)
        g = gamma_grading(CTX)
        want = QuartetOperator(
            (
                -0.5 / CTX.lb**2 * represent(delta0(a1, a2), CTX).op
                + 0.5j / CTX.lb**2 * (represent(delta1(a1, a2), CTX).op @ g.op)
            ).tocsr(),
            CTX,
        )
        assert max_interior_deviation(prod, want, margin=2) < 1e-12

    def test_derivation_square_trace_nonnegative(self):
        # trace of d0(A*, A) equals the summed squared derivation norms
        from magnc.algebra import adjoint, compose, spatial_derivative, trace_int
        from magnc.cocycles import delta0

        for seed in range(20):
            a = random_element(seed + 600, 4, 1.0)
            lhs = trace_int(delta0(adjoint(a), a))
            rhs = sum(
                trace_int(
                    compose(adjoint(spatial_derivative(a, j)), spatial_derivative(a, j))
                )
                for j in (1, 2)
            )
            assert abs(lhs - rhs) < 1e-10
            assert lhs.real >= 0 and abs(lhs.imag) < 1e-10


class TestDefectOperators:
    def test_zero_element_has_zero_defects(self):
        d = defect_operators(zero_element(), CTX)
        for key in ("R", "Fsq_comm", "F_comm"):
            op = d[key].op
            assert op.nnz == 0 or np.abs(op.data).max() < 1e-15

    def test_fsq_commutator_is_m_diagonal(self):
        d = defect_operators(upsilon(0, 1), CTX)
        assert d["Fsq_comm"].verify_m_diagonal()

    def test_anticommutator_closed_form(self):
        # {Gamma, F} = 2 Gamma D_+ |D_eps|^{-1}
        d = defect_operators(upsilon(0, 1), CTX)
        _, dp = split_dirac(CTX)
        w = reg_inverse(CTX, 1.0)
        g = gamma_grading(CTX)
        want = (2.0 * g.op @ dp.op @ w.op).tocsr()
        dev = max_interior_deviation(
            d["gamma_F_anticomm"], QuartetOperator(want, CTX), margin=2
        )
        assert dev < 1e-12

    def test_phase_is_built_once_per_context_in_a_bounded_cache(self):
        small = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=64, buffer=4)
        other = DiracContext(lb=1.0, eps=0.25, n_max=8, m_max=64, buffer=4)
        cached_phase.cache_clear()
        for c in (CTX, small, CTX, small):
            defect_operators(upsilon(0, 1), c)
            defect_operators(random_element(3, 3, 1.0), c)
        info = cached_phase.cache_info()
        assert (info.misses, info.hits) == (2, 6)
        cached_phase(other)
        assert cached_phase.cache_info().currsize == 2
        f = cached_phase(CTX)  # evicted by ``other``, rebuilt unchanged
        assert abs(f.op - dirac_phase(CTX, check=False).op).max() == 0.0

    def test_rejects_support_in_buffer(self):
        with pytest.raises(ValueError):
            defect_operators(upsilon(0, CTX.n_max - 1), CTX)


class TestLatticePlumbing:
    def test_interior_mask_counts(self):
        mask = interior_mask(CTX, margin=CTX.buffer)
        assert mask.sum() == 4 * CTX.n_max * CTX.m_max

    def test_dual_projection_counts_sector(self):
        p3 = dual_landau_projection(CTX, 3)
        assert p3.op.diagonal().sum() == 4 * CTX.n_tot

    def test_sector_traces_shape(self):
        w = reg_inverse(CTX, 2.0)
        s = sector_traces(w, 10)
        assert s.shape == (10,)
        want = sum(1.0 / (np.arange(CTX.n_tot) + 1.0 + sh + CTX.eps) for sh in BLOCK_SHIFTS)
        assert s[0] == pytest.approx(float(want.sum()), rel=1e-12)

    def test_m_diagonal_structural_check(self):
        d = build_dirac(CTX, check=False)
        assert not QuartetOperator(d.op, CTX, diag_in_m=True).verify_m_diagonal()
