"""Dirac operator assembly, gradings, phases, and defect operators."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from magnc.algebra import (TruncationError, UnitalElement, landau_projection, random_element,
                           upsilon, zero_element)
from magnc.dirac import (
    BLOCK_SHIFTS,
    CHI_GRADING,
    GAMMA,
    GAMMA_GRADING,
    GAMMA_SIGNS,
    DiracContext,
    InteriorIdentityError,
    QuartetOperator,
    _phase_blocks,
    build_dirac,
    commutator_with_D,
    defect_operators,
    dirac_phase,
    exact_phase_square,
    interior_mask,
    max_interior_deviation,
    oscillator_energies,
    phase_square_deviation,
    reg_inverse,
    represent,
    sector_blocks,
    sector_represent,
)
from oracles import (commutator, defect_products, deltas, kron_dirac, momentum_matrix,
                     product_phase, sparse_deviation)

CTX = DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=48, buffer=4)


def lattice_gamma(ctx):
    """Oracle: the grading as a lattice operator, GAMMA_GRADING on every site."""
    site = sp.identity(ctx.n_tot * ctx.m_tot, format="csr")
    return QuartetOperator(sp.kron(site, sp.csr_matrix(GAMMA_GRADING), format="csr"), ctx)


def dirac_parts(ctx):
    """Oracle: (D_minus, D_plus) from the definition, sum_P P x gamma_P / sqrt2
    over the level momenta (K1, K2) and the degeneracy momenta (G1, G2)."""
    def part(momenta, gammas):
        op = sum(sp.kron(momentum_matrix(p, ctx.n_tot, ctx.m_tot), g, format="csr")
                 for p, g in zip(momenta, gammas)) / np.sqrt(2.0)
        return QuartetOperator(op.tocsr(), ctx)

    return part(("K1", "K2"), GAMMA[:2]), part(("G1", "G2"), GAMMA[2:])


def assert_dirac_matches_parts(d):
    """Entry for entry |D - (D_minus + D_plus)| <= 2^-51 |D_minus + D_plus|:
    the oracle rounds each momentum entry sqrt(k)/sqrt2 before the gammas
    combine, D rounds sqrt(m+1) M+ once more, so the two differ in the last
    bit at most (at most 0.995 * 2^-52 relative seen up to m_max 4096)."""
    dm, dp = dirac_parts(d.ctx)
    want = (dm.op + dp.op).tocsr()
    assert (abs(d.op - want) - 2.0**-51 * abs(want)).max() <= 0


def assert_same_bytes(x, y):
    """Two CSR matrices with identical indptr, indices and data, bit for bit."""
    for part in ("indptr", "indices", "data"):
        a, b = getattr(x, part), getattr(y, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def j_numbers(ctx):
    """J = n - m + s on the lattice, spinor weights s = (0, -1, 0, 1)."""
    idx = np.arange(ctx.dim)
    site, spin = idx // 4, idx % 4
    return site % ctx.n_tot - site // ctx.n_tot + np.array([0, -1, 0, 1])[spin]


def l_numbers(ctx):
    """L = m + [s in {1, 2}] on the lattice."""
    idx = np.arange(ctx.dim)
    return idx // (4 * ctx.n_tot) + np.isin(idx % 4, (1, 2))


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
        dm, dp = dirac_parts(CTX)
        anti = QuartetOperator((dm.op @ dp.op + dp.op @ dm.op).tocsr(), CTX)
        assert max_interior_deviation(anti, margin=2) < 1e-10

    def test_grading_signs_of_split(self):
        g = lattice_gamma(CTX)
        dm, dp = dirac_parts(CTX)
        minus = (g.op @ dm.op @ g.op + dm.op)
        plus = (g.op @ dp.op @ g.op - dp.op)
        assert np.abs(minus.data).max() < 1e-14 if minus.nnz else True
        assert np.abs(plus.data).max() < 1e-14 if plus.nnz else True

    def test_chi_anticommutes_with_dirac_exactly(self):
        d = build_dirac(CTX, check=False)
        chi = sp.kron(sp.identity(CTX.n_tot * CTX.m_tot), sp.csr_matrix(CHI_GRADING), format="csr")
        anti = chi @ d.op + d.op @ chi
        assert anti.nnz == 0 or np.abs(anti.data).max() < 1e-15


    def test_dirac_and_phase_conserve_j(self):
        # J = n - m + s with spinor weights s = (0, -1, 0, 1) is conserved,
        # which keeps the blocks of the singular-value path small
        j = j_numbers(CTX)
        for op in (build_dirac(CTX, check=False), dirac_phase(CTX, check=False)):
            coo = op.op.tocoo()
            assert coo.nnz > 0
            assert np.count_nonzero(j[coo.row] != j[coo.col]) == 0

    # eps below about 1e-16 is rejected: eps - 1 rounds onto the resolvent pole
    @settings(max_examples=25, deadline=None)
    @given(n_max=st.integers(2, 8), m_max=st.integers(2, 32), buffer=st.integers(2, 4),
           eps=st.floats(1e-12, 3.0, exclude_max=True), s=st.floats(1.0, 4.0),
           seed=st.integers(0, 2**16))
    def test_random_contexts_split_and_conserve_j(self, n_max, m_max, buffer, eps, s, seed):
        ctx = DiracContext(lb=1.0, eps=eps, n_max=n_max, m_max=m_max, buffer=buffer)
        d = build_dirac(ctx, check=False)
        assert_dirac_matches_parts(d)
        j, l = j_numbers(ctx), l_numbers(ctx)
        for op in (d, dirac_phase(ctx, check=False), reg_inverse(ctx, s)):
            coo = op.op.tocoo()
            assert np.array_equal(j[coo.row], j[coo.col])
            assert np.array_equal(l[coo.row], l[coo.col])
        # singular_values' L-blocks: the defect operators of an element
        # supported below n_max - buffer (when one fits) conserve L too
        room = n_max - buffer
        for op in defect_operators(random_element(seed, room), ctx).values() if room >= 1 else ():
            coo = op.op.tocoo()
            assert np.array_equal(l[coo.row], l[coo.col])


class TestRegularizedInverse:
    def test_block_with_negative_shift_hits_inverse_eps(self):
        w = reg_inverse(CTX, 2.0)
        diag = w.op.diagonal().reshape(-1, 4)
        i_neg = int(np.argmin(BLOCK_SHIFTS))
        # lattice site (n, m) = (0, 0) is the first row of the sector layout
        assert diag[0, i_neg] == pytest.approx(1.0 / CTX.eps, rel=1e-14)

    def test_diagonal_in_m_flag(self):
        w = reg_inverse(CTX, 2.0)
        assert w.verify_m_diagonal()

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

    @pytest.mark.parametrize("ctx", [
        DiracContext(lb=1.0, eps=0.5, n_max=8, m_max=64, buffer=4),
        DiracContext(lb=1.3, eps=0.25, n_max=6, m_max=20, buffer=2),
        DiracContext(lb=0.7, eps=1.0, n_max=8, m_max=384, buffer=3),
    ], ids=["criterion-1", "small", "wide"])
    def test_l_block_square_deviation_equals_the_lattice(self, ctx):
        # criterion 1 reads F^2 off F's L-blocks; the lattice F^2 is the oracle
        f = dirac_phase(ctx, check=False).op
        want = max_interior_deviation(QuartetOperator((f @ f).tocsr(), ctx),
                                      exact_phase_square(ctx), margin=2)
        assert 0 < phase_square_deviation(ctx) == want < 1e-10

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
        g = lattice_gamma(CTX)
        comm = g.op @ pa.op - pa.op @ g.op
        assert comm.nnz == 0 or np.abs(comm.data).max() < 1e-15

    def test_unital_shift(self):
        u = UnitalElement(2.0, zero_element())
        pu = represent(u, CTX)
        assert np.allclose(pu.op.diagonal(), 2.0)

    def test_rejects_oversized_support(self):
        with pytest.raises(TruncationError, match="margin of 0"):
            represent(upsilon(0, CTX.n_max), CTX)

    def test_commutator_leaves_one_level_free(self):
        # the derivation closed form raises the support by one level
        commutator_with_D(upsilon(0, CTX.n_max - 2), CTX)
        with pytest.raises(TruncationError, match="support 8 exceeds .* 8 less a margin of 1"):
            commutator_with_D(upsilon(0, CTX.n_max - 1), CTX)

    def test_commutator_equals_level_part_only(self):
        a = random_element(4, 3, 1.0)
        d = build_dirac(CTX, check=False)
        dm, _ = dirac_parts(CTX)
        pa = represent(a, CTX)
        full = d.op @ pa.op - pa.op @ d.op
        part = dm.op @ pa.op - pa.op @ dm.op
        diff = full - part
        assert diff.nnz == 0 or np.abs(diff.data).max() < 1e-14

    def test_commutator_has_odd_grading_degree(self):
        a = random_element(4, 3, 1.0)
        c = commutator_with_D(a, CTX, check=True)
        g = lattice_gamma(CTX)
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
        a1, a2 = random_element(21, 3, 1.0), random_element(22, 3, 1.0)
        d0, d1 = deltas(a1, a2)
        c1 = commutator_with_D(a1, CTX, check=False)
        c2 = commutator_with_D(a2, CTX, check=False)
        prod = QuartetOperator((c1.op @ c2.op).tocsr(), CTX)
        g = lattice_gamma(CTX)
        want = QuartetOperator(
            (
                -0.5 / CTX.lb**2 * represent(d0, CTX).op
                + 0.5j / CTX.lb**2 * (represent(d1, CTX).op @ g.op)
            ).tocsr(),
            CTX,
        )
        assert max_interior_deviation(prod, want, margin=2) < 1e-12

    def test_derivation_square_trace_nonnegative(self):
        # trace of d0(A*, A) equals the summed squared derivation norms
        from magnc.algebra import compose, spatial_derivative, trace_int

        for seed in range(20):
            a = random_element(seed + 600, 4, 1.0)
            lhs = trace_int(deltas(a.adjoint(), a)[0])
            rhs = sum(
                trace_int(
                    compose(spatial_derivative(a, j).adjoint(), spatial_derivative(a, j))
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
        f = dirac_phase(CTX, check=False)
        _, dp = dirac_parts(CTX)
        w = reg_inverse(CTX, 1.0)
        g = lattice_gamma(CTX)
        anti = (g.op @ f.op + f.op @ g.op).tocsr()
        want = (2.0 * g.op @ dp.op @ w.op).tocsr()
        dev = max_interior_deviation(
            QuartetOperator(anti, CTX), QuartetOperator(want, CTX), margin=2
        )
        assert dev < 1e-12

    def test_phase_is_built_once_per_context_in_a_bounded_cache(self, monkeypatch):
        # the benchmark's sequence on one context (checked F, D and [D, pi(A)],
        # then the defect operators) assembles the lattice D once, and F with
        # it; the next context evicts both.  An assembly is the lattice's one
        # call of sector_blocks on the full level window.
        import magnc.dirac as dirac

        builds = []
        blocks = dirac.sector_blocks
        monkeypatch.setattr(dirac, "sector_blocks",
                            lambda ctx, levels: builds.append(ctx) or blocks(ctx, levels))
        one, two = (DiracContext(lb=1.0, eps=eps, n_max=8, m_max=40, buffer=4)
                    for eps in (0.375, 0.625))
        a = random_element(3, 3, 1.0)

        def sweep(ctx):
            f = dirac_phase(ctx, check=True)
            d = build_dirac(ctx, check=True)
            commutator_with_D(a, ctx, check=True)
            defect_operators(a, ctx)
            return d, f

        d, f = sweep(one)
        defect_operators(upsilon(0, 1), one)
        assert builds == [one]
        assert build_dirac(one, check=False) is d and dirac_phase(one, check=False) is f
        sweep(two)
        assert builds == [one, two]
        again = sweep(one)  # evicted by ``two``, rebuilt unchanged
        assert builds == [one, two, one]
        assert again[0] is not d
        for new, old in zip(again, (d, f)):
            assert_same_bytes(new.op, old.op)

    def test_sweep_calls_dirac_phase_only_as_often_as_the_caller(self, monkeypatch):
        # the lattice builders read F and D from the one cache, not through
        # the public entry points: one context's truncation-sweep sequence
        # makes exactly the caller's one dirac_phase call
        import magnc.dirac as dirac

        calls = []
        phase = dirac.dirac_phase
        monkeypatch.setattr(dirac, "dirac_phase",
                            lambda ctx, check=True: calls.append(ctx) or phase(ctx, check))
        ctx = DiracContext(lb=1.0, eps=0.375, n_max=8, m_max=40, buffer=4)
        a = random_element(3, 3, 1.0)
        dirac.dirac_phase(ctx, check=True)
        build_dirac(ctx, check=True)
        commutator_with_D(a, ctx, check=True)
        defect_operators(a, ctx)
        assert calls == [ctx]

    @pytest.mark.parametrize("ctx", [CTX, DiracContext(lb=1.3, eps=0.25, n_max=6,
                                                       m_max=20, buffer=2)])
    def test_r_equals_the_lattice_grading_sandwich(self, ctx):
        g = lattice_gamma(ctx).op
        for a in (upsilon(0, 1, ctx.lb), random_element(8, 3, 1.0, ctx.lb)):
            d = defect_operators(a, ctx)
            x = d["F_comm"].op
            want = (g @ x @ g + x).tocsr()
            assert d["R"].op.nnz > 0
            assert (d["R"].op != want).nnz == 0

    def test_rejects_support_in_buffer(self):
        with pytest.raises(TruncationError, match=f"margin of {CTX.buffer}"):
            defect_operators(upsilon(0, CTX.n_max - 1), CTX)


ORACLE_CONTEXTS = [DiracContext(m_max=1024, eps=0.25),
                   DiracContext(lb=1.3, eps=0.7, n_max=6, m_max=20, buffer=2),
                   DiracContext(m_max=5)]


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=["default-1024", "small", "m_max-5"])
class TestLatticeFastPath:
    """The cached D, F scaled from D, [F^2, pi(A)] scaled from pi(A) and the
    diagonal identities compared on the diagonal give the generic sparse
    constructions' bits."""

    def test_operators_are_the_generic_products_bit_for_bit(self, ctx):
        a = random_element(8, 3, 1.0, ctx.lb)
        d = kron_dirac(ctx)
        f = product_phase(ctx, d)
        pa = sp.kron(sp.identity(ctx.m_tot, format="csr"), sector_represent(a, ctx, ctx.n_tot),
                     format="csr")
        want = {"D": d, "F": f, "pi(A)": pa, "[D, pi(A)]": commutator(d, pa),
                **defect_products(f, pa, exact_phase_square(ctx).op.tocsr(),
                                  np.tile(GAMMA_SIGNS, ctx.dim // 4))}
        got = {"D": build_dirac(ctx).op, "F": dirac_phase(ctx).op, "pi(A)": represent(a, ctx).op,
               "[D, pi(A)]": commutator_with_D(a, ctx).op,
               **{k: v.op for k, v in defect_operators(a, ctx).items()}}
        assert got.keys() == want.keys()
        for key, op in want.items():
            assert_same_bytes(got[key], op)

    def test_diagonal_deviations_are_the_sparse_difference(self, ctx):
        d, f = build_dirac(ctx, check=False).op, dirac_phase(ctx, check=False).op
        q = QuartetOperator(sp.diags(oscillator_energies(ctx, include_eps=False)), ctx)
        empty = sp.csr_matrix(d.shape, dtype=complex)
        mask = interior_mask(ctx, 2)
        for x, y in ((d @ d, q), ((f @ f).tocsr(), exact_phase_square(ctx)),
                     (empty, reg_inverse(ctx, 1.0))):
            want = sparse_deviation(x, y.op.tocsr(), mask)
            assert max_interior_deviation(QuartetOperator(x, ctx), y, margin=2) == want

    def test_energies_are_formed_per_level_sum_only(self, ctx, monkeypatch):
        # the checked F and D, [D, pi(A)] and the defects of one context, as a
        # truncation sweep builds them, form the energies once per k = m + n,
        # never per lattice site, and read the same floats
        import magnc.dirac as dirac

        dirac._lattice.cache_clear()
        levels = []
        exact = dirac._energies

        def counted(eps, sectors, n):
            levels.append(n)
            return exact(eps, sectors, n)

        monkeypatch.setattr(dirac, "_energies", counted)
        a = random_element(8, min(3, ctx.n_max - ctx.buffer), 1.0, ctx.lb)
        dirac_phase(ctx, check=True)
        build_dirac(ctx, check=True)
        commutator_with_D(a, ctx, check=True)
        defect_operators(a, ctx)
        assert levels and set(levels) == {1}
        for eps in (None, ctx.eps):
            assert np.array_equal(oscillator_energies(ctx, include_eps=eps is not None),
                                  exact(eps, ctx.m_tot, ctx.n_tot))

    @pytest.mark.parametrize("target, site, build, match", [
        ("D", (0, 0), lambda ctx, a: build_dirac(ctx, check=True), "D\\^2 differs"),
        ("F", (0, 4), lambda ctx, a: dirac_phase(ctx, check=True), "not Hermitian"),
        ("F", (0, 0), lambda ctx, a: dirac_phase(ctx, check=True), "F\\^2 - 1"),
        ("D", (0, 0), lambda ctx, a: commutator_with_D(a, ctx, check=True), "derivation form"),
    ], ids=["D^2", "F-hermitian", "F^2", "[D, pi(A)]"])
    def test_checks_run_on_the_lattice_operator(self, ctx, monkeypatch, target, site, build,
                                                match):
        # one entry changed by 1e-6 at an interior site (m, n) = (1, 1) of the
        # cached D or F; a real diagonal entry keeps F Hermitian
        import magnc.dirac as dirac

        ops = {"D": build_dirac(ctx, check=False), "F": dirac_phase(ctx, check=False)}
        i = 4 * (ctx.n_tot + 1)
        bad = ops[target].op + sp.csr_matrix(([1e-6], ([i + site[0]], [i + site[1]])),
                                            shape=ops[target].op.shape)
        ops[target] = QuartetOperator(bad.tocsr(), ctx)
        monkeypatch.setattr(dirac, "_lattice", lambda c: (ops["D"], ops["F"]))
        with pytest.raises(InteriorIdentityError, match=match):
            build(ctx, random_element(8, 3, 1.0, ctx.lb))


class TestLatticePlumbing:
    def test_interior_mask_counts(self):
        mask = interior_mask(CTX, margin=CTX.buffer)
        assert mask.sum() == 4 * CTX.n_max * CTX.m_max

    def test_m_diagonal_structural_check(self):
        assert not build_dirac(CTX, check=False).verify_m_diagonal()


class TestSectorBlocks:
    """The structure the direct-route Fredholm character relies on: D is
    block-tridiagonal in m with one fixed block per offset, and pi(A), Gamma
    and |D_eps|^-1 act sector by sector."""

    SMALL = [DiracContext(lb=1.0, eps=eps, n_max=8, m_max=m_max, buffer=4)
             for m_max in (5, 64) for eps in (0.5, 0.25)]

    @staticmethod
    def block(op, ctx, m, m2):
        b = 4 * ctx.n_tot
        return op[m * b:(m + 1) * b, m2 * b:(m2 + 1) * b].toarray()

    @pytest.mark.parametrize("ctx", SMALL)
    def test_blocks_reproduce_split_dirac_entry_for_entry(self, ctx):
        # build_dirac assembles D from exactly these blocks, and D is the
        # sum of the level and degeneracy parts of its definition
        m0, plus, minus = sector_blocks(ctx, ctx.n_tot)
        d = build_dirac(ctx, check=False)
        zero = np.zeros_like(m0)
        for m in range(ctx.m_tot):
            for m2 in range(ctx.m_tot):
                want = {0: m0, 1: np.sqrt(m + 1) * plus, -1: np.sqrt(m) * minus}.get(
                    m2 - m, zero)
                assert np.array_equal(self.block(d.op, ctx, m, m2), want)
        assert_dirac_matches_parts(d)

    @pytest.mark.parametrize("ctx", SMALL)
    def test_grading_representation_and_weights_act_per_sector(self, ctx):
        levels = 6
        gamma = np.diag(np.tile(GAMMA_SIGNS, levels))
        a = random_element(5, 4, 1.0)
        pa = sector_represent(a, ctx, levels)
        g, p = lattice_gamma(ctx).op, represent(a, ctx).op
        self.assert_weights_are_the_lattice_diagonal(ctx)
        w_ = slice(0, 4 * levels)
        for m in range(ctx.m_tot):
            assert np.array_equal(self.block(g, ctx, m, m)[w_, w_], gamma)
            assert np.array_equal(self.block(p, ctx, m, m)[w_, w_], pa)

    @staticmethod
    def assert_weights_are_the_lattice_diagonal(ctx):
        # F's L-blocks (criterion 2's stacks, route ii's witness) weight each
        # site by the lattice's own |D_eps|^-1 entry, bit for bit: sector L,
        # or L - 1 for s in {1, 2}, and m_tot - 1 for those of label 0
        rinv = reg_inverse(ctx, 1.0).op.diagonal().reshape(ctx.m_tot, -1)
        ls = np.arange(ctx.m_tot)
        for levels in range(1, ctx.n_tot + 1):
            sector = (ls[:, None] - np.tile([0, 1, 1, 0], levels)) % ctx.m_tot
            want = rinv[sector, np.arange(4 * levels)]
            assert np.array_equal(_phase_blocks(ctx, levels, ls)[1] ** -0.5, want)
            assert np.array_equal(_phase_blocks(ctx, levels, ls[1::3])[1] ** -0.5, want[1::3])

    def test_weights_are_the_lattice_diagonal_at_the_default_context(self):
        self.assert_weights_are_the_lattice_diagonal(DiracContext())

    @pytest.mark.parametrize("levels", range(1, CTX.n_tot + 1))
    def test_coupling_pattern_at_every_window(self, levels):
        # what the L-block stacks rely on: M0 keeps s in {0, 3} and s in
        # {1, 2} apart, M+ maps s in {0, 3} to s in {1, 2} and M- maps back
        m0, plus, minus = sector_blocks(CTX, levels)
        upper = np.tile([False, True, True, False], levels)   # s in {1, 2}
        rows, cols = upper[:, None], upper[None, :]
        assert not m0[rows != cols].any()
        assert not plus[~(rows & ~cols)].any() and plus.any()
        assert not minus[~(~rows & cols)].any() and minus.any()
        assert levels == 1 or m0.any()

    def test_blocks_agree_across_m_max_and_window_is_checked(self):
        # the blocks depend on the level window only, and a window's blocks
        # are the leading rows and columns of the full window's
        blocks = sector_blocks(CTX, 4)
        for m_max in (2, CTX.m_max + 7):
            other = sector_blocks(replace(CTX, m_max=m_max), 4)
            assert all(np.array_equal(x, y) for x, y in zip(blocks, other))
        full = sector_blocks(CTX, CTX.n_tot)
        assert all(np.array_equal(x[:16, :16], y) for x, y in zip(full, blocks))
        with pytest.raises(TruncationError):
            sector_blocks(CTX, CTX.n_tot + 1)
        with pytest.raises(ValueError):
            sector_blocks(CTX, 0)
        with pytest.raises(TruncationError, match="support 6 exceeds the window 4"):
            sector_represent(upsilon(0, 5), CTX, 4)
