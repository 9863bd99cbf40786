"""Basis functions, polynomial sums, and the momentum ladder oracle."""

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from magnc.algebra import MagneticElement
from magnc.basis import (
    QuadratureScheme,
    _basis_over_psi00_monomials,
    default_radius,
    eval_basis_function,
    eval_generalized_laguerre,
    ladder_blocks_1d,
    verify_ladder_phases,
)
from oracles import momentum_matrix

SQRT2PI = np.sqrt(2.0 * np.pi)


def mpmath_laguerre(n, alpha, zeta):
    """Arbitrary-precision sum of the same finite series (independent oracle)."""
    import mpmath as mp

    mp.mp.dps = 50
    total = mp.mpf(0)
    for j in range(n + 1):
        num = mp.mpf(1)
        for i in range(j + 1, n + 1):
            num *= alpha + i
        num /= mp.factorial(j) * mp.factorial(n - j)
        total += num * (-mp.mpf(zeta)) ** j
    return float(total)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert eval_generalized_laguerre(0, 3, 7.5) == 1.0

    def test_first_degree(self):
        # degree-1 sum: (alpha + 1) - zeta
        assert eval_generalized_laguerre(1, 0, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_negative_alpha_at_zero(self):
        # alpha = -1 kills the constant coefficient
        assert eval_generalized_laguerre(2, -1, 0.0) == 0.0

    @pytest.mark.parametrize("n,alpha", [(0, 2), (3, 0), (5, 2), (4, -2), (7, -7), (6, 3)])
    def test_against_arbitrary_precision(self, n, alpha):
        for zeta in (0.0, 0.3, 2.7, 11.0):
            want = mpmath_laguerre(n, alpha, zeta)
            got = eval_generalized_laguerre(n, alpha, zeta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n,alpha", [(4, 1), (9, 3), (12, 0)])
    def test_against_scipy_for_nonnegative_alpha(self, n, alpha):
        # the explicit alternating sum carries ~1e-11 cancellation noise at
        # degree 12 and zeta = 20; well inside every downstream tolerance
        zeta = np.linspace(0.0, 20.0, 11)
        got = eval_generalized_laguerre(n, alpha, zeta)
        want = eval_genlaguerre(n, alpha, zeta)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_large_degree_stays_finite(self):
        val = eval_generalized_laguerre(120, 80, 37.5)
        assert np.isfinite(val)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            eval_generalized_laguerre(-1, 0, 1.0)


class TestBasisFunction:
    def test_origin_value_ground_state(self):
        for lb in (1.0, 0.5, 2.3):
            got = eval_basis_function((0, 0), (0.0, 0.0), lb)
            assert got == pytest.approx(1.0 / (SQRT2PI * lb), abs=1e-14)

    def test_origin_vanishes_off_diagonal(self):
        assert eval_basis_function((1, 3), (0.0, 0.0), 1.0) == 0.0
        assert eval_basis_function((3, 1), (0.0, 0.0), 1.0) == 0.0

    def test_origin_diagonal_all_equal(self):
        for k in range(5):
            got = eval_basis_function((k, k), (0.0, 0.0), 1.0)
            assert got == pytest.approx(1.0 / SQRT2PI, abs=1e-13)

    def test_finite_near_origin_mixed_indices(self):
        pts = np.array([[1e-9, -1e-9], [1e-5, 0.0], [0.0, 1e-4]])
        for idx in [(0, 2), (2, 0), (1, 4)]:
            vals = eval_basis_function(idx, pts, 1.0)
            assert np.all(np.isfinite(vals))
            assert np.abs(vals).max() < 1e-3

    def test_index_swap_conjugation_symmetry(self):
        pts = np.array([[0.7, -0.4], [1.2, 2.1]])
        for (n, m) in [(0, 1), (2, 5), (3, 1)]:
            a = eval_basis_function((n, m), pts, 1.0)
            b = eval_basis_function((m, n), pts, 1.0)
            sign = (-1.0) ** ((n - m) % 2)
            assert np.allclose(a, sign * np.conj(b), atol=1e-13)

    def test_monomial_expansion_matches_closed_form(self):
        # sum D[r, s] v1^r v2^s times psi_00 against the Laguerre closed form
        rng = np.random.default_rng(8)
        lb = 1.3
        pts = rng.uniform(-4.0 * lb, 4.0 * lb, (300, 2))
        v = pts / (np.sqrt(2.0) * lb)
        psi00 = eval_basis_function((0, 0), pts, lb)
        for n in range(6):
            for m in range(6):
                D = _basis_over_psi00_monomials(n, m)
                assert D.shape == (n + m + 1, n + m + 1)
                poly = np.einsum("rs,pr,ps->p", D, v[:, :1] ** np.arange(n + m + 1),
                                 v[:, 1:] ** np.arange(n + m + 1))
                want = eval_basis_function((n, m), pts, lb)
                assert np.abs(poly * psi00 - want).max() < 1e-13

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            eval_basis_function((-1, 0), np.zeros(2))
        with pytest.raises(ValueError):
            QuadratureScheme(radius=5.0, nodes_per_axis=4)

    @pytest.mark.parametrize("idx", [(1.9, 0), (0, 1.0), (True, 0), (0, np.True_)])
    def test_non_integer_labels_raise_type_error(self, idx):
        # a float label was truncated by int(): (1.9, 0) evaluated psi_{1,0}
        with pytest.raises(TypeError):
            eval_basis_function(idx, np.zeros((3, 2)))

    def test_numpy_integer_labels_are_accepted(self):
        pts = np.array([[0.3, -0.4], [1.1, 0.2]])
        got = eval_basis_function((np.int64(2), np.int32(1)), pts)
        want = eval_basis_function((2, 1), pts)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("radius", [0.0, -2.0, float("nan"), float("inf"), float("-inf")])
    def test_quadrature_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError):
            QuadratureScheme(radius)


class TestMomentumMatrices:
    def test_ladder_structure_moves_one_index(self):
        n_max, m_max = 5, 4
        for which, moves_n in [("K1", True), ("K2", True), ("G1", False), ("G2", False)]:
            mat = momentum_matrix(which, n_max, m_max).tocoo()
            for r, c in zip(mat.row, mat.col):
                nr, mr = r % n_max, r // n_max
                nc, mc = c % n_max, c // n_max
                if moves_n:
                    assert abs(nr - nc) == 1 and mr == mc
                else:
                    assert abs(mr - mc) == 1 and nr == nc

    def test_hermitian(self):
        for which in ("K1", "K2", "G1", "G2"):
            mat = momentum_matrix(which, 6, 6).toarray()
            assert np.abs(mat - mat.conj().T).max() < 1e-15

    def test_oscillator_diagonal(self):
        n_max = m_max = 7
        q = sum(
            momentum_matrix(w, n_max, m_max).toarray() @ momentum_matrix(w, n_max, m_max).toarray()
            for w in ("K1", "K2", "G1", "G2")
        ) / 2.0
        for n in range(n_max - 1):
            for m in range(m_max - 1):
                i = m * n_max + n
                assert q[i, i] == pytest.approx(n + m + 1, abs=1e-12)

    def test_commutators_on_interior(self):
        n_max = m_max = 8
        k1 = momentum_matrix("K1", n_max, m_max).toarray()
        k2 = momentum_matrix("K2", n_max, m_max).toarray()
        g1 = momentum_matrix("G1", n_max, m_max).toarray()
        g2 = momentum_matrix("G2", n_max, m_max).toarray()
        interior = np.array(
            [m * n_max + n for m in range(m_max - 1) for n in range(n_max - 1)]
        )
        def on_int(x):
            return x[np.ix_(interior, interior)]

        assert np.abs(on_int(k1 @ g1 - g1 @ k1)).max() < 1e-12
        assert np.abs(on_int(k2 @ g2 - g2 @ k2)).max() < 1e-12
        assert np.abs(on_int(k1 @ k2 - k2 @ k1) - (-1j) * np.eye(len(interior))).max() < 1e-12
        assert np.abs(on_int(g1 @ g2 - g2 @ g1) - (-1j) * np.eye(len(interior))).max() < 1e-12

    def test_number_operator_from_degeneracy_ladders(self):
        # b+ = -a+ and b- = -a- on the degeneracy index: entries -sqrt(m+1), -sqrt(m)
        size = 9
        bp, bm = (-x for x in ladder_blocks_1d(size))
        nb = bp @ bm
        want = np.diag(np.arange(size, dtype=float))
        # the last column of b+ leaks out of the truncation; check the interior
        assert np.abs((nb - want)[: size - 1, : size - 1]).max() < 1e-14

    def test_quadrature_oracle_agrees_with_ladder_rules(self):
        worst = verify_ladder_phases(lb=1.0, n_sub=3, m_sub=3)
        assert worst < 1e-6

    def test_oracle_at_other_magnetic_length(self):
        worst = verify_ladder_phases(lb=0.65, n_sub=2, m_sub=3)
        assert worst < 1e-6

    def test_rejects_tiny_truncations(self):
        with pytest.raises(ValueError):
            momentum_matrix("K1", 1, 4)

    def test_default_radius_grows(self):
        assert default_radius(8, 8) > default_radius(2, 2) > 4.0


@pytest.mark.parametrize("lb", [float("nan"), float("inf"), 0.0, -1.0, 1e-160, 1e200])
@pytest.mark.parametrize("entry", [
    lambda lb: MagneticElement(np.eye(2), lb=lb),
    lambda lb: eval_basis_function((0, 0), np.zeros(2), lb=lb),
], ids=["MagneticElement", "eval_basis_function"])
def test_bad_magnetic_length_rejected(entry, lb):
    with pytest.raises(ValueError, match="magnetic length"):
        entry(lb)
