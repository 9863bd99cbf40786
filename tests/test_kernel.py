"""Integral-kernel correspondence: the twisted-convolution action on the plane."""

import tracemalloc
from math import pi

import numpy as np
import pytest

from magnc.algebra import (
    landau_projection,
    random_element,
    trace_int,
    upsilon,
    zero_element,
)
from magnc.basis import QuadratureScheme, _separable_basis, default_radius, eval_basis_function
from magnc.kernel import (
    _axis_tables,
    gram_via_kernel,
    kernel_of,
    magnetic_phase,
    trace_per_unit_volume,
)

SCHEME = QuadratureScheme(default_radius(4, 4), 64)
ACCEPTANCE_LABELS = [(n, m) for n in range(3) for m in range(2)]


def tensor_grid(scheme, lb):
    """Flattened 2-D nodes (N, 2) and weights (N,) of the tensor rule."""
    x, w = scheme.nodes_1d(lb)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    return np.stack([x1.ravel(), x2.ravel()], axis=-1), np.outer(w, w).ravel()


def pointwise_gram(a, bras, kets, scheme):
    """The kernel quadrature as a plain double sum over node pairs: f(y - x),
    Phi(x, y) and the basis functions evaluated pointwise, contracted in row
    blocks (the oracle of the axis-by-axis contraction in ``gram_via_kernel``)."""
    lb = a.lb
    f = kernel_of(a)
    pts, w = tensor_grid(scheme, lb)
    ket_mat = np.stack([eval_basis_function(kk, pts, lb) * w for kk in kets])
    bra_mat = np.stack([np.conj(eval_basis_function(bb, pts, lb)) * w for bb in bras])
    out = np.zeros((len(bras), len(kets)), dtype=complex)
    chunk = 128
    for lo in range(0, len(pts), chunk):
        xs = pts[lo : lo + chunk]
        fv = f(pts[None, :, :] - xs[:, None, :])
        ph = magnetic_phase(xs[:, None, :], pts[None, :, :], lb)
        applied = (fv * ph) @ ket_mat.T / (2.0 * pi * lb**2)
        out += bra_mat[:, lo : lo + chunk] @ applied
    return out


class TestKernelFunction:
    def test_projection_kernel_is_gaussian(self):
        f = kernel_of(landau_projection(0))
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [-2.0, 1.0]])
        want = np.sqrt(2 * np.pi) * eval_basis_function((0, 0), pts, 1.0)
        assert np.allclose(f(pts), want, atol=1e-14)

    def test_value_at_origin_is_trace(self):
        for seed in range(20):
            a = random_element(seed, 5, 1.0)
            f = kernel_of(a)
            assert f((0.0, 0.0)) == pytest.approx(trace_int(a), rel=1e-12, abs=1e-13)

    def test_zero_element(self):
        f = kernel_of(zero_element())
        pts = np.array([[0.3, 0.4], [0.0, 0.0]])
        assert np.abs(f(pts)).max() == 0.0

    def test_norm_identity(self):
        # ||f_A||^2 = 2 pi l^2 sum |a_{j,k}|^2, by quadrature of f_A itself
        for lb in (1.0, 1.7):
            a = random_element(3, 4, 1.0, lb)
            pts, w = tensor_grid(QuadratureScheme(default_radius(8, 8), 64), lb)
            norm_sq = np.sum(w * np.abs(kernel_of(a)(pts)) ** 2)
            assert norm_sq == pytest.approx(
                2 * np.pi * lb**2 * np.sum(np.abs(a.block) ** 2), rel=1e-12
            )

    def test_matches_term_by_term_basis_sum(self):
        # shared u, zeta and Gaussian against one eval_basis_function per term
        rng = np.random.default_rng(4)
        radius = default_radius(6, 6)
        pts = rng.uniform(-radius, radius, (200, 2))
        pts[0] = 0.0
        pts[1] = [0.6 * radius, 0.8 * radius]
        pts[2] = [-radius, 0.0]
        # the kernel of upsilon(j, k) is a multiple of psi_{k,j}: m > n for j > k
        for a in (random_element(2, 5, 1.3), upsilon(4, 0, 0.7), upsilon(1, 3)):
            f = kernel_of(a)
            want = sum(c * eval_basis_function(nm, pts, f.lb) for nm, c in f.terms)
            assert np.abs(f(pts) - want).max() < 1e-13
            one = f(pts[1])
            assert type(one) is complex
            assert abs(one - want[1]) < 1e-13

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_value_raises(self):
        f = kernel_of(upsilon(0, 3))
        with pytest.raises(FloatingPointError):
            f(np.array([[0.0, 0.0], [1e120, 0.0]]))

    @pytest.mark.parametrize("lb", [0.0, -1.0, float("nan"), float("inf")])
    def test_phase_rejects_bad_magnetic_length(self, lb):
        with pytest.raises(ValueError):
            magnetic_phase([1.0, 0.0], [0.0, 1.0], lb)

    def test_phase_antisymmetry(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal((50, 2))
        prod = magnetic_phase(x, y, 1.3) * magnetic_phase(y, x, 1.3)
        assert np.abs(prod - 1.0).max() < 1e-14


class TestCrossRepresentation:
    def test_matrix_elements_match_coefficients(self):
        # the central consistency statement: quadrature matrix elements of the
        # kernel operator reproduce the coefficient action to 1e-6
        a = random_element(11, 3, 1.0)
        labels = [(n, m) for n in range(3) for m in range(2)]
        gram = gram_via_kernel(a, labels, labels, SCHEME)
        for i, (nb, mb) in enumerate(labels):
            for j, (nk, mk) in enumerate(labels):
                want = a.coeff(nk, nb) if mb == mk else 0.0
                assert abs(gram[i, j] - want) < 1e-6


class TestAxisFactorization:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_pointwise_oracle_at_acceptance_input(self, seed):
        # the representation-consistency input of ``magnc --seed S verify-all``
        a = random_element(seed + 1, 3, 1.0)
        scheme = QuadratureScheme(default_radius(4, 4), 56)
        got = gram_via_kernel(a, ACCEPTANCE_LABELS, ACCEPTANCE_LABELS, scheme)
        want = pointwise_gram(a, ACCEPTANCE_LABELS, ACCEPTANCE_LABELS, scheme)
        assert np.abs(got - want).max() <= 1e-13

    def test_matches_pointwise_oracle_off_acceptance_input(self):
        # support 5, lb != 1, another node count and non-square bra/ket sets
        a = random_element(5, 5, 1.0, 1.3)
        bras = [(n, m) for n in range(4) for m in range(2)]
        kets = [(0, 0), (2, 1), (4, 0)]
        scheme = QuadratureScheme(default_radius(5, 5), 48)
        got = gram_via_kernel(a, bras, kets, scheme)
        assert got.shape == (8, 3)
        assert np.abs(got - pointwise_gram(a, bras, kets, scheme)).max() <= 1e-13

    @pytest.mark.parametrize("lb", [0.7, 1.3])
    @pytest.mark.parametrize("support", [1, 3, 5])
    def test_tables_reproduce_the_pointwise_kernel(self, lb, support):
        # the monomial table times psi_00, the Gaussian and phase tables against
        # KernelFunction.__call__ and magnetic_phase at every node pair
        a = random_element(20 + support, support, 1.0, lb)
        f = kernel_of(a)
        t, _ = QuadratureScheme(default_radius(4, 4), 12).nodes_1d(lb)
        D, Z, E = _axis_tables(f, t)
        got = np.einsum("rs,rac,sbd,ad,bc->abcd", D, Z, Z, E, np.conj(E))
        x = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1)  # x[a, b] = (t_a, t_b)
        xs, ys = x[:, :, None, None, :], x[None, None, :, :, :]
        want = f(ys - xs) * magnetic_phase(xs, ys, lb)
        assert np.abs(want).max() > 1e-2
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("lb", [0.7, 1.0, 1.3])
    def test_separable_tables_reproduce_the_basis_on_the_grid(self, lb):
        # sum M[p,q] phi_p(t_c) phi_q(t_d) / (sqrt(2 pi) l) against psi_{n,m} w
        # at every node of the tensor grid, for every label with n + m <= 8
        labels = [(n, k - n) for k in range(9) for n in range(k + 1)]
        scheme = QuadratureScheme(default_radius(8, 8), 56)
        t, w1 = scheme.nodes_1d(lb)
        pts, w = tensor_grid(scheme, lb)
        M, phi = _separable_basis(labels, t, w1, lb)
        assert M.shape == (45, 9, 9) and phi.shape == (9, 56)
        got = np.einsum("kpq,pc,qd->kcd", M, phi, phi) / (np.sqrt(2.0 * pi) * lb)
        for k, idx in enumerate(labels):
            want = (eval_basis_function(idx, pts, lb) * w).reshape(56, 56)
            assert np.abs(got[k] - want).max() <= 1e-13 * np.abs(want).max(), idx

    @pytest.mark.parametrize("side", ["bras", "kets"])
    @pytest.mark.parametrize("label", [(1.9, 0), (0, 1.0), (True, 0)])
    def test_non_integer_labels_raise_type_error(self, side, label):
        # a float label was truncated: (1.9, 0) gave the (1, 0) row
        labels = {"bras": [(0, 0)], "kets": [(0, 0)]}
        labels[side].append(label)
        with pytest.raises(TypeError):
            gram_via_kernel(random_element(1, 3, 1.0), labels["bras"], labels["kets"],
                            QuadratureScheme(default_radius(4, 4), 16))

    def test_numpy_integer_labels_are_accepted(self):
        a = random_element(1, 3, 1.0)
        scheme = QuadratureScheme(default_radius(4, 4), 16)
        labels = [(np.int64(n), np.int32(m)) for n, m in ACCEPTANCE_LABELS]
        assert np.array_equal(gram_via_kernel(a, labels, labels, scheme),
                              gram_via_kernel(a, ACCEPTANCE_LABELS, ACCEPTANCE_LABELS, scheme))

    def test_acceptance_call_stays_within_8_mb(self):
        # a nodes^4 contraction (tens of MB at 56 nodes) must not come back
        a = random_element(2, 3, 1.0)
        scheme = QuadratureScheme(default_radius(4, 4), 56)
        gram_via_kernel(a, ACCEPTANCE_LABELS, ACCEPTANCE_LABELS, scheme)
        tracemalloc.start()
        try:
            gram_via_kernel(a, ACCEPTANCE_LABELS, ACCEPTANCE_LABELS, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("labels", [ACCEPTANCE_LABELS, [(0, 0), (1, 0), (0, 1)]])
    def test_non_finite_quadrature_raises(self, labels):
        # at this radius the node products overflow: never a NaN or zero matrix
        a = random_element(1, 3, 1.0)
        with pytest.raises(FloatingPointError):
            gram_via_kernel(a, labels, labels, QuadratureScheme(1e160, 8))


class TestTracePerUnitVolume:
    def test_projection_gives_one_per_box(self):
        vals = trace_per_unit_volume(landau_projection(0), 2.0, 5)
        assert len(vals) == 5
        for v in vals:
            assert v == pytest.approx(1.0, abs=1e-4)

    def test_zero_element(self):
        vals = trace_per_unit_volume(zero_element(), 1.0, 3)
        assert all(v == 0.0 for v in vals)

    def test_offdiagonal_vanishes(self):
        vals = trace_per_unit_volume(upsilon(0, 1), 3.0, 4)
        for v in vals:
            assert abs(v) < 1e-4

    def test_agrees_with_algebra_trace(self):
        a = random_element(7, 4, 1.0)
        want = trace_int(a).real
        vals = trace_per_unit_volume(a, 2.5, 3)
        for v in vals:
            assert v == pytest.approx(want, abs=1e-4)

    def test_rejects_bad_boxes(self):
        with pytest.raises(ValueError):
            trace_per_unit_volume(landau_projection(0), -1.0, 2)

    @pytest.mark.parametrize("side", [float("nan"), float("inf")])
    def test_rejects_non_finite_box_side(self, side):
        with pytest.raises(ValueError):
            trace_per_unit_volume(landau_projection(0), side, 2)
