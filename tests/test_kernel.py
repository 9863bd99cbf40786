"""Integral-kernel correspondence: the twisted-convolution action on the plane."""

import numpy as np
import pytest

from magnc.algebra import (
    adjoint,
    compose,
    landau_projection,
    random_element,
    trace_int,
    upsilon,
    zero_element,
)
from magnc.basis import QuadratureScheme, default_radius, eval_basis_function
from magnc.kernel import (
    apply_via_kernel,
    dump_kernel_csv,
    gram_via_kernel,
    kernel_of,
    magnetic_phase,
    matrix_element_via_kernel,
    plancherel_inner,
    trace_per_unit_volume,
)

SCHEME = QuadratureScheme(default_radius(4, 4), 64)


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
        a = random_element(3, 4, 1.0)
        f = kernel_of(a)
        assert f.norm_sq == pytest.approx(
            2 * np.pi * np.sum(np.abs(a.block) ** 2), rel=1e-14
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

    def test_phase_antisymmetry(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal((50, 2))
        prod = magnetic_phase(x, y, 1.3) * magnetic_phase(y, x, 1.3)
        assert np.abs(prod - 1.0).max() < 1e-14


class TestKernelAction:
    def test_projection_reproduces_its_range(self):
        f = kernel_of(landau_projection(0))
        phi = lambda pts: eval_basis_function((0, 0), pts, 1.0)
        xs = np.array([[0.2, -0.1], [1.0, 0.7]])
        got = apply_via_kernel(f, phi, xs, SCHEME)
        want = eval_basis_function((0, 0), xs, 1.0)
        assert np.abs(got - want).max() < 1e-6

    def test_projection_kills_other_levels(self):
        f = kernel_of(landau_projection(0))
        phi = lambda pts: eval_basis_function((1, 0), pts, 1.0)
        xs = np.array([[0.2, -0.1], [1.0, 0.7], [0.0, 0.0]])
        got = apply_via_kernel(f, phi, xs, SCHEME)
        assert np.abs(got).max() < 1e-6

    def test_zero_kernel(self):
        f = kernel_of(zero_element())
        got = apply_via_kernel(f, lambda pts: np.ones(len(pts)), (0.1, 0.2), SCHEME)
        assert got == 0.0

    def test_transition_moves_level_index(self):
        # Y_{1->2} maps psi_{1,m} to psi_{2,m} and kills psi_{0,m}
        f = kernel_of(upsilon(1, 2))
        xs = np.array([[0.4, 0.3], [-0.9, 1.2]])
        for m in (0, 1):
            got = apply_via_kernel(
                f, lambda pts, m=m: eval_basis_function((1, m), pts, 1.0), xs, SCHEME
            )
            want = eval_basis_function((2, m), xs, 1.0)
            assert np.abs(got - want).max() < 1e-6
        got = apply_via_kernel(
            f, lambda pts: eval_basis_function((0, 0), pts, 1.0), xs, SCHEME
        )
        assert np.abs(got).max() < 1e-6

    def test_convergence_check_runs(self):
        f = kernel_of(landau_projection(0))
        phi = lambda pts: eval_basis_function((0, 0), pts, 1.0)
        small = QuadratureScheme(default_radius(2, 2), 40)
        val = apply_via_kernel(f, phi, (0.1, 0.0), small, check_convergence=True)
        assert np.isfinite(val)


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

    def test_single_element_wrapper(self):
        a = upsilon(0, 1)
        got = matrix_element_via_kernel(a, (1, 0), (0, 0), SCHEME)
        assert got == pytest.approx(1.0, abs=1e-7)

    def test_plancherel(self):
        for seed in range(5):
            a = random_element(seed, 3, 1.0)
            b = random_element(seed + 50, 3, 1.0)
            got = plancherel_inner(a, b, SCHEME) / (2 * np.pi)
            want = trace_int(compose(adjoint(a), b))
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


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


def test_kernel_csv_dump(tmp_path):
    f = kernel_of(landau_projection(0))
    path = tmp_path / "kernel.csv"
    dump_kernel_csv(f, path, extent=3.0, points=8)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,re,im"
    assert len(lines) == 1 + 64
