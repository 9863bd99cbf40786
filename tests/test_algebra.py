"""Exact *-algebra laws on finitely supported coefficient elements."""

import json

import numpy as np
import pytest

from magnc.algebra import (
    MagneticElement,
    TruncationError,
    UnitalElement,
    compose,
    conjugated_projection,
    element_from_records,
    element_to_records,
    hermitize,
    is_projection,
    landau_projection,
    load_element,
    projection_sum,
    random_element,
    save_element,
    spatial_derivative,
    trace_int,
    upsilon,
    zero_element,
)


def rand(seed, k=4, lb=1.0):
    return random_element(seed, k, 1.0, lb)


class TestProductAndAdjoint:
    def test_transition_product_rule(self):
        # Y_{0->1} after Y_{2->0} transports level 2 to level 1
        got = compose(upsilon(0, 1), upsilon(2, 0))
        assert got.allclose(upsilon(2, 1))

    def test_orthogonal_projections_annihilate(self):
        got = compose(landau_projection(0), landau_projection(1))
        assert np.abs(got.block).max() == 0.0

    def test_projection_delta_rule(self):
        for j, k in [(0, 0), (1, 1), (2, 1)]:
            got = compose(landau_projection(j), landau_projection(k))
            want = landau_projection(j) if j == k else zero_element()
            s = max(got.block.shape[0], want.block.shape[0])
            assert np.allclose(got.padded(s), want.padded(s))

    def test_zero_absorbs(self):
        a = rand(3)
        assert np.abs(compose(a, zero_element()).block).max() == 0.0

    def test_adjoint_of_transition(self):
        assert upsilon(0, 1).adjoint().allclose(upsilon(1, 0))

    def test_adjoint_projection_selfadjoint(self):
        p = landau_projection(2)
        assert p.adjoint().allclose(p)

    def test_adjoint_conjugate_linear(self):
        got = (1j * upsilon(2, 3)).adjoint()
        assert got.allclose(-1j * upsilon(3, 2))

    def test_mixed_length_rejected(self):
        with pytest.raises(ValueError):
            compose(rand(0, lb=1.0), rand(1, lb=2.0))

    def test_star_algebra_laws_on_seeded_triples(self):
        # associativity, involution, anti-multiplicativity: exact finite algebra
        worst = 0.0
        for seed in range(1000):
            a, b, c = rand(3 * seed), rand(3 * seed + 1, 3), rand(3 * seed + 2, 5)
            lhs = compose(compose(a, b), c)
            rhs = compose(a, compose(b, c))
            scale = max(np.abs(lhs.block).max(), 1e-30)
            worst = max(worst, np.abs((lhs - rhs).block).max() / scale)
            ab_star = compose(a, b).adjoint()
            ba_star = compose(b.adjoint(), a.adjoint())
            worst = max(worst, np.abs((ab_star - ba_star).block).max() / scale)
            worst = max(worst, np.abs((a.adjoint().adjoint() - a).block).max())
        assert worst < 1e-12

    def test_identity_on_supported_elements(self):
        a = rand(7, 4)
        big_j = projection_sum(range(6))
        assert compose(big_j, a).allclose(a)
        assert compose(a, big_j).allclose(a)


class TestTrace:
    def test_landau_projection_has_unit_trace(self):
        assert trace_int(landau_projection(0)) == 1.0

    def test_offdiagonal_traceless(self):
        assert trace_int(upsilon(0, 1)) == 0.0

    def test_trace_property_on_seeded_pairs(self):
        for seed in range(200):
            a, b = rand(2 * seed), rand(2 * seed + 1, 5)
            lhs = trace_int(compose(a, b))
            rhs = trace_int(compose(b, a))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_inner_product_form(self):
        # trace(A* B) must equal the coefficientwise inner product
        for seed in range(50):
            a, b = rand(seed), rand(seed + 999)
            want = np.vdot(a.padded(5), b.padded(5))
            got = trace_int(compose(a.adjoint(), b))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_positivity(self):
        for seed in range(50):
            a = rand(seed)
            v = trace_int(compose(a.adjoint(), a))
            assert v.real >= 0 and abs(v.imag) < 1e-12
            assert v.real == pytest.approx(np.linalg.norm(a.block) ** 2, rel=1e-12)


class TestImmutability:
    """An element is a value: its block is a read-only copy, its attributes
    cannot be rebound, and its support is found once."""

    def test_block_is_read_only(self):
        a = rand(5, 3)
        assert not a.block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.block[0, 0] = 7.0
        with pytest.raises(AttributeError, match="immutable"):
            a.block = np.zeros((3, 3))
        with pytest.raises(AttributeError, match="immutable"):
            a.support_bound = 1

    def test_source_array_is_copied(self):
        src = np.zeros((4, 4), dtype=complex)
        src[1, 2] = 1.0
        a = MagneticElement(src)
        src[3, 3] = 5.0
        src[1, 2] = 0.0
        assert a.coeffs() == {(2, 1): 1.0} and a.support_bound == 3
        # a read-only source is copied as well, so nothing is shared
        assert not np.shares_memory(MagneticElement(a.block).block, a.block)

    @pytest.mark.parametrize("block, support", [
        (np.zeros((3, 3)), 0), (np.eye(1), 1), (np.pad([[0, 2.0], [0, 0]], (0, 3)), 2),
        (np.diag([0, 0, 0, 1.0]), 4)])
    def test_support_bound_is_the_largest_nonzero_index(self, block, support):
        assert MagneticElement(block).support_bound == support


class TestPadded:
    """The level window: exactly size x size, grown with zeros or cut past the
    support, and a TruncationError for a support past the window."""

    def test_grows_with_zeros(self):
        a = rand(5, 3)
        got = a.padded(5)
        assert got.shape == (5, 5) and np.array_equal(got[:3, :3], a.block)
        assert not got[3:].any() and not got[:, 3:].any()

    def test_cuts_stored_zeros_past_the_support(self):
        a = rand(5, 3)
        wide = MagneticElement(np.pad(a.block, (0, 4)))
        assert np.array_equal(wide.padded(3), a.block)
        assert np.array_equal(wide.padded(4), a.padded(4))

    def test_support_past_the_window_rejected(self):
        assert issubclass(TruncationError, ValueError)
        with pytest.raises(TruncationError, match="support 3 exceeds the window 2"):
            rand(5, 3).padded(2)
        with pytest.raises(TruncationError):
            MagneticElement(np.pad(upsilon(0, 2).block, (0, 2))).padded(2)


class TestDerivations:
    def test_unit_part_killed(self):
        # the derivation slots of psi see their arguments only through the
        # derivations, which annihilate the unit part
        from magnc.cocycles import psi

        a0, a1, a2 = rand(4), rand(5), rand(6)
        lifted = psi(a0, UnitalElement(2.5 + 1j, a1), UnitalElement(-0.5, a2)).value
        assert lifted == psi(a0, a1, a2).value

    def test_trace_of_derivative_vanishes(self):
        for seed in range(100):
            a = rand(seed, 5)
            for axis in (1, 2):
                assert abs(trace_int(spatial_derivative(a, axis))) < 1e-12

    def test_derivations_commute(self):
        for seed in range(100):
            a = rand(seed, 5)
            d12 = spatial_derivative(spatial_derivative(a, 1), 2)
            d21 = spatial_derivative(spatial_derivative(a, 2), 1)
            assert np.abs((d12 - d21).block).max() < 1e-12

    def test_leibniz(self):
        for seed in range(200):
            a, b = rand(2 * seed), rand(2 * seed + 1, 3)
            for axis in (1, 2):
                lhs = spatial_derivative(compose(a, b), axis)
                rhs = compose(spatial_derivative(a, axis), b) + compose(
                    a, spatial_derivative(b, axis)
                )
                assert np.abs((lhs - rhs).block).max() < 1e-10

    def test_block_wider_than_its_support(self):
        # a stored block past the support holds zeros: the derivative is the
        # tight block's, bit for bit
        b = np.zeros((3, 3), dtype=complex)
        b[0, 0] = 1.0
        for axis in (1, 2):
            wide = spatial_derivative(MagneticElement(b), axis)
            assert np.array_equal(wide.block, spatial_derivative(landau_projection(0), axis).block)

    def test_support_grows_by_one(self):
        a = upsilon(2, 3)
        d = spatial_derivative(a, 1)
        assert d.support_bound <= a.support_bound + 1

    def test_derivative_scales_with_length(self):
        a = rand(11, 4, lb=1.0)
        b = MagneticElement(a.block, lb=3.0)
        da = spatial_derivative(a, 1)
        db = spatial_derivative(b, 1)
        assert np.allclose(db.block, 3.0 * da.block)


class TestGenerators:
    def test_random_element_deterministic(self):
        a = random_element(1, 4, 1.0)
        b = random_element(1, 4, 1.0)
        assert a.allclose(b, tol=0.0)

    def test_support_bound_respected(self):
        a = random_element(5, 4, 1.0)
        assert a.support_bound <= 4

    def test_hermitize_fixed_point(self):
        h = hermitize(random_element(9, 5, 1.0))
        assert h.adjoint().allclose(h)

    def test_conjugated_projection_is_projection(self):
        for seed in range(20):
            p = conjugated_projection(seed, 6)
            assert is_projection(p, tol=1e-10)
            assert trace_int(p).real == pytest.approx(1.0, abs=1e-10)

    def test_zero_element_is_a_projection(self):
        # an empty block is the zero element, which is a projection
        assert is_projection(MagneticElement(np.zeros((0, 0))))
        assert is_projection(zero_element())
        assert not is_projection(MagneticElement(2 * np.eye(1)))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_conjugated_projection_matches_the_exponential(self, seed):
        # the six conjugated projections of the CLI's corpus at this seed
        import scipy.linalg

        for s in range(seed + 100, seed + 106):
            p = conjugated_projection(s, 5)
            u = scipy.linalg.expm(1j * hermitize(random_element(s, 5, 1.0)).padded(5))
            assert np.abs(p.block - np.outer(u[:, 0], u[:, 0].conj())).max() <= 1e-13
            assert is_projection(p, tol=1e-13)

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            random_element(0, 0, 1.0)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        a = rand(21, 5)
        path = tmp_path / "el.json"
        save_element(a, path)
        b = load_element(path)
        assert a.allclose(b, tol=1e-15)

    def test_records_schema(self):
        recs = element_to_records(upsilon(1, 2) * (0.5 - 0.25j))
        assert recs == [{"j": 1, "k": 2, "re": 0.5, "im": -0.25}]
        back = element_from_records(json.loads(json.dumps(recs)))
        assert back.allclose(upsilon(1, 2) * (0.5 - 0.25j))


class TestUnitization:
    def test_unit_is_multiplicative_identity(self):
        a = UnitalElement.lift(rand(31))
        one = UnitalElement.unit()
        prod = one @ a
        assert prod.scalar == a.scalar
        assert prod.element.allclose(a.element)

    def test_product_matches_block_arithmetic(self):
        u = UnitalElement(0.5, rand(1))
        v = UnitalElement(-1j, rand(2, 3))
        w = u @ v
        size = 6
        lhs = w.scalar * np.eye(size) + w.element.padded(size)
        rhs = (0.5 * np.eye(size) + u.element.padded(size)) @ (
            -1j * np.eye(size) + v.element.padded(size)
        )
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_adjoint(self):
        u = UnitalElement(1 + 2j, rand(3))
        ua = u.adjoint()
        assert ua.scalar == np.conj(u.scalar)
        assert np.array_equal(ua.element.block, u.element.block.conj().T)
