"""Every check can fail: a table of physics mutants.

Each mutant is one physics error, put in by a monkeypatch of one name in
every module that binds it, with the acceptance checks that must fail on
it.  The checks run through ``cli.run_check`` at seed 0, as
``magnc verify-all`` runs them.  Every
cache in the package is emptied before a mutant goes in and after it comes
out, so no value computed on one side is read on the other.
"""

import sys

import numpy as np
import pytest

from magnc import basis, cli, cocycles, dirac, kernel, spectra

exact_ladders = basis.number_ladders
exact_delta1 = cocycles._delta1
exact_weights = cocycles.sector_weights
exact_kernels = cocycles._fredholm_kernels
exact_monomials = basis._basis_over_psi00_monomials
exact_axis_tables = kernel._axis_tables


def clear_caches():
    """Empty every ``functools`` cache of the package (``dirac._lattice``,
    ``cocycles._context_correlations``, ...)."""
    for name, module in list(sys.modules.items()):
        if name == "magnc" or name.startswith("magnc."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def k1_off_target(size, which):
    """K1 with a Hermitian n <-> n+2 coupling of 0.5, outside the ladder's band."""
    out = exact_ladders(size, which)
    if which == "K1":
        out = out + 0.5 * (np.eye(size, k=2) + np.eye(size, k=-2))
    return out


def g2_sign_flip(size, which):
    """G2 with the opposite sign, so [G1, G2] = +i."""
    out = exact_ladders(size, which)
    return -out if which == "G2" else out


def delta1_sign_flip(x, y):
    """The curl bilinear of the stacked gradients with the opposite orientation."""
    return -exact_delta1(x, y)


def delta1_transposed(x, y):
    """The curl bilinear transposed, so psi reads tr(A0 delta1^T): not cyclic."""
    return np.swapaxes(exact_delta1(x, y), -1, -2)


def phase_power_1_1(ctx, levels):
    """F = D |D_eps|^-1.1 on route ii, in place of the phase D |D_eps|^-1."""
    return exact_weights(ctx, levels) ** 1.1


def route_ii_chi_signs(a0, a1, a2, ctx, signs):
    """Route ii's grading with chi's sign pattern (1, -1, 1, -1) in place of
    Gamma's (1, 1, -1, -1); route i keeps Gamma."""
    return exact_kernels(a0, a1, a2, ctx, np.array([1.0, -1.0, 1.0, -1.0]))


def monomials_conjugated(n, m):
    """psi_{n,m}/psi_{0,0} with u and ubar exchanged, for the kernel and the
    basis tables alike."""
    return np.conj(exact_monomials(n, m))


def phase_conjugated(f, t):
    """The kernel tables with the magnetic phase Phi(x, y) replaced by
    Phi(y, x)."""
    d, z, e = exact_axis_tables(f, t)
    return d, z, np.conj(e)


MUTANTS = [
    ((basis,), "number_ladders", k1_off_target, ["representation-consistency"]),
    ((basis,), "number_ladders", g2_sign_flip, ["representation-consistency"]),
    ((cocycles,), "_delta1", delta1_sign_flip, ["chern-integrality-streda", "connes-formula-2"]),
    ((cocycles,), "_delta1", delta1_transposed,
     ["quantized-calculus-structure", "chern-integrality-streda", "connes-formula-2"]),
    ((cocycles,), "sector_weights", phase_power_1_1, ["connes-formula-2"]),
    ((cocycles,), "_fredholm_kernels", route_ii_chi_signs, ["connes-formula-2"]),
    ((basis, kernel), "_basis_over_psi00_monomials", monomials_conjugated,
     ["representation-consistency"]),
    ((kernel,), "_axis_tables", phase_conjugated, ["representation-consistency"]),
]


def run_check(check):
    registry = {cli.check_name(fn): (stage, fn) for stage, fn in cli.CHECKS}
    return cli.run_check(*registry[check], cli.RunConfig())


def assert_checks_fail(must_fail):
    for check in must_fail:
        rec = run_check(check)
        assert rec["pass"] is False, rec


@pytest.mark.parametrize("modules, name, mutant, must_fail", MUTANTS,
                         ids=[m[2].__name__ for m in MUTANTS])
def test_mutant_fails_its_checks(monkeypatch, modules, name, mutant, must_fail):
    for module in modules:
        monkeypatch.setattr(module, name, mutant)
    assert_checks_fail(must_fail)


def test_phase_mutant_fails_right_after_a_clean_run(monkeypatch):
    # the clean run fills the context caches that the mutant must not read
    assert run_check("connes-formula-2")["pass"] is True
    clear_caches()
    monkeypatch.setattr(cocycles, "sector_weights", phase_power_1_1)
    assert_checks_fail(["connes-formula-2"])


def test_block_shift_off_by_one_fails_its_checks():
    # D^2 = Q + diag(0, 0, +1, 0): changed in place, since spectra reads the
    # same array
    assert spectra.BLOCK_SHIFTS is dirac.BLOCK_SHIFTS
    saved = dirac.BLOCK_SHIFTS.copy()
    dirac.BLOCK_SHIFTS[0] = 0.0
    try:
        assert_checks_fail(["representation-consistency"])
    finally:
        dirac.BLOCK_SHIFTS[:] = saved
