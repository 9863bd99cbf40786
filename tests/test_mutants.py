"""Every check can fail: a table of physics mutants.

Each mutant is one physics error, put in by a monkeypatch of one name in
every module that binds it, with the acceptance checks that must fail on
it and the configuration they run at (the defaults, seed 0, unless the
entry names another).  The checks run through ``cli.run_check``, as
``magnc verify-all`` runs them.  Every cache in the package is emptied
before a mutant goes in and after it comes out, so no value computed on one
side is read on the other.
"""

import sys

import numpy as np
import pytest

from magnc import basis, cli, cocycles, dirac, kernel, spectra
from magnc.algebra import random_element

exact_ladders = basis.number_ladders
exact_delta1 = cocycles._delta1
exact_weights = cocycles.sector_weights
exact_kernels = cocycles._fredholm_kernels
exact_monomials = basis._basis_over_psi00_monomials
exact_axis_tables = kernel._axis_tables
exact_d4_partial_sums = spectra.d4_partial_sums
exact_graded_terms = cocycles._graded_terms
exact_chern_number = cocycles.chern_number

DEFAULT = cli.RunConfig()
# the l-power mutants: at l = 1 every power of l reads 1
LB_2 = cli.RunConfig(lb=2.0)
# checks that fail on no mutant yet; a Dirichlet-energy value for criterion 2
# (ROADMAP items 15 and 16) would give singular-value-laws one
KNOWN_GAPS = {"singular-value-laws"}


def clear_caches():
    """Empty every ``functools`` cache of the package (``dirac._lattice``,
    ``cocycles._window_correlations``, ...)."""
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
    basis tables alike; the basis tables feed both the kernel quadrature and
    the ladder oracle."""
    return np.conj(exact_monomials(n, m))


def phase_conjugated(f, t):
    """The kernel tables with the magnetic phase Phi(x, y) replaced by
    Phi(y, x)."""
    d, z, e = exact_axis_tables(f, t)
    return d, z, np.conj(e)


def d4_multiplicity_doubled(eps, ladder):
    """|D_eps|^-4 with level j counted 2j times in the partial sums instead of
    j, at the same counts N."""
    ns, sums = exact_d4_partial_sums(eps, ladder)
    return ns, 2.0 * sums


def nc_integral_half(a, ctx, ladder):
    """The noncommutative integral with a half in place of the quarter."""
    cocycles.require_fits(ctx, a)
    return cocycles._dixmier_functional(np.array([0.5]), np.diag(a.block)[None], np.ones((1, 4)),
                                        ctx.shifted_energies(), ladder)


def graded_terms_one_l(coefs, z0, z1, z2, ctx):
    """The graded integrands of ch_dix with 1/(2l) in place of 1/(2l^2)."""
    return exact_graded_terms([ctx.lb * c for c in coefs], z0, z1, z2, ctx)


def chern_number_one_l(p):
    """The Chern pairing with i/l in place of i/l^2."""
    return p.lb * exact_chern_number(p)


# chi' = Gamma chi: traceless, and traceless against Gamma, like chi, but it
# commutes with gamma_1 and gamma_2 where chi anticommutes
CHI_NOT_ANTICOMMUTING = np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex)


def mutant(modules, name, value, must_fail, cfg=DEFAULT, id=None):
    """One table entry: ``value`` in place of ``name`` in ``modules``, with
    the checks that must fail on it at ``cfg``."""
    return pytest.param(modules, name, value, must_fail, cfg, id=id or value.__name__)


MUTANTS = [
    mutant((basis,), "number_ladders", k1_off_target, ["representation-consistency"]),
    mutant((basis,), "number_ladders", g2_sign_flip, ["representation-consistency"]),
    mutant((cocycles,), "_delta1", delta1_sign_flip,
           ["chern-integrality-streda", "connes-formula-2"]),
    mutant((cocycles,), "_delta1", delta1_transposed,
           ["quantized-calculus-structure", "chern-integrality-streda", "connes-formula-2"]),
    mutant((cocycles,), "sector_weights", phase_power_1_1, ["connes-formula-2"]),
    mutant((cocycles,), "_fredholm_kernels", route_ii_chi_signs, ["connes-formula-2"]),
    mutant((basis, kernel), "_basis_over_psi00_monomials", monomials_conjugated,
           ["representation-consistency"]),
    mutant((kernel,), "_axis_tables", phase_conjugated, ["representation-consistency"]),
    mutant((spectra,), "d4_partial_sums", d4_multiplicity_doubled, ["dixmier-normalization"]),
    mutant((cocycles,), "nc_integral", nc_integral_half, ["gap-labeling"]),
    mutant((cocycles,), "_graded_terms", graded_terms_one_l,
           ["connes-formula-1", "connes-formula-2"], LB_2),
    mutant((cocycles,), "chern_number", chern_number_one_l, ["chern-integrality-streda"], LB_2),
    mutant((cocycles,), "CHI_GRADING", CHI_NOT_ANTICOMMUTING, ["chi-triviality"],
           id="chi_not_anticommuting"),
]


def run_check(check, cfg=DEFAULT):
    registry = {cli.check_name(fn): (stage, fn) for stage, fn in cli.CHECKS}
    return cli.run_check(*registry[check], cfg)


def assert_checks_fail(must_fail, cfg=DEFAULT):
    for check in must_fail:
        rec = run_check(check, cfg)
        assert rec["pass"] is False, rec


@pytest.mark.parametrize("modules, name, value, must_fail, cfg", MUTANTS)
def test_mutant_fails_its_checks(monkeypatch, modules, name, value, must_fail, cfg):
    for module in modules:
        monkeypatch.setattr(module, name, value)
    assert_checks_fail(must_fail, cfg)


def test_every_check_fails_on_a_mutant_but_the_known_gaps():
    caught = {check for m in MUTANTS for check in m.values[3]}
    assert {cli.check_name(fn) for _, fn in cli.CHECKS} - caught == KNOWN_GAPS


def test_ladder_mutant_is_measured_not_raised(monkeypatch):
    # the oracle returns its deviation; the check's bound alone decides, and
    # the record keeps the other three measurements
    monkeypatch.setattr(basis, "number_ladders", k1_off_target)
    assert basis.verify_ladder_phases(1.0, 3, 3) == pytest.approx(0.5, abs=1e-12)
    rec = run_check("representation-consistency")
    assert rec["got"]["ladder_vs_quadrature"] == pytest.approx(0.5, abs=1e-12)
    assert rec["error"] == pytest.approx(0.5, abs=1e-12) and rec["pass"] is False
    assert all(v < 1e-6 for k, v in rec["got"].items() if k != "ladder_vs_quadrature")


def test_phase_mutant_fails_right_after_a_clean_run(monkeypatch):
    # the clean run fills the context caches that the mutant must not read
    assert run_check("connes-formula-2")["pass"] is True
    clear_caches()
    monkeypatch.setattr(cocycles, "sector_weights", phase_power_1_1)
    assert_checks_fail(["connes-formula-2"])


def test_clear_caches_empties_the_context_caches():
    ctx = dirac.DiracContext(lb=1.0, eps=0.5, n_max=16, m_max=64, buffer=4)
    a = random_element(5, 3, 1.0, 1.0)
    cocycles.nc_integral(a, ctx)
    cocycles.tau2(a, a, a, ctx, "direct")
    caches = (spectra._fit_map, spectra._resolvent_table, dirac._sector_blocks,
              cocycles._window_correlations)
    assert all(c.cache_info().currsize > 0 for c in caches)
    clear_caches()
    assert [c.cache_info().currsize for c in caches] == [0, 0, 0, 0]


def test_graded_terms_mutant_fails_right_after_a_clean_run(monkeypatch):
    # the context caches keep only what no element changes: the clean run
    # leaves them warm, and the mutant, run on them, still fails
    assert run_check("connes-formula-1", LB_2)["pass"] is True
    warm = spectra._resolvent_table.cache_info()
    assert warm.currsize > 0
    monkeypatch.setattr(cocycles, "_graded_terms", graded_terms_one_l)
    assert_checks_fail(["connes-formula-1"], LB_2)
    assert spectra._resolvent_table.cache_info().hits > warm.hits


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
