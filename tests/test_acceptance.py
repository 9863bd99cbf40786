"""Acceptance suite: the nine criteria of ``magnc.cli.CHECKS`` at the default
configuration (seed 0).

The criteria, their corpora and their tolerances live in ``cli.CHECKS`` and
nowhere else; each test runs one registry entry, as ``magnc verify-all`` does,
asserts its ``pass`` and, where the criterion carries one, its wall-time
budget.  The ``[PASS]``/``[FAIL] <name>`` line of each check is printed
outside pytest's capture, so it is visible in any mode.  The tests at the
end run all nine at a second magnetic length, where a wrong power of l
shows, and three criteria off the default seed and regularization, where
they are hardest.
"""

import time

import pytest

from magnc import cli


@pytest.fixture
def criterion(capsys):
    def run(name: str, budget_s: float | None = None):
        [(stage, fn)] = [entry for entry in cli.CHECKS if cli.check_name(entry[1]) == name]
        t0 = time.perf_counter()
        with capsys.disabled():
            rec = cli.run_check(stage, fn, cli.RunConfig())
        dt = time.perf_counter() - t0
        assert rec["pass"], rec
        if budget_s is not None:
            assert dt < budget_s, f"{name} took {dt:.1f} s (budget {budget_s} s)"

    return run


def test_every_registry_entry_has_a_criterion_test():
    tested = {
        "dixmier-normalization", "gap-labeling", "chern-integrality-streda",
        "connes-formula-1", "connes-formula-2", "chi-triviality",
        "singular-value-laws", "quantized-calculus-structure",
        "representation-consistency",
    }
    assert sorted(cli.check_name(fn) for _, fn in cli.CHECKS) == sorted(tested)


def test_criterion_1_dixmier_normalization(criterion):
    criterion("dixmier-normalization", budget_s=60.0)


def test_criterion_2_gap_labeling(criterion):
    criterion("gap-labeling", budget_s=120.0)


def test_criterion_3_chern_integrality_streda(criterion):
    criterion("chern-integrality-streda")


def test_criterion_4_second_connes_formula_1(criterion):
    criterion("connes-formula-1", budget_s=600.0)


def test_criterion_5_second_connes_formula_2(criterion):
    criterion("connes-formula-2")


def test_criterion_6_chi_triviality(criterion):
    criterion("chi-triviality")


def test_criterion_7_singular_value_laws(criterion):
    criterion("singular-value-laws")


def test_criterion_8_quantized_calculus_structure(criterion):
    criterion("quantized-calculus-structure")


def test_criterion_9_representation_consistency(criterion):
    criterion("representation-consistency")


@pytest.mark.parametrize("stage, fn", cli.CHECKS, ids=[cli.check_name(fn) for _, fn in cli.CHECKS])
def test_every_criterion_at_a_second_magnetic_length(stage, fn):
    # at lb = 1 every power of l reads 1
    rec = cli.run_check(stage, fn, cli.RunConfig(lb=2.0))
    assert rec["pass"], rec


@pytest.mark.parametrize("seed", [0, 1, 7, 57, 163, 274, 370])
def test_connes_formula_1_at_its_hardest_seeds(seed):
    # the affine fit in 1/log N was worst at 57 and 370 over seeds 0-399
    # (0.0113 and 0.0129 against 0.05); the residue reads 2.6e-9 to 6.2e-8
    rec = cli.check_connes_formula_1(cli.RunConfig(seed=seed))
    assert rec["pass"] and rec["got"] <= 1e-6, rec


@pytest.mark.parametrize("seed", [40, 142, 163, 274, 370])
def test_connes_formula_2_at_its_hardest_seeds(seed):
    # over seeds 0-399 the fitted route ii was worst at these five (0.088 to
    # 0.154); route ii now reads the leading coefficient, within 1.4e-14
    rec = cli.check_connes_formula_2(cli.RunConfig(seed=seed))
    assert rec["pass"] and rec["got"]["route_ii"] <= 1e-12, rec


@pytest.mark.parametrize("eps", [1.0, 2.0])
def test_dixmier_normalization_at_larger_regularization(eps):
    # the residue reads 1.4e-6 and 4.0e-6 relative here; the affine fit in
    # 1/log N read 0.0217 and 0.0423 against 0.02
    rec = cli.check_dixmier_normalization(cli.RunConfig(eps=eps))
    assert rec["pass"] and rec["error"] <= 1e-5, rec
