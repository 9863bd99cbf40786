"""Acceptance suite: the nine criteria of ``magnc.cli.CHECKS`` at the default
configuration (seed 0).

The criteria, their corpora and their tolerances live in ``cli.CHECKS`` and
nowhere else; each test runs one registry entry, as ``magnc verify-all`` does,
asserts its ``pass`` and, where the criterion carries one, its wall-time
budget.  The ``[PASS]``/``[FAIL] <name>`` line of each check is printed
outside pytest's capture, so it is visible in any mode.
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
