"""Acceptance suite: the nine criteria of ``magnc.cli.CHECKS`` at the default
configuration (seed 0).

The criteria, their corpora and their tolerances live in ``cli.CHECKS`` and
nowhere else; each test runs one registry entry, as ``magnc verify-all`` does,
asserts its ``pass`` and, where the criterion carries one, its wall-time
budget.  The ``[PASS]``/``[FAIL] <name>`` line of each check is printed
outside pytest's capture, so it is visible in any mode.  The tests at the
end run all nine at a second magnetic length, where a wrong power of l
shows, and three criteria off the default seed and regularization, where
they are hardest, with the known failures pinned as strict xfails.
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


@pytest.mark.parametrize("seed", [57, 370])
def test_connes_formula_1_at_its_hardest_seeds(seed):
    # the worst relative errors over seeds 0-99 and 0-399: 0.0113 and 0.0129
    # against 0.05
    rec = cli.check_connes_formula_1(cli.RunConfig(seed=seed))
    assert rec["pass"], rec


# Known estimator defect (ROADMAP item 1): the Dixmier fits take
# sigma_N = a + b / log N with none of the ladders' known correction terms,
# which sets the whole error budget.  Route ii of connes-formula-2 then reads
# 0.143, 0.111 and 0.154 at seeds 163, 274 and 370 against its 0.10, and
# dixmier-normalization reads 0.0217 and 0.0423 at eps 1 and 2 against 0.02.
# The strict xfails turn into failures once the corrections land, so the
# marks must go with them.
ESTIMATOR_DEFECT = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: Dixmier ladders lack their correction terms")


@pytest.mark.parametrize("seed", [40, 142] + [pytest.param(s, marks=ESTIMATOR_DEFECT)
                                              for s in (163, 274, 370)])
def test_connes_formula_2_at_its_hardest_seeds(seed):
    # over seeds 0-399 route ii is worst at these five; 40 and 142 pass
    # (0.088 and 0.096)
    rec = cli.check_connes_formula_2(cli.RunConfig(seed=seed))
    assert rec["pass"], rec


@pytest.mark.parametrize("eps", [pytest.param(e, marks=ESTIMATOR_DEFECT) for e in (1.0, 2.0)])
def test_dixmier_normalization_at_larger_regularization(eps):
    rec = cli.check_dixmier_normalization(cli.RunConfig(eps=eps))
    assert rec["pass"], rec
