"""Every check can fail: a table of physics mutants.

Each mutant is one physics error, put in by a monkeypatch, with the
acceptance checks that must fail on it.  The checks run through
``cli.run_check`` at seed 0, as ``magnc verify-all`` runs them.
"""

import numpy as np
import pytest

from magnc import basis, cli

exact_ladders = basis.number_ladders


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


MUTANTS = [
    (basis, "number_ladders", k1_off_target, ["representation-consistency"]),
    (basis, "number_ladders", g2_sign_flip, ["representation-consistency"]),
]


@pytest.mark.parametrize("module, name, mutant, must_fail", MUTANTS,
                         ids=[m[2].__name__ for m in MUTANTS])
def test_mutant_fails_its_checks(monkeypatch, module, name, mutant, must_fail):
    monkeypatch.setattr(module, name, mutant)
    registry = {cli.check_name(fn): (stage, fn) for stage, fn in cli.CHECKS}
    for check in must_fail:
        rec = cli.run_check(*registry[check], cli.RunConfig())
        assert rec["pass"] is False, rec
