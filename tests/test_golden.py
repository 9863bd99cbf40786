"""The command line's records against the golden files in ``tests/golden``.

Structure, strings, booleans, integers and exit codes must match exactly;
floats to 1e-12 relative, NaN matching NaN.  A refactor that claims
unchanged numbers passes this test unchanged; a change that moves a number
regenerates the files (``tests/golden/regenerate.py``) and says so.
"""

import csv
import io
import json
import math

import pytest

from golden.regenerate import HERE, outputs

REL_TOL = 1e-12


@pytest.fixture(scope="module")
def current():
    return outputs()


def mismatches(want, got, path="$"):
    """Where ``got`` departs from ``want``, as a list of JSON-path strings."""
    if isinstance(want, float) and isinstance(got, float):
        same = (math.isnan(want) and math.isnan(got)) or math.isclose(
            want, got, rel_tol=REL_TOL, abs_tol=0.0)
        return [] if same else [f"{path}: {want!r} -> {got!r}"]
    if type(want) is not type(got):
        return [f"{path}: {want!r} -> {got!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} -> {sorted(got)}"]
        return [m for k in want for m in mismatches(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} -> {len(got)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{path}[{i}]")]
    return [] if want == got else [f"{path}: {want!r} -> {got!r}"]


def cell(text: str):
    """A CSV cell as the int, float or string it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    return [[cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def golden_files():
    return sorted(p.name for p in HERE.iterdir() if p.suffix in (".json", ".csv"))


def test_every_golden_file_is_produced(current):
    assert sorted(current) == golden_files()


@pytest.mark.parametrize("name", golden_files())
def test_records_match_the_golden_file(current, name):
    want = parse(name, (HERE / name).read_text())
    assert mismatches(want, parse(name, current[name])) == []


def test_comparison_catches_a_moved_float():
    assert mismatches(1.0, 1.0 + 1e-13) == []
    assert mismatches(1.0, 1.0 + 1e-11) != []
    assert mismatches(0.0, 1e-300) != []
    assert mismatches(True, 1) != [] and mismatches(1, 1.0) != []
    assert mismatches(float("nan"), float("nan")) == []
