"""Golden outputs of the ``magnc`` command line, and the script that writes them.

Each file here holds what one family of commands prints at the default
configuration: the ``checks`` records and exit codes of six ``verify-all``
runs, the CSVs of four ``dixmier-ladder`` targets, and five ``invariant``
records.  ``tests/test_golden.py`` runs the same commands and compares them
with these files.  Regenerate every file from the current code, from the
repository root, with

    PYTHONPATH=src python tests/golden/regenerate.py

only when a change of the numbers is intended, and say which ones moved.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from magnc import cli

HERE = Path(__file__).resolve().parent

VERIFY_ALL = {
    "seed-0": ["--seed", "0", "verify-all"],
    "seed-1": ["--seed", "1", "verify-all"],
    "seed-7": ["--seed", "7", "verify-all"],
    "seed-370": ["--seed", "370", "verify-all"],
    "lb-2": ["--lb", "2", "verify-all"],
    "eps-1": ["--eps", "1", "verify-all"],
}
INVARIANTS = {
    "nc-integral-pi-1": ["invariant", "nc-integral", "pi:1"],
    "ch-pi-1": ["invariant", "ch", "pi:1"],
    "tau2-pi-2": ["invariant", "tau2", "pi:2"],
    "chern-pi-3": ["invariant", "chern", "pi:3"],
    "psi-pi-0": ["invariant", "psi", "pi:0"],
}
LADDERS = {
    "d4": ["dixmier-ladder", "d4"],
    "ncint-pi-0": ["dixmier-ladder", "ncint:pi:0"],
    "ch-pi-1": ["dixmier-ladder", "ch:pi:1"],
    "ncint-pi-sum-0-2": ["dixmier-ladder", "ncint:pi-sum:0..2"],
}


def run(args: list[str]) -> tuple[int, str]:
    """The exit code and the output file of ``magnc <args>``, run in process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = cli.main(["--out", str(out), *args])
        return code, out.read_text() if out.exists() else ""


def _records(runs: dict) -> dict:
    """Run name -> its arguments, exit code and ``checks`` records."""
    table = {}
    for name, args in runs.items():
        code, text = run(args)
        table[name] = {"args": args, "exit": code, "checks": json.loads(text)["checks"]}
    return table


def outputs() -> dict[str, str]:
    """File name -> content of every golden file, from the current code."""
    files = {"verify-all.json": _records(VERIFY_ALL), "invariant.json": _records(INVARIANTS)}
    exits = {}
    for name, args in LADDERS.items():
        exits[name], files[f"dixmier-ladder-{name}.csv"] = run(args)
    files["dixmier-ladder-exit.json"] = exits
    return {name: body if isinstance(body, str) else json.dumps(body, indent=1, sort_keys=True)
            + "\n" for name, body in files.items()}


def main() -> int:
    for name, body in outputs().items():
        (HERE / name).write_text(body)
        print(f"wrote {HERE / name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
