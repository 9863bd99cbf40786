"""The benchmark's view of the package: every name ``perfbench/`` reads
resolves, its workloads run without a raised or rejected operation at the
seeds it is run with, and a fresh benchmark process ends in a strict-JSON
result line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

SEEDS = [0, 1, 11, 785466981]


@pytest.mark.parametrize("module, attr, span", bench_trace.TRACED,
                         ids=[t[2] for t in bench_trace.TRACED])
def test_every_traced_name_resolves(module, attr, span):
    assert callable(getattr(module, attr))


@pytest.mark.parametrize("name, seed", [(w, s) for w in ("pairings", "kernel-quadrature")
                                        for s in SEEDS] + [("truncation-sweep", 1)])
def test_one_pass_has_no_raised_or_wrong_operation(tmp_path, name, seed):
    wl = bench_workloads.workloads(tmp_path)[name]
    ops = wl.run_pass(wl.setup(seed), 0)
    assert ops
    assert [(o.name, o.status, o.note) for o in ops if o.status in ("raised", "wrong")] == []


def _strict_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_fresh_pairings_run_ends_in_a_strict_json_result():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "pairings",
                           "--seed", "785466981", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_strict_constant)
    assert sorted(result["metrics"]) == ["peak_rss_mb", "setup_s", "wall_s"]
    assert result["correct"] is True and result["failed"] == 0
