"""The benchmark runner still prints a parseable, correct result line.

A failed setup probe (such as a deleted name it imports) or stray output on
stdout makes the run's last line unreadable; this short run catches both.
The traced run reads counts from the program's return values, so a result
that overflows a counter or turns a ratio into NaN shows there.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_short_search_deep_run_prints_the_declared_metrics():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-deep",
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_one_traced_norm_sweep_round_prints_finite_layer_metrics():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "norm-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in declared["per_layer"]:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]
        if metric["unit"] == "count":
            assert isinstance(value, int) and 0 <= value < 2**63, metric["name"]
