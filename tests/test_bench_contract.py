"""The benchmark runner still prints a parseable, correct result line.

A failed setup probe (such as a deleted name it imports) or stray output on
stdout makes the run's last line unreadable; this short run catches both.
"""

import json
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
