"""Checks on the benchmark itself: a deterministic generator, a gate that
catches wrong documents, and tracing that sees every call yet changes no
output byte."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from checks import judge
from proc import ROOT, JobResult, child_env, run_job
from run import END_TO_END, end_to_end_metrics, layer_metrics, per_layer_units
from workloads import WORKLOADS, load_catalog, rounds

HERE = Path(__file__).resolve().parent


def _job_list(workload, seed, n_rounds=8):
    gen = rounds(workload, seed, load_catalog())
    return [[(pool, entry["argv"]) for pool, entry in next(gen)] for _ in range(n_rounds)]


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        first = _job_list(workload, 1)
        assert first == _job_list(workload, 1)
        other = _job_list(workload, 2)
        assert other != first
        # same distribution: every round holds the same jobs per pool
        mixes = {tuple(sorted(Counter(pool for pool, _ in r).items())) for r in first + other}
        assert mixes == {tuple(sorted(WORKLOADS[workload].mix))}


def test_every_import_site_is_rebound():
    code = (
        "import json, trace_child as t\n"
        "sites, missed = t.install(t.Recorder(), t.load_layers())\n"
        "print(json.dumps([sites, missed]))\n"
    )
    env = child_env()
    env["PYTHONPATH"] += f":{HERE}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=ROOT, check=True, timeout=60).stdout
    sites, missed = json.loads(out)
    assert missed == []
    for module in ("normform", "search", "cli"):
        assert f"pellsum.{module}:solution_classes" in sites
    for module in ("pell", "normform", "cli", "fixtures"):
        assert f"pellsum.{module}:pell_data" in sites
    assert "pellsum.quadfield:QuadNum.__rmul__" in sites


def test_traced_and_plain_runs_write_identical_documents():
    catalog = load_catalog()
    cheap = {
        "norm-sweep": ("pell", "solve-norm", "coords", "pairs-wide"),
        "search-deep": ("sunit-3p",),
        "recurrence-audit": ("hypotheses", "binet", "recur", "verify-remark"),
    }
    for workload, pools in cheap.items():
        for pool in pools:
            entry = catalog[workload][pool][0]
            plain = run_job(entry["argv"], 30.0)
            traced = run_job(entry["argv"], 30.0, traced=True)
            assert judge(entry, plain.rc, plain.stdout) is None, entry["argv"]
            assert traced.stdout == plain.stdout, entry["argv"]
            assert traced.trace["self_s"]["cli"] > 0
            assert traced.trace["unwrapped"] == []


def test_timed_out_trace_shows_the_open_layers():
    result = run_job(["pell", "--d=421", "--format=structured"], 1.0, traced=True)
    assert result.timed_out
    assert result.trace["timed_out"] == ["pell.pell_data", "cli.main"]
    assert result.trace["self_s"]["pell"] > 0.5


def test_gate_checks_stated_identities_without_a_digest():
    for argv in (["pell", "--d=13"], ["pell", "--d=5"], ["solve-norm", "--d=13", "--m=4"],
                 ["coords", "--d=13", "--m=4", "--coord=2", "--bound=1000000"]):
        entry = {"argv": [*argv, "--format=structured"]}
        result = run_job(entry["argv"], 30.0)
        assert judge(entry, result.rc, result.stdout) is None, argv
        doc = json.loads(result.stdout)
        if argv[0] == "solve-norm":
            doc["results"]["orbits"][0]["representative"] = [1, 1]
        else:
            doc["results"]["fundamental" if argv[0] == "pell" else "values"][0] += 1
        assert judge(entry, 0, json.dumps(doc).encode()) == "bytes", argv
    assert judge({"argv": ["pell", "--d=13"]}, 1, b"") == "refused"
    assert judge({"argv": ["pell"], "rc": 0, "sha256": "0" * 64}, 0, b"{}") == "bytes"


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_runner_emits_exactly_the_listed_metrics():
    job = JobResult(0.2, 0.2, 18000, 0, b"", b"", False,
                    {"self_s": {"pell": 0.1}, "counts": {}, "timed_out": [], "unwrapped": []})
    entry = {"argv": ["pell", "--d=13"]}
    metrics, _ = end_to_end_metrics([("pell", entry, job, None)] * 30, 6.0, 0.1)
    assert list(metrics) == [name for name, _ in END_TO_END]
    metrics, _ = layer_metrics([("pell", entry, job, job)])
    assert set(metrics) == set(per_layer_units())
