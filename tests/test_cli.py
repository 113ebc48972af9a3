import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pellsum.cli import main
from pellsum.partitions import parse_base
from pellsum.quadfield import quad
from fractions import Fraction

ROOT = Path(__file__).resolve().parent.parent


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coords_example(capsys, tmp_path):
    out_file = tmp_path / "coords.json"
    code, out, err = run_main(
        ["coords", "--d", "13", "--m", "4", "--coord", "1",
         "--bound", "2000000", "--out", str(out_file)],
        capsys,
    )
    assert code == 0 and err == ""
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["results"]["values"] == [11, 119, 1298, 14159, 154451, 1684802]
    assert doc["config"]["subcommand"] == "coords"
    assert doc["version"]
    assert "11" in out


def test_structured_format_prints_the_document(capsys):
    code, out, err = run_main(
        ["pell", "--d", "13", "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["fundamental"] == [649, 180]
    assert doc["results"]["period"] == [1, 1, 1, 1, 6]
    assert out.endswith("\n")


def test_document_is_canonical(capsys, tmp_path):
    # keys sorted, trailing newline, no volatile fields
    out_file = tmp_path / "doc.json"
    code, out, err = run_main(
        ["pairs-search", "--rec", "1,-1;0,3", "--d", "5", "--m", "4",
         "--n", "40", "--bound", "100", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.endswith("\n")
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n" == text
    flat = text.lower()
    assert "wall" not in flat and "shard" not in flat
    assert "wall time" in out  # the volatile line goes to stdout instead


def test_bound_example(capsys):
    code, out, err = run_main(
        ["bound", "--s", "1", "--degrees", "0", "--field-degree", "2",
         "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["value"] == "2199023255552"
    assert doc["results"]["digits"] == 13


def test_bound_near_the_bit_budget_keeps_its_bytes(capsys):
    # 1.5e6 bits, just under BOUND_BIT_BUDGET, so `value` is the scientific
    # sketch; the digest pins `digits` and `value` together
    code, out, err = run_main(
        ["bound", "--s", "3", "--degrees", "4", "--field-degree", "2",
         "--format=structured"],
        capsys,
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b1adf5f746f2e72f69eb479dc65ee97b3a551917eb8e6d38d5689e73682ede1a"
    )


def test_recur_and_binet(capsys):
    code, out, err = run_main(["recur", "--rec", "6,-1;0,1", "--n", "4"], capsys)
    assert code == 0 and "0, 1, 6, 35, 204" in out
    code, out, err = run_main(["binet", "--rec", "6,-1;0,1", "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["roots"] == ["3 + 2*sqrt(2)", "3 - 2*sqrt(2)"]
    assert doc["results"]["coefficients"][0] == "1/8*sqrt(2)"


def test_hypotheses_report_field_names(capsys):
    code, out, err = run_main(
        ["hypotheses", "--rec", "2,2;0,1", "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["applicable"] is True
    assert results["nondegenerate"] is True
    assert results["pairwise_independent"] is True
    assert results["no_root_of_unity"] is True
    assert results["last_coeff_not_unit"] is True


def test_solve_norm(capsys):
    code, out, err = run_main(
        ["solve-norm", "--d", "13", "--m", "4", "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["orbit_count"] == 1
    assert doc["results"]["orbits"][0]["representative"] == [11, 3]


def test_vanishing(capsys):
    code, out, err = run_main(
        ["vanishing", "--rec", "6,-1;0,1", "--n", "30", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["hits"] == [{"n1": 0, "n2": 0, "delta": [1, 2]}]


def test_partitions_subcommand(capsys):
    code, out, err = run_main(
        ["partitions", "--bases", "3+2*sqrt(2),3-2*sqrt(2)", "--exp-bound", "5",
         "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["bell"] == 2
    verdicts = {tuple(map(tuple, p["blocks"])): p["verdict"]
                for p in doc["results"]["partitions"]}
    assert verdicts[((1, 2),)] == "certified-dependent"
    assert verdicts[((1,), (2,))] == "independent-up-to-5"


def test_verify_remark_subcommand(capsys):
    code, out, err = run_main(["verify-remark", "--id", "2.4", "--n", "100"], capsys)
    assert code == 0
    assert "agreement: every check reproduced" in out
    code, out, err = run_main(
        ["verify-remark", "--id", "2.5", "--n", "30", "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["agreement"] is True
    assert len(doc["results"]["discrepancies"]) == 2


def test_sunit_search_subcommand(capsys):
    code, out, err = run_main(
        ["sunit-search", "--primes", "2,3,5", "--t", "2", "--exp-bound", "3",
         "--d", "13", "--m", "4", "--bound", "1500", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    entries = {tuple(hit["entries"]) for hit in doc["results"]["hits"]}
    assert ("-6", "125") in entries
    assert ("3", "8") in entries


def test_malformed_arguments_exit_1(capsys):
    # argparse-level problems leave through SystemExit with code 1, not 2
    for argv in (
        ["unknown-subcommand"],
        ["coords", "--d", "13"],  # missing required flags
        ["coords", "--d", "x", "--m", "4", "--coord", "1", "--bound", "5"],
        [],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        capsys.readouterr()
        assert info.value.code == 1, argv


def test_domain_errors_exit_1_without_raising(capsys, tmp_path):
    # parseable arguments, bad values: handled and reported, not raised
    unwritable = str(tmp_path / "missing" / "x.json")
    for argv in (
        ["recur", "--rec", "nonsense", "--n", "4"],
        ["pell", "--d", "12"],  # 12 is not squarefree
        ["sunit-search", "--primes", "2,4", "--t", "2", "--exp-bound", "1",
         "--d", "13", "--m", "4", "--bound", "10"],
        # a strong pseudoprime to bases 2..37, then one past the exact range
        ["sunit-search", "--primes", "2,318665857834031151167461", "--t", "1",
         "--exp-bound", "1", "--d", "13", "--m", "4", "--bound", "10"],
        ["sunit-search", "--primes", "2,3317044064679887385961981", "--t", "1",
         "--exp-bound", "1", "--d", "13", "--m", "4", "--bound", "10"],
        ["verify-remark", "--id", "2.9", "--n", "100"],
        ["verify-remark", "--id", "2.4", "--n", "5"],
        ["bound", "--s", "0", "--degrees", "1", "--field-degree", "2"],
        ["bound", "--s", "10", "--degrees", "10", "--field-degree", "2"],  # over budget
        ["partitions", "--bases", "2", "--exp-bound", "3"],
        ["partitions", "--bases", "1/0,2", "--exp-bound", "2"],  # zero denominator
        ["binet", "--rec", "2,-1;0,2"],  # repeated root
    ):
        code, out, err = run_main(argv, capsys)
        assert code == 1 and err, argv
    code, out, err = run_main(["pell", "--d", "12"], capsys)
    assert code == 1 and "squarefree" in err
    for fmt in ("text", "structured"):  # the report's directory does not exist
        code, out, err = run_main(["pell", "--d", "13", "--format", fmt, "--out", unwritable],
                                  capsys)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write report to {unwritable}: No such file or directory\n"


DENSE = [sys.executable, "-m", "pellsum", "vanishing", "--rec=1,-1;0,1", "--n=133"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_report_write_failures_exit_1_with_one_error_line(tmp_path):
    # a full device behind --out or stdout, and a reader that leaves early,
    # for documents and for text summaries; the 606 KB document and the
    # 150 KB summary line are larger than a pipe's buffer, and the small
    # outputs fit in stdout's buffer until main flushes it. The long line
    # goes to the early reader with stdout buffered and unbuffered: with
    # PYTHONUNBUFFERED set, the text layer writes to the raw file and drops
    # what a short write leaves, unless main writes the rest itself
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    buffered = dict(env, PYTHONUNBUFFERED="")
    unbuffered = dict(env, PYTHONUNBUFFERED="1")
    small = [sys.executable, "-m", "pellsum", "pell", "--d=13", "--format=structured"]
    beside = [*DENSE, "--format=structured", "--out", str(tmp_path / "dense.json")]
    recur = [sys.executable, "-m", "pellsum", "recur", "--rec=1,1;0,1", "--n=3"]
    recur_beside = [*recur, "--out", str(tmp_path / "recur.json")]
    wide = [sys.executable, "-m", "pellsum", "recur", "--rec=1;" + "9" * 10000, "--n=14"]
    runs = []
    with open("/dev/full", "w") as full:
        runs.append(subprocess.run([*DENSE, "--out", "/dev/full"], capture_output=True,
                                   text=True, env=env, timeout=60))
        for argv in ([*DENSE, "--format=structured"], small, beside, recur, recur_beside):
            runs.append(subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                       env=buffered, timeout=60))
    for argv, reader_env in (([*DENSE, "--format=structured"], env), (wide, buffered),
                             (wide, unbuffered)):
        reader = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, env=reader_env)
        reader.stdout.read(100)
        reader.stdout.close()
        runs.append(subprocess.CompletedProcess(argv, reader.wait(timeout=60), None,
                                                reader.stderr.read()))
        reader.stderr.close()
    assert [(run.returncode, run.stderr) for run in runs] == [
        (1, "error: cannot write report to /dev/full: No space left on device\n"),
        *[(1, "error: cannot write report to stdout: No space left on device\n")] * 5,
        *[(1, "error: cannot write report to stdout: Broken pipe\n")] * 3,
    ]
    assert runs[0].stdout == ""
    assert (tmp_path / "recur.json").read_text(encoding="utf-8").startswith("{")


def test_sunit_search_over_budget_refuses_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run_main(
        ["sunit-search", "--primes=2,3,5,7", "--t=4", "--exp-bound=10",
         "--d=13", "--m=4", "--bound=1000000"],
        capsys,
    )
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert "estimated at" in err and "388962 units" in err


def test_pell_prints_integers_past_the_str_digit_cap():
    # x1 has 6,382 digits, past CPython's default cap of 4,300
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pellsum", "pell", "--d=1000000007", "--format=structured"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        x1, y1 = json.loads(run.stdout)["results"]["fundamental"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert x1 * x1 - 1000000007 * y1 * y1 == 1
    assert x1.bit_length() > 14000


def test_invariant_violation_exits_2(capsys, monkeypatch):
    import pellsum.cli as cli
    from pellsum.errors import InvariantViolationError

    def explode(args):
        raise InvariantViolationError("cross-check failed")

    # main looks the handler up by name in its module on each dispatch
    monkeypatch.setattr(cli, "_cmd_pell", explode)
    code, out, err = run_main(["pell", "--d", "13"], capsys)
    assert code == 2
    assert "invariant violation" in err


def test_parse_base_forms():
    assert parse_base("3") == Fraction(3)
    assert parse_base("-7/2") == Fraction(-7, 2)
    assert parse_base("3+2*sqrt(2)") == quad(3, 2, 2)
    assert parse_base("3-2*sqrt(2)") == quad(3, -2, 2)
    assert parse_base("1/2+1/2*sqrt(5)") == quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert parse_base("sqrt(3)") == quad(0, 1, 3)
    assert parse_base("-sqrt(3)") == quad(0, -1, 3)
    assert parse_base(" 2*sqrt(7) ") == quad(0, 2, 7)
    for bad in ("", "sqrt()", "2 sqrt(2)", "1+*sqrt(2)", "one"):
        with pytest.raises(ValueError):
            parse_base(bad)
    for zero_denominator in ("1/0", "3+1/0*sqrt(2)"):
        with pytest.raises(ValueError, match="cannot parse base"):
            parse_base(zero_denominator)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "pellsum" in capsys.readouterr().out
