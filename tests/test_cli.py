import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pellsum import normform, pell
from pellsum.cli import main
from pellsum.partitions import parse_base
from pellsum.quadfield import quad, value_equal
from pellsum.recurrences import LinearRecurrence, characteristic_roots, terms_up_to
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod
from recurrence_oracle import characteristic_value
from norm_oracle import scan_seeds

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


# (argv, window): the two named norm-sweep jobs and the 24 solve-norm and
# coords draws of its hang pool, whose seed windows run past the budget; a
# list in place of the window is the values of a coords job whose bound
# keeps its own y window within the budget, which it answers, and SCAN marks
# a search that answers within its own window, as a plain scan does
SCAN = "scan"
_PAST_SEED_BUDGET = [
    (["solve-norm", "--d=61", "--m=4"], 1532378957),
    (["solve-norm", "--d=109", "--m=4"], 97384602297709),
    (["coords", "--d=974", "--m=-51", "--coord=2", f"--bound={10**16}"], 255494538105603),
    (["solve-norm", "--d=281", "--m=45"], 1993415118286),
    (["coords", "--d=491", "--m=-55", "--coord=1", f"--bound={10**31}"], 69386057199),
    (["coords", "--d=655", "--m=-8", "--coord=2", f"--bound={10**28}"], 178458123),
    (["coords", "--d=977", "--m=23", "--coord=1", f"--bound={10**36}"],
     35524633634336389007),
    (["solve-norm", "--d=554", "--m=-24"], 26675392096),
    (["coords", "--d=397", "--m=12", "--coord=1", f"--bound={10**26}"],
     353811911974726075341),
    (["coords", "--d=947", "--m=11", "--coord=1", f"--bound={10**36}"], 3615837933),
    (["solve-norm", "--d=763", "--m=82"], 536772764),
    (["coords", "--d=617", "--m=-21", "--coord=1", f"--bound={10**26}"], 1406025648595321),
    (["solve-norm", "--d=481", "--m=-100"], 1950694143084),
    (["solve-norm", "--d=641", "--m=-3"], 423132153373680719585),
    (["solve-norm", "--d=869", "--m=33"], 25127524740989),
    (["solve-norm", "--d=511", "--m=-88"], 3841013822),
    (["coords", "--d=953", "--m=-63", "--coord=2", f"--bound={10**32}"], 8065138768015052735),
    (["solve-norm", "--d=673", "--m=86"], 3816649338710667582882755548),
    (["solve-norm", "--d=789", "--m=43"], 8188988794746),
    (["solve-norm", "--d=857", "--m=-45"], 64426842580722),
    (["coords", "--d=454", "--m=60", "--coord=2", f"--bound={10**14}"], 13097920095642116),
    (["solve-norm", "--d=955", "--m=20"], 699514030),
    (["solve-norm", "--d=814", "--m=-67"], 2726738729184),
    (["solve-norm", "--d=809", "--m=99"], 271529807517653410347066),
    (["coords", "--d=181", "--m=-98", "--coord=1", f"--bound={10**29}"], 3876605850302040748),
    (["coords", "--d=758", "--m=89", "--coord=2", "--bound=1000000"], []),
    # the searches reach the same rule through coordinate_index
    (["pairs-search", "--rec=1,1;0,1", "--d=61", "--m=4", "--n=10", "--bound=100"], SCAN),
    (["sunit-search", "--primes=2,3", "--t=2", "--exp-bound=2", "--d=61", "--m=4",
      "--bound=100"], SCAN),
    (["pairs-search", "--rec=1,1;0,1", "--d=109", "--m=4", "--n=10", f"--bound={10**7}"],
     97384602297709),
]


def _d_and_m(argv):
    return [int(arg[4:]) for arg in argv if arg[:4] in ("--d=", "--m=")]


@pytest.mark.parametrize("argv, window", _PAST_SEED_BUDGET, ids=[
    "{} d={} m={}".format(argv[0], *_d_and_m(argv)) for argv, _ in _PAST_SEED_BUDGET])
def test_seed_windows_past_the_budget_refuse_within_a_second(argv, window, capsys):
    pell.pell_data.cache_clear()
    start = time.perf_counter()
    code, out, err = run_main([*argv, "--format=structured"], capsys)
    assert time.perf_counter() - start < 1
    d, m = _d_and_m(argv)
    if isinstance(window, list):
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["values"] == window
        return
    if window == SCAN:
        assert (code, err) == (0, "")
        assert _search_hits(json.loads(out)) == _hits_by_scan(argv)
        return
    assert (code, out) == (1, "")
    assert err == (f"error: seed scan of x^2 - {d}*y^2 = {m} needs a window of {window}"
                   f" y values; the budget is {normform.SEED_SCAN_BUDGET}\n")


def _search_hits(doc):
    """A search document's hits, each without its subsum certificate, which
    must hold."""
    hits = doc["results"]["hits"]
    assert all(hit.pop("certificate", {"ok": True})["ok"] for hit in hits)
    return hits


def _hits_by_scan(argv):
    """The hits of a pairs-search job, or of a 2-term sunit-search job, from
    the coordinate sets of the plain scan of y <= bound. For m > 0 that scan
    holds every solution with x <= bound too, since then y < x."""
    args = dict(arg[2:].split("=", 1) for arg in argv[1:])
    bound = int(args["bound"])
    assert int(args["m"]) > 0
    index = {1: {}, 2: {}}
    for x, y in scan_seeds(int(args["d"]), int(args["m"]), bound):
        for coord, value in ((1, x), (2, y)):
            if x and y and value <= bound:
                index[coord][value] = [x, y]

    def memberships(value):
        return [{"coord": c, "solution": index[c][value]} for c in (1, 2) if value in index[c]]

    if argv[0] == "pairs-search":
        terms = terms_up_to(LinearRecurrence.from_literal(args["rec"]), int(args["n"]))
        sums = ((n1, n2, terms[n1] + terms[n2])
                for n1, n2 in combinations_with_replacement(range(len(terms)), 2))
        return [{"n1": n1, "n2": n2, "value": s, "memberships": memberships(s)}
                for n1, n2, s in sums if s in index[1] or s in index[2]]
    assert args["t"] == "2"
    primes, e = [int(p) for p in args["primes"].split(",")], int(args["exp-bound"])
    units = sorted(sign * prod(Fraction(p) ** b for p, b in zip(primes, exps))
                   for exps in product(range(-e, e + 1), repeat=len(primes)) for sign in (1, -1))
    hits = sorted((u + v, (u, v)) for u, v in combinations_with_replacement(units, 2)
                  if u + v in index[1] or u + v in index[2])
    return [{"entries": [str(u), str(v)], "total": str(total),
             "memberships": memberships(int(total))} for total, (u, v) in hits]


@pytest.mark.parametrize("argv", [
    ["pairs-search", "--rec=2,-1;0,1", "--d=61", "--m=4", "--n=200", "--bound=2000"],
    ["sunit-search", "--primes=2,3", "--t=2", "--exp-bound=5", "--d=61", "--m=4",
     "--bound=2000"],
])
def test_searches_answer_within_their_own_window_as_a_plain_scan_does(argv, capsys):
    # the class window of x^2 - 61*y^2 = 4 is 1532378957 y values, past the
    # budget; X1 and X2 up to 2000 are {1523} and {195}
    code, out, err = run_main([*argv, "--format=structured"], capsys)
    assert (code, err) == (0, "")
    hits = _search_hits(json.loads(out))
    assert hits and hits == _hits_by_scan(argv)


def test_seed_scan_budget_is_measured_on_the_window(capsys, monkeypatch):
    argv = ["solve-norm", "--d=13", "--m=4", "--format=structured"]
    code, out, err = run_main(argv, capsys)
    assert (code, err) == (0, "")
    window = json.loads(out)["results"]["scan_bound"] + 1
    monkeypatch.setattr(normform, "SEED_SCAN_BUDGET", window)
    assert run_main(argv, capsys) == (0, out, "")
    monkeypatch.setattr(normform, "SEED_SCAN_BUDGET", window - 1)
    assert run_main(argv, capsys) == (
        1, "", f"error: seed scan of x^2 - 13*y^2 = 4 needs a window of {window}"
               f" y values; the budget is {window - 1}\n")


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


@pytest.mark.parametrize("argv", [["pell", "--d=13"],
                                  ["verify-remark", "--id=2.3", "--n=50"]])
def test_a_job_expands_its_continued_fraction_once(argv, capsys, monkeypatch):
    calls = []
    walk = pell._pqa
    monkeypatch.setattr(pell, "_pqa", lambda d: calls.append(d) or walk(d))
    pell.pell_data.cache_clear()
    code, out, err = run_main(argv, capsys)
    assert code == 0, err
    assert calls == [13]  # one walk, inside pell_data; the period comes from its record


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
        # an order-1 recurrence has no root pair, so no verdict checks the bound
        ["hypotheses", "--rec", "1;1", "--exp-bound", "-5"],
        ["hypotheses", "--rec", "2,3;1,1", "--exp-bound", "0"],
    ):
        code, out, err = run_main(argv, capsys)
        assert code == 1 and err, argv
    code, out, err = run_main(["pell", "--d", "12"], capsys)
    assert code == 1 and "squarefree" in err
    for rec in ("1;1", "2,3;1,1"):
        code, out, err = run_main(["hypotheses", "--rec", rec, "--exp-bound", "0"], capsys)
        assert (code, out, err) == (1, "", "error: exponent bound must be >= 1\n")
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


def test_large_integers_answer_or_refuse_within_seconds():
    # Each job factors a number near 1e17 or 1e18: a discriminant, a
    # constant term, or a field's d. Trial division stops at
    # FACTOR_TRIAL_LIMIT, so each job answers or refuses within the cap.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "pellsum", *argv],
                              capture_output=True, env=env, timeout=5)

    pinned = {  # stdout sha256, the bytes trial division without a limit writes
        ("binet", "--rec=1,100000000000000000;0,1"):
            "48b4e2908b76a9cda28af0ddbeada80d6128bae7f5fcaeaf7e0bd1412ef61c98",
        ("hypotheses", "--rec=1,100000000000000000;0,1"):
            "172d2dd3309570bf6f9cb2d9b7c48336bd65267c9a9712f9e5cca7ac0035ed28",
    }
    for argv, digest in pinned.items():
        job = run(*argv)
        assert (job.returncode, job.stderr) == (0, b""), argv
        assert hashlib.sha256(job.stdout).hexdigest() == digest, argv

    literal = "0,0,0,1000000000000000000;1,0,0,0"  # x^4 - 10^18, 361 divisors
    job = run("hypotheses", f"--rec={literal}")
    assert job.returncode == 0, job.stderr
    rec = LinearRecurrence.from_literal(literal)
    roots = characteristic_roots(rec)
    assert len(roots) == 4
    assert all(value_equal(characteristic_value(rec, root), 0) for root in roots)

    for number, argv in (
        ("100000000000000003", ("pell", "--d=100000000000000003")),
        ("100000000000000003",
         ("partitions", "--bases=1+sqrt(100000000000000003),2", "--exp-bound=2")),
        ("1000000000000000003", ("hypotheses", "--rec=0,0,0,1000000000000000003;1,0,0,0")),
    ):
        job = run(*argv)
        lines = job.stderr.decode().splitlines()
        assert (job.returncode, job.stdout, len(lines)) == (1, b"", 1), argv
        assert lines[0].startswith("error: ") and f"factoring {number} " in lines[0], argv


def test_pairs_search_keeps_its_hits_when_the_audit_refuses(capsys):
    # the audit factors the discriminant 4 * (10^17 + 3), past the trial
    # limit, after the search has answered: the refusal becomes the note
    code, out, err = run_main(
        ["pairs-search", "--rec=0,100000000000000003;0,1", "--d=5", "--m=4",
         "--n=10", "--bound=100", "--format", "structured"],
        capsys,
    )
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert [(hit["n1"], hit["n2"]) for hit in results["hits"]] == [
        (0, 1), (1, 2), (1, 4), (1, 6), (1, 8), (1, 10)
    ]
    assert results["hypotheses"] is None
    assert results["hypotheses_note"] == (
        "hypothesis audit unavailable: factoring 400000000000000012"
        " needs trial divisors past 10000000"
    )
