"""The text a user reads is pinned, byte for byte, like the documents.

test_catalog_replay pins the structured documents. This test pins the
default text output: stdout, stderr and exit code of the same pinned
catalogue jobs run without --format=structured, of `pellsum --help` and
every `SUBCOMMAND --help` at COLUMNS=80, and of a few jobs and refusals the
catalogue does not reach. Searches print a `wall time` line, which is
dropped before hashing.

The sha256 digests in text_mode_digests.json were recorded before the
subcommands were rewritten to be declared once, in their parser, so any
front-end change that moves a byte of what users see fails here. The help
screens are argparse's layout, which differs between Python versions; they
are compared only on the version the file records.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from pellsum import cli
from pellsum.cli import main
from test_catalog_replay import pinned_jobs

DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "text_mode_digests.json").read_text(encoding="utf-8")
)
SUBCOMMANDS = (
    "pell", "solve-norm", "coords", "recur", "binet", "hypotheses", "pairs-search",
    "sunit-search", "vanishing", "bound", "partitions", "verify-remark",
)
CASES = {
    "jobs": [
        [arg for arg in entry["argv"] if arg != "--format=structured"]
        for _, entries in pinned_jobs()
        for entry in entries
    ],
    "help": [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS],
    "extra": [
        ["bound", "--s", "3", "--degrees", "4", "--field-degree", "2"],
        ["coords", "--d", "13", "--m", "4", "--coord", "1", "--bound", "2000000",
         "--include-trivial"],
        ["recur", "--rec", "nonsense", "--n", "4"],
        ["pell", "--d", "12"],
    ],
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_text(argv, capsys) -> list:
    """[exit code, sha256 of stdout without its wall time line, sha256 of stderr]."""
    # cli.main lifts the interpreter's int-to-str digit cap for the process
    limit = sys.get_int_max_str_digits()
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help and usage errors leave through argparse
        code = exc.code
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    out = "".join(
        line for line in out.splitlines(keepends=True) if not line.startswith("wall time ")
    )
    return [code, _sha(out), _sha(err)]


@pytest.mark.parametrize("group", sorted(CASES))
def test_text_output_keeps_its_bytes(group, capsys, monkeypatch):
    if group == "help" and sys.version_info[:2] != tuple(DIGESTS["python"]):
        pytest.skip(f"help screens were recorded on Python {DIGESTS['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    got = {" ".join(argv): run_text(argv, capsys) for argv in CASES[group]}
    want = DIGESTS[group]
    assert got.keys() == want.keys()
    assert [key for key in got if got[key] != want[key]] == []


def test_text_mode_does_not_encode_the_document(capsys, monkeypatch):
    # the first pinned job of each subcommand, with the encoder made to fail
    firsts = {}
    for argv in CASES["jobs"]:
        firsts.setdefault(argv[0], argv)

    def refuse(doc):
        raise AssertionError("text mode encoded the document")

    monkeypatch.setattr(cli, "_canonical", refuse)
    for argv in firsts.values():
        got = run_text(argv, capsys)
        assert got == DIGESTS["jobs"][" ".join(argv)], argv
        assert got[0] == 0, argv
