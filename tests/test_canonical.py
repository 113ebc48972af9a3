"""The CLI's document writer against json.dumps, its oracle.

cli._write_canonical must pass its sink exactly the text of
json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\\n", in
chunks of about 32 Ki characters however deep the document's bulk sits, and
must encode a generator as json.dumps encodes the list it yields. The
program never calls json.dumps; the tests use it as the reference, and
every subcommand's document must come back unchanged through json.loads.
"""

import hashlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pellsum import cli
from test_catalog_replay import pinned_jobs
from test_lazy_imports import EVERY_COMMAND

DENSE = ["vanishing", "--rec=1,-1;0,1", "--n=133", "--format=structured"]


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def written(value) -> list[str]:
    pieces = []
    cli._write_canonical(value, pieces.append)
    return pieces


@pytest.fixture
def no_digit_cap():
    # cli.main lifts the interpreter's int-to-str digit cap; restore it after
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def pinned_digest(argv) -> str:
    return next(
        entry["sha256"]
        for _, entries in pinned_jobs(per_pool=None)
        for entry in entries
        if entry["argv"] == argv
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_texts = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é√'), st.characters()),
    max_size=8,
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.builds(lambda digits, sign: sign * (10**digits - 1),
              st.integers(4301, 4400), st.sampled_from((1, -1))),
    _texts,
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_texts, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_values)
def test_writer_matches_json_dumps(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for doc in (value, {"results": {"hits": [value]}}, {"a": {"b": {"c": {"d": value}}}}):
            assert "".join(written(doc)) == oracle(doc)
    finally:
        sys.set_int_max_str_digits(limit)


def lazy(value):
    """value with every list turned into a generator of its items."""
    if isinstance(value, list):
        return (lazy(item) for item in value)
    if isinstance(value, dict):
        return {key: lazy(item) for key, item in value.items()}
    return value


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_values)
@example([])
@example({"hits": [], "count": 0})
@example([[], [[]], {"a": []}])
def test_generators_encode_as_their_lists(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert "".join(written(lazy(value))) == oracle(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("doc", [
    {"a": {"b": {"c": list(range(200000))}}},
    [[[[[{"n": n, "s": "x" * (n % 7)} for n in range(50000)]]]]],
])
def test_bulk_below_the_third_level_streams_in_chunks(doc):
    pieces = written(doc)
    assert "".join(pieces) == oracle(doc)
    assert len(pieces) > 10
    assert max(len(piece.encode("utf-8")) for piece in pieces) <= 64 * 1024
    # every chunk but the last is cut at the first item boundary past _CHUNK
    assert all(cli._CHUNK <= len(piece) < cli._CHUNK + 64 for piece in pieces[:-1])


@pytest.mark.parametrize(
    "bad",
    [1.5, Fraction(1, 3), {1: 2}, {"a": 1, 2: 3}, {None: 0}, {(1,): 0}, {b"k": 0},
     [{"a": [float("nan")]}]],
)
def test_values_json_would_convert_or_reject_raise_type_error(bad):
    for doc in (bad, {"results": {"hits": [bad]}}):
        with pytest.raises(TypeError):
            written(doc)


def test_dense_vanishing_document_streams_in_small_pieces(monkeypatch, no_digit_cap):
    class Sink:
        def __init__(self):
            self.pieces = []

        def write(self, piece):
            self.pieces.append(piece)
            return len(piece)

        def flush(self):  # main flushes stdout so that a failed write is caught
            pass

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(list(DENSE)) == 0
    assert _sha("".join(sink.pieces)) == pinned_digest(DENSE)
    # 606 KB in chunks, each cut soon after 32 Ki characters
    assert len(sink.pieces) > 10
    assert max(len(piece.encode("utf-8")) for piece in sink.pieces) <= 64 * 1024


def test_out_and_structured_stdout_share_one_encoding(monkeypatch, capsys, tmp_path,
                                                      no_digit_cap):
    calls = []
    writer = cli._write_canonical

    def counted(doc, write):
        calls.append(doc)
        writer(doc, write)

    monkeypatch.setattr(cli, "_write_canonical", counted)
    out_file = tmp_path / "dense.json"
    assert cli.main([*DENSE, "--out", str(out_file)]) == 0
    printed = capsys.readouterr().out
    assert len(calls) == 1
    assert _sha(printed) == pinned_digest(DENSE)
    assert out_file.read_text(encoding="utf-8") == printed


@pytest.mark.parametrize("argv", [argv for argv in EVERY_COMMAND if argv != ["--version"]],
                         ids=lambda argv: argv[0])
def test_every_subcommands_document_round_trips_through_json(argv, capsys, no_digit_cap):
    assert cli.main([*argv, "--format=structured"]) == 0
    printed = capsys.readouterr().out
    assert printed == oracle(json.loads(printed))
