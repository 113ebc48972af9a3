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
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from norm_oracle import fundamental_x
from pellsum import cli
from pellsum.quadfield import is_squarefree
from test_catalog_replay import pinned_jobs
from test_lazy_imports import EVERY_COMMAND
from test_normform import WINDOWED

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


_cells = st.one_of(st.integers(), st.lists(st.integers(), max_size=3).map(tuple))


@st.composite
def _tables(draw):
    """(keys, rows): sorted distinct keys, rows of ints and int tuples whose
    shapes differ from row to row."""
    keys = sorted(draw(st.lists(_texts | st.sampled_from(["%", "%d", "a%%"]),
                                max_size=4, unique=True)))
    return keys, draw(st.lists(st.tuples(*[_cells] * len(keys)), max_size=6))


def nested(value, depth):
    for level in range(depth):
        value = {"hits": value} if level % 2 == 0 else [value, 0]
    return value


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_tables(), st.integers(1, 3), st.booleans())
@example(([], []), 1, False)
@example(([], [(), ()]), 2, True)
@example((["delta", "n1", "n2"], []), 3, True)
# 3,000 rows of three shapes cross _CHUNK a few times
@example((["delta", "n1", "n2"], [((1, 2)[: n % 3], n, -n) for n in range(3000)]), 3, True)
@example((["a", "b"], [((), (n,) * (n % 4)) for n in range(2000)]), 1, False)
def test_record_table_writes_its_list_of_dicts(table, depth, lazy_rows):
    keys, rows = table
    dicts = nested([dict(zip(keys, row)) for row in rows], depth)
    record_table = cli.RecordTable(keys, iter(rows) if lazy_rows else rows)
    pieces = written(nested(record_table, depth))
    assert "".join(pieces) == "".join(written(dicts)) == oracle(dicts)
    # chunks are cut between rows, soon after _CHUNK characters
    assert all(cli._CHUNK <= len(piece) < cli._CHUNK + 200 for piece in pieces[:-1])


def test_record_table_refuses_unsorted_keys_and_short_rows():
    with pytest.raises(ValueError, match="sorted and distinct"):
        cli.RecordTable(("n2", "n1"), [])
    with pytest.raises(ValueError, match="sorted and distinct"):
        cli.RecordTable(("a", "a"), [])
    with pytest.raises(ValueError, match="2 values for 3 keys"):
        written(cli.RecordTable(("a", "b", "c"), [(1, 2)]))


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


# -- every subcommand that takes an exponent bound or an index range, and
# `bound`, over drawn arguments: N <= 60 (and N = 20000 for `recur`, whose
# terms may pass their bit budget), coordinate bounds <= 1e6, and (d, m)
# whose seed window stays within 1e5

_small = st.integers(-4, 4)
_ints = _small.map(str)


@st.composite
def _rec(draw, orders=(2, 3, 4, 1)):
    order = draw(st.sampled_from(orders))
    coeffs = draw(st.lists(_ints, min_size=order - 1, max_size=order - 1))
    coeffs.append(str(draw(_small.filter(bool))))
    initials = draw(st.lists(_ints, min_size=order, max_size=order))
    return f"--rec={','.join(coeffs)};{','.join(initials)}"


def _argv(job):
    """The job's parts in order, with each list part spliced in."""
    return [piece for part in job for piece in (part if isinstance(part, list) else [part])]


@st.composite
def _norm_problem(draw):
    d, most = draw(st.sampled_from(WINDOWED))
    m = draw(st.integers(1, most)) * draw(st.sampled_from((1, -1)))
    return [f"--d={d}", f"--m={m}"]


_numerator = st.sampled_from((3, 2, -1, 1, -2, 5, 0)).map(str)  # 0 makes a zero base
_rational = st.one_of(_numerator, st.builds("{}/{}".format, _numerator, st.integers(1, 3)))
_base = st.one_of(
    _rational,
    st.builds("{}{}{}*sqrt({})".format, _rational, st.sampled_from("+-"),
              st.integers(1, 3), st.sampled_from((2, 3, -1, 5, -3, 6, 4))),
)
# mostly valid values, the invalid ones last: hypothesis draws the first
# element of a sampled_from and the least integer of a range most often
_exp_bound = st.sampled_from((3, 1, 2, 5, 8, 12, 0, -2)).map("--exp-bound={}".format)
_bound = st.one_of(st.integers(10**5, 10**6), st.integers(1, 10**6)).map("--bound={}".format)
_n = st.one_of(st.integers(30, 60), st.integers(0, 60)).map("--n={}".format)

_jobs = st.one_of(
    st.tuples(st.just("hypotheses"), _rec(), _exp_bound),
    st.tuples(st.just("partitions"),
              st.lists(_base, min_size=2, max_size=4).map(",".join).map("--bases={}".format),
              _exp_bound),
    st.tuples(st.just("pairs-search"), _rec(), _norm_problem(), _n, _bound),
    st.tuples(st.just("sunit-search"),
              st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1, max_size=3, unique=True)
              .map(lambda ps: "--primes=" + ",".join(map(str, sorted(ps)))),
              st.integers(1, 2).map("--t={}".format),
              st.sampled_from((2, 1, 3, 0, -1)).map("--exp-bound={}".format),
              _norm_problem(), _bound),
    st.tuples(st.just("vanishing"), _rec(orders=(2, 2, 2, 1, 3)), _n),
    st.tuples(st.just("recur"), _rec(), _n | st.just("--n=20000")),
    st.tuples(st.just("bound"), st.sampled_from((1, 2, 3, 0)).map("--s={}".format),
              st.lists(st.integers(-1, 6), min_size=1, max_size=3)
              .map(lambda ds: "--degrees=" + ",".join(map(str, ds))),
              st.sampled_from((2, 1, 4, 0)).map("--field-degree={}".format)),
).map(_argv)


def _exp_bounds(value):
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "exp_bound":
                yield item
            yield from _exp_bounds(item)
    elif isinstance(value, list):
        for item in value:
            yield from _exp_bounds(item)


def _answer_or_refusal(argv):
    """The document of an exit-0 run with canonical bytes, or None for an
    exit-1 run that printed one error line and nothing else."""
    out, err = StringIO(), StringIO()
    limit = sys.get_int_max_str_digits()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([*argv, "--format=structured"])
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1), (argv, err)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        return None
    assert err == ""
    doc = json.loads(out)
    assert out == oracle(doc)
    return doc


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(_jobs)
def test_drawn_jobs_answer_canonically_or_refuse_in_one_line(argv):
    doc = _answer_or_refusal(argv)
    if doc is None:
        return
    # a dependence search needs exponents up to at least 1; an S-unit box
    # of exponent bound 0 holds the units +-1
    least = 0 if argv[0] == "sunit-search" else 1
    assert all(bound >= least for bound in _exp_bounds(doc)), argv


# -- solve-norm and coords over any squarefree d < 1000 and 0 < |m| <= 10^4,
# whatever the seed window: each answers, or refuses at the seed-scan budget.
# pell_data's odd-u automorph scan runs 2e5 to 6.2e10 steps for these d, so
# they are not drawn.
_SLOW_AUTOMORPH = {277, 397, 421, 541, 613, 661, 821, 853, 949}
_ANY_D = [d for d in range(2, 1000) if is_squarefree(d) and d not in _SLOW_AUTOMORPH]
# d whose window, sized as (isqrt(|m|) + 1) * 2 * x1, stays within 10^6 for
# every |m| <= 10^4: drawn half the time, so that most jobs answer
_SMALL_UNIT_D = [d for d in _ANY_D if 101 * 2 * fundamental_x(d) <= 10**6]


@st.composite
def _any_window(draw):
    d = draw(st.sampled_from(_SMALL_UNIT_D) | st.sampled_from(_ANY_D))
    m = draw(st.integers(1, 10**4)) * draw(st.sampled_from((1, -1)))
    return [f"--d={d}", f"--m={m}"]


_norm_jobs = st.one_of(
    st.tuples(st.just("solve-norm"), _any_window()),
    st.tuples(st.just("coords"), _any_window(),
              st.sampled_from((1, 2)).map("--coord={}".format),
              st.integers(1, 10**40).map("--bound={}".format),
              st.sampled_from(([], ["--include-trivial"]))),
).map(_argv)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_norm_jobs)
def test_drawn_norm_jobs_answer_canonically_or_refuse_in_one_line(argv):
    _answer_or_refusal(argv)
