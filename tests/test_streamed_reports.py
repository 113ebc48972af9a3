"""Reports that only count or write their results stream them.

`verify-remark` counts the pair kernel's stream, and `partitions` and
`vanishing` hand the writer one row at a time. These tests pin that the
counts agree with the searches that list their hits, that the streamed
jobs stay small under tracemalloc, and that every refusal still comes
before the first byte of a document.
"""

import hashlib
import io
import json
import os
import tracemalloc
from contextlib import redirect_stdout
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pellsum import fixtures, search
from pellsum.cli import main
from pellsum.errors import PellsumError
from pellsum.fixtures import verify_remark
from pellsum.normform import NormFormProblem
from pellsum.recurrences import LinearRecurrence, terms_up_to
from pellsum.search import coordinate_index, pair_sum_search

import search_oracle
from test_catalog_replay import pinned_jobs

# -- the count paths agree with the searches -----------------------------------

SQUAREFREE_D = [d for d in range(2, 100) if all(d % (p * p) for p in range(2, 10))]
# periodic characteristic polynomials of order 2 to 4, fixture 2.4's (1, -1) first
PERIODIC = [(1, -1), (0, 1), (-1, -1), (0, -1), (0, 0, 1), (-1, -1, -1), (0, 0, 0, 1)]
coefficients = st.sampled_from(PERIODIC) | st.integers(2, 4).flatmap(
    lambda k: st.tuples(*[st.integers(-3, 3)] * k).filter(lambda c: c[-1])
)
recurrences = coefficients.flatmap(
    lambda c: st.builds(
        LinearRecurrence, st.just(c), st.tuples(*[st.integers(-5, 5)] * len(c)).filter(any)
    )
)


def pair_counts(rec, problem, nbound, coordbound):
    """(items _pair_sums yields, hits pair_sum_search lists), or the class
    of the refusal both share."""
    try:
        index = coordinate_index(problem, coordbound)
    except PellsumError as exc:
        with pytest.raises(type(exc)):
            pair_sum_search(rec, problem, nbound, coordbound)
        return type(exc)
    streamed = sum(1 for _ in search._pair_sums(terms_up_to(rec, nbound), index, coordbound))
    return streamed, len(pair_sum_search(rec, problem, nbound, coordbound).hits)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    recurrences,
    st.sampled_from(SQUAREFREE_D),
    st.integers(-50, 50).filter(bool),
    st.integers(1, 150),
    st.sampled_from([10, 100, 10**3, 10**4, 10**6]),
)
@example(LinearRecurrence((1, -1), (0, 3)), 5, 4, 150, 100)  # fixture 2.4
def test_pair_sums_yield_as_many_items_as_the_search_lists_hits(rec, d, m, nbound, bound):
    counts = pair_counts(rec, NormFormProblem(d, m), nbound, bound)
    assert isinstance(counts, type) or counts[0] == counts[1]


# sha256 of each check list as (name, passed, expected, computed) tuples,
# as the replays wrote them when the count came from pair_sum_search's hits
CHECK_LISTS = {
    ("2.3", 10): "8cc7bed511d99fdfdb8b9f8db0ac3e0d4c1aed9b87ee82bd2bafaf0137f9c873",
    ("2.3", 100): "1e8805f4379519ad83e484ebec8db44438d1b3ed31f7379e83234f3b21765fe8",
    ("2.3", 400): "a2e1b1c481ba39068ff822b748e799d828e324ac1b4fcc90a74a4f7a5dbae2c3",
    ("2.4", 10): "0a950499865e3b3a1f98cdebd0a76bc8fb1e4205a6f87013de23491a184ff555",
    ("2.4", 100): "a85f51ab6039c25d119c19083e71c94ec84195016db5ba66b17c6ac4a0243a0f",
    ("2.4", 400): "faf4a2f2c43502ed3ff488844ec611873b8fa28dc6c80b5f0a18a0c0481b8af1",
    ("2.5", 10): "00b5c6806532bb1a228252b202dfd6b947efa4d7b6dd9757148d096e5433e2ab",
    ("2.5", 100): "cfffc503a111e245cc265b6f70e6736ecc04e2aa061573181dae4db47e504160",
    ("2.5", 400): "2faa50af419c7c5bccdffeca5d7d48dec847f73de85351905ac676a639a46463",
}


def changed_check_lists() -> list:
    """The (id, n) replays whose check list differs from CHECK_LISTS."""
    changed = []
    for (remark_id, bound), want in CHECK_LISTS.items():
        checks = verify_remark(remark_id, bound).checks
        text = repr([(c.name, c.passed, c.expected, c.computed) for c in checks])
        if hashlib.sha256(text.encode()).hexdigest() != want:
            changed.append((remark_id, bound))
    return changed


def test_every_fixture_keeps_its_check_list():
    assert changed_check_lists() == []
    for remark_id, bound in CHECK_LISTS:
        data = fixtures.load_fixture(remark_id)
        if "pair_search" not in data:
            continue
        check = next(c for c in verify_remark(remark_id, bound).checks
                     if c.name == "pair hit count")
        rec = LinearRecurrence.from_literal(data["recurrence"])
        report = pair_sum_search(rec, NormFormProblem(**data["problem"]), bound,
                                 data["pair_search"]["coord_bound"])
        assert int(check.computed) == len(report.hits), (remark_id, bound)


def vanishing_count_mismatches(nbounds=search_oracle.SWEEP_N) -> list:
    """search_oracle's vanishing problems whose count differs from the
    number of hits the stream then yields."""
    mismatches = []
    coeffs, initials = range(-3, 4), range(-2, 3)
    for a1, a2, u0, u1 in product(coeffs, coeffs, initials, initials):
        if not a2 or not (u0 or u1):
            continue
        rec = LinearRecurrence((a1, a2), (u0, u1))
        for nbound in nbounds:
            try:
                count, hits = search._vanishing_hits(rec, nbound)
            except PellsumError:
                continue
            if count != sum(1 for _ in hits()):
                mismatches.append((rec, nbound))
    return mismatches


def test_vanishing_counts_equal_the_rows_that_follow():
    assert vanishing_count_mismatches() == []
    for literal in ("1,2;1,-1", "1,-1;0,1", "-1,-1;0,1", "6,-1;0,1"):
        doc = structured_document(["vanishing", f"--rec={literal}", "--n=150"])
        assert doc["results"]["count"] == len(doc["results"]["hits"]) > 0


def structured_document(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([*argv, "--format=structured"]) == 0
    return json.loads(out.getvalue())


def test_a_count_off_by_one_fails_the_checks(monkeypatch):
    streams = search._vanishing_hits

    def one_too_many(rec, nbound):
        count, hits = streams(rec, nbound)
        return count + 1, hits

    monkeypatch.setattr(search, "_vanishing_hits", one_too_many)
    assert vanishing_count_mismatches(nbounds=(1, 11))
    doc = structured_document(["vanishing", "--rec=1,2;1,-1", "--n=20"])
    assert doc["results"]["count"] == len(doc["results"]["hits"]) + 1
    monkeypatch.undo()

    pairs = fixtures._pair_sums

    def one_more(terms, index, coordbound):
        yield (0, 0, 0)
        yield from pairs(terms, index, coordbound)

    monkeypatch.setattr(fixtures, "_pair_sums", one_more)
    assert {remark_id for remark_id, _ in changed_check_lists()} == {"2.3", "2.4"}


# -- memory pins -----------------------------------------------------------------


def traced_peak_mb(run, warm) -> float:
    """Peak traced allocation of run(), after one warm run of warm(), in MiB."""
    warm()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def cli_to_devnull(argv):
    def run():
        with open(os.devnull, "w") as null, redirect_stdout(null):
            assert main(argv) == 0

    return run


def test_verify_remark_counts_without_holding_its_hits():
    run = lambda: verify_remark("2.4", 400)  # noqa: E731
    assert traced_peak_mb(run, run) < 0.5  # 3.18 MiB with 17,956 hit records


def test_partitions_hands_the_writer_one_row_at_a_time():
    argv = dict(pinned_jobs(per_pool=1))["recurrence-audit/partitions-7"][0]["argv"]
    run = cli_to_devnull(argv)
    assert traced_peak_mb(run, run) < 0.6  # 0.99 MiB with every report and row


def test_vanishing_counts_before_it_streams_its_rows():
    # 50.0 MiB with the 721,801 hits listed; the warm run is a small one,
    # since tracing every allocation of the 69 MB document takes seconds
    argv = ["vanishing", "--rec=3,-2;1,2", "--format=structured"]
    peak = traced_peak_mb(cli_to_devnull([*argv, "--n=1200"]),
                          cli_to_devnull([*argv, "--n=30"]))
    assert peak < 2.0


# -- refusals come before the first byte -------------------------------------------

REFUSED = [
    ["partitions", "--bases=2", "--exp-bound=3"],
    ["partitions", "--bases=2,3,5,7,11,13,17,19,23", "--exp-bound=2"],
    ["partitions", "--bases=2,0", "--exp-bound=3"],
    ["partitions", "--bases=2,sqrt(4)", "--exp-bound=3"],
    ["partitions", "--bases=2,3", "--exp-bound=0"],
    ["vanishing", "--rec=1,1,1;0,0,1", "--n=5"],
    ["vanishing", "--rec=1,1;0,1", "--n=0"],
    ["vanishing", "--rec=3,-2;1,2", "--n=9000"],  # past the terms' bit budget
]


@pytest.mark.parametrize("argv", REFUSED, ids=[" ".join(argv) for argv in REFUSED])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_streamed_handlers_refuse_before_the_first_byte(argv, to_file, capsys, tmp_path):
    out_file = tmp_path / "report.json"
    extra = [f"--out={out_file}"] if to_file else []
    assert main([*argv, "--format=structured", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert not out_file.exists()
