"""Pinned benchmark jobs still write the same bytes and exit codes.

perfbench/catalog.json pins, for most of its jobs, the exit code and the
sha256 of the structured document `pellsum` writes to stdout. This test
replays the first five pinned jobs of every pool in-process through
`pellsum.cli.main`. Entries without a sha256 (the jobs that run to their
time cap) are skipped. The catalogue is only read.

Run as a script, `python3 tests/test_catalog_replay.py` replays every
distinct pinned job instead, prints the job count and the mismatch count,
and exits 1 on any mismatch.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
JOBS_PER_POOL = 5


def pinned_jobs(per_pool=JOBS_PER_POOL):
    """Yield ("workload/pool", the pool's first per_pool pinned entries).

    per_pool=None yields every pinned entry of each pool.
    """
    catalog = json.loads((ROOT / "perfbench" / "catalog.json").read_text(encoding="utf-8"))
    for workload, pools in catalog["workloads"].items():
        for pool, entries in pools.items():
            pinned = [entry for entry in entries if "sha256" in entry][:per_pool]
            if pinned:
                yield f"{workload}/{pool}", pinned


def replay(entries) -> list:
    """Run each entry through cli.main; (argv, rc, pinned rc) per mismatch."""
    from pellsum.cli import main

    mismatches = []
    # cli.main lifts the interpreter's int-to-str digit cap for the process
    limit = sys.get_int_max_str_digits()
    try:
        for entry in entries:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = main(list(entry["argv"]))
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            if (rc, digest) != (entry["rc"], entry["sha256"]):
                mismatches.append((entry["argv"], rc, entry["rc"]))
    finally:
        sys.set_int_max_str_digits(limit)
    return mismatches


@pytest.mark.parametrize(
    "entries", [pytest.param(entries, id=name) for name, entries in pinned_jobs()]
)
def test_pinned_jobs_replay_their_bytes(entries):
    assert replay(entries) == []


def replay_all() -> int:
    """Replay every distinct pinned job once; 1 when any mismatches."""
    distinct = {}
    for _, entries in pinned_jobs(per_pool=None):
        for entry in entries:
            distinct.setdefault(tuple(entry["argv"]), entry)
    mismatches = replay(distinct.values())
    for argv, rc, pinned_rc in mismatches:
        print(f"mismatch: {' '.join(argv)} (exit {rc}, pinned {pinned_rc})")
    print(f"{len(distinct)} jobs replayed, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


def test_full_replay_counts_distinct_jobs_and_fails_on_a_mismatch(monkeypatch, capsys):
    first, second = next(pinned_jobs())[1][:2]
    altered = {**second, "sha256": "0" * 64}
    pools = [("w/p", [first, first, altered])]
    monkeypatch.setattr(sys.modules[__name__], "pinned_jobs", lambda per_pool: iter(pools))
    assert replay_all() == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"mismatch: {' '.join(second['argv'])} (exit 0, pinned 0)",
                   "2 jobs replayed, 1 mismatches"]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(replay_all())
