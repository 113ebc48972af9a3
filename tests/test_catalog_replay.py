"""Pinned benchmark jobs still write the same bytes and exit codes.

perfbench/catalog.json pins, for most of its jobs, the exit code and the
sha256 of the structured document `pellsum` writes to stdout. This test
replays the first five pinned jobs of every pool in-process through
`pellsum.cli.main`. Entries without a sha256 (the jobs that run to their
time cap) are skipped. The catalogue is only read.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from pellsum.cli import main

ROOT = Path(__file__).resolve().parent.parent
JOBS_PER_POOL = 5


def pinned_jobs():
    """Yield ("workload/pool", the pool's first JOBS_PER_POOL pinned entries)."""
    catalog = json.loads((ROOT / "perfbench" / "catalog.json").read_text(encoding="utf-8"))
    for workload, pools in catalog["workloads"].items():
        for pool, entries in pools.items():
            pinned = [entry for entry in entries if "sha256" in entry][:JOBS_PER_POOL]
            if pinned:
                yield f"{workload}/{pool}", pinned


@pytest.mark.parametrize(
    "entries", [pytest.param(entries, id=name) for name, entries in pinned_jobs()]
)
def test_pinned_jobs_replay_their_bytes(entries, capsys):
    mismatches = []
    # cli.main lifts the interpreter's int-to-str digit cap for the process
    limit = sys.get_int_max_str_digits()
    try:
        for entry in entries:
            rc = main(list(entry["argv"]))
            out = capsys.readouterr().out
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            if (rc, digest) != (entry["rc"], entry["sha256"]):
                mismatches.append((entry["argv"], rc, entry["rc"]))
    finally:
        sys.set_int_max_str_digits(limit)
    assert mismatches == []
