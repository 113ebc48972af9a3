"""Set partitions in restricted-growth order, Bell numbers, the pairwise
dependence analysis over every partition of a base tuple, and the
`partitions` subcommand.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations

from ._records import record
from .errors import TooManyIndicesError
from .quadfield import QuadNum, quad
from .recurrences import roots_multiplicatively_independent


def bell_number(n: int) -> int:
    """Number of set partitions of n elements."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {0, ..., n-1} as tuples of blocks.

    The stream is in restricted-growth-string order, so it is deterministic;
    blocks keep ascending element order and are sorted by their smallest
    element.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    yield from _partitions(n)


def _partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    # each partition of {0..n-2} puts n-1 into each block in turn, then
    # alone: the growth string's last label runs fastest, from 0 upward
    if n == 0:
        yield ()
        return
    for blocks in _partitions(n - 1):
        for b in range(len(blocks)):
            yield blocks[:b] + (blocks[b] + (n - 1,),) + blocks[b + 1 :]
        yield blocks + ((n - 1,),)


# -- partition analysis --------------------------------------------------------


@record
class PartitionReport:
    """Pairwise dependence evidence inside the blocks of one partition.

    witnesses lists (i, j, (p, q)) for every dependent in-block pair,
    1-based. A dependence witness is necessary evidence toward a nontrivial
    relation group for the partition; its absence is only 'independent up
    to E', never a proof.
    """

    blocks: tuple[tuple[int, ...], ...]
    witnesses: tuple[tuple[int, int, tuple[int, int]], ...]
    verdict: str


def partition_analysis(bases, expbound: int) -> tuple[PartitionReport, ...]:
    """For every set partition of the base indices, certify in-block pairwise
    dependences or report independence up to expbound. Each base pair's
    verdict is computed once and read by every partition holding the pair."""
    n = len(bases)
    if n < 2:
        raise ValueError("need at least two bases")
    if n > 8:
        raise TooManyIndicesError(f"{n} bases means Bell({n}) partitions; capped at 8")
    verdicts = {
        (i, j): roots_multiplicatively_independent(bases[i], bases[j], expbound)
        for i, j in combinations(range(n), 2)
    }
    reports = []
    for partition in set_partitions(n):
        witnesses = tuple(
            (i + 1, j + 1, verdicts[i, j].witness)
            for block in partition
            for i, j in combinations(block, 2)
            if verdicts[i, j].dependent
        )
        label = "certified-dependent" if witnesses else f"independent-up-to-{expbound}"
        reports.append(
            PartitionReport(
                tuple(tuple(i + 1 for i in block) for block in partition),
                witnesses,
                label,
            )
        )
    return tuple(reports)


# -- subcommand handler (cli.main dispatches here) -----------------------------


_BASE_RE = re.compile(
    r"""^\s*
    (?P<rat>[+-]?\d+(?:/\d+)?)?\s*
    (?:
        (?P<sign>[+-])?\s*
        (?:(?P<coef>\d+(?:/\d+)?)\s*\*\s*)?
        sqrt\(\s*(?P<d>-?\d+)\s*\)
    )?\s*$""",
    re.VERBOSE,
)


def parse_base(text: str) -> Fraction | QuadNum:
    """Parse 'a', 'a/b', 'a+b*sqrt(d)', 'b*sqrt(d)' or 'sqrt(d)' forms."""
    match = _BASE_RE.match(text)
    if not match or (match.group("rat") is None and match.group("d") is None):
        raise ValueError(f"cannot parse base {text!r}")
    try:
        x = Fraction(match.group("rat") or 0)
        y = Fraction(match.group("coef") or 1)
    except ZeroDivisionError:  # a denominator of 0
        raise ValueError(f"cannot parse base {text!r}") from None
    if match.group("d") is None:
        return x
    if match.group("rat") is not None and match.group("sign") is None:
        raise ValueError(f"missing + or - before the sqrt term in {text!r}")
    if match.group("sign") == "-":
        y = -y
    return quad(x, y, int(match.group("d")))


def _cmd_partitions(args):
    bases = [parse_base(part) for part in args.bases.split(",")]
    reports = partition_analysis(bases, args.exp_bound)
    results = {
        "bell": bell_number(len(bases)),
        "partition_count": len(reports),
        "partitions": [
            {
                "blocks": report.blocks,
                "verdict": report.verdict,
                "witnesses": [
                    {"pair": [i, j], "exponents": witness}
                    for i, j, witness in report.witnesses
                ],
            }
            for report in reports
        ],
    }
    lines = [f"{len(reports)} partition(s) of {len(bases)} base(s)"]
    for report in reports:
        blocks = " | ".join("{" + ", ".join(map(str, b)) + "}" for b in report.blocks)
        lines.append(f"  {blocks}: {report.verdict}")
        for i, j, witness in report.witnesses:
            lines.append(
                f"    bases {i} and {j}: alpha^{witness[0]} * beta^{witness[1]} = 1"
            )
    return {"bases": [str(base) for base in bases]}, results, lines
