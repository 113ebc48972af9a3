"""Set partitions in restricted-growth order, plus Bell numbers."""

from __future__ import annotations

from collections.abc import Iterator


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

    Generated from restricted growth strings in lexicographic order, so the
    stream is deterministic; blocks keep ascending element order and are
    sorted by their smallest element.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def emit() -> tuple[tuple[int, ...], ...]:
        blocks: list[list[int]] = []
        for i, b in enumerate(rgs):
            if b == len(blocks):
                blocks.append([])
            blocks[b].append(i)
        return tuple(tuple(b) for b in blocks)

    def walk(i: int, top: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            yield emit()
            return
        for b in range(top + 2):
            rgs[i] = b
            yield from walk(i + 1, max(top, b))

    yield from walk(1, 0)
