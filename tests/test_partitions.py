import inspect

import pytest

from pellsum.partitions import bell_number, set_partitions


def growth_string_partitions(n):
    """The restricted-growth-string enumerator set_partitions replaced."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def emit():
        blocks = []
        for i, b in enumerate(rgs):
            if b == len(blocks):
                blocks.append([])
            blocks[b].append(i)
        return tuple(tuple(b) for b in blocks)

    def walk(i, top):
        if i == n:
            yield emit()
            return
        for b in range(top + 2):
            rgs[i] = b
            yield from walk(i + 1, max(top, b))

    yield from walk(1, 0)


def test_bell_numbers():
    assert [bell_number(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_partition_counts_match_bell():
    for n in range(1, 7):
        parts = list(set_partitions(n))
        assert len(parts) == bell_number(n)
        # no duplicates
        assert len(set(parts)) == len(parts)


def test_partitions_cover_exactly_the_index_set():
    for n in (1, 3, 5):
        for partition in set_partitions(n):
            seen = [i for block in partition for i in block]
            assert sorted(seen) == list(range(n))
            assert all(block == tuple(sorted(block)) for block in partition)


def test_partition_order_is_deterministic():
    parts = list(set_partitions(3))
    assert parts[0] == ((0, 1, 2),)  # the all-zero growth string comes first
    assert parts[-1] == ((0,), (1,), (2,))  # singletons last
    assert parts == list(set_partitions(3))


def test_two_element_case():
    assert list(set_partitions(2)) == [((0, 1),), ((0,), (1,))]


def test_degenerate_input():
    # the empty index set has exactly one (empty) partition
    assert list(set_partitions(0)) == [()]
    assert bell_number(0) == 1
    assert list(set_partitions(1)) == [((0,),)]


def test_stream_matches_the_growth_string_enumerator():
    for n in range(11):
        assert list(set_partitions(n)) == list(growth_string_partitions(n)), n


def test_set_partitions_stays_a_generator_function():
    # perfbench/trace_child.py counts the items a generator function yields
    assert inspect.isgeneratorfunction(set_partitions)
    stream = set_partitions(-1)  # nothing runs until the first next()
    with pytest.raises(ValueError):
        next(stream)
