"""Order statistics and span arithmetic shared by the runner and the tracer."""

import math

#: a tail percentile must leave at least this many samples above it
TAIL_BEYOND = 10


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def tail(values, beyond=TAIL_BEYOND):
    """``(percentile, value)`` of the highest whole percentile that leaves
    at least ``beyond`` samples above it, by nearest rank.

    With too few samples for any such percentile the maximum is returned
    as percentile 100, so a caller always gets a value and can see from the
    percentile that it is not a true tail.
    """
    values = sorted(values)
    n = len(values)
    if not n:
        raise ValueError("tail of no values")
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, values[rank - 1]
    return 100, values[-1]


def union_length(intervals):
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents):
    """Per span: its duration minus the part of it that its children cover.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Child intervals are clipped to the parent's interval before the union
    is taken, so a child that outlives its parent is not subtracted twice.
    """
    children = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        covered = 0.0
        if kids:
            covered = union_length(
                (max(starts[k], start), min(ends[k], end))
                for k in kids
                if ends[k] > start and starts[k] < end
            )
        out.append((end - start) - covered)
    return out
