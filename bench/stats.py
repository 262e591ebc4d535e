"""Order statistics used by the report and the compare command."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def p90(values):
    """The 90th percentile, interpolated between order statistics; a single
    sample is its own p90."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def tail(ordered):
    """(value, 1-based rank) of the highest sample with at least ten samples
    beyond it, in ascending `ordered`.  With 21 samples or fewer that rank
    would sit at or below the median, so the maximum is reported instead."""
    rank = len(ordered) - TAIL_BEYOND
    if rank <= (len(ordered) + 1) // 2:
        rank = len(ordered)
    return ordered[rank - 1], rank


def by_kind(kinds, values):
    """kind -> its values, in the order the kinds first appear."""
    groups = {}
    for kind, value in zip(kinds, values):
        groups.setdefault(kind, []).append(value)
    return groups


def geometric_mean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def kind_typical(kinds, values):
    """Geometric mean of each op kind's median.

    A workload mixes op kinds whose latencies differ by 10-1000x, and most
    kinds have only a few samples in a run.  A median over the whole mix is
    then one op of one kind near the cut, as noisy as a single op, and it
    jumps when a run holds one round more or less.  Each kind counts once
    here, whatever its cost and sample count, so the statistic averages the
    noise of every kind and does not depend on how many rounds a run holds.
    """
    return geometric_mean([median(v) for v in by_kind(kinds, values).values()])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
