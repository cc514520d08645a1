"""Statistics the benchmark reports: medians, quartiles, tail percentiles
chosen by sample count, and span self times.

Kept free of I/O so perfbench/test_stats.py can check each function on
hand-made inputs.
"""

import math
import statistics

# Tail percentiles a timing may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)
# A percentile is only reported when at least this many samples lie
# beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(p, n):
    """1-based nearest rank of the p-th percentile among n samples (the
    epsilon keeps 99.9 % of 10000 at rank 9990 despite float rounding)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def tail_percentile(n, ladder=PERCENTILE_LADDER, min_beyond=MIN_SAMPLES_BEYOND):
    """Highest percentile of `ladder` with at least `min_beyond` of `n`
    samples beyond it, or None when even the lowest has too few."""
    for p in ladder:
        # Samples strictly above the p-th percentile (nearest rank).
        beyond = n - _rank(p, n)
        if beyond >= min_beyond:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it. +inf samples (failed requests) sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def fastest_pieces(runs):
    """Fastest instance of each piece over repeated runs of the same work.

    `runs` is a list of equal-length lists: run r's time for piece i. The
    result has one entry per piece, the lowest over runs. Summing them gives
    the work's time with each piece judged on its own, so a disturbance that
    hits one piece of a run does not taint the run's other pieces.
    """
    if not runs:
        raise ValueError("pieces of no runs")
    if len({len(r) for r in runs}) != 1:
        raise ValueError("runs cut into different numbers of pieces")
    return [min(column) for column in zip(*runs)]


def group_sums(pieces, first, size):
    """Sums of consecutive groups of `size` pieces, starting at index
    `first`; a trailing group shorter than `size` is left out."""
    return [sum(pieces[i:i + size]) for i in range(first, len(pieces) - size + 1, size)]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover.

    `spans` is a list of (name, begin, end, parent) with parent the index of
    the enclosing span or -1. Returns a list of self times, same order.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            children[parent].append((spans[i][1], spans[i][2]))
    out = []
    for i, (_, begin, end, _) in enumerate(spans):
        out.append((end - begin) - _covered(children[i], begin, end))
    return out
