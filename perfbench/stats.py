"""Arithmetic of the benchmark: summaries, tail latency, span self time
and failure accounting.  Pure functions, covered by tests/test_stats.py."""

from __future__ import annotations

import math
import statistics

# The tail percentile is the highest one with at least this many
# samples beyond it.
TAIL_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail_rank(n: int, beyond: int = TAIL_BEYOND):
    """The tail percentile for ``n`` samples and the 1-based rank of its
    value among the sorted samples (nearest-rank method), or None when
    fewer than 20 samples leave ``beyond`` of them past the median."""
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= beyond:
            return p, rank
    return None


def hd_quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of the order statistics, the i-th weighted by the
    mass of Beta(q(n+1), (1-q)(n+1)) on [(i-1)/n, i/n].  The samples near
    the quantile share the weight, so the jitter of the one sample that
    happens to sit at the quantile does not move the estimate by itself.
    Needs q(n+1) >= 1 and (1-q)(n+1) >= 1, which the median and the tail
    of ``tail_rank`` satisfy.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if a < 1 or b < 1:
        raise ValueError(f"quantile {q} needs more than {n} samples")
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0 if (t <= 0.0 and a > 1) or (t >= 1.0 and b > 1) else math.exp(log_norm)
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 16  # Simpson's rule on each cell [(i-1)/n, i/n]
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + 1.0 / n)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(passes) -> tuple[int, float]:
    """(percentile, value) of the latency tail of a run, given each
    pass's latencies: the Harrell-Davis estimate, over all samples, at
    the percentile of ``tail_rank``.

    With too few samples for that rule the tail is the median over the
    passes of each pass's slowest sample, reported as percentile 100.
    """
    samples = [x for p in passes for x in p]
    found = tail_rank(len(samples))
    if found is None:
        return 100, statistics.median(max(p) for p in passes)
    p, _ = found
    return p, hd_quantile(samples, p / 100)


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no item was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    do not overlap each other.  ``parents[i]`` is the index of span i's
    parent, or -1.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def ancestor_masks(names, parents) -> tuple[list[int], dict[str, int]]:
    """For each span, a bit mask of the names of its ancestors, and the
    bit of each name.  A parent always precedes its children."""
    bits: dict[str, int] = {}
    masks: list[int] = []
    for name, p in zip(names, parents):
        bits.setdefault(name, 1 << len(bits))
        masks.append(masks[p] | bits[names[p]] if p >= 0 else 0)
    return masks, bits


def span_totals(names, starts, ends, parents) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``; ``s``, the time of the spans that have no
    ancestor of the same name (so recursion is not counted twice); and
    ``self_s``, the summed self time."""
    selfs = self_times(starts, ends, parents)
    masks, bits = ancestor_masks(names, parents)
    totals: dict[str, dict[str, float]] = {}
    for i, name in enumerate(names):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        if not masks[i] & bits[name]:
            t["s"] += ends[i] - starts[i]
    return totals
