"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests
"""

import math
import os
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import refclock  # noqa: E402
import stats  # noqa: E402
from workloads import Item, ItemFailed  # noqa: E402
from worker import run_items  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert stats.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_span_totals_count_recursion_once():
    # x [0, 10] > y [1, 3];  x > x [4, 8] > y [5, 6]
    names = ["x", "y", "x", "y"]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    totals = stats.span_totals(names, starts, ends, parents)
    assert totals["x"] == {"calls": 2, "s": 10.0, "self_s": 7.0}
    assert totals["y"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    # self times add up to the root's duration
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_ancestor_masks():
    names = ["a", "b", "c", "b"]
    parents = [-1, 0, 1, -1]
    masks, bits = stats.ancestor_masks(names, parents)
    assert masks[2] == bits["a"] | bits["b"]
    assert masks[3] == 0


def test_tail_is_highest_percentile_with_ten_beyond():
    for n in range(20, 400):
        p, rank = stats.tail_rank(n)
        assert n - rank >= 10
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_examples():
    assert stats.tail_rank(20) == (50, 10)
    assert stats.tail_rank(172) == (94, 162)
    assert stats.tail_rank(1010) == (99, 1000)
    assert stats.tail_rank(19) is None
    p, value = stats.tail([[float(x) for x in range(1, 100)],
                           [float(x) for x in range(100, 173)]])
    assert p == 94
    assert 160 < value < 164


def test_harrell_davis_median():
    # n = 3: the weights are I_{1/3}(2, 2) = 7/27, 13/27 and 7/27
    assert stats.hd_quantile([10.0, 1.0, 2.0], 0.5) == pytest.approx(103 / 27, rel=1e-9)
    assert stats.hd_quantile([5.0] * 40, 0.5) == pytest.approx(5.0, rel=1e-12)
    assert stats.hd_quantile([7.0], 0.5) == 7.0
    symmetric = [float(x) for x in range(101)]
    assert stats.hd_quantile(symmetric, 0.5) == pytest.approx(50.0, rel=1e-9)


def test_harrell_davis_moves_less_than_the_sample_median():
    # the one sample at the median is slowed from 20 to 28: the sample
    # median moves by 8, the estimate by a small share of that
    base = [10.0] * 40 + [20.0] + [30.0] * 40
    slowed = [10.0] * 40 + [28.0] + [30.0] * 40
    assert statistics.median(slowed) - statistics.median(base) == 8.0
    moved = stats.hd_quantile(slowed, 0.5) - stats.hd_quantile(base, 0.5)
    assert 0 < moved < 8.0 / 5


def test_harrell_davis_rejects_too_few_samples():
    with pytest.raises(ValueError):
        stats.hd_quantile([1.0, 2.0], 0.9)


def test_tail_of_few_samples_is_the_median_pass_maximum():
    assert stats.tail([[3.0, 1.0, 2.0]]) == (100, 3.0)
    assert stats.tail([[3.0, 1.0], [9.0], [4.0, 2.0]]) == (100, 4.0)


def test_spread_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, med, q3 = stats.quartiles(values)
    assert (q1, med, q3) == (1.5, 3.0, 4.5)
    assert stats.spread(values) == 1.0


def test_failed_frac():
    assert stats.failed_frac(4, 1) == 0.25
    assert stats.failed_frac(3, 0) == 0.0
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(2, 3)


def _raise(exc):
    raise exc


def test_items_that_raise_exit_nonzero_or_differ_fail():
    items = [
        Item("ok", lambda: 1),
        Item("raises", lambda: _raise(ZeroDivisionError("boom"))),
        Item("nonzero exit", lambda: _raise(ItemFailed("projpair verify exited 1"))),
        Item("wrong", lambda: 2),
        Item("rows", lambda: {"rows": 3}, weight=3),
    ]
    expected = {"ok": 1, "raises": 1, "nonzero exit": 1, "wrong": 1, "rows": {"rows": 3}}
    tally = run_items(items, expected)
    assert (tally["items"], tally["attempted"], tally["failed"]) == (4, 7, 3)
    assert stats.failed_frac(tally["attempted"], tally["failed"]) == 3 / 7
    assert len(tally["latencies_s"]) == 5
    assert [f.split(":")[0] for f in tally["failures"]] == ["raises", "nonzero exit", "wrong"]


def test_reference_items_not_run_count_as_failed():
    tally = run_items([Item("a", lambda: 1)], {"a": 1, "b": 2})
    assert (tally["items"], tally["attempted"], tally["failed"]) == (1, 2, 1)


def test_weighted_item_that_fails_counts_all_its_rows():
    tally = run_items([Item("call", lambda: _raise(ItemFailed("exit 2")), weight=906)],
                      {"call": {"rows": 906}})
    assert (tally["items"], tally["attempted"], tally["failed"]) == (0, 906, 906)


def test_reference_rate_is_reference_probe_over_median_probe():
    ref = refclock.REF_PROBE_S
    assert refclock.rate([ref]) == 1.0
    # one probe slowed by an interruption does not move the median
    assert refclock.rate([2 * ref, 2 * ref, 50 * ref]) == 0.5


def test_reference_clock_probes_and_stops():
    clock = refclock.RefClock().start()
    try:
        t0 = clock.now()
        end = time.perf_counter() + 10 * refclock.TICK_S
        while time.perf_counter() < end:
            refclock.probe(100)
        elapsed = clock.now() - t0
    finally:
        clock.stop()
    assert clock.probes > 1
    assert elapsed > 0
    probes = clock.probes
    time.sleep(3 * refclock.TICK_S)
    assert clock.probes == probes


def test_forked_items_run_in_a_child_and_report_failures():
    parent = os.getpid()
    items = [
        Item("child", lambda: os.getpid() != parent, forked=True),
        Item("exit", lambda: _raise(ItemFailed("exit 2")), forked=True),
    ]
    tally = run_items(items, {"child": True, "exit": 1})
    assert (tally["items"], tally["attempted"], tally["failed"]) == (1, 2, 1)
    assert "exit 2" in tally["failures"][0]
    assert len(tally["latencies_s"]) == 2
