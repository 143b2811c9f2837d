"""Tests of the benchmark's pure helpers.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import math
import statistics

import pytest

from perfbench.spans import nest, self_times, union_length
from perfbench.stats import binomial_consistent, quartiles, tail_percentile


class TestTailPercentile:
    def test_p90_at_100_calls(self):
        assert tail_percentile(list(range(1, 101))) == (90, 90)

    def test_ten_calls_beyond_the_chosen_percentile(self):
        for n in range(21, 200):
            q, value = tail_percentile(list(range(1, n + 1)))
            beyond = sum(1 for v in range(1, n + 1) if v > value)
            assert beyond >= 10
            if q < 99:
                assert n - math.ceil((q + 1) * n / 100) < 10

    def test_short_runs_fall_back_to_the_median(self):
        assert tail_percentile([4.0, 1.0, 3.0, 2.0]) == (50, 2.5)
        assert tail_percentile(list(range(20)))[0] == 50
        assert tail_percentile(list(range(21)))[0] == 52

    def test_order_of_samples_does_not_matter(self):
        assert tail_percentile([5, 1, 4, 2, 3] * 10) == tail_percentile(
            sorted([5, 1, 4, 2, 3] * 10)
        )

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([])


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 9.0, 1.0, 4.0, 7.0, 2.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)


class TestSpans:
    def test_union_length_counts_overlaps_once(self):
        assert union_length([(0, 10), (5, 15), (20, 25)]) == 20
        assert union_length([(0, 10), (2, 3)]) == 10
        assert union_length([]) == 0

    def test_nested_spans(self):
        spans = [("t", 0, 100), ("t", 10, 60), ("t", 20, 30)]
        assert nest(spans) == [-1, 0, 1]
        assert self_times(spans) == [50, 40, 10]

    def test_siblings_and_input_order(self):
        spans = [("t", 40, 50), ("t", 0, 100), ("t", 10, 20)]
        assert nest(spans) == [1, -1, 1]
        assert self_times(spans) == [10, 80, 10]

    def test_overlapping_children_are_subtracted_as_a_union(self):
        # X and Y overlap without nesting (two threads on one track).
        spans = [("t", 0, 100), ("t", 10, 50), ("t", 30, 70)]
        assert nest(spans) == [-1, 0, 0]
        assert self_times(spans)[0] == 100 - 60

    def test_overlapping_parents_from_concurrent_batches(self):
        # Two run_batch spans of concurrent submit threads share a track;
        # a span inside both belongs to the latest-starting one.
        spans = [("engine", 0, 50), ("engine", 20, 80), ("engine", 30, 40), ("engine", 60, 70)]
        assert nest(spans) == [-1, -1, 1, 1]
        assert self_times(spans) == [50, 40, 10, 10]

    def test_tracks_never_nest_across(self):
        spans = [("a", 0, 100), ("b", 10, 20)]
        assert nest(spans) == [-1, -1]
        assert self_times(spans) == [100, 10]

    def test_equal_starts_put_the_longer_span_outside(self):
        spans = [("t", 0, 10), ("t", 0, 30)]
        assert nest(spans) == [1, -1]


class TestBinomialTolerance:
    def test_exact_laws(self):
        assert binomial_consistent(0, 1000, 0.0)
        assert not binomial_consistent(1, 1000, 0.0)
        assert binomial_consistent(64, 64, 1.0)
        assert not binomial_consistent(63, 64, 1.0)

    def test_full_rank_rate(self):
        p = 0.2888
        assert binomial_consistent(29, 100, p)
        assert not binomial_consistent(0, 1000, p)
        assert not binomial_consistent(600, 1000, p)

    def test_tiny_rate(self):
        p = 1.5e-5
        assert binomial_consistent(0, 40_000, p)
        assert binomial_consistent(3, 40_000, p)
        assert not binomial_consistent(30, 40_000, p)

    def test_matches_brute_force_tails(self):
        n, p, alpha = 30, 0.3, 0.01
        pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        for k in range(n + 1):
            tails = min(sum(pmf[k:]), sum(pmf[: k + 1]))
            assert binomial_consistent(k, n, p, alpha) == (tails >= alpha / 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_consistent(5, 4, 0.5)
        with pytest.raises(ValueError):
            binomial_consistent(1, 4, 1.5)


def _span(name, layer, start, end, track="bench/MainThread"):
    return {
        "type": "span",
        "name": name,
        "track": track,
        "start_ns": start,
        "end_ns": end,
        "args": {"layer": layer},
    }


def test_layer_metrics_split_the_scalar_loop():
    from perfbench.instrument import layer_metrics

    s = 1_000_000_000
    events = [
        _span("bench.call", "distinguish", 0, 10 * s),
        _span("engine.run_batch", "core.engine", 1 * s, 9 * s),
        _span("executor.map", "core.simulate", 2 * s, 8 * s),
        _span("distributions.sample", "distributions", 2 * s, 3 * s),
        _span("protocol.output", "protocol.callback", 4 * s, 7 * s),
        _span("linalg.rank", "linalg.rank", 5 * s, 6 * s),
        _span("distinguish.estimate_advantage", "distinguish", int(9.5 * s), 10 * s),
        # A span outside the window is ignored.
        _span("linalg.rank", "linalg.rank", 11 * s, 12 * s),
    ]
    counters = dict.fromkeys(
        ["exec_handshakes_total", "exec_errors_total", "sweep_batches_initial",
         "sweep_batches_top_up"], 0.0
    )
    metrics, layer_self = layer_metrics(events, (0, 10 * s), counters, 0)
    approx = pytest.approx
    assert metrics["core.simulate_s"] == approx(6.0)
    assert metrics["protocol.callback_s"] == approx(3.0)
    assert metrics["distributions.sample_s"] == approx(1.0)
    assert metrics["core.bookkeeping_s"] == approx(6.0 - 3.0 - 1.0)
    assert metrics["linalg.rank_calls"] == 1.0
    assert metrics["linalg.rank_s"] == approx(1.0)
    assert metrics["core.assemble_s"] == approx(8.0 - 6.0)
    assert metrics["distinguish.score_s"] == approx(10.0 - 8.0)
    assert layer_self["core.simulate"] == approx(6.0 - 1.0 - 3.0)
    assert sum(layer_self.values()) == approx(10.0)


def test_instrumentation_restores_entry_points_and_joins_costs():
    from repro.core import Engine, RunSpec
    from repro.distributions import UniformRows
    from repro.linalg.bitmatrix import BitMatrix
    from repro.lowerbounds import TopSubmatrixRankProtocol
    from repro.obs.trace import Tracer

    from perfbench.instrument import Instrumentation

    original = BitMatrix.rank
    tracer = Tracer()
    spec = RunSpec(protocol=TopSubmatrixRankProtocol(4), distribution=UniformRows(4, 4), seed=0)
    with Instrumentation(tracer, (TopSubmatrixRankProtocol,)) as instrumentation:
        batch = Engine().run_batch(spec, 3)
    assert BitMatrix.rank is original
    assert instrumentation.cost_problems == []
    assert instrumentation.bits == batch.cost_totals()["broadcast_bits"] == 3 * 4 * 4
    names = {e["name"] for e in tracer.events()}
    assert {"engine.run_batch", "executor.map", "linalg.rank", "protocol.output"} <= names
