"""Tests for the baseline parallelization strategies."""

import pytest

from tests.conftest import make_stream, reference_matches
from repro.core import Pattern
from repro.core.streams import Lookahead
from repro.engine import assert_equivalent
from repro.baselines import (
    JSQEngine,
    LLSFEngine,
    RIPEngine,
    RREngine,
    StateParallelEngine,
)

PATTERNS = [
    Pattern.sequence(["A", "B", "C"], window=6.0),
    Pattern.sequence(["A", "B", "C"], window=5.0, kleene=[1]),
    Pattern.sequence(["A", "X", "B"], window=6.0, negated=[1]),
    Pattern.sequence(["A", "B", "X"], window=5.0, negated=[2]),
]

ENGINES = [RIPEngine, RREngine, JSQEngine, LLSFEngine]


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.describe())
@pytest.mark.parametrize("engine_cls", ENGINES)
def test_partitioned_equivalence(pattern, engine_cls):
    events = make_stream(num_events=600, seed=21)
    reference = reference_matches(pattern, events)
    got = engine_cls(pattern, num_units=4).run(events)
    assert_equivalent(reference, got, engine_cls.__name__)


@pytest.mark.parametrize("pattern", PATTERNS[:2], ids=lambda p: p.describe())
def test_state_parallel_equivalence(pattern):
    events = make_stream(num_events=500, seed=22)
    reference = reference_matches(pattern, events)
    engine = StateParallelEngine(pattern)
    got = engine.run(events)
    assert_equivalent(reference, got, "state-parallel")
    assert engine.num_agents == 2


class TestRIPStructure:
    def test_chunks_cover_stream_without_loss(self):
        pattern = Pattern.sequence(["A", "B"], window=4.0)
        events = make_stream(num_events=300, seed=23)
        engine = RIPEngine(pattern, num_units=3, chunk_size=50)
        partitions = list(engine.spans(Lookahead(events)))
        assert sum(
            1 for p in partitions
        ) == (len(events) + 49) // 50
        # Ownership ranges tile the stream.
        owned = 0
        for partition in partitions:
            owned += sum(
                1
                for event in events
                if (partition.own_start, partition.own_start_id)
                <= (event.timestamp, event.event_id)
                < (partition.own_end, partition.own_end_id)
            )
        assert owned == len(events)

    def test_duplication_grows_with_window(self):
        events = make_stream(num_events=400, seed=24)

        def dup(window):
            engine = RIPEngine(
                Pattern.sequence(["A", "B"], window=window),
                num_units=3,
                chunk_size=40,
            )
            engine.run(events)
            return engine.metrics.duplication_factor

        assert dup(20.0) > dup(2.0)

    def test_round_robin_assignment(self):
        pattern = Pattern.sequence(["A", "B"], window=2.0)
        engine = RIPEngine(pattern, num_units=3, chunk_size=10)
        events = make_stream(num_events=100, seed=25)
        engine.run(events)
        assert all(count > 0 for count in engine.metrics.per_unit_events)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            RIPEngine(Pattern.sequence(["A", "B"], window=1.0), 2, chunk_size=0)


class TestWindowSegments:
    def test_duplication_factor_about_two(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        engine = LLSFEngine(pattern, num_units=4)
        engine.run(make_stream(num_events=600, seed=26))
        assert 1.5 <= engine.metrics.duplication_factor <= 2.2

    def test_llsf_balances_load(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        engine = LLSFEngine(pattern, num_units=2)
        engine.run(make_stream(num_events=800, seed=27))
        loads = engine.metrics.per_unit_comparisons
        assert min(loads) > 0
        assert max(loads) < 5 * max(min(loads), 1)

    def test_jsq_uses_all_units(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        engine = JSQEngine(pattern, num_units=3)
        engine.run(make_stream(num_events=900, seed=28))
        assert all(count > 0 for count in engine.metrics.per_unit_events)

    def test_empty_stream(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        assert RREngine(pattern, 2).run([]) == []

    def test_metrics_populated(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        engine = RREngine(pattern, 3)
        engine.run(make_stream(num_events=300, seed=29))
        metrics = engine.metrics
        assert metrics.events_ingested == 300
        assert metrics.partitions > 1
        assert metrics.comparisons > 0
        assert metrics.matches_emitted <= metrics.matches_before_dedup

    def test_invalid_unit_count(self):
        with pytest.raises(ValueError):
            RREngine(Pattern.sequence(["A", "B"], window=1.0), 0)
