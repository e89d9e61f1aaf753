"""End-to-end equivalence tests: hybrid engine vs sequential baseline."""

import pytest

from tests.conftest import make_stream, reference_matches
from repro.core import (
    AttributeCondition,
    Event,
    EventType,
    PartialMatch,
    Pattern,
    PatternError,
)
from repro.core.errors import AllocationError
from repro.engine import assert_equivalent
from repro.hypersonic import HypersonicConfig, HypersonicEngine, detect_hybrid
from repro.hypersonic.items import ItemKind, WorkItem
from repro.hypersonic.workers import WorkerPolicy
from repro.simulator.hypersonic_sim import HypersonicSimulation


PATTERNS = [
    Pattern.sequence(["A", "B"], window=5.0),
    Pattern.sequence(["A", "B", "C"], window=6.0),
    Pattern.sequence(
        ["A", "B", "C", "D"],
        window=8.0,
        condition=AttributeCondition("p1", "x", "<", "p4", "x"),
    ),
    Pattern.sequence(["A", "B", "C"], window=5.0, kleene=[1]),
    Pattern.sequence(["A", "B", "C"], window=6.0, kleene=[2]),
    Pattern.sequence(["A", "X", "B", "C"], window=6.0, negated=[1]),
    Pattern.sequence(["A", "B", "X"], window=5.0, negated=[2]),
    Pattern.sequence(["A", "B", "X", "C"], window=6.0, kleene=[1], negated=[2]),
]


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.describe())
def test_matches_sequential(pattern):
    events = make_stream(num_events=500, seed=11)
    reference = reference_matches(pattern, events)
    got = HypersonicEngine(pattern, num_units=8).run(events)
    assert_equivalent(reference, got, pattern.describe())


@pytest.mark.parametrize(
    "config",
    [
        HypersonicConfig(agent_dynamic=True),
        HypersonicConfig(role_dynamic=False),
        HypersonicConfig(allocation="equal"),
        HypersonicConfig(agent_dynamic=True, allocation="equal", seed=99),
    ],
    ids=["agent-dynamic", "role-static", "equal-alloc", "agdyn-equal-s99"],
)
def test_config_variants_match_sequential(config):
    pattern = Pattern.sequence(["A", "B", "C", "D"], window=7.0)
    events = make_stream(num_events=500, seed=12)
    reference = reference_matches(pattern, events)
    got = HypersonicEngine(pattern, num_units=8, config=config).run(events)
    assert_equivalent(reference, got)


@pytest.mark.parametrize("units", [2, 3, 5, 16])
def test_unit_counts(units):
    pattern = Pattern.sequence(["A", "B", "C"], window=6.0)
    events = make_stream(num_events=400, seed=13)
    reference = reference_matches(pattern, events)
    got = HypersonicEngine(pattern, num_units=units).run(events)
    assert_equivalent(reference, got, f"units={units}")


def test_fusion_matches_sequential():
    pattern = Pattern.sequence(["A", "B", "C", "D"], window=6.0)
    events = make_stream(num_events=400, seed=14)
    reference = reference_matches(pattern, events)
    config = HypersonicConfig(force_fusion_pairs=((1, 2),))
    engine = HypersonicEngine(pattern, num_units=6, config=config)
    got = engine.run(events)
    assert_equivalent(reference, got, "fusion")
    assert engine.fusion_plan is not None
    assert (1, 2) in engine.fusion_plan.groups


def test_fused_agent_counts_toward_global_match_floor():
    """A match queued at a fused agent is alive: the downstream guarded
    agent's system-wide floor (which bounds its guard-event purge) must
    see it."""
    pattern = Pattern.sequence(
        ["A", "B", "C", "D", "X", "E"], window=6.0, negated=[4]
    )
    config = HypersonicConfig(force_fusion_pairs=((1, 2),))
    engine = HypersonicEngine(pattern, num_units=8, config=config)
    engine.ensure_statistics(make_stream(num_events=200, seed=14))
    engine.build()
    assert engine.fusion_plan.groups[0] == (1, 2)
    fused, guarded = engine.agents[0], engine.agents[2]
    assert guarded.internal_guards
    assert guarded.global_floor() == float("inf")
    seed = PartialMatch.of("p1", Event(EventType("A"), 3.0))
    fused.ms.push(WorkItem(ItemKind.MATCH, seed))
    assert guarded.global_floor() == 3.0


def test_detect_hybrid_wrapper():
    pattern = Pattern.sequence(["A", "B"], window=4.0)
    events = make_stream(num_events=200, seed=15)
    reference = reference_matches(pattern, events)
    got = detect_hybrid(pattern, events, num_units=4)
    assert_equivalent(reference, got)


def test_deterministic_given_seed():
    pattern = Pattern.sequence(["A", "B", "C"], window=6.0)
    events = make_stream(num_events=300, seed=16)
    first = HypersonicEngine(
        pattern, 8, config=HypersonicConfig(agent_dynamic=True)
    ).run(events)
    second = HypersonicEngine(
        pattern, 8, config=HypersonicConfig(agent_dynamic=True)
    ).run(events)
    assert {m.key for m in first} == {m.key for m in second}
    assert len(first) == len(second)


class TestEngineValidation:
    def test_non_seq_rejected(self):
        with pytest.raises(PatternError):
            HypersonicEngine(Pattern.conjunction(["A", "B"], window=1.0), 4)

    def test_single_stage_rejected(self):
        with pytest.raises(PatternError):
            HypersonicEngine(Pattern.sequence(["A"], window=1.0), 4)

    def test_kleene_first_rejected(self):
        with pytest.raises(PatternError):
            HypersonicEngine(
                Pattern.sequence(["A", "B"], window=1.0, kleene=[0]), 4
            )

    def test_zero_units_rejected(self):
        with pytest.raises(AllocationError):
            HypersonicEngine(Pattern.sequence(["A", "B"], window=1.0), 0)

    def test_run_twice_rejected(self):
        engine = HypersonicEngine(Pattern.sequence(["A", "B"], window=1.0), 4)
        engine.run(make_stream(num_events=50, seed=17))
        with pytest.raises(AllocationError):
            engine.run(make_stream(num_events=50, seed=17))

    def test_stalled_pipeline_names_stuck_agent(self, monkeypatch):
        select = WorkerPolicy.select

        def starve_second_agent(policy, unit, now=float("inf")):
            if unit.current_agent == 1:
                return None
            return select(policy, unit, now)

        monkeypatch.setattr(WorkerPolicy, "select", starve_second_agent)
        engine = HypersonicEngine(
            Pattern.sequence(["A", "B", "C"], window=6.0), 4
        )
        with pytest.raises(AllocationError, match=r"stalled .*A1"):
            engine.run(make_stream(num_events=200, seed=17))


class TestMetrics:
    def test_counters_populated(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=6.0)
        events = make_stream(num_events=300, seed=18)
        simulation = HypersonicSimulation(pattern, 6)
        locks: list[int] = []
        cost_of = simulation._cost_of

        def spy(receipt):
            locks.append(receipt.fragments_locked)
            return cost_of(receipt)

        simulation._cost_of = spy
        result = simulation.run(events)
        # SimResult.events counts routed events; the splitter drops the
        # types the pattern does not reference.
        routed = sum(1 for e in events if e.type.name in {"A", "B", "C"})
        assert result.events == routed
        assert result.events + simulation.engine.splitter.events_dropped == (
            len(events)
        )
        assert result.matches == len(simulation.matches)
        assert sum(result.extra["per_agent_items"]) > 0
        assert result.total_comparisons > 0
        assert sum(locks) > 0
        assert result.peak_memory_bytes > 0
        assert len(result.extra["per_agent_items"]) == 2

    def test_allocation_plan_exposed(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=6.0)
        engine = HypersonicEngine(pattern, 6)
        engine.run(make_stream(num_events=200, seed=19))
        assert engine.allocation_plan is not None
        assert sum(engine.allocation_plan.per_agent) == 6
