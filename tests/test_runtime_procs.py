"""Tests for the wall-clock multiprocessing backend.

Fast, deterministic pieces (slicing, pickling, constructor validation)
run in tier-1.  Anything that spawns real worker processes or reads real
clocks is marked ``wallclock`` and runs in CI's dedicated smoke job (3x,
as a flakiness guard) — match-key sets are still exact there; only the
timings vary.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from tests.conftest import make_stream, reference_matches
from repro.core import Event, EventType, Pattern
from repro.core.errors import EngineError, PatternError
from repro.core.matches import Match, PartialMatch
from repro.core.nfa import compile_pattern
from repro.datasets.stocks import StockConfig, generate_stock_stream
from repro.datasets.trips import TripConfig, generate_trip_stream
from repro.hypersonic.agent import AgentCore
from repro.hypersonic.items import ItemKind, WorkItem
from repro.obs.tracer import TraceEvent, TraceRecorder
from repro.runtime.procs import (
    ProcsPipelineEngine,
    _next_queue,
    agent_slices,
    partial_size,
)
from repro.workloads.queries import (
    sensor_sequence_query,
    stock_sequence_query,
    trip_sequence_query,
)


def stock_case(num_events: int = 400, seed: int = 21):
    events = generate_stock_stream(StockConfig(
        num_events=num_events,
        symbols=("S0", "S1", "S2", "S3"),
        rates=0.6,
        seed=seed,
    ))
    spec = stock_sequence_query(
        ("S0", "S1", "S2"), 20.0, events[:200], selectivity=0.3
    )
    return spec.pattern, events


def trip_case(num_trips: int = 120, seed: int = 4):
    events = generate_trip_stream(TripConfig(
        num_trips=num_trips, num_bikes=6, seed=seed,
    ))
    return trip_sequence_query(40.0).pattern, events


# --------------------------------------------------------------------- #
# Tier-1: deterministic pieces, no processes                             #
# --------------------------------------------------------------------- #


class TestAgentSlices:
    def test_covers_all_agents_contiguously(self):
        for num_agents in range(1, 9):
            for procs in range(1, 12):
                slices = agent_slices(num_agents, procs)
                assert slices[0][0] == 0
                assert slices[-1][1] == num_agents
                for (_, hi), (lo, _) in zip(slices, slices[1:]):
                    assert hi == lo

    def test_near_equal_split(self):
        slices = agent_slices(7, 3)
        sizes = [hi - lo for lo, hi in slices]
        assert sizes == [3, 2, 2]

    def test_procs_capped_at_num_agents(self):
        assert len(agent_slices(2, 8)) == 2

    def test_rejects_zero_agents(self):
        with pytest.raises(EngineError):
            agent_slices(0, 2)


class TestPartialSize:
    def test_counts_scalar_and_kleene_bindings(self):
        a = Event(EventType("A"), 1.0, {})
        b1 = Event(EventType("B"), 2.0, {})
        b2 = Event(EventType("B"), 3.0, {})
        partial = PartialMatch(
            binding={"p1": a, "p2": (b1, b2)}, earliest=1.0, latest=3.0
        )
        assert partial_size(partial) == 3


class TestPickleRoundTrips:
    """Everything a worker boundary ships must survive pickling intact —
    the substrate of spawn-mode correctness."""

    def test_event_round_trip(self):
        event = Event(EventType("A"), 1.5, {"x": 3}, payload_size=64)
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event
        assert clone.attributes == event.attributes

    def test_partial_match_round_trip(self):
        a = Event(EventType("A"), 1.0, {"x": 1})
        b = Event(EventType("B"), 2.0, {"x": 2})
        partial = PartialMatch.of("p1", a).extended("p2", b)
        clone = pickle.loads(pickle.dumps(partial))
        assert clone.binding["p1"] == a
        assert clone.earliest == partial.earliest
        assert clone.latest == partial.latest

    def test_match_round_trip_preserves_key(self):
        a = Event(EventType("A"), 1.0, {})
        partial = PartialMatch.of("p1", a)
        match = Match.from_partial(partial, detected_at=1.0)
        assert pickle.loads(pickle.dumps(match)).key == match.key

    def test_work_item_round_trip(self):
        item = WorkItem(ItemKind.EVENT, Event(EventType("A"), 1.0, {}))
        clone = pickle.loads(pickle.dumps(item))
        assert clone.kind is ItemKind.EVENT
        assert clone.payload.timestamp == 1.0

    def test_trace_event_round_trip(self):
        event = TraceEvent("unit_busy", 0.5, dur=0.1, unit=1, agent=1,
                           args={"role": "event", "item": "event"})
        assert pickle.loads(pickle.dumps(event)) == event

    def test_stock_and_trip_patterns_picklable(self):
        for pattern in (stock_case()[0], trip_case()[0]):
            clone = pickle.loads(pickle.dumps(pattern))
            assert clone.describe() == pattern.describe()


class TestDrainOrder:
    """A worker pops a queued guard first, then the older of its ES and MS
    heads in event time, ties going to the event."""

    @staticmethod
    def agent():
        nfa = compile_pattern(Pattern.sequence(["A", "B", "C"], window=5.0))
        return AgentCore(
            agent_index=0, stages=nfa.stages, stage_index=1, window=5.0,
            watermark=lambda: float("-inf"), is_last=False,
        )

    @staticmethod
    def event(name: str, ts: float) -> Event:
        return Event(EventType(name), ts, {})

    def fill(self, agent, events=(), seeds=(), guards=()):
        for ts in events:
            agent.es.push(WorkItem.event(self.event("B", ts)))
        for ts in seeds:
            agent.ms.push(WorkItem.match(
                PartialMatch.of("p1", self.event("A", ts))
            ))
        for ts in guards:
            agent.guard_q.push(WorkItem.guard(self.event("X", ts)))

    def test_ready_guard_beats_both_heads(self):
        agent = self.agent()
        self.fill(agent, events=[1.0], seeds=[0.5], guards=[9.0])
        assert _next_queue(agent) is agent.guard_q

    def test_tie_goes_to_the_event(self):
        agent = self.agent()
        self.fill(agent, events=[3.0], seeds=[3.0])
        assert _next_queue(agent) is agent.es

    def test_drain_interleaves_in_event_time(self):
        agent = self.agent()
        self.fill(agent, events=[1.0, 3.0, 5.0], seeds=[2.0, 3.0, 6.0],
                  guards=[7.0])
        order = []
        while (source := _next_queue(agent)) is not None:
            item = source.pop()
            order.append((item.kind.value, item.event_timestamp))
        assert order == [
            ("guard", 7.0), ("event", 1.0), ("match", 2.0), ("event", 3.0),
            ("match", 3.0), ("event", 5.0), ("match", 6.0),
        ]


class TestConstructorValidation:
    def test_rejects_non_seq_pattern(self):
        with pytest.raises(PatternError):
            ProcsPipelineEngine(Pattern.conjunction(["A", "B"], window=5.0))

    def test_rejects_single_stage(self):
        with pytest.raises(PatternError):
            ProcsPipelineEngine(Pattern.sequence(["A"], window=5.0))

    @pytest.mark.parametrize("kwargs", [
        {"procs": 0},
        {"queue_capacity": 0},
        {"batch_size": 0},
        {"wm_interval": 0},
    ])
    def test_rejects_nonpositive_knobs(self, kwargs):
        pattern = Pattern.sequence(["A", "B", "C"], window=5.0)
        with pytest.raises(EngineError):
            ProcsPipelineEngine(pattern, **kwargs)

    def test_spawn_rejects_closure_conditions_with_clear_error(self):
        # Sensor queries close over a lambda-style predicate; under spawn
        # the pattern must be pickled, so the engine fails fast with a
        # message naming the cause instead of dying inside a worker.
        from repro.datasets.sensors import SensorConfig, generate_sensor_stream

        sample = generate_sensor_stream(SensorConfig(num_events=300, seed=2))
        types = sorted({event.type.name for event in sample})[:3]
        spec = sensor_sequence_query(tuple(types), 10.0, sample)
        engine = ProcsPipelineEngine(spec.pattern, start_method="spawn")
        with pytest.raises(EngineError, match="picklable"):
            engine.run(sample[:10])

    def test_run_only_once(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=5.0)
        engine = ProcsPipelineEngine(pattern, procs=1)
        engine._ran = True
        with pytest.raises(EngineError):
            engine.run([])


# --------------------------------------------------------------------- #
# Wall-clock: real worker processes                                      #
# --------------------------------------------------------------------- #


GRID = [
    pytest.param(case, {"batch_size": batch}, method,
                 id=f"{case}-batch{batch}-{method}")
    for case in ("stocks", "trips")
    for batch in (1, 16)
    for method in ("fork", "spawn")
] + [
    # Backpressure: one frame in flight per inbox.
    pytest.param(case, {"queue_capacity": 1, "wm_interval": interval},
                 method, id=f"{case}-cap1-wm{interval}-{method}")
    for case in ("stocks", "trips")
    for interval in (1, 7)
    for method in ("fork", "spawn")
]


@pytest.mark.wallclock
class TestDifferential:
    """Acceptance grid: the procs backend's match-key set is identical to
    the sequential engine on stocks + trips, batch 1 and 16, and under
    backpressure at watermark intervals 1 and 7, under both fork and
    spawn."""

    @pytest.mark.parametrize("case,knobs,method", GRID)
    def test_match_key_parity(self, case, knobs, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method} unavailable")
        pattern, events = stock_case() if case == "stocks" else trip_case()
        want = {m.key for m in reference_matches(pattern, events)}
        engine = ProcsPipelineEngine(
            pattern, procs=2, start_method=method, **knobs,
        )
        got = {m.key for m in engine.run(events, timeout=120.0)}
        assert got == want

    def test_negation_parity(self):
        pattern = Pattern.sequence(
            ["A", "X", "B", "C"], window=6.0, negated=[1]
        )
        events = make_stream(num_events=300, seed=5)
        want = {m.key for m in reference_matches(pattern, events)}
        engine = ProcsPipelineEngine(pattern, procs=3)
        got = {m.key for m in engine.run(events, timeout=120.0)}
        assert got == want

    def test_kleene_parity(self):
        pattern = Pattern.sequence(
            ["A", "B", "C"], window=5.0, kleene=[1]
        )
        events = make_stream(num_events=250, seed=8)
        want = {m.key for m in reference_matches(pattern, events)}
        engine = ProcsPipelineEngine(pattern, procs=2)
        got = {m.key for m in engine.run(events, timeout=120.0)}
        assert got == want


@pytest.mark.wallclock
class TestRobustness:
    def test_worker_crash_raises_clean_error(self):
        pattern, events = stock_case()
        engine = ProcsPipelineEngine(pattern, procs=2,
                                     _crash_worker=(1, 5))
        with pytest.raises(EngineError, match="worker process"):
            engine.run(events, timeout=60.0)

    def test_crash_in_first_worker_detected_too(self):
        pattern, events = stock_case()
        engine = ProcsPipelineEngine(pattern, procs=2,
                                     _crash_worker=(0, 3))
        with pytest.raises(EngineError, match="worker process"):
            engine.run(events, timeout=60.0)

    def test_no_leaked_children_after_run(self):
        pattern, events = stock_case(num_events=200)
        engine = ProcsPipelineEngine(pattern, procs=2)
        engine.run(events, timeout=60.0)
        assert multiprocessing.active_children() == []

    def test_no_leaked_children_after_crash(self):
        pattern, events = stock_case(num_events=200)
        engine = ProcsPipelineEngine(pattern, procs=2,
                                     _crash_worker=(1, 5))
        with pytest.raises(EngineError):
            engine.run(events, timeout=60.0)
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
        assert multiprocessing.active_children() == []


@pytest.mark.wallclock
class TestMeasuredTrace:
    def test_trace_schema_and_fitting(self):
        from repro.costmodel.fitting import fit_from_trace
        from repro.obs.calibration import calibration_report

        pattern, events = stock_case(num_events=600)
        tracer = TraceRecorder()
        engine = ProcsPipelineEngine(pattern, procs=2, tracer=tracer)
        engine.run(events, timeout=120.0)

        kinds = {event.kind for event in tracer.events}
        assert "alloc_plan" in kinds and "unit_busy" in kinds
        spans = [e for e in tracer.events if e.kind == "unit_busy"]
        assert all(e.dur >= 0.0 and e.ts >= 0.0 for e in spans)
        # The measured trace replays through the same analysis passes as
        # a simulated one.
        report = calibration_report(tracer.events)
        assert report is not None
        fit = fit_from_trace(tracer)
        assert fit is not None
        params = fit.parameters.as_dict()
        assert params["comm_event"] >= 0.0
        assert params["comm_match"] >= 0.0
        assert params["comm_event"] == params["comm_event"]  # not NaN
        assert params["comm_match"] == params["comm_match"]

    def test_result_carries_comm_volumes(self):
        pattern, events = stock_case(num_events=300)
        engine = ProcsPipelineEngine(pattern, procs=2)
        engine.run(events, timeout=60.0)
        comm = engine.result.extra["comm"]
        assert sum(comm["events_in"]) > 0
        assert sum(comm["match_pointers_in"]) > 0
        # The last agent never forwards over IPC.
        assert comm["match_pointers_out"][-1] == 0

    @pytest.mark.parametrize("case", ["stocks", "trips"])
    def test_comm_counts_independent_of_frame_size(self, case):
        pattern, events = stock_case() if case == "stocks" else trip_case()
        comms = []
        for interval in (1, 64):
            engine = ProcsPipelineEngine(pattern, procs=2,
                                         wm_interval=interval)
            engine.run(events, timeout=120.0)
            comms.append(engine.result.extra["comm"])
        assert comms[0] == comms[1]
        assert sum(comms[0]["match_pointers_out"]) > 0


@pytest.mark.wallclock
class TestRunnerIntegration:
    def test_simulate_backend_procs(self):
        from repro.simulator import simulate

        pattern, events = stock_case(num_events=300)
        result = simulate(
            "hypersonic", pattern, events, num_cores=2, backend="procs",
        )
        assert result.extra["backend"] == "procs"
        assert result.matches == len(
            reference_matches(pattern, events)
        )

    def test_wallclock_scenario_reports_parity(self):
        from repro.bench.wallclock import run_wallclock

        report = run_wallclock(num_events=800, procs=2)
        assert report.match_parity
        assert report.fitted_comm is None or (
            report.fitted_comm["comm_event"] >= 0.0
            and report.fitted_comm["comm_match"] >= 0.0
        )
