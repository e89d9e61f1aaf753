"""Differential suite: every execution strategy, one match set.

Randomized (seeded) small workloads are run through the sequential
reference engine, the hybrid :class:`HypersonicSimulation`, and every
partition baseline; all of them must emit *exactly* the same match set —
keys, not just counts.  The grid is then repeated with fitted cost
parameters (from :func:`repro.costmodel.fitting.fit_from_trace` on a
trace of the same workload) standing in for the defaults: cost constants
steer allocation and the virtual clock, never correctness, so tuning can
be deployed without re-validating detection semantics.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    JSQEngine,
    LLSFEngine,
    RIPEngine,
    RREngine,
    StateParallelEngine,
)
from repro.core import Pattern
from repro.core.errors import StreamError
from repro.costmodel import CostParameters, fit_from_trace
from repro.hypersonic.engine import HypersonicConfig, detect_hybrid
from repro.obs import TraceRecorder
from repro.simulator import STRATEGIES, simulate
from repro.simulator.hypersonic_sim import HypersonicSimulation

from tests.conftest import make_stream, reference_matches

#: (pattern, stream seed) grid — small enough that the full differential
#: matrix stays in test-suite time, varied enough to cross chunk/segment
#: boundaries and exercise kleene + negation ownership rules.
WORKLOADS = [
    (Pattern.sequence(["A", "B", "C"], window=6.0), 0),
    (Pattern.sequence(["A", "B", "C"], window=6.0), 11),
    (Pattern.sequence(["A", "B"], window=3.0), 2),
    (Pattern.sequence(["A", "B", "C"], window=5.0, kleene=[1]), 3),
    (Pattern.sequence(["A", "X", "B", "C"], window=6.0, negated=[1]), 4),
]

NUM_EVENTS = 180
NUM_UNITS = 4


def workload(seed: int):
    return make_stream(num_events=NUM_EVENTS, seed=seed)


def reference_keys(pattern, events) -> set:
    return {match.key for match in reference_matches(pattern, events)}


def fitted_parameters(pattern, events) -> CostParameters:
    """Cost constants fitted to a trace of this very workload."""
    recorder = TraceRecorder()
    simulate(
        "hypersonic", pattern, events, num_cores=NUM_UNITS, seed=7,
        tracer=recorder,
    )
    fit = fit_from_trace(recorder)
    return fit.parameters if fit is not None else CostParameters()


def partition_engines(pattern):
    return [
        RIPEngine(pattern, NUM_UNITS, chunk_size=32),
        RREngine(pattern, NUM_UNITS),
        JSQEngine(pattern, NUM_UNITS),
        LLSFEngine(pattern, NUM_UNITS),
    ]


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
def test_partition_baselines_match_sequential(pattern, seed):
    events = workload(seed)
    expected = reference_keys(pattern, events)
    for engine in partition_engines(pattern):
        produced = {match.key for match in engine.run(events)}
        assert produced == expected, type(engine).__name__
    state = StateParallelEngine(pattern)
    assert {match.key for match in state.run(events)} == expected


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
@pytest.mark.parametrize("tuned", [False, True],
                         ids=["default_costs", "fitted_costs"])
def test_hypersonic_simulation_matches_sequential(pattern, seed, tuned):
    events = workload(seed)
    expected = reference_keys(pattern, events)
    model = fitted_parameters(pattern, events) if tuned else None
    sim = HypersonicSimulation(
        pattern, NUM_UNITS, model_costs=model
    )
    sim.run(events)
    assert {match.key for match in sim.matches} == expected


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
def test_hybrid_detection_time_is_stream_time(pattern, seed):
    """``detect_hybrid`` stamps matches in stream time, not virtual time:
    detection never precedes the match's latest event nor follows the
    later of the stream end and the match's window close."""
    events = workload(seed)
    last = events[-1].timestamp
    matches = detect_hybrid(pattern, events, num_units=NUM_UNITS)
    assert matches
    for match in matches:
        assert match.latest <= match.detected_at
        assert match.detected_at <= max(last, match.earliest + pattern.window)


PARTITION_ENGINE_NAMES = ["RIPEngine", "RREngine", "JSQEngine", "LLSFEngine"]


@pytest.mark.parametrize("runner", [*STRATEGIES, *PARTITION_ENGINE_NAMES])
def test_out_of_order_stream_is_rejected(runner):
    """One swapped pair of events raises StreamError on every simulated
    strategy and every partition engine's ``run``."""
    pattern, seed = WORKLOADS[0]
    events = workload(seed)
    middle = len(events) // 2
    events[middle], events[middle + 1] = events[middle + 1], events[middle]
    with pytest.raises(StreamError):
        if runner in STRATEGIES:
            simulate(runner, pattern, events, num_cores=NUM_UNITS, seed=7)
        else:
            engine = partition_engines(pattern)[
                PARTITION_ENGINE_NAMES.index(runner)
            ]
            engine.run(events)


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
@pytest.mark.parametrize("tuned", [False, True],
                         ids=["default_costs", "fitted_costs"])
def test_simulated_strategies_agree_on_match_count(pattern, seed, tuned):
    """The simulated grid (virtual clock on) under default and fitted
    constants: every strategy detects exactly the reference count."""
    events = workload(seed)
    expected = len(reference_keys(pattern, events))
    costs = fitted_parameters(pattern, events) if tuned else None
    for strategy in STRATEGIES:
        kwargs = {}
        if strategy == "rip":
            kwargs["chunk_size"] = 32
        result = simulate(
            strategy, pattern, events, num_cores=NUM_UNITS, costs=costs,
            seed=7, **kwargs,
        )
        assert result.matches == expected, strategy


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
@pytest.mark.parametrize("batch_size", [2, 7, 64])
def test_batched_hypersonic_matches_scalar_oracle(pattern, seed, batch_size):
    """Batched execution (splitter and agents grouping up to batch_size
    items per turn) must emit exactly the scalar oracle's match-key set."""
    events = workload(seed)
    expected = reference_keys(pattern, events)
    sim = HypersonicSimulation(pattern, NUM_UNITS, batch_size=batch_size)
    sim.run(events)
    assert {match.key for match in sim.matches} == expected


@pytest.mark.parametrize("pattern,seed", WORKLOADS[:2])
def test_all_strategies_accept_batch_size(pattern, seed):
    """`simulate(..., batch_size=64)` is valid for all seven strategies
    (a documented no-op for the event-major partition simulators) and
    never changes the detected match count."""
    events = workload(seed)
    expected = len(reference_keys(pattern, events))
    for strategy in STRATEGIES:
        kwargs = {}
        if strategy == "rip":
            kwargs["chunk_size"] = 32
        result = simulate(
            strategy, pattern, events, num_cores=NUM_UNITS, seed=7,
            batch_size=64, **kwargs,
        )
        assert result.matches == expected, strategy


@pytest.mark.parametrize("pattern,seed", [
    (Pattern.sequence(["A", "B", "C"], window=6.0), 0),
    (Pattern.sequence(["A", "B", "C", "D"], window=6.0), 5),
])
@pytest.mark.parametrize("batch_size", [1, 2, 16])
def test_fused_batched_matches_scalar_oracle(pattern, seed, batch_size):
    """Fused agents (MB1/EB1 + MB2/EB2 cores) under batched execution:
    grouping items into turns across both stages must reproduce exactly
    the scalar match-key set, including the batch_size=1 degenerate.

    Fusion only moves the internal boundary inside one agent, so with
    agent dynamics on or off the fused run must also report the same
    match count and the same total comparisons as the unfused run."""
    events = workload(seed)
    expected = reference_keys(pattern, events)
    for agent_dynamic in (False, True):
        fused_config = HypersonicConfig(
            fusion=True, force_fusion_pairs=((1, 2),),
            agent_dynamic=agent_dynamic,
        )
        sim = HypersonicSimulation(
            pattern, NUM_UNITS, config=fused_config, batch_size=batch_size
        )
        fused = sim.run(events)
        assert {match.key for match in sim.matches} == expected
        plain = HypersonicSimulation(
            pattern, NUM_UNITS,
            config=HypersonicConfig(agent_dynamic=agent_dynamic),
            batch_size=batch_size,
        ).run(events)
        assert fused.matches == plain.matches
        assert fused.total_comparisons == plain.total_comparisons


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
def test_adaptive_closed_loop_preserves_match_set(pattern, seed):
    """``adapt="on"`` without shedding re-allocates and links agents but
    must never change *what* is detected — same keys as the oracle."""
    events = workload(seed)
    expected = reference_keys(pattern, events)
    sim = HypersonicSimulation(pattern, NUM_UNITS, adapt="on")
    sim.run(events)
    assert {match.key for match in sim.matches} == expected


def test_batched_results_reproducible():
    """Two batched simulations of one stream are bit-identical — same
    matches, same virtual clock."""
    pattern, seed = WORKLOADS[0]
    events = workload(seed)

    def run() -> tuple:
        sim = HypersonicSimulation(pattern, NUM_UNITS, batch_size=16)
        result = sim.run(events)
        keys = tuple(sorted(match.key for match in sim.matches))
        return (result.throughput, result.total_time, keys)

    assert run() == run()


def test_fitted_parameters_differ_from_defaults():
    """Sanity: the fitted-costs leg of the grid is not vacuously the
    default-costs leg again."""
    pattern, seed = WORKLOADS[0]
    events = workload(seed)
    fitted = fitted_parameters(pattern, events)
    assert fitted != CostParameters()


# --------------------------------------------------------------------- #
# Brute-force oracle differential                                        #
# --------------------------------------------------------------------- #
#
# The oracle (tests/oracle.py) evaluates patterns by definition and
# shares no code with any engine.  Every cell of this grid — operator
# (Kleene/NEG) x selection/consumption policy x window x dataset — must
# produce *identical match-key sets* across the oracle, the sequential
# reference, the hybrid simulation (scalar and batched), and every
# partition baseline.

def _policy_variants(types, window, **base):
    variants = []
    for selection in ("skip-till-any-match", "skip-till-next-match"):
        for consumption in ("reuse", "consume"):
            variants.append(Pattern.sequence(
                types, window=window, selection=selection,
                consumption=consumption, **base,
            ))
    return variants


def _trip_workload(seed: int):
    from repro.datasets.trips import TripConfig, generate_trip_stream

    return list(generate_trip_stream(TripConfig(
        num_trips=30, num_bikes=4, dropout=0.3, seed=seed,
    )))


def _oracle_cells():
    cells = []
    for window in (4.0, 6.0):
        for pattern in _policy_variants(["A", "B", "C"], window, kleene=[1]):
            cells.append((pattern, "synthetic", 3))
        for pattern in _policy_variants(
            ["A", "X", "B"], window, negated=[1]
        ):
            cells.append((pattern, "synthetic", 4))
    from repro.workloads.queries import trip_chain_query, trip_negation_query

    for builder in (trip_chain_query, trip_negation_query):
        for selection, consumption in (
            (None, None), ("skip-till-next-match", "consume"),
        ):
            spec = builder(
                4.0, selection=selection, consumption=consumption
            )
            cells.append((spec.pattern, "trips", 9))
    return cells


def _oracle_cell_id(cell):
    pattern, dataset, _ = cell
    shape = (
        "kleene" if any(i.is_kleene for i in pattern.items)
        else "negation" if any(i.is_negated for i in pattern.items)
        else "seq"
    )
    return (
        f"{dataset}-{shape}-w{pattern.window:g}-"
        f"{pattern.selection.value}-{pattern.consumption.value}"
    )


ORACLE_CELLS = _oracle_cells()


def _oracle_events(dataset: str, seed: int):
    if dataset == "trips":
        return _trip_workload(seed)
    return make_stream(num_events=120, seed=seed)


@pytest.mark.parametrize(
    "pattern,dataset,seed", ORACLE_CELLS,
    ids=[_oracle_cell_id(cell) for cell in ORACLE_CELLS],
)
def test_every_engine_matches_the_oracle(pattern, dataset, seed):
    from tests.oracle import oracle_keys

    events = _oracle_events(dataset, seed)
    expected = oracle_keys(pattern, events)
    assert reference_keys(pattern, events) == expected
    for engine in partition_engines(pattern):
        produced = {match.key for match in engine.run(events)}
        assert produced == expected, type(engine).__name__
    state = StateParallelEngine(pattern)
    assert {match.key for match in state.run(events)} == expected
    for batch_size in (1, 16):
        sim = HypersonicSimulation(
            pattern, NUM_UNITS, batch_size=batch_size
        )
        sim.run(events)
        produced = {match.key for match in sim.matches}
        assert produced == expected, f"batch_size={batch_size}"


def test_oracle_grid_is_not_degenerate():
    """At least one Kleene, one negation, and one trips cell of the grid
    produce matches — otherwise the differential above proves nothing."""
    from tests.oracle import oracle_keys

    populated = set()
    for pattern, dataset, seed in ORACLE_CELLS:
        if oracle_keys(pattern, _oracle_events(dataset, seed)):
            shape = (
                "kleene" if any(i.is_kleene for i in pattern.items)
                else "negation"
            )
            populated.add(shape)
            populated.add(dataset)
    assert {"kleene", "negation", "synthetic", "trips"} <= populated
