"""Benchmark regression trajectory: record, validate, compare.

Every perf-relevant PR can pin its effect on the reproduction by running

    python -m repro bench --record

which executes the fig7/fig8-scale scenarios at a pinned seed, writes a
``BENCH_<date>.json`` snapshot (throughput, p50/p95 latency, match count,
and the cost-model calibration error per strategy), and compares it
against the newest previous snapshot in the same directory.  A throughput
drop beyond :data:`DEFAULT_THRESHOLD` on any (scenario, strategy) cell
fails the comparison; CI runs the comparator in warn-only mode on a
reduced scale (``--quick``) so the trajectory accumulates without gating
unrelated changes.

Everything here is deterministic for a fixed seed: identical re-runs
produce identical snapshots, which the tests assert.
"""

from __future__ import annotations

import datetime
import json
import os
import re
from typing import Mapping

from repro.bench.harness import (
    BenchScale,
    DEFAULT_SCALE,
    build_query,
    bursty_stock_events,
    compare_strategies,
    default_cache,
    default_costs,
    sensor_events,
    shifted_stock_events,
    skewed_stock_events,
    stock_events,
    trip_events,
)
from repro.costmodel.model import CostParameters
from repro.engine.sequential import detect
from repro.obs import MetricsRegistry, TraceRecorder, populate_from_summary
from repro.simulator import simulate
from repro.simulator.metrics import SimResult

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SUPPORTED_SCHEMAS",
    "DEFAULT_THRESHOLD",
    "run_bench",
    "validate_snapshot",
    "write_snapshot",
    "latest_snapshot",
    "compare_snapshots",
    "format_snapshot",
]

#: Version tag embedded in every snapshot; bump on layout changes.
#: Schema 2 added the sensors-dataset scenario and the optional
#: ``tuned_parameters`` block.  Schema 3 added the batched_throughput
#: scenario (hypersonic at batch_size 1 vs batch_size 64).
#: Schema 4 added the skewed/shifted stock variants and the
#: adaptation_recall scenario (static tail-shedding vs the runtime
#: control plane's pattern shedding under paced overload).  Schema 5
#: added the recall_latency_frontier scenario (the adaptive runtime's
#: recall-vs-p95-latency trade-off swept over the shed bound).  Schema 6
#: added the kleene_throughput scenario (trip-chain dataset, the natural
#: ``SEQ(start, ride+, end)`` Kleene query, with the benched match set's
#: Kleene binding-length distribution recorded alongside the cells).
SNAPSHOT_SCHEMA = 6

#: Snapshot versions the validator and comparator accept.  Old snapshots
#: stay loadable so the trajectory spans the bumps; scenarios a baseline
#: lacks are skipped, not failed.
SUPPORTED_SCHEMAS = (1, 2, 3, 4, 5, 6)

#: Relative throughput drop that fails the comparison.
DEFAULT_THRESHOLD = 0.15

_SNAPSHOT_PATTERN = re.compile(r"^BENCH_.*\.json$")

#: The names :func:`write_snapshot` gives an ISO-dated snapshot:
#: ``BENCH_<date>.json``, then ``BENCH_<date>.<N>.json`` on the same date.
_DATED_SNAPSHOT = re.compile(r"^BENCH_(\d{4}-\d{2}-\d{2})(?:\.(\d+))?\.json$")

#: Strategy sets of the two scenarios (the paper's Figures 7 and 8).
_THROUGHPUT_STRATEGIES = ("sequential", "hypersonic", "state", "rip", "llsf")
_LATENCY_STRATEGIES = ("sequential", "hypersonic", "rip", "llsf")

#: Offered load of the fig8-style paced scenario, as a fraction of
#: HYPERSONIC's measured capacity (the paper paces all strategies at a
#: common sustainable rate).
_LATENCY_LOAD = 0.7

#: Items per agent turn in the batched_throughput scenario's batched row
#: (schema 3).
_BATCH_SIZE = 64

#: kleene_throughput (schema 6): window of the trip-chain Kleene query,
#: in trip-stream time units.  Roughly one bike rental cycle (idle gap
#: 8.0, ride gap 0.5), so chains stay single-trip but the STAM subset
#: enumeration still produces bindings a dozen pings long.
_TRIP_WINDOW = 4.0

#: adaptation_recall (schema 4): offered load as a multiple of measured
#: capacity (overload, unlike the fig8 fraction), phase count of the
#: bursty stream, and the shed bound in units of the core count.
_ADAPT_LOAD = 1.6
_ADAPT_PHASES = 4
_ADAPT_BOUND_PER_CORE = 2

#: recall_latency_frontier (schema 5): shed bounds swept, in units of the
#: core count.  Tighter bounds shed more (lower recall, lower latency);
#: looser bounds admit more backlog (higher recall, higher latency) —
#: recall along the sweep must be non-decreasing or the shedder is broken.
_FRONTIER_BOUNDS_PER_CORE = (1, 2, 4, 8)


def _strategy_record(result: SimResult) -> dict:
    """The per-strategy snapshot cell, from one traced SimResult."""
    obs = result.extra.get("obs", {})
    breakdown = obs.get("latency_breakdown", {})
    end_to_end = breakdown.get("end_to_end", {})
    calibration = obs.get("calibration")
    return {
        "throughput": result.throughput,
        "p50_latency": end_to_end.get("p50", 0.0),
        "p95_latency": result.p95_latency,
        "avg_latency": result.avg_latency,
        "matches": result.matches,
        "total_time": result.total_time,
        "peak_memory_bytes": result.peak_memory_bytes,
        "calibration_error": (
            calibration["mean_abs_relative_error"]
            if calibration is not None else None
        ),
        "calibration_verdict": (
            calibration["verdict"] if calibration is not None else None
        ),
    }


def _adaptation_record(result: SimResult, reference_matches: int) -> dict:
    """An adaptation_recall cell: the standard record plus recall against
    the unshedded reference, shed accounting, and the decision count."""
    record = _strategy_record(result)
    record["recall"] = (
        result.matches / reference_matches if reference_matches else 0.0
    )
    shed = result.extra.get("shed")
    record["shed_total"] = shed["total"] if shed is not None else 0
    control = result.extra.get("control")
    record["decisions"] = (
        len(control["decisions"]) if control is not None else 0
    )
    return record


def run_bench(
    quick: bool = False,
    seed: int = DEFAULT_SCALE.seed,
    date: str | None = None,
    registry: MetricsRegistry | None = None,
    tuned_parameters: CostParameters | None = None,
    tracer_factory=None,
) -> dict:
    """Run the benchmark scenarios and return the snapshot dict.

    ``quick`` shrinks the workload and core count for CI smoke runs (the
    snapshot records which mode produced it, and the comparator refuses to
    compare across modes).  Passing a :class:`MetricsRegistry` additionally
    populates it with every run's obs summary for ``--metrics-out``.

    ``tuned_parameters`` (e.g. ``autotune(...).tuned``) adds a
    ``hypersonic_tuned`` row to the throughput scenarios — hypersonic
    planned with the tuned model against the shared world costs — and
    records the tuned constants in the snapshot, so the trajectory pins
    tuned-vs-default side by side.

    ``tracer_factory`` overrides the default per-run
    :class:`~repro.obs.tracer.TraceRecorder` with a custom tracer per
    benched run — ``repro bench --dashboard`` attaches live dashboards
    this way.  The factory receives a run label (the strategy name,
    prefixed for the sensors / paced scenarios) and must return an
    *enabled* tracer, since the snapshot cells read the traced obs
    summary.
    """
    scale = BenchScale(
        num_events=800 if quick else DEFAULT_SCALE.num_events, seed=seed
    )
    cores = 4 if quick else scale.base_cores
    # Quick mode shortens the pattern as well as the stream: the planted
    # correlation thresholds leave a length-4 query matchless under 3500
    # events, and a bench cell with zero matches pins nothing.
    length = 3 if quick else scale.base_length
    events = stock_events(scale)
    spec = build_query(
        "stocks", "seq", length, scale.base_window, events, scale
    )

    if tracer_factory is None:
        def tracer_factory(name: str) -> TraceRecorder:
            return TraceRecorder()

    throughput_results = compare_strategies(
        spec.pattern, events, cores=cores,
        strategies=_THROUGHPUT_STRATEGIES, scale=scale,
        tracer_factory=tracer_factory, seed=seed,
        tuned_parameters=tuned_parameters,
    )

    # Second dataset (schema 2): the synthetic sensor stream exercises a
    # different type alphabet and selectivity regime than the stock one.
    sensor_stream = sensor_events(scale)
    sensor_spec = build_query(
        "sensors", "seq", length, scale.base_window, sensor_stream, scale
    )
    sensor_results = compare_strategies(
        sensor_spec.pattern, sensor_stream, cores=cores,
        strategies=_THROUGHPUT_STRATEGIES, scale=scale,
        tracer_factory=lambda name: tracer_factory(f"sensors_{name}"),
        seed=seed, tuned_parameters=tuned_parameters,
    )

    # Kleene-closure throughput (schema 6): the trip-chain stream with the
    # natural SEQ(start, ride+, end) query.  This is the only scenario
    # whose inner loop is the Kleene self-loop (subset enumeration plus
    # per-element edge conditions), so it pins the closure path's
    # throughput directly.  compare_strategies' match-count equality check
    # doubles as the differential gate across all strategies, and the
    # sequential reference's Kleene binding-length distribution is
    # recorded so a snapshot diff shows *what* the closure matched, not
    # just how fast.
    trips = trip_events(scale)
    trip_spec = build_query(
        "trips", "kleene", length, _TRIP_WINDOW, trips, scale
    )
    kleene_results = compare_strategies(
        trip_spec.pattern, trips, cores=cores,
        strategies=_THROUGHPUT_STRATEGIES, scale=scale,
        tracer_factory=lambda name: tracer_factory(f"kleene_{name}"),
        seed=seed, tuned_parameters=tuned_parameters,
    )
    kleene_name = next(
        item.name for item in trip_spec.pattern.items if item.is_kleene
    )
    kleene_lengths: dict[str, int] = {}
    for match in detect(trip_spec.pattern, trips):
        key = str(len(match.binding[kleene_name]))
        kleene_lengths[key] = kleene_lengths.get(key, 0) + 1
    if sum(kleene_lengths.values()) != kleene_results["sequential"].matches:
        raise RuntimeError(
            "kleene_throughput reference disagrees with the benched runs: "
            f"{sum(kleene_lengths.values())} reference matches vs "
            f"{kleene_results['sequential'].matches} benched"
        )

    # Batched execution mode (schema 3): hypersonic at batch_size 1 vs the
    # same deployment grouping 64 items per turn, on the stock workload.
    # The rows share every knob except batch_size, so the cell pair pins
    # what grouping alone does to the virtual clock; the match counts must
    # agree (every item takes the same per-item join path).
    batched_results: dict[str, SimResult] = {}
    for label, batch_size in (("hypersonic", 1), ("hypersonic_batched", _BATCH_SIZE)):
        batched_results[label] = simulate(
            "hypersonic", spec.pattern, events, num_cores=cores,
            cache=default_cache(), costs=default_costs(),
            agent_dynamic=True, seed=seed, batch_size=batch_size,
            tracer=tracer_factory(f"batched_{label}"),
        )
    if (batched_results["hypersonic"].matches
            != batched_results["hypersonic_batched"].matches):
        raise RuntimeError(
            "batched execution changed the match count: "
            f"{batched_results['hypersonic'].matches} scalar vs "
            f"{batched_results['hypersonic_batched'].matches} batched"
        )

    # Skewed and regime-shifted stock variants (schema 4): the stationary
    # heterogeneous-rate stream judges outer allocation quality; the
    # mid-run rate rotation judges how strategies weather a regime the
    # build-time plan never saw.  Both reuse the fig7 query template.
    skewed_events = skewed_stock_events(scale)
    skewed_spec = build_query(
        "stocks", "seq", length, scale.base_window, skewed_events, scale
    )
    skewed_results = compare_strategies(
        skewed_spec.pattern, skewed_events, cores=cores,
        strategies=_THROUGHPUT_STRATEGIES, scale=scale,
        tracer_factory=lambda name: tracer_factory(f"skewed_{name}"),
        seed=seed, tuned_parameters=tuned_parameters,
    )
    shifted_events = shifted_stock_events(scale)
    shifted_spec = build_query(
        "stocks", "seq", length, scale.base_window, shifted_events, scale
    )
    shifted_results = compare_strategies(
        shifted_spec.pattern, shifted_events, cores=cores,
        strategies=_THROUGHPUT_STRATEGIES, scale=scale,
        tracer_factory=lambda name: tracer_factory(f"shifted_{name}"),
        seed=seed, tuned_parameters=tuned_parameters,
    )

    # Adaptation recall (schema 4): the bursty rotating-hot-subset stream
    # paced at _ADAPT_LOAD times HYPERSONIC's measured capacity, so the
    # backlog genuinely overflows the shed bound.  Static (tail shedding,
    # control plane off) and adaptive (pattern shedding, control plane on)
    # get the same unit budget, stream, and bound; the only difference is
    # the runtime control plane.  These runs shed input, so they call
    # simulate() directly — compare_strategies would (rightly) refuse the
    # diverging match counts.
    bursty_events = bursty_stock_events(scale, num_phases=_ADAPT_PHASES)
    bursty_spec = build_query(
        "stocks", "seq", length, scale.base_window, bursty_events, scale
    )
    adapt_reference = simulate(
        "hypersonic", bursty_spec.pattern, bursty_events, num_cores=cores,
        cache=default_cache(), costs=default_costs(),
        agent_dynamic=True, seed=seed,
        tracer=tracer_factory("adapt_reference"),
    )
    adapt_pace = 1.0 / max(_ADAPT_LOAD * adapt_reference.throughput, 1e-12)
    shed_bound = _ADAPT_BOUND_PER_CORE * cores
    adapt_results: dict[str, SimResult] = {"reference": adapt_reference}
    for label, adapt, shed_policy in (
        ("static_shed", "off", "tail"),
        ("adaptive", "on", "pattern"),
    ):
        adapt_results[label] = simulate(
            "hypersonic", bursty_spec.pattern, bursty_events,
            num_cores=cores, cache=default_cache(), costs=default_costs(),
            agent_dynamic=True, seed=seed, pace=adapt_pace,
            adapt=adapt, shed_bound=shed_bound, shed_policy=shed_policy,
            tracer=tracer_factory(f"adapt_{label}"),
        )
    if (adapt_results["adaptive"].matches
            <= adapt_results["static_shed"].matches):
        raise RuntimeError(
            "adaptation failed to dominate static shedding on recall: "
            f"{adapt_results['adaptive'].matches} adaptive vs "
            f"{adapt_results['static_shed'].matches} static "
            f"(reference {adapt_reference.matches})"
        )

    # Recall/latency frontier (schema 5): the same overloaded adaptive
    # deployment swept over the shed bound.  Each point trades recall
    # (more shedding, fewer matches) against p95 detection latency (less
    # backlog ahead of each match); the committed frontier pins where the
    # runtime sits on that trade-off.  Recall must not decrease as the
    # bound loosens — if it does, the shedder is dropping the wrong events.
    frontier_results: dict[str, SimResult] = {}
    frontier_bounds: list[int] = []
    for per_core in _FRONTIER_BOUNDS_PER_CORE:
        bound = per_core * cores
        frontier_bounds.append(bound)
        frontier_results[f"bound_{bound}"] = simulate(
            "hypersonic", bursty_spec.pattern, bursty_events,
            num_cores=cores, cache=default_cache(), costs=default_costs(),
            agent_dynamic=True, seed=seed, pace=adapt_pace,
            adapt="on", shed_bound=bound, shed_policy="pattern",
            tracer=tracer_factory(f"frontier_bound_{bound}"),
        )
    frontier_recalls = [
        frontier_results[f"bound_{bound}"].matches for bound in frontier_bounds
    ]
    for tighter, looser, tight_matches, loose_matches in zip(
        frontier_bounds, frontier_bounds[1:],
        frontier_recalls, frontier_recalls[1:],
    ):
        if loose_matches < tight_matches:
            raise RuntimeError(
                "recall/latency frontier is not monotone: bound "
                f"{looser} matched {loose_matches} < bound {tighter}'s "
                f"{tight_matches} — loosening the shed bound lost matches"
            )

    # fig8-style paced latency: everyone receives the same offered load,
    # derived from HYPERSONIC's capacity measured above (no extra run).
    reference = throughput_results["hypersonic"].throughput
    pace = 1.0 / max(_LATENCY_LOAD * reference, 1e-12)
    latency_results: dict[str, SimResult] = {}
    for strategy in _LATENCY_STRATEGIES:
        kwargs: dict = {
            "pace": pace, "seed": seed,
            "tracer": tracer_factory(f"paced_{strategy}"),
        }
        if strategy == "hypersonic":
            kwargs["agent_dynamic"] = True
        if strategy == "rip":
            kwargs["chunk_size"] = scale.chunk_size
        latency_results[strategy] = simulate(
            strategy, spec.pattern, events, num_cores=cores, **kwargs
        )

    scenarios = {
        "fig7_throughput": {
            "events": scale.num_events,
            "cores": cores,
            "window": scale.base_window,
            "length": length,
            "strategies": {
                name: _strategy_record(result)
                for name, result in throughput_results.items()
            },
        },
        "sensors_throughput": {
            "events": scale.num_events,
            "cores": cores,
            "window": scale.base_window,
            "length": length,
            "dataset": "sensors",
            "strategies": {
                name: _strategy_record(result)
                for name, result in sensor_results.items()
            },
        },
        "kleene_throughput": {
            "events": len(trips),
            "cores": cores,
            "window": _TRIP_WINDOW,
            "length": length,
            "dataset": "trips",
            "template": "kleene",
            "kleene_lengths": kleene_lengths,
            "strategies": {
                name: _strategy_record(result)
                for name, result in kleene_results.items()
            },
        },
        "batched_throughput": {
            "events": scale.num_events,
            "cores": cores,
            "window": scale.base_window,
            "length": length,
            "batch_size": _BATCH_SIZE,
            "strategies": {
                name: _strategy_record(result)
                for name, result in batched_results.items()
            },
        },
        "skewed_throughput": {
            "events": scale.num_events,
            "cores": cores,
            "window": scale.base_window,
            "length": length,
            "variant": "skewed",
            "strategies": {
                name: _strategy_record(result)
                for name, result in skewed_results.items()
            },
        },
        "shifted_throughput": {
            "events": scale.num_events,
            "cores": cores,
            "window": scale.base_window,
            "length": length,
            "variant": "shifted",
            "strategies": {
                name: _strategy_record(result)
                for name, result in shifted_results.items()
            },
        },
        "adaptation_recall": {
            "events": len(bursty_events),
            "cores": cores,
            "window": scale.base_window,
            "length": length,
            "pace": adapt_pace,
            "load": _ADAPT_LOAD,
            "phases": _ADAPT_PHASES,
            "shed_bound": shed_bound,
            "reference_matches": adapt_reference.matches,
            "strategies": {
                name: _adaptation_record(result, adapt_reference.matches)
                for name, result in adapt_results.items()
            },
        },
        "recall_latency_frontier": {
            "events": len(bursty_events),
            "cores": cores,
            "window": scale.base_window,
            "length": length,
            "pace": adapt_pace,
            "load": _ADAPT_LOAD,
            "phases": _ADAPT_PHASES,
            "bounds": frontier_bounds,
            "reference_matches": adapt_reference.matches,
            "strategies": {
                f"bound_{bound}": dict(
                    _adaptation_record(
                        frontier_results[f"bound_{bound}"],
                        adapt_reference.matches,
                    ),
                    shed_bound=bound,
                )
                for bound in frontier_bounds
            },
        },
        "fig8_latency": {
            "events": scale.num_events,
            "cores": cores,
            "window": scale.base_window,
            "length": length,
            "pace": pace,
            "load": _LATENCY_LOAD,
            "strategies": {
                name: _strategy_record(result)
                for name, result in latency_results.items()
            },
        },
    }

    if registry is not None:
        for name, result in throughput_results.items():
            populate_from_summary(
                registry, result.extra.get("obs", {}), strategy=name,
                extra=result.extra,
            )
        # The adaptive runs carry the control/shed sections the plain
        # throughput rows lack; export them under prefixed labels.
        for name, result in adapt_results.items():
            populate_from_summary(
                registry, result.extra.get("obs", {}),
                strategy=f"adapt_{name}", extra=result.extra,
            )

    snapshot = {
        "schema": SNAPSHOT_SCHEMA,
        "kind": "hypersonic-bench",
        "date": date if date is not None else datetime.date.today().isoformat(),
        "quick": quick,
        "seed": seed,
        "scenarios": scenarios,
    }
    if tuned_parameters is not None:
        snapshot["tuned_parameters"] = tuned_parameters.as_dict()
    validate_snapshot(snapshot)
    return snapshot


def validate_snapshot(snapshot: Mapping) -> None:
    """Raise ``ValueError`` unless *snapshot* has the expected layout."""
    def fail(message: str):
        raise ValueError(f"invalid bench snapshot: {message}")

    if not isinstance(snapshot, Mapping):
        fail("not a mapping")
    if snapshot.get("schema") not in SUPPORTED_SCHEMAS:
        fail(
            f"schema must be one of {SUPPORTED_SCHEMAS}, "
            f"got {snapshot.get('schema')}"
        )
    if snapshot.get("kind") != "hypersonic-bench":
        fail(f"kind must be 'hypersonic-bench', got {snapshot.get('kind')}")
    for key, kind in (("date", str), ("quick", bool), ("seed", int)):
        if not isinstance(snapshot.get(key), kind):
            fail(f"{key!r} must be {kind.__name__}")
    scenarios = snapshot.get("scenarios")
    if not isinstance(scenarios, Mapping) or not scenarios:
        fail("'scenarios' must be a non-empty mapping")
    numeric = (int, float)
    for name, scenario in scenarios.items():
        strategies = scenario.get("strategies")
        if not isinstance(strategies, Mapping) or not strategies:
            fail(f"scenario {name!r} has no strategies")
        for strategy, cell in strategies.items():
            for field in ("throughput", "p50_latency", "p95_latency"):
                value = cell.get(field)
                if not isinstance(value, numeric) or value < 0:
                    fail(
                        f"{name}/{strategy}.{field} must be a non-negative "
                        f"number, got {value!r}"
                    )
            if not isinstance(cell.get("matches"), int):
                fail(f"{name}/{strategy}.matches must be an int")
            error = cell.get("calibration_error")
            if error is not None and not isinstance(error, numeric):
                fail(f"{name}/{strategy}.calibration_error must be a number")


def write_snapshot(snapshot: Mapping, directory: str = ".") -> str:
    """Write *snapshot* as ``BENCH_<date>.json``; returns the path.

    A second snapshot on the same date gets a ``.N`` suffix so the
    trajectory never overwrites itself.
    """
    validate_snapshot(snapshot)
    os.makedirs(directory, exist_ok=True)
    base = f"BENCH_{snapshot['date']}"
    path = os.path.join(directory, f"{base}.json")
    counter = 1
    while os.path.exists(path):
        path = os.path.join(directory, f"{base}.{counter}.json")
        counter += 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def latest_snapshot(directory: str = ".",
                    exclude: str | None = None) -> str | None:
    """Path of the newest ``BENCH_*.json`` in *directory*, skipping
    *exclude* (the snapshot just written).

    Names :func:`write_snapshot` gives are ordered by the date and ``.N``
    suffix they carry: a git checkout stamps every file with one mtime, so
    mtime cannot tell committed snapshots apart.  Other ``BENCH_*.json``
    names rank below the dated ones, newest mtime first.
    """
    if not os.path.isdir(directory):
        return None
    exclude_abs = os.path.abspath(exclude) if exclude else None
    candidates = []
    for name in os.listdir(directory):
        if not _SNAPSHOT_PATTERN.match(name):
            continue
        path = os.path.join(directory, name)
        if exclude_abs and os.path.abspath(path) == exclude_abs:
            continue
        dated = _DATED_SNAPSHOT.match(name)
        if dated:
            key = (1, dated.group(1), int(dated.group(2) or 0), name)
        else:
            key = (0, "", os.path.getmtime(path), name)
        candidates.append((key, path))
    if not candidates:
        return None
    return max(candidates)[1]


def compare_snapshots(previous: Mapping, current: Mapping,
                      threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Compare two snapshots cell by cell.

    Returns ``{"ok", "regressions", "improvements", "compared", "skipped"}``.
    A cell regresses when its throughput drops by more than *threshold*
    relative to *previous*, or its match count changes (correctness, not
    perf).  Snapshots from different modes (quick vs. full) or seeds are
    not comparable and come back as all-skipped.  Differing (supported)
    schema versions are fine: the shared scenarios are compared, and
    scenarios or strategies the baseline lacks — e.g. the schema-2 sensors
    dataset against a schema-1 baseline — are noted as skipped.
    """
    validate_snapshot(previous)
    validate_snapshot(current)
    report: dict = {
        "ok": True, "regressions": [], "improvements": [],
        "compared": 0, "skipped": [],
    }
    if previous.get("quick") != current.get("quick") or (
        previous.get("seed") != current.get("seed")
    ):
        report["skipped"].append(
            "snapshots use different modes/seeds; not comparable"
        )
        return report
    if previous.get("schema") != current.get("schema"):
        report["skipped"].append(
            f"schema {previous.get('schema')} baseline vs "
            f"{current.get('schema')} current; comparing shared scenarios"
        )
    for name, scenario in current["scenarios"].items():
        base_scenario = previous["scenarios"].get(name)
        if base_scenario is None:
            report["skipped"].append(f"{name}: no baseline scenario")
            continue
        for strategy, cell in scenario["strategies"].items():
            base = base_scenario["strategies"].get(strategy)
            if base is None:
                report["skipped"].append(f"{name}/{strategy}: no baseline")
                continue
            report["compared"] += 1
            old = base["throughput"]
            new = cell["throughput"]
            if old > 0 and new < old * (1.0 - threshold):
                report["ok"] = False
                report["regressions"].append({
                    "scenario": name,
                    "strategy": strategy,
                    "metric": "throughput",
                    "old": old,
                    "new": new,
                    "change": new / old - 1.0,
                })
            elif old > 0 and new > old * (1.0 + threshold):
                report["improvements"].append({
                    "scenario": name,
                    "strategy": strategy,
                    "metric": "throughput",
                    "old": old,
                    "new": new,
                    "change": new / old - 1.0,
                })
            if base["matches"] != cell["matches"]:
                report["ok"] = False
                report["regressions"].append({
                    "scenario": name,
                    "strategy": strategy,
                    "metric": "matches",
                    "old": base["matches"],
                    "new": cell["matches"],
                    "change": None,
                })
    return report


def format_snapshot(snapshot: Mapping) -> str:
    """Human-readable table of one snapshot (the CLI's output)."""
    lines = [
        f"bench snapshot {snapshot['date']} "
        f"(seed={snapshot['seed']}, quick={snapshot['quick']})"
    ]
    for name, scenario in snapshot["scenarios"].items():
        lines.append(f"\n{name}  "
                     f"[{scenario['events']} events, {scenario['cores']} cores]")
        header = (
            f"  {'strategy':16s} {'throughput':>12s} {'p50 lat':>10s} "
            f"{'p95 lat':>10s} {'matches':>8s} {'calib err':>10s}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for strategy, cell in scenario["strategies"].items():
            error = cell.get("calibration_error")
            lines.append(
                f"  {strategy:16s} {cell['throughput']:12.4f} "
                f"{cell['p50_latency']:10.1f} {cell['p95_latency']:10.1f} "
                f"{cell['matches']:8d} "
                + (f"{error:10.3f}" if error is not None else f"{'-':>10s}")
            )
    return "\n".join(lines)
