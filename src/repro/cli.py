"""Command-line interface: ``python -m repro <command>``.

Five subcommands cover the library's main entry points without writing
code:

``generate``
    Produce a synthetic dataset (stocks or sensors) as a stream CSV.

``detect``
    Run a Table 2 query template over a stream CSV with a chosen engine
    (sequential or hybrid) and print the matches found.

``simulate``
    Race parallelization strategies over a stream CSV on the
    execution-unit simulator and print the comparison table.

``obs-report``
    Replay a JSONL trace (written by ``simulate --trace-jsonl``) through
    the analysis passes: cost-model calibration and critical-path latency
    attribution.

``watch``
    Replay a JSONL trace through the terminal dashboard
    (:mod:`repro.obs.dashboard`): live playback on a TTY, deterministic
    frame dumps with ``--no-tty`` / ``--final`` / ``--frame`` for CI and
    golden-pinning.  The live counterpart is ``simulate --dashboard``.

``bench``
    Run the pinned-seed benchmark scenarios; ``--record`` appends a
    ``BENCH_<date>.json`` snapshot to the regression trajectory and
    compares it against the newest previous one.

``autotune``
    Closed-loop cost-model calibration: run a traced simulation, fit the
    planner's cost constants to the observed per-agent load shares,
    re-plan, and repeat (``repro.costmodel.fitting``).  With
    ``--trace-jsonl`` it instead fits offline from an existing recorded
    trace without running anything.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.datasets import (
    SensorConfig,
    StockConfig,
    generate_sensor_stream,
    generate_stock_stream,
    load_stream,
    save_stream,
    stream_source,
)
from repro.simulator import CacheModel, as_source, simulate

#: Calibration prefix for query-threshold estimation (matches the
#: engine-side statistics bound, ``HypersonicConfig.sample_size``).
_QUERY_SAMPLE_SIZE = 2000

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HYPERSONIC reproduction command line",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="generate a synthetic stream")
    gen.add_argument("dataset", choices=["stocks", "sensors", "bursty",
                                         "trips"])
    gen.add_argument("output", help="CSV path to write")
    gen.add_argument("--events", type=int, default=5000,
                     help="approximate stream length")
    gen.add_argument("--rate", type=float, default=0.6,
                     help="per-type arrival rate")
    gen.add_argument("--types", type=int, default=8,
                     help="number of event types (stocks/bursty)")
    gen.add_argument("--phases", type=int, default=6,
                     help="alternating calm/burst phases (bursty only)")
    gen.add_argument("--bikes", type=int, default=12,
                     help="fleet size (trips only)")
    gen.add_argument("--seed", type=int, default=42)

    det = commands.add_parser("detect", help="detect a query template")
    det.add_argument("dataset", choices=["stocks", "sensors", "trips"])
    det.add_argument("input", help="stream CSV produced by `generate`")
    det.add_argument("--template", choices=["seq", "kleene", "negation"],
                     default="seq")
    det.add_argument("--length", type=int, default=3)
    det.add_argument("--window", type=float, default=30.0)
    det.add_argument("--selectivity", type=float, default=0.2)
    det.add_argument("--selection",
                     choices=["skip-till-any-match", "skip-till-next-match"],
                     default=None,
                     help="selection policy override (default: "
                          "skip-till-any-match)")
    det.add_argument("--consumption", choices=["reuse", "consume"],
                     default=None,
                     help="consumption policy override (default: reuse)")
    det.add_argument("--engine", choices=["sequential", "hybrid"],
                     default="sequential")
    det.add_argument("--units", type=int, default=4,
                     help="execution units for the hybrid engine")
    det.add_argument("--show", type=int, default=5,
                     help="matches to print")

    sim = commands.add_parser(
        "simulate", help="compare strategies on the simulator"
    )
    sim.add_argument("dataset", choices=["stocks", "sensors", "trips"])
    sim.add_argument("input", help="stream CSV produced by `generate`")
    sim.add_argument("--template", choices=["seq", "kleene", "negation"],
                     default="seq")
    sim.add_argument("--selection",
                     choices=["skip-till-any-match", "skip-till-next-match"],
                     default=None,
                     help="selection policy override")
    sim.add_argument("--consumption", choices=["reuse", "consume"],
                     default=None,
                     help="consumption policy override")
    sim.add_argument("--length", type=int, default=3)
    sim.add_argument("--window", type=float, default=30.0)
    sim.add_argument("--selectivity", type=float, default=0.2)
    sim.add_argument("--cores", type=int, default=8)
    sim.add_argument(
        "--batch-size",
        type=int,
        default=1,
        metavar="N",
        help=(
            "items the splitter routes and an agent drains per turn; "
            "the match set is the same for every N (default 1)"
        ),
    )
    sim.add_argument(
        "--strategies",
        default="sequential,hypersonic,rip,llsf",
        help="comma-separated strategy list",
    )
    sim.add_argument(
        "--backend",
        choices=["virtual", "procs"],
        default="virtual",
        help=(
            "execution substrate: 'virtual' runs the discrete-event "
            "simulators; 'procs' runs the hypersonic agent chain on real "
            "worker processes and reports measured wall-clock numbers "
            "(hypersonic strategy only; planner features are rejected)"
        ),
    )
    sim.add_argument(
        "--procs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker-process count for --backend procs "
            "(default: --cores)"
        ),
    )
    sim.add_argument(
        "--start-method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help=(
            "multiprocessing start method for --backend procs "
            "(default: platform default)"
        ),
    )
    sim.add_argument(
        "--adapt",
        choices=["off", "on"],
        default="off",
        help=(
            "enable the runtime control plane (drift-triggered "
            "re-allocation, migration, fusion); agent-chain strategies "
            "only (hypersonic, state)"
        ),
    )
    sim.add_argument(
        "--shed-bound",
        type=int,
        default=0,
        metavar="N",
        help=(
            "load-shedding backlog bound: when the in-flight backlog "
            "exceeds N items, input is shed; 0 disables shedding"
        ),
    )
    sim.add_argument(
        "--shed-policy",
        choices=["tail", "pattern"],
        default=None,
        help=(
            "shedding policy: blind tail-drop, or pattern-aware (protect "
            "events extending active partial matches; default: pattern "
            "with --adapt on, tail otherwise)"
        ),
    )
    sim.add_argument(
        "--slo-p95",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "p95 match-latency SLO ceiling (model seconds); evaluated "
            "online per window and, with --adapt on, fed to the control "
            "plane as a replan/shed trigger"
        ),
    )
    sim.add_argument(
        "--slo-recall",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "recall SLO floor in (0, 1]: fraction of pattern-relevant "
            "arrivals admitted (not shed) per window"
        ),
    )
    sim.add_argument(
        "--slo-throughput",
        type=float,
        default=None,
        metavar="RATE",
        help="throughput SLO floor (admitted events per model second)",
    )
    sim.add_argument(
        "--slo-window",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "SLO evaluation window length (default: the query window)"
        ),
    )
    sim.add_argument(
        "--slo-objective",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "fraction of windows that must meet each SLO before its "
            "error budget exhausts (default 0.99)"
        ),
    )
    sim.add_argument(
        "--pace",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "open-loop arrival pacing (model seconds between arrivals) "
            "instead of closed-loop injection; combine with --shed-bound "
            "to create sustained overload"
        ),
    )
    sim.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record a structured trace and write Chrome trace_event JSON "
            "to PATH (open in Perfetto / chrome://tracing); with several "
            "strategies, one file per strategy is written with the "
            "strategy name appended"
        ),
    )
    sim.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        default=None,
        help=(
            "also write the raw trace as JSONL to PATH (one event per "
            "line; feed it to `repro obs-report`); per-strategy files as "
            "with --trace"
        ),
    )
    sim.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "export run metrics for all strategies to PATH in Prometheus "
            "text exposition format (.json suffix switches to JSON)"
        ),
    )
    sim.add_argument(
        "--dashboard",
        action="store_true",
        help=(
            "attach the live terminal dashboard: on a TTY the view "
            "repaints on the simulator's snapshot cadence; otherwise the "
            "final frame is printed after each strategy"
        ),
    )

    obs = commands.add_parser(
        "obs-report",
        help="calibration + latency attribution report from a JSONL trace",
    )
    obs.add_argument("trace", help="JSONL trace (simulate --trace-jsonl)")
    obs.add_argument("--json", action="store_true",
                     help="emit the full report as JSON instead of text")
    obs.add_argument("--tolerance", type=float, default=None,
                     help="allocation tolerance for the calibration verdict")
    obs.add_argument(
        "--audit", action="store_true",
        help=(
            "include decision provenance: the causal chain behind every "
            "control-plane decision in the trace (trigger evidence, "
            "decision, before/after effect); byte-deterministic"
        ),
    )
    obs.add_argument("--slo-p95", type=float, default=None,
                     metavar="SECONDS",
                     help="re-evaluate a p95 match-latency SLO ceiling "
                          "from the trace")
    obs.add_argument("--slo-recall", type=float, default=None,
                     metavar="FRACTION",
                     help="re-evaluate a recall SLO floor from the trace")
    obs.add_argument("--slo-throughput", type=float, default=None,
                     metavar="RATE",
                     help="re-evaluate a throughput SLO floor from the "
                          "trace")
    obs.add_argument("--slo-window", type=float, default=1.0,
                     metavar="SECONDS",
                     help="SLO evaluation window length (1.0)")
    obs.add_argument("--slo-objective", type=float, default=None,
                     metavar="FRACTION",
                     help="per-SLO window objective (0.99)")

    watch = commands.add_parser(
        "watch",
        help="replay a JSONL trace through the terminal dashboard",
    )
    watch.add_argument("trace", help="JSONL trace (simulate --trace-jsonl)")
    watch.add_argument("--fps", type=float, default=8.0,
                       help="playback frames per second on a TTY (8)")
    watch.add_argument("--frame", type=int, default=None, metavar="K",
                       help="render only frame K (negative indexes from "
                            "the end) instead of playing back")
    watch.add_argument("--final", action="store_true",
                       help="render only the end-of-run frame")
    watch.add_argument("--no-tty", action="store_true",
                       help="force headless output: every frame printed "
                            "once, deterministically (what CI pins)")
    watch.add_argument("--width", type=int, default=None,
                       help="frame width in columns (80)")
    watch.add_argument("--height", type=int, default=None,
                       help="frame height in rows (24)")
    watch.add_argument("--label", default=None,
                       help="strategy label for the frame header "
                            "(default: derived from the file name)")
    watch.add_argument("--out", metavar="PATH", default=None,
                       help="also write the last rendered frame to PATH")

    bench = commands.add_parser(
        "bench", help="run the pinned benchmark scenarios"
    )
    bench.add_argument("--record", action="store_true",
                       help="write a BENCH_<date>.json snapshot")
    bench.add_argument("--quick", action="store_true",
                       help="reduced scale for CI smoke runs")
    bench.add_argument("--dir", default=".",
                       help="trajectory directory (default: cwd)")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--threshold", type=float, default=None,
                       help="relative throughput drop that fails (0.15)")
    bench.add_argument("--warn-only", action="store_true",
                       help="report regressions without failing")
    bench.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="export bench metrics (Prometheus text / .json)")
    bench.add_argument("--tune", action="store_true",
                       help="also record an autotuned hypersonic row per "
                            "scenario (tuned-vs-default trajectory)")
    bench.add_argument("--dashboard", action="store_true",
                       help="print the dashboards of every benched run "
                            "after the comparison table, tiled side by "
                            "side per scenario")
    bench.add_argument("--tile-width", type=int, default=None,
                       help="total width of a dashboard tile row "
                            "(default: terminal width)")

    tune = commands.add_parser(
        "autotune",
        help="closed-loop cost-model calibration on the simulator",
    )
    tune.add_argument("dataset", nargs="?", choices=["stocks", "sensors"])
    tune.add_argument("input", nargs="?",
                      help="stream CSV produced by `generate`")
    tune.add_argument("--template", choices=["seq", "kleene", "negation"],
                      default="seq")
    tune.add_argument("--length", type=int, default=3)
    tune.add_argument("--window", type=float, default=30.0)
    tune.add_argument("--selectivity", type=float, default=0.2)
    tune.add_argument("--cores", type=int, default=8)
    tune.add_argument("--rounds", type=int, default=3,
                      help="maximum measured autotune rounds")
    tune.add_argument("--seed", type=int, default=7)
    tune.add_argument(
        "--world", metavar="K=V[,K=V...]", default=None,
        help="override the simulated deployment's actual costs "
             "(e.g. lock=2.4); fields of CostParameters",
    )
    tune.add_argument(
        "--model", metavar="K=V[,K=V...]", default=None,
        help="initial planner cost model (defaults to the world costs)",
    )
    tune.add_argument(
        "--trace-jsonl", metavar="PATH", default=None,
        help="offline mode: fit from this recorded JSONL trace instead "
             "of running the simulator",
    )
    tune.add_argument("--json", action="store_true",
                      help="emit the result as JSON instead of text")
    return parser


def _build_query(args, source):
    """Instantiate the requested template against a workload *source*.

    The calibration sample is a bounded prefix and the present-types scan
    streams one event at a time, so the workload never has to fit in
    memory (*source* must be replayable — a list or a CSV source).
    """
    from repro.workloads import (
        sensor_kleene_query,
        sensor_negation_query,
        sensor_sequence_query,
        stock_kleene_query,
        stock_negation_query,
        stock_sequence_query,
        trip_chain_query,
        trip_negation_query,
        trip_sequence_query,
    )

    if args.dataset == "trips":
        # Trip templates have a fixed shape (start/ride/end on one bike)
        # and no calibrated thresholds.
        builders = {
            "seq": trip_sequence_query,
            "kleene": trip_chain_query,
            "negation": trip_negation_query,
        }
        return _apply_policy_flags(builders[args.template](args.window), args)

    source = as_source(source)
    sample = source.prefix(_QUERY_SAMPLE_SIZE)
    present = []
    for event in source:
        if event.type.name not in present:
            present.append(event.type.name)
    length = 6 if args.template == "kleene" else args.length
    types = present[:length]
    if len(types) < length:
        raise SystemExit(
            f"stream has only {len(types)} event types; "
            f"need {length} for this template"
        )
    builders = {
        ("stocks", "seq"): stock_sequence_query,
        ("stocks", "kleene"): stock_kleene_query,
        ("stocks", "negation"): stock_negation_query,
        ("sensors", "seq"): sensor_sequence_query,
        ("sensors", "kleene"): sensor_kleene_query,
        ("sensors", "negation"): sensor_negation_query,
    }
    builder = builders[(args.dataset, args.template)]
    return _apply_policy_flags(
        builder(types, args.window, sample, selectivity=args.selectivity),
        args,
    )


def _apply_policy_flags(spec, args):
    """Apply ``--selection``/``--consumption`` overrides to a built query."""
    selection = getattr(args, "selection", None)
    consumption = getattr(args, "consumption", None)
    if selection is None and consumption is None:
        return spec
    import dataclasses

    overrides = {}
    if selection is not None:
        overrides["selection"] = selection
    if consumption is not None:
        overrides["consumption"] = consumption
    pattern = dataclasses.replace(spec.pattern, **overrides)
    return dataclasses.replace(spec, pattern=pattern)


def _command_generate(args) -> int:
    if args.dataset == "stocks":
        events = generate_stock_stream(
            StockConfig(
                num_events=args.events,
                symbols=tuple(f"S{i}" for i in range(args.types)),
                rates=args.rate,
                seed=args.seed,
            )
        )
    elif args.dataset == "bursty":
        from repro.datasets import BurstyConfig, generate_bursty_stream

        events = generate_bursty_stream(
            BurstyConfig(
                symbols=tuple(f"S{i}" for i in range(args.types)),
                base_rate=args.rate,
                num_phases=args.phases,
                events_per_phase=max(1, args.events // args.phases),
                seed=args.seed,
            )
        )
    elif args.dataset == "trips":
        from repro.datasets import TripConfig, generate_trip_stream

        # A trip averages mean_rides + 2 events; size the fleet's trip
        # count so the stream lands near --events.
        events = generate_trip_stream(
            TripConfig(
                num_bikes=args.bikes,
                num_trips=max(1, args.events // 5),
                seed=args.seed,
            )
        )
    else:
        events = generate_sensor_stream(
            SensorConfig(
                num_events=args.events, rates=args.rate, seed=args.seed
            )
        )
    save_stream(events, args.output)
    print(f"wrote {len(events)} events to {args.output}")
    return 0


def _command_detect(args) -> int:
    events = load_stream(args.input)
    spec = _build_query(args, events)
    print(f"query: {spec.pattern.describe()}")
    if args.engine == "sequential":
        from repro.engine import detect

        matches = detect(spec.pattern, events)
    else:
        from repro.hypersonic import detect_hybrid

        matches = detect_hybrid(spec.pattern, events, num_units=args.units)
    print(f"{len(matches)} matches ({args.engine} engine)")
    for match in matches[: args.show]:
        positions = ", ".join(
            f"{name}@{bound[0].timestamp:.1f}x{len(bound)}"
            if isinstance(bound, tuple)
            else f"{name}@{bound.timestamp:.1f}"
            for name, bound in sorted(match.binding.items())
        )
        print(f"  {positions}")
    return 0


def _trace_path(base: str, strategy: str, multiple: bool) -> str:
    """Per-strategy trace file name: the given path, or, with several
    strategies racing, the strategy name spliced in before the suffix."""
    if not multiple:
        return base
    stem, dot, suffix = base.rpartition(".")
    if not dot:
        return f"{base}-{strategy}"
    return f"{stem}-{strategy}.{suffix}"


def _check_parent_dir(path: str, flag: str) -> None:
    import os

    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise SystemExit(f"{flag}: directory {parent!r} does not exist")


def _write_metrics(path: str, registry) -> None:
    """Write *registry* to *path*: Prometheus text, or JSON for .json."""
    import json as _json

    from repro.obs import prometheus_text

    if path.endswith(".json"):
        payload = _json.dumps(registry.to_json(), indent=1, sort_keys=True)
        payload += "\n"
    else:
        payload = prometheus_text(registry)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)


def _build_slo_specs(args, default_window: float):
    """Translate ``--slo-*`` flags into :class:`SloSpec`s (maybe empty)."""
    bounds = (
        ("p95_latency", args.slo_p95),
        ("recall", args.slo_recall),
        ("throughput", args.slo_throughput),
    )
    if all(bound is None for _metric, bound in bounds):
        return ()
    from repro.obs import DEFAULT_OBJECTIVE, SloSpec

    window = (
        args.slo_window if args.slo_window and args.slo_window > 0
        else default_window
    )
    objective = (
        args.slo_objective if args.slo_objective is not None
        else DEFAULT_OBJECTIVE
    )
    try:
        return tuple(
            SloSpec(metric, bound, window=window, objective=objective)
            for metric, bound in bounds if bound is not None
        )
    except ValueError as exc:
        raise SystemExit(f"bad SLO spec: {exc}") from None


def _command_simulate(args) -> int:
    for flag, path in (("--trace", args.trace),
                       ("--trace-jsonl", args.trace_jsonl),
                       ("--metrics-out", args.metrics_out)):
        if path:
            _check_parent_dir(path, flag)
    tracing = bool(args.trace or args.trace_jsonl or args.metrics_out)
    source = stream_source(args.input)
    spec = _build_query(args, source)
    print(f"query: {spec.pattern.describe()}")
    cache = CacheModel(capacity_items=64.0, touch_cost=0.02)
    strategies = [name.strip() for name in args.strategies.split(",")]
    adapting = args.adapt == "on" or args.shed_bound > 0
    if args.backend == "procs":
        unsupported = [n for n in strategies if n != "hypersonic"]
        if unsupported:
            raise SystemExit(
                "--backend procs runs the hypersonic agent chain only; "
                f"drop {', '.join(unsupported)} from --strategies"
            )
        if adapting or args.pace is not None:
            raise SystemExit(
                "--backend procs does not support --adapt/--shed-bound/"
                "--pace (planner features are virtual-clock-only)"
            )
    elif args.procs is not None or args.start_method is not None:
        raise SystemExit(
            "--procs/--start-method require --backend procs"
        )
    slo_specs = _build_slo_specs(args, args.window)
    if adapting or slo_specs:
        unsupported = [
            name for name in strategies
            if name not in ("hypersonic", "state")
        ]
        if unsupported:
            raise SystemExit(
                "--adapt/--shed-bound/--slo-* need an agent-chain "
                "strategy (hypersonic, state); drop "
                f"{', '.join(unsupported)} from --strategies"
            )
    registry = None
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    results = {}
    for strategy in strategies:
        if args.backend == "procs":
            # Wall-clock backend: no planner features, so no
            # agent_dynamic default; runner.simulate validates the rest.
            kwargs = {
                "backend": "procs",
                "procs": args.procs,
                "start_method": args.start_method,
            }
        else:
            kwargs = (
                {"agent_dynamic": True} if strategy == "hypersonic" else {}
            )
        if args.pace is not None:
            kwargs["pace"] = args.pace
        if adapting:
            kwargs["adapt"] = args.adapt
            kwargs["shed_bound"] = args.shed_bound
            if args.shed_policy is not None:
                kwargs["shed_policy"] = args.shed_policy
        if slo_specs:
            kwargs["slos"] = slo_specs
        subscribers = []
        if tracing:
            from repro.obs import EventLog

            subscribers.append(EventLog())
        if args.dashboard:
            from repro.obs import Dashboard, DashboardPainter

            board = DashboardPainter(
                strategy=strategy,
                dashboard=Dashboard() if sys.stdout.isatty() else None,
                min_seconds=0.05,
            )
            subscribers.append(board)
        if subscribers:
            from repro.obs import TraceRecorder

            kwargs["tracer"] = TraceRecorder(*subscribers)
        # The CSV source replays from disk for each strategy, so the
        # whole comparison holds one window of events at a time.
        results[strategy] = simulate(
            strategy, spec.pattern, source, num_cores=args.cores,
            cache=cache, batch_size=args.batch_size, **kwargs,
        )
        if adapting:
            # Honest recall needs an unshedded closed-loop reference run
            # of the same strategy over the same stream.
            reference = simulate(
                strategy, spec.pattern, source, num_cores=args.cores,
                cache=cache, batch_size=args.batch_size,
                **({"agent_dynamic": True}
                   if strategy == "hypersonic" else {}),
            )
            shed = results[strategy].extra.get("shed") or {}
            recall = (
                results[strategy].matches / reference.matches
                if reference.matches else 1.0
            )
            line = (
                f"{strategy}: shed {shed.get('total', 0)} "
                f"recall {recall:.3f}"
            )
            control = results[strategy].extra.get("control")
            if control is not None:
                line += (
                    f" ({control['epochs']} epochs, "
                    f"{len(control['decisions'])} decisions)"
                )
            print(line)
        slo = results[strategy].extra.get("slo")
        if slo is not None:
            parts = []
            for row in slo["specs"]:
                budget = row["budget"]
                parts.append(
                    f"{row['spec']['metric']} {row['status']} "
                    f"(burn {budget['burn_rate']:.2f}, "
                    f"{row['windows_violated']}/{row['windows_evaluated']} "
                    "windows)"
                )
            print(
                f"{strategy}: slo {slo['verdict']} — " + ", ".join(parts)
            )
        if args.dashboard:
            print(f"-- dashboard ({strategy}) --")
            print(board.frame())
        if args.trace:
            from repro.obs import write_chrome_trace

            path = _trace_path(args.trace, strategy, len(strategies) > 1)
            write_chrome_trace(path, kwargs["tracer"])
            print(f"trace ({strategy}): {path}")
        if args.trace_jsonl:
            from repro.obs import write_jsonl

            path = _trace_path(
                args.trace_jsonl, strategy, len(strategies) > 1
            )
            write_jsonl(path, kwargs["tracer"])
            print(f"trace jsonl ({strategy}): {path}")
        if registry is not None:
            from repro.obs import populate_from_summary

            populate_from_summary(
                registry,
                results[strategy].extra.get("obs", {}),
                strategy=strategy,
                extra=results[strategy].extra,
            )
    if registry is not None:
        _write_metrics(args.metrics_out, registry)
        print(f"metrics: {args.metrics_out}")
    baseline = results.get("sequential")
    header = (
        f"{'strategy':12s} {'throughput':>12s} {'gain':>7s} "
        f"{'latency':>10s} {'p95':>10s} {'peak mem':>10s} {'matches':>8s}"
    )
    print(header)
    print("-" * len(header))
    for name, result in results.items():
        gain = result.gain_over(baseline) if baseline else float("nan")
        print(
            f"{name:12s} {result.throughput:12.4f} {gain:6.1f}x "
            f"{result.avg_latency:10.0f} {result.p95_latency:10.0f} "
            f"{result.peak_memory_bytes / 1024:9.1f}K {result.matches:8d}"
        )
    return 0


def _format_obs_report(calibration, breakdown) -> str:
    lines = []
    if calibration is not None:
        alloc = calibration["allocation"]
        lines.append(
            f"cost-model calibration ({calibration['scheme']} scheme, "
            f"{calibration['total_units']} units) — {calibration['verdict']}"
        )
        header = (
            f"  {'agent':>5s} {'units':>6s} {'optimal':>8s} "
            f"{'pred share':>11s} {'obs share':>10s} {'rel err':>9s} "
            f"{'match rate':>11s}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in calibration["per_agent"]:
            lines.append(
                f"  {row['agent']:5d} {row['allocated_units']:6d} "
                f"{row['optimal_units']:8d} {row['predicted_share']:11.3f} "
                f"{row['observed_busy_share']:10.3f} "
                f"{row['relative_error']:+9.3f} {row['match_rate']:11.4f}"
            )
        lines.append(
            f"  mean |rel err| {calibration['mean_abs_relative_error']:.3f}"
            f"   imbalance unit={calibration['imbalance']['unit']:.3f} "
            f"agent={calibration['imbalance']['agent']:.3f}"
            f"   moves {alloc['moves']}/{alloc['allowed_moves']} allowed"
        )
        adaptation = calibration.get("adaptation")
        if adaptation:
            kinds = ", ".join(
                f"{count} {kind}" for kind, count in sorted(
                    adaptation["by_kind"].items()
                )
            ) or "none"
            scope = (
                "post-plan observations only" if adaptation["post_plan_only"]
                else "whole-run observations"
            )
            lines.append(
                f"  adaptation: {adaptation['replans']} control decisions "
                f"({kinds}), {adaptation['shed_events']} events shed — "
                f"drift acted on mid-run; calibrated against {scope}"
            )
            if adaptation.get("note"):
                lines.append(f"  note: {adaptation['note']}")
    else:
        lines.append(
            "cost-model calibration: n/a (trace has no allocation plan)"
        )
    lines.append("")
    lines.append("critical-path latency attribution")
    header = (
        f"  {'agent':>5s} {'items':>7s} {'svc p50':>9s} {'svc p95':>9s} "
        f"{'svc p99':>9s} {'est wait':>9s} {'stage lat':>10s}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for row in breakdown["per_agent"]:
        service = row["service"]
        lines.append(
            f"  {row['agent']:5d} {row['items']:7d} {service['p50']:9.3f} "
            f"{service['p95']:9.3f} {service['p99']:9.3f} "
            f"{row['queue']['est_wait']:9.3f} {row['stage_latency']:10.3f}"
        )
    end_to_end = breakdown["end_to_end"]
    lines.append(
        f"  end-to-end: {end_to_end['count']} matches, "
        f"p50 {end_to_end['p50']:.1f}  p95 {end_to_end['p95']:.1f}  "
        f"p99 {end_to_end['p99']:.1f}"
    )
    dominant = breakdown["dominant"]
    if dominant is not None:
        lines.append(
            f"  dominant stage: agent {dominant['agent']} "
            f"({dominant['component']}-bound, "
            f"{dominant['share']:.0%} of modelled stage latency)"
        )
    return "\n".join(lines)


def _format_audit_report(audit) -> str:
    if audit is None:
        return "decision provenance: n/a (trace has no control decisions)"
    summary = audit["summary"]
    kinds = ", ".join(
        f"{count} {kind}" for kind, count in sorted(
            summary["by_kind"].items()
        )
    )
    lines = [
        f"decision provenance — {summary['count']} decisions ({kinds}) "
        f"over t=[{summary['first_ts']:.2f}, {summary['last_ts']:.2f}]"
    ]
    for decision in audit["decisions"]:
        trigger = decision["trigger"]
        units = "/".join(str(c) for c in decision["per_agent"]) or "-"
        lines.append(
            f"  t={decision['ts']:8.2f} [{decision['kind']}] units "
            f"{units} — {decision['reason']}"
        )
        observed = trigger.get("observed_shares")
        predicted = trigger.get("predicted_shares")
        if observed and predicted:
            lines.append(
                "    trigger: "
                f"{trigger['observations']} obs since plan "
                f"t={trigger['since_plan_ts']:.2f}; shares obs "
                + "/".join(f"{s:.2f}" for s in observed)
                + " vs pred "
                + "/".join(f"{s:.2f}" for s in predicted)
                + f"; moves {trigger['moves']}"
                f"/{trigger['allowed_moves']} allowed"
            )
        effect = decision.get("effect")
        if effect:
            before, after = effect["before"], effect["after"]
            if before["busy_shares"] and after["busy_shares"]:
                lines.append(
                    "    effect: busy shares "
                    + "/".join(f"{s:.2f}" for s in before["busy_shares"])
                    + " -> "
                    + "/".join(f"{s:.2f}" for s in after["busy_shares"])
                )
            moves = effect.get("moves_to_optimal")
            if moves and "before" in moves and "after" in moves:
                verdict = (
                    "aligned" if effect.get("aligned") else "not aligned"
                )
                lines.append(
                    f"    moves-to-optimal {moves['before']} -> "
                    f"{moves['after']} ({verdict})"
                )
    return "\n".join(lines)


def _format_slo_report(slo) -> str:
    lines = [f"slo report — {slo['verdict']}"]
    header = (
        f"  {'metric':<12s} {'bound':>9s} {'windows':>8s} {'viol':>6s} "
        f"{'burn':>7s} {'fast':>7s} {'status':<10s}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for row in slo["specs"]:
        spec = row["spec"]
        budget = row["budget"]
        lines.append(
            f"  {spec['metric']:<12s} {spec['bound']:>9.4f} "
            f"{row['windows_evaluated']:>8d} {row['windows_violated']:>6d} "
            f"{budget['burn_rate']:>7.2f} {budget['fast_burn']:>7.2f} "
            f"{row['status']:<10s}"
        )
    return "\n".join(lines)


def _read_trace(path: str):
    """`read_jsonl` with CLI-grade errors: truncated tails already come
    back as a warning + partial trace; real corruption exits cleanly."""
    from repro.obs import read_jsonl

    try:
        return read_jsonl(path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _command_obs_report(args) -> int:
    import json as _json

    from repro.obs import calibration_report, latency_breakdown

    events = _read_trace(args.trace)
    kwargs = {}
    if args.tolerance is not None:
        kwargs["tolerance"] = args.tolerance
    calibration = calibration_report(events, **kwargs)
    breakdown = latency_breakdown(events)
    audit = None
    if args.audit:
        from repro.obs import audit_report

        audit = audit_report(events, **kwargs)
    slo = None
    slo_specs = _build_slo_specs(args, args.slo_window)
    if slo_specs:
        from repro.obs import slo_report

        slo = slo_report(events, slo_specs)
    if args.json:
        report = {"calibration": calibration, "latency_breakdown": breakdown}
        if args.audit:
            report["audit"] = audit
        if slo_specs:
            report["slo"] = slo
        print(_json.dumps(report, indent=1, sort_keys=True))
        return 0
    print(f"trace: {args.trace} ({len(events)} events)")
    print(_format_obs_report(calibration, breakdown))
    if args.audit:
        print()
        print(_format_audit_report(audit))
    if slo is not None:
        print()
        print(_format_slo_report(slo))
    return 0


def _command_watch(args) -> int:
    import os

    from repro.obs.dashboard import (
        DEFAULT_HEIGHT,
        DEFAULT_WIDTH,
        Dashboard,
        replay_frames,
    )

    events = _read_trace(args.trace)
    if not events:
        print(f"{args.trace}: no trace events to render", file=sys.stderr)
        return 1
    label = args.label
    if label is None:
        stem = os.path.basename(args.trace)
        label = stem.rsplit(".", 1)[0] or stem
    width = args.width if args.width is not None else DEFAULT_WIDTH
    height = args.height if args.height is not None else DEFAULT_HEIGHT
    frames = replay_frames(
        events, width=width, height=height, strategy=label
    )

    shown: str | None = None
    if args.final or args.frame is not None:
        index = -1 if args.final else args.frame
        try:
            _ts, shown = frames[index]
        except IndexError:
            raise SystemExit(
                f"--frame {args.frame}: trace has {len(frames)} frames"
            ) from None
        print(shown)
    else:
        tty = sys.stdout.isatty() and not args.no_tty
        view = Dashboard(tty=tty)
        delay = 1.0 / args.fps if args.fps > 0 else 0.0
        for number, (ts, frame) in enumerate(frames):
            if tty:
                view.paint(frame)
                if delay and number < len(frames) - 1:
                    import time

                    time.sleep(delay)
            else:
                if number:
                    print()
                print(f"--- frame {number} t={ts:.1f} ---")
                print(frame)
        shown = frames[-1][1]
    if args.out:
        _check_parent_dir(args.out, "--out")
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(shown + "\n")
        print(f"frame written: {args.out}", file=sys.stderr)
    return 0


#: Bench run-label prefixes that name a scenario; anything unprefixed is
#: a fig7 throughput run (labels are assigned by ``run_bench``).
_BENCH_TILE_GROUPS = (
    "sensors", "batched", "skewed", "shifted", "adapt", "frontier", "paced"
)


def _print_dashboard_tiles(boards: dict, tile_width: int | None) -> None:
    """One row of side-by-side dashboard tiles per bench scenario."""
    import shutil

    from repro.obs import tile_frames

    if tile_width is None:
        tile_width = shutil.get_terminal_size((160, 24)).columns
    groups: dict[str, list[tuple[str, str]]] = {}
    for name, board in boards.items():
        prefix, _, rest = name.partition("_")
        if prefix in _BENCH_TILE_GROUPS and rest:
            groups.setdefault(prefix, []).append((rest, board.frame()))
        else:
            groups.setdefault("fig7", []).append((name, board.frame()))
    for group, tiles in groups.items():
        labels = ", ".join(label for label, _ in tiles)
        print(f"\n-- dashboard ({group}: {labels}) --")
        print(tile_frames(
            [frame for _, frame in tiles], width=tile_width
        ))


def _command_bench(args) -> int:
    from repro.bench.regression import (
        DEFAULT_THRESHOLD,
        compare_snapshots,
        format_snapshot,
        latest_snapshot,
        run_bench,
        write_snapshot,
    )

    registry = None
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        _check_parent_dir(args.metrics_out, "--metrics-out")
        registry = MetricsRegistry()

    tuned = None
    if args.tune:
        from repro.bench.harness import (
            BenchScale,
            DEFAULT_SCALE,
            build_query,
            default_cache,
            default_costs,
            stock_events,
        )
        from repro.costmodel.fitting import autotune

        scale = BenchScale(
            num_events=800 if args.quick else DEFAULT_SCALE.num_events,
            seed=args.seed,
        )
        cores = 4 if args.quick else scale.base_cores
        length = 3 if args.quick else scale.base_length
        events = stock_events(scale)
        spec = build_query(
            "stocks", "seq", length, scale.base_window, events, scale
        )
        tune_result = autotune(
            spec.pattern, events, num_cores=cores,
            costs=default_costs(), cache=default_cache(),
            seed=args.seed, agent_dynamic=True,
        )
        tuned = tune_result.tuned
        print(
            f"autotune: mean |rel err| "
            f"{tune_result.initial_error:.4f} -> "
            f"{tune_result.final_error:.4f} over "
            f"{len(tune_result.rounds)} round(s)\n"
        )

    boards: dict[str, object] = {}
    if args.dashboard:
        from repro.obs import DashboardPainter, EventLog, TraceRecorder

        def tracer_factory(name: str):
            boards[name] = DashboardPainter(strategy=name)
            return TraceRecorder(EventLog(), boards[name])
    else:
        tracer_factory = None

    snapshot = run_bench(
        quick=args.quick, seed=args.seed, registry=registry,
        tuned_parameters=tuned, tracer_factory=tracer_factory,
    )
    print(format_snapshot(snapshot))
    if boards:
        _print_dashboard_tiles(boards, args.tile_width)
    if registry is not None:
        _write_metrics(args.metrics_out, registry)
        print(f"\nmetrics: {args.metrics_out}")

    written = None
    if args.record:
        written = write_snapshot(snapshot, args.dir)
        print(f"\nsnapshot: {written}")
    previous_path = latest_snapshot(args.dir, exclude=written)
    if previous_path is None:
        print("no previous snapshot; nothing to compare")
        return 0
    import json as _json

    with open(previous_path, "r", encoding="utf-8") as handle:
        previous = _json.load(handle)
    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    report = compare_snapshots(previous, snapshot, threshold=threshold)
    print(f"\ncompared against {previous_path} "
          f"({report['compared']} cells, threshold {threshold:.0%})")
    for skip in report["skipped"]:
        print(f"  skipped: {skip}")
    for entry in report["improvements"]:
        print(
            f"  improved: {entry['scenario']}/{entry['strategy']} "
            f"{entry['metric']} {entry['old']:.4f} -> {entry['new']:.4f} "
            f"({entry['change']:+.1%})"
        )
    for entry in report["regressions"]:
        change = (
            f" ({entry['change']:+.1%})" if entry["change"] is not None else ""
        )
        print(
            f"  REGRESSION: {entry['scenario']}/{entry['strategy']} "
            f"{entry['metric']} {entry['old']} -> {entry['new']}{change}"
        )
    if not report["ok"]:
        if args.warn_only:
            print("regressions found (warn-only mode; not failing)")
            return 0
        print("regression check FAILED")
        return 1
    print("regression check passed")
    return 0


def _parse_costs(spec: str | None, flag: str):
    """``lock=2.4,comparison=1.0`` -> CostParameters over the defaults."""
    from repro.costmodel import CostParameters

    if spec is None:
        return None
    overrides = {}
    valid = CostParameters().as_dict()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq or key not in valid:
            raise SystemExit(
                f"{flag}: expected K=V with K in "
                f"{sorted(valid)}, got {part!r}"
            )
        try:
            caster = int if isinstance(valid[key], int) else float
            overrides[key] = caster(value)
        except ValueError:
            raise SystemExit(f"{flag}: invalid number in {part!r}") from None
    try:
        return CostParameters(**overrides)
    except Exception as exc:
        raise SystemExit(f"{flag}: {exc}") from None


def _format_parameters(params) -> str:
    fields = params.as_dict()
    return "  ".join(
        f"{key}={fields[key]:.6g}"
        for key in ("comparison", "lock", "queue_push",
                    "cache_penalty", "sync_overhead")
    )


def _command_autotune(args) -> int:
    import json as _json

    from repro.costmodel import fit_from_trace

    model = _parse_costs(args.model, "--model")
    if args.trace_jsonl:
        from repro.obs import read_jsonl

        events = read_jsonl(args.trace_jsonl)
        fit = fit_from_trace(events, base=model)
        if fit is None:
            print(
                f"{args.trace_jsonl}: trace has no fittable allocation "
                "plan (needs an alloc_plan event with feature rows and "
                "observed busy spans)",
                file=sys.stderr,
            )
            return 1
        if args.json:
            print(_json.dumps(fit.as_dict(), indent=1, sort_keys=True))
            return 0
        print(f"trace: {args.trace_jsonl} ({len(events)} events)")
        print(
            f"share error: {fit.error_before:.4f} -> {fit.error_after:.4f}"
            f" ({'improved' if fit.improved else 'incumbent kept'})"
        )
        print(f"fitted model: {_format_parameters(fit.parameters)}")
        return 0

    if not args.dataset or not args.input:
        raise SystemExit(
            "autotune needs a dataset and an input CSV (or --trace-jsonl "
            "for offline fitting)"
        )
    from repro.costmodel import autotune

    world = _parse_costs(args.world, "--world")
    source = stream_source(args.input)
    spec = _build_query(args, source)
    if not args.json:
        print(f"query: {spec.pattern.describe()}")
    result = autotune(
        spec.pattern, source, num_cores=args.cores, costs=world,
        model=model, max_rounds=args.rounds, seed=args.seed,
    )
    if args.json:
        print(_json.dumps(result.as_dict(), indent=1, sort_keys=True))
        return 0
    header = (
        f"{'round':>5s} {'mean |rel err|':>14s} {'throughput':>11s} "
        f"{'matches':>8s} {'verdict':>10s}"
    )
    print(header)
    print("-" * len(header))
    for rnd in result.rounds:
        print(
            f"{rnd.round:5d} {rnd.mean_abs_relative_error:14.4f} "
            f"{rnd.throughput:11.4f} {rnd.matches:8d} {rnd.verdict:>10s}"
        )
    print(
        f"error {result.initial_error:.4f} -> {result.final_error:.4f} "
        f"({'improved' if result.improved else 'no improvement'}; "
        f"{'converged' if result.converged else 'round cap reached'})"
    )
    print(f"tuned model: {_format_parameters(result.tuned)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "detect": _command_detect,
        "simulate": _command_simulate,
        "obs-report": _command_obs_report,
        "watch": _command_watch,
        "bench": _command_bench,
        "autotune": _command_autotune,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
