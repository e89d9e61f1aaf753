"""One execution path of the benchmark, run in a fresh process.

Usage (from the root of a checkout; ``run.py`` starts these)::

    python3 perfbench/paths.py --path seq --workload stocks_corr \\
        --seed 1 --indices 0,3,6 --trace 0 --inputs .perfbench_work/<run>

Replays the given sub-streams of the workload through one path and
prints one JSON line: per-sub-stream events, wall seconds and match-key
digest, plus the path's own figures.  With ``--trace 1`` the layer
wrappers of :mod:`spans` are installed after the inputs are built, and the
line also carries the per-layer counters.

Paths:

* ``setup``: ``build_query`` + ``compile_pattern`` + ``estimate_statistics``
  on the planner's 2000-event sample, once per sub-stream.
* ``seq``: ``SequentialEngine.process`` per event, then ``close()``.  The
  wall time of each call that emits a match is a detection-latency sample.
* ``sim`` / ``sim_batched``: ``simulate("hypersonic", num_cores=24)`` with
  ``batch_size`` 1 / 64 under ``default_costs()`` and ``default_cache()``.
* ``procs``: ``ProcsPipelineEngine(procs=nproc, batch_size=1).run``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hostspeed import REFERENCE_RATE, nproc, probe  # noqa: E402
from spans import LayerTimer, instrument  # noqa: E402
from workloads import PATHS, WORKLOADS, substream_seed  # noqa: E402

import repro.bench.harness as harness  # noqa: E402
import repro.core.nfa as nfa  # noqa: E402
import repro.costmodel.statistics as statistics  # noqa: E402
from repro.engine import SequentialEngine  # noqa: E402
from repro.hypersonic.engine import HypersonicConfig  # noqa: E402
from repro.runtime.procs import (  # noqa: E402
    ProcsPipelineEngine,
    agent_slices,
    partial_size,
)
from repro.simulator.runner import simulate  # noqa: E402

#: Events the planner samples for statistics.
SAMPLE_SIZE = HypersonicConfig().sample_size
SIM_CORES = 24
SIM_BATCH = {"sim": 1, "sim_batched": 64}
#: Objects timed per pickle round-trip estimate.
PICKLE_SAMPLE = 300


def scale_of(workload, seed: int, index: int):
    return harness.BenchScale(
        num_events=workload.events, seed=substream_seed(seed, index)
    )


def build_input(workload, seed: int, index: int):
    """Sub-stream *index* of a run at *seed*: (events, pattern)."""
    scale = scale_of(workload, seed, index)
    generate = {
        "stocks": harness.stock_events,
        "trips": harness.trip_events,
    }[workload.dataset]
    events = generate(scale)
    _drop_generator_caches()
    return events, build_pattern(workload, events, seed, index)


def build_pattern(workload, events, seed: int, index: int):
    scale = scale_of(workload, seed, index)
    return harness.build_query(
        workload.dataset, workload.template, workload.length,
        workload.window, events, scale,
    ).pattern


def input_file(workdir: str, index: int) -> str:
    return os.path.join(workdir, f"substream-{index}.pickle")


def save_input(workdir: str, workload, seed: int, index: int) -> None:
    """Build sub-stream *index* once and pickle it for every path."""
    events, pattern = build_input(workload, seed, index)
    with open(input_file(workdir, index), "wb") as handle:
        pickle.dump((events, pattern), handle, pickle.HIGHEST_PROTOCOL)


def load_input(workdir: str, index: int):
    """Read back what :func:`save_input` wrote (this run's own file)."""
    with open(input_file(workdir, index), "rb") as handle:
        return pickle.load(handle)


def _drop_generator_caches() -> None:
    """The harness memoises recent streams; drop them so a process holds
    one sub-stream, not the last eight."""
    for value in vars(harness).values():
        clear = getattr(value, "cache_clear", None)
        if clear is not None:
            clear()


def digest(keys) -> str:
    """Order-free digest of a set of match keys."""
    return hashlib.sha256(repr(sorted(keys)).encode()).hexdigest()[:20]


def capture_resolved():
    """Record the match list the simulator resolves at the end of a run
    (``simulate`` returns only the count)."""
    import repro.core.policies as policies

    original = policies.resolve_matches
    captured: list = []

    def resolve(pattern, matches):
        result = original(pattern, matches)
        captured[:] = [result]
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, "resolve_matches", None) is original:
            setattr(module, "resolve_matches", resolve)
    return captured


# --------------------------------------------------------------------- #
# Paths                                                                  #
# --------------------------------------------------------------------- #


def run_setup(events, workload, seed: int, index: int):
    start = time.perf_counter()
    pattern = build_pattern(workload, events, seed, index)
    nfa.compile_pattern(pattern)
    statistics.estimate_statistics(pattern, events[:SAMPLE_SIZE])
    return {"seconds": time.perf_counter() - start}


def run_seq(events, pattern, record_latency: bool):
    engine = SequentialEngine(pattern)
    matches = []
    samples = []
    clock = time.perf_counter
    start = clock()
    for event in events:
        began = clock()
        found = engine.process(event)
        if found:
            samples.append(clock() - began)
            matches.extend(found)
    matches.extend(engine.close())
    seconds = clock() - start
    stats = engine.stats
    return {
        "seconds": seconds,
        "matches": len(matches),
        "digest": digest(m.key for m in matches),
        "latency_s": samples if record_latency else [],
        "counts": {
            "engine.comparisons": stats.comparisons,
            "engine.partials_created": stats.partial_matches_created,
            "engine.peak_partials": stats.peak_partial_matches,
            "engine.purged_partials": stats.purged_partial_matches,
            "matches": len(matches),
        },
    }


def run_sim(events, pattern, batch_size: int, captured: list):
    captured.clear()
    start = time.perf_counter()
    result = simulate(
        "hypersonic", pattern, events, num_cores=SIM_CORES,
        batch_size=batch_size, costs=harness.default_costs(),
        cache=harness.default_cache(),
    )
    seconds = time.perf_counter() - start
    record = {
        "seconds": seconds,
        "matches": result.matches,
        "counts": {
            "simulator.model_throughput": result.throughput,
            "simulator.model_comparisons": result.total_comparisons,
            "matches": result.matches,
        },
    }
    if captured:
        record["digest"] = digest(m.key for m in captured[0])
    return record


def run_procs(events, pattern, timer: LayerTimer, trace: bool):
    """One procs run in a forked helper process, so that RUSAGE_CHILDREN
    reads the peak RSS of this run's workers alone."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            record = procs_once(events, pattern, timer, trace)
            with os.fdopen(write_end, "w") as out:
                json.dump(record, out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as source:
        payload = source.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"procs run failed (wait status {status})")
    return json.loads(payload)


def procs_once(events, pattern, timer: LayerTimer, trace: bool):
    engine = ProcsPipelineEngine(pattern, procs=nproc(), batch_size=1)
    start = time.perf_counter()
    matches = engine.run(events)
    seconds = time.perf_counter() - start
    result = engine.result
    record = {
        "seconds": seconds,
        "matches": len(matches),
        "digest": digest(m.key for m in matches),
        "start_method": result.extra["start_method"],
        # ru_maxrss is in KiB on Linux.
        "worker_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if trace:
        comm = result.extra["comm"]
        workers = result.extra["procs"]
        busy = list(result.unit_busy)
        per_worker = [
            sum(busy[lo:hi]) for lo, hi in agent_slices(len(busy), workers)
        ]
        record["procs"] = {
            "wall_s": seconds,
            "workers": workers,
            "busy_s": sum(busy),
            "worker_busy_max_s": max(per_worker),
            "worker_busy_mean_s": sum(per_worker) / len(per_worker),
            "events_in": sum(comm["events_in"]),
            "match_ptrs_in": sum(comm["match_pointers_in"]),
            "match_ptrs_out": sum(comm["match_pointers_out"]),
            "put_calls": timer.calls.get("procs.put", 0),
            "put_s": timer.total.get("procs.put", 0.0),
            **pickle_costs(events, matches),
        }
    return record


def pickle_costs(events, matches) -> dict:
    """Round-trip costs of this workload's own events and partial matches
    through pickle, the serialization multiprocessing queues use."""
    from repro.core.matches import PartialMatch

    def per_object_us(objects) -> float:
        if not objects:
            return 0.0
        start = time.perf_counter()
        for item in objects:
            pickle.loads(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
        return (time.perf_counter() - start) * 1e6 / len(objects)

    step = max(1, len(matches) // PICKLE_SAMPLE)
    partials = [
        PartialMatch(binding=dict(match.binding), earliest=match.earliest,
                     latest=match.latest)
        for match in matches[::step][:PICKLE_SAMPLE]
    ]
    pointers = sum(partial_size(p) for p in partials)
    return {
        "pickle_us_per_event": per_object_us(events[:PICKLE_SAMPLE]),
        "pickle_us_per_partial": per_object_us(partials),
        "pointers_per_partial": pointers / len(partials) if partials else 1.0,
    }


# --------------------------------------------------------------------- #
# Driver                                                                 #
# --------------------------------------------------------------------- #


def queue_put_counter(timer: LayerTimer) -> None:
    """Count and time the messages the procs parent puts on its workers'
    queues (forked workers keep their own copies of the counters)."""
    from multiprocessing import queues

    queues.Queue.put = timer.wrap("procs.put", queues.Queue.put)


def layer_report(timer: LayerTimer, buffers: list) -> dict:
    report = {
        "calls": dict(timer.calls),
        "total_s": dict(timer.total),
        "self_s": dict(timer.self_time),
        "rows": dict(timer.counts),
    }
    report["purged_items"] = sum(getattr(b, "purged", 0) for b in buffers)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--path", required=True, choices=PATHS)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--indices", required=True,
                        help="comma-separated sub-stream indices to replay")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inputs", required=True,
                        help="directory of the run's pickled sub-streams")
    args = parser.parse_args(argv)
    indices = [int(index) for index in args.indices.split(",")]
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    timer = LayerTimer()
    captured = capture_resolved() if args.path.startswith("sim") else []

    if trace:
        # Build every input first, so generation and query calibration
        # stay out of the layer counters (setup is the exception: its
        # calibration is the measured work).
        inputs = {j: load_input(args.inputs, j) for j in indices}
        if args.path == "procs":
            # Forked workers would inherit layer wrappers whose counters
            # never reach this process; only the parent's sends are timed.
            queue_put_counter(timer)
            buffers = []
        else:
            buffers = instrument(timer)
    else:
        inputs = None
        buffers = []

    records = []
    latency: list[list[float]] = []
    # Consecutive sub-streams share the probe between them.
    before = probe()
    for index in indices:
        if inputs is not None:
            events, pattern = inputs[index]
        else:
            events, pattern = load_input(args.inputs, index)
        if args.path == "setup":
            record = run_setup(events, workload, args.seed, index)
        elif args.path == "seq":
            record = run_seq(events, pattern, record_latency=not trace)
            latency.append(record.pop("latency_s"))
        elif args.path == "procs":
            record = run_procs(events, pattern, timer, trace)
        elif trace:
            # The simulator's own wall time outside every wrapped layer is
            # its driver self time.
            record = timer.span("simulator.driver", run_sim, events,
                                pattern, SIM_BATCH[args.path], captured)
        else:
            record = run_sim(events, pattern, SIM_BATCH[args.path], captured)
        after = probe()
        record["host_speed"] = (before + after) / (2 * REFERENCE_RATE)
        before = after
        record["index"] = index
        record["events"] = len(events)
        records.append(record)
        del events, pattern

    usage = resource.getrusage(resource.RUSAGE_SELF)
    output = {
        "path": args.path,
        "records": records,
        # Per sub-stream: wall seconds of each match-emitting call.
        "latency_s": latency,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if trace:
        output["layers"] = layer_report(timer, buffers)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
