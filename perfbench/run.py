"""Wall-clock CEP benchmark: events/s, detection latency, memory and set-up
time per execution path, and the per-layer figures under them.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stocks_corr --seed 1 --seconds 20 \\
        --trace 0 [--out record.json]

Each path (set-up, sequential engine, scalar and batched simulator run as
programs, procs) runs in its own fresh process over the same generated
sub-streams; see ``perfbench/README.md`` for the load model and the metric
definitions.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run of each path.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``perfbench-record``, holds the full record (host fingerprint,
per-sub-stream figures, deterministic counts).  The exit code is nonzero
when any path run fails, raises or times out, or when a match-key set
differs from the sequential engine's or the sequential set from the
brute-force oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import nproc  # noqa: E402
from workloads import PATHS, WORKLOADS, substream_count  # noqa: E402

#: Sub-streams each path replays in a traced run (untraced and traced).
TRACE_COUNT = 4
#: Fresh-process passes over each path's sub-streams in an untraced run.
PASSES = 2
#: A run must end within this many seconds of its start.
RUN_DEADLINE_S = 170.0
#: Scratch directory (inside the checkout) for the run's pickled inputs.
WORK_DIR = ".perfbench_work"

SCALAR_LAYERS = (
    ("conditions.pearson_calls", "count"),
    ("conditions.pearson_self_s", "s"),
    ("conditions.evaluate_calls", "count"),
    ("conditions.evaluate_self_s", "s"),
    ("nfa.accepts_calls", "count"),
    ("nfa.accepts_self_s", "s"),
    ("nfa.order_self_s", "s"),
    ("matches.extend_calls", "count"),
    ("matches.extend_self_s", "s"),
)
SIM_LAYERS = (
    ("splitter.route_calls", "count"),
    ("splitter.route_self_s", "s"),
    ("buffers.purge_calls", "count"),
    ("buffers.purge_self_s", "s"),
    ("buffers.purged_items", "count"),
    ("agb.retain_calls", "count"),
    ("simulator.kernel_ops", "count"),
    ("simulator.kernel_self_s", "s"),
    ("simulator.driver_self_s", "s"),
    ("simulator.model_throughput", "ev/vtime"),
    ("simulator.model_comparisons", "count"),
    ("costmodel.estimate_statistics_s", "s"),
    ("costmodel.plan_s", "s"),
    ("trace_overhead", "ratio"),
)
#: Per-layer metrics of each path, named ``<path>.<layer metric>``.  The
#: procs layer is its own path, so its metrics carry the path name once.
LAYER_METRICS = {
    "setup": SCALAR_LAYERS + (
        ("workloads.build_query_s", "s"),
        ("costmodel.estimate_statistics_s", "s"),
    ),
    "seq": SCALAR_LAYERS + (
        ("engine.process_self_s", "s"),
        ("engine.comparisons", "count"),
        ("engine.partials_created", "count"),
        ("engine.accept_ratio", "ratio"),
        ("engine.peak_partials", "count"),
        ("engine.purged_partials", "count"),
        ("trace_overhead", "ratio"),
    ),
    "sim": SCALAR_LAYERS + SIM_LAYERS,
    "sim_batched": SCALAR_LAYERS + SIM_LAYERS + (
        ("vectorized.kernel_calls", "count"),
        ("vectorized.kernel_self_s", "s"),
        ("vectorized.rows_per_call", "rows/call"),
        ("vectorized.sync_self_s", "s"),
    ),
    "procs": (
        ("worker_busy_share", "ratio"),
        ("slice_imbalance", "ratio"),
        ("ipc_messages", "count"),
        ("match_ptrs_out", "count"),
        ("pickle_us_per_event", "us"),
        ("pickle_us_per_partial", "us"),
        ("pickle_est_share", "ratio"),
        ("parent_put_blocked_s", "s"),
        ("trace_overhead", "ratio"),
    ),
}

END_TO_END = (
    ("seq.events_per_s", "ev/s"),
    ("seq.detect_p50_us", "us"),
    ("seq.detect_p95_us", "us"),
    ("seq.peak_rss_mb", "MB"),
    ("sim.events_per_s", "ev/s"),
    ("sim_batched.events_per_s", "ev/s"),
    ("procs.events_per_s", "ev/s"),
    ("procs.peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    return [
        (f"{path}.{name}", unit)
        for path, layers in LAYER_METRICS.items()
        for name, unit in layers
    ]


# --------------------------------------------------------------------- #
# Host fingerprint                                                       #
# --------------------------------------------------------------------- #


def fingerprint() -> dict:
    """What must match before two results may be compared."""
    import multiprocessing

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "none"
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "start_method": multiprocessing.get_context().get_start_method(),
    }


# --------------------------------------------------------------------- #
# Children                                                               #
# --------------------------------------------------------------------- #


def run_path(path: str, workload: str, seed: int, indices: list[int],
             trace: bool, inputs: str,
             deadline: float) -> tuple[dict | None, str | None]:
    """Run one path in a fresh process; return (output, error)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    command = [
        sys.executable, os.path.join(HERE, "paths.py"),
        "--path", path, "--workload", workload, "--seed", str(seed),
        "--indices", ",".join(map(str, indices)),
        "--trace", "1" if trace else "0",
        "--inputs", inputs,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        return None, "no time left in the run"
    # A session of its own, so a timed-out child is stopped together with
    # any worker processes it started.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f}s"
    finally:
        _kill_session(child)
    if child.returncode != 0:
        return None, f"exit code {child.returncode}"
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


def merge(previous: dict | None, output: dict) -> dict:
    """Join the outputs of one path's passes."""
    if previous is None:
        return output
    previous["records"].extend(output["records"])
    previous["latency_s"].extend(output["latency_s"])
    previous["peak_rss_mb"] = max(previous["peak_rss_mb"],
                                  output["peak_rss_mb"])
    return previous


def _kill_session(child: subprocess.Popen) -> None:
    """Stop every process left in the child's session and reap the child."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    child.wait()


def oracle_digest(inputs: str) -> str:
    """Match-key digest of the brute-force oracle on sub-stream 0."""
    import importlib.util

    import paths

    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", os.path.join(ROOT, "tests", "oracle.py")
    )
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    events, pattern = paths.load_input(inputs, 0)
    return paths.digest(oracle.oracle_keys(pattern, events))


# --------------------------------------------------------------------- #
# Metrics                                                                #
# --------------------------------------------------------------------- #


def scaled_seconds(record: dict) -> float:
    """Wall seconds of one sub-stream at the reference host speed."""
    return record["seconds"] * record["host_speed"]


def rate(output: dict) -> float:
    """Upper quartile of events/s over the sub-streams of one path.

    Interference from other tenants of a shared host only ever slows a
    run, so the upper quartile follows the program more closely than the
    median does.
    """
    rates = [r["events"] / scaled_seconds(r) for r in output["records"]]
    return statistics.quantiles(rates, n=4)[2]


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def latency_samples(seq: dict) -> list[float]:
    """Detection-latency samples of every sub-stream, in scaled seconds."""
    return [
        sample * record["host_speed"]
        for record, samples in zip(seq["records"], seq["latency_s"])
        for sample in samples
    ]


def end_to_end(outputs: dict) -> dict:
    seq = outputs["seq"]
    latency = latency_samples(seq)
    return {
        "seq.events_per_s": rate(seq),
        "seq.detect_p50_us": percentile(latency, 0.50) * 1e6,
        "seq.detect_p95_us": percentile(latency, 0.95) * 1e6,
        "seq.peak_rss_mb": seq["peak_rss_mb"],
        "sim.events_per_s": rate(outputs["sim"]),
        "sim_batched.events_per_s": rate(outputs["sim_batched"]),
        "procs.events_per_s": rate(outputs["procs"]),
        "procs.peak_rss_mb": statistics.median(
            r["worker_peak_rss_mb"] for r in outputs["procs"]["records"]
        ),
        "setup_s": statistics.median(
            scaled_seconds(r) for r in outputs["setup"]["records"]
        ),
    }


def _sum(records: list, key: str) -> float:
    return sum(r["counts"][key] for r in records)


def layer_metrics(path: str, traced: dict, untraced: dict) -> dict:
    values: dict[str, float] = {}
    if path == "procs":
        rows = [r["procs"] for r in traced["records"]]
        wall = sum(r["wall_s"] for r in rows)
        workers = rows[0]["workers"]
        busy = sum(r["busy_s"] for r in rows)
        events_in = sum(r["events_in"] for r in rows)
        per_event = statistics.median(r["pickle_us_per_event"] for r in rows)
        per_partial = statistics.median(
            r["pickle_us_per_partial"] for r in rows
        )
        partials_in = sum(
            r["match_ptrs_in"] / r["pointers_per_partial"] for r in rows
        )
        values.update({
            "worker_busy_share": busy / (workers * wall),
            "slice_imbalance": statistics.median(
                r["worker_busy_max_s"] / r["worker_busy_mean_s"]
                if r["worker_busy_mean_s"] > 0 else 1.0
                for r in rows
            ),
            "ipc_messages": sum(r["put_calls"] for r in rows),
            "match_ptrs_out": sum(r["match_ptrs_out"] for r in rows),
            "pickle_us_per_event": per_event,
            "pickle_us_per_partial": per_partial,
            "pickle_est_share": (
                (events_in * per_event + partials_in * per_partial) * 1e-6
                / (workers * wall)
            ),
            "parent_put_blocked_s": sum(r["put_s"] for r in rows),
        })
    else:
        layers = traced["layers"]
        calls, self_s, total_s = (
            layers["calls"], layers["self_s"], layers["total_s"]
        )
        values.update({
            "conditions.pearson_calls": calls.get("conditions.pearson", 0),
            "conditions.pearson_self_s": self_s.get("conditions.pearson", 0.0),
            "conditions.evaluate_calls": calls.get("conditions.evaluate", 0),
            "conditions.evaluate_self_s": self_s.get(
                "conditions.evaluate", 0.0),
            "nfa.accepts_calls": calls.get("nfa.accepts", 0),
            "nfa.accepts_self_s": self_s.get("nfa.accepts", 0.0),
            "nfa.order_self_s": self_s.get("nfa.order", 0.0),
            "matches.extend_calls": calls.get("matches.extend", 0),
            "matches.extend_self_s": self_s.get("matches.extend", 0.0),
        })
        records = traced["records"]
        if path == "setup":
            values["workloads.build_query_s"] = total_s.get(
                "workloads.build_query", 0.0)
            values["costmodel.estimate_statistics_s"] = total_s.get(
                "costmodel.estimate_statistics", 0.0)
        elif path == "seq":
            comparisons = _sum(records, "engine.comparisons")
            created = _sum(records, "engine.partials_created")
            values.update({
                "engine.process_self_s": self_s.get("engine.process", 0.0),
                "engine.comparisons": comparisons,
                "engine.partials_created": created,
                "engine.accept_ratio": created / comparisons
                if comparisons else 0.0,
                "engine.peak_partials": max(
                    r["counts"]["engine.peak_partials"] for r in records),
                "engine.purged_partials": _sum(
                    records, "engine.purged_partials"),
            })
        else:
            values.update({
                "splitter.route_calls": calls.get("splitter.route", 0),
                "splitter.route_self_s": self_s.get("splitter.route", 0.0),
                "buffers.purge_calls": calls.get("buffers.purge", 0),
                "buffers.purge_self_s": self_s.get("buffers.purge", 0.0),
                "buffers.purged_items": layers["purged_items"],
                "agb.retain_calls": calls.get("agb.retain", 0),
                "simulator.kernel_ops": calls.get("simulator.kernel", 0),
                "simulator.kernel_self_s": self_s.get(
                    "simulator.kernel", 0.0),
                "simulator.driver_self_s": self_s.get(
                    "simulator.driver", 0.0),
                "simulator.model_throughput":
                    records[0]["counts"]["simulator.model_throughput"],
                "simulator.model_comparisons": _sum(
                    records, "simulator.model_comparisons"),
                "costmodel.estimate_statistics_s": total_s.get(
                    "costmodel.estimate_statistics", 0.0),
                "costmodel.plan_s": total_s.get("costmodel.plan", 0.0),
            })
            if path == "sim_batched":
                kernel_calls = calls.get("vectorized.kernel", 0)
                values.update({
                    "vectorized.kernel_calls": kernel_calls,
                    "vectorized.kernel_self_s": self_s.get(
                        "vectorized.kernel", 0.0),
                    "vectorized.rows_per_call": layers["rows"].get(
                        "vectorized.kernel.rows", 0) / kernel_calls
                    if kernel_calls else 0.0,
                    "vectorized.sync_self_s": self_s.get(
                        "vectorized.sync", 0.0),
                })
    # Times, like the end-to-end ones, at the reference host speed.
    speed = statistics.mean(r["host_speed"] for r in traced["records"])
    for name in values:
        if name.endswith("_s") or "_us_" in name:
            values[name] *= speed
    if path != "setup":
        values["trace_overhead"] = rate(untraced) / rate(traced)
    return {f"{path}.{name}": value for name, value in values.items()}


# --------------------------------------------------------------------- #
# Correctness                                                            #
# --------------------------------------------------------------------- #


def check_matches(outputs: dict, reference: dict, problems: list) -> int:
    """Count the path runs whose match-key set differs from the sequential
    engine's on the same sub-stream."""
    failed = 0
    for label, output in outputs.items():
        if label.startswith("setup") or output is None:
            continue
        for record in output["records"]:
            expected = reference.get(record["index"])
            if record.get("digest") != expected:
                failed += 1
                problems.append(
                    f"{label} sub-stream {record['index']}: match keys "
                    f"{record.get('digest')} != sequential {expected}"
                )
    return failed


def check_repeat(untraced: dict, traced: dict, label: str,
                 problems: list) -> int:
    """Deterministic counts must repeat exactly between the untraced and
    the traced run of the same sub-streams."""
    failed = 0
    for plain, wrapped in zip(untraced["records"], traced["records"]):
        if plain.get("counts") != wrapped.get("counts"):
            failed += 1
            problems.append(
                f"{label} sub-stream {plain['index']}: counts differ between "
                f"runs: {plain.get('counts')} != {wrapped.get('counts')}"
            )
    return failed


# --------------------------------------------------------------------- #
# Main                                                                   #
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args(argv)
    # A terminated run still stops its children and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source at src/repro in this checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    counts = {
        path: substream_count(workload, path, args.seconds) for path in PATHS
    }
    if trace:
        counts = {path: min(count, TRACE_COUNT)
                  for path, count in counts.items()}

    inputs = os.path.join(
        ROOT, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    try:
        return measure(args, workload, counts, inputs, started, deadline)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass


def measure(args, workload, counts: dict, inputs: str, started: float,
            deadline: float) -> int:
    import paths

    os.makedirs(inputs)
    for index in range(max(counts.values())):
        paths.save_input(inputs, workload, args.seed, index)
    trace = bool(args.trace)
    outputs: dict[str, dict | None] = {}
    problems: list[str] = []
    attempted = failed = 0
    labels = [(path, False) for path in PATHS]
    if trace:
        labels += [(path + ":traced", True) for path in PATHS]
    # Untraced paths replay their sub-streams in several passes, each in a
    # fresh process, so every path samples the host over the whole run
    # rather than over one stretch of it.
    passes = 1 if trace else PASSES
    for turn in range(passes):
        for label, traced in labels:
            path = label.split(":")[0]
            indices = list(range(turn, counts[path], passes))
            if not indices or (label in outputs and outputs[label] is None):
                continue
            attempted += len(indices)
            output, error = run_path(path, args.workload, args.seed, indices,
                                     traced, inputs, deadline)
            if error is not None:
                failed += len(indices)
                problems.append(f"{label}: {error}")
                outputs[label] = None
            else:
                outputs[label] = merge(outputs.get(label), output)

    reference = {}
    if outputs.get("seq") is not None:
        reference = {
            r["index"]: r["digest"] for r in outputs["seq"]["records"]
        }
    failed += check_matches(outputs, reference, problems)
    if trace:
        for path in ("seq", "sim", "sim_batched"):
            if outputs.get(path) and outputs.get(path + ":traced"):
                failed += check_repeat(
                    outputs[path], outputs[path + ":traced"], path, problems
                )

    # The oracle check runs once per seed, after every timed child.
    attempted += 1
    try:
        expected = oracle_digest(inputs)
    except Exception as error:  # noqa: BLE001 - reported as a failed op
        failed += 1
        problems.append(f"oracle: {type(error).__name__}: {error}")
    else:
        if reference.get(0) != expected:
            failed += 1
            problems.append(
                f"oracle: sequential sub-stream 0 keys {reference.get(0)} "
                f"!= oracle {expected}"
            )

    correct = failed == 0
    metrics: dict[str, dict] = {}
    if correct:
        if trace:
            values = {}
            for path in PATHS:
                values.update(layer_metrics(
                    path, outputs[path + ":traced"], outputs[path]))
            units = dict(per_layer_names())
        else:
            values = end_to_end(outputs)
            units = dict(END_TO_END)
        metrics = {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "substreams": counts,
        "wall_s": time.monotonic() - started,
        "problems": problems,
        "detect_samples": sum(map(len, outputs["seq"]["latency_s"]))
        if outputs.get("seq") else 0,
        "counts": {
            label: [r.get("counts") for r in output["records"]]
            for label, output in outputs.items()
            if output is not None and not label.startswith("setup")
            and not label.startswith("procs")
        },
        "per_substream": {
            label: [
                {"events": r["events"], "seconds": r["seconds"],
                 "host_speed": r["host_speed"]}
                for r in output["records"]
            ]
            for label, output in outputs.items() if output is not None
        },
        "metrics": metrics,
    }
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print("perfbench-record " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
