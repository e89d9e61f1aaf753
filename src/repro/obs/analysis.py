"""Critical-path latency attribution over a recorded trace.

:func:`latency_breakdown` replays a :class:`~repro.obs.tracer.TraceRecorder`
(or any iterable of :class:`~repro.obs.tracer.TraceEvent`, e.g. one read
back from a JSONL file) and decomposes the traced end-to-end match
latencies into per-stage *queue wait* versus *service time*:

* **service** — the distribution of ``UNIT_BUSY`` span durations charged
  to each agent (p50/p95/p99 plus the busy-time total), split by work-item
  kind so event-stream and match-stream processing are distinguishable;
* **queue wait** — estimated per agent from the time-weighted integral of
  its ``QUEUE_DEPTH`` samples via Little's law (``W = L / lambda`` with
  ``L`` the time-averaged depth and ``lambda`` the observed item
  completion rate), the same decomposition used for the latency analyses
  in window-based parallel CEP work (see PAPERS.md);
* **end-to-end** — the p50/p95/p99 of the latencies carried by ``MATCH``
  events (the paper's detection latency, Section 5.1).

The pass needs nothing but the trace — no simulator re-run — so it works
identically on live recorders and on trace files replayed weeks later.
The "dominant stage" summary names the agent (and the component within
it) that contributes the largest share of the modelled per-match
critical path.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.obs.tracer import TraceEvent, TraceKind, TraceRecorder, _events_of

__all__ = ["latency_breakdown", "percentile"]


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample.

    Uses the same ``ceil(q * n) - 1`` index convention as
    :class:`~repro.simulator.metrics.LatencyAccumulator` so trace-derived
    and reservoir-derived percentiles are directly comparable.
    """
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def _distribution(values: list[float]) -> dict:
    """p50/p95/p99 + mean/total summary of one duration sample."""
    ordered = sorted(values)
    total = sum(ordered)
    count = len(ordered)
    return {
        "count": count,
        "total": total,
        "mean": total / count if count else 0.0,
        "p50": percentile(ordered, 0.50),
        "p95": percentile(ordered, 0.95),
        "p99": percentile(ordered, 0.99),
        "max": ordered[-1] if ordered else 0.0,
    }


def _depth_integral(samples: list[tuple[float, int]], end: float) -> float:
    """Time-weighted integral of a step function sampled at (ts, depth).

    Each sample holds until the next one; the last sample extends to
    *end*.  Out-of-order samples (merged channels) are sorted first.
    """
    if not samples:
        return 0.0
    samples = sorted(samples)
    integral = 0.0
    for (ts, depth), (next_ts, _next_depth) in zip(samples, samples[1:]):
        integral += depth * max(next_ts - ts, 0.0)
    last_ts, last_depth = samples[-1]
    integral += last_depth * max(end - last_ts, 0.0)
    return integral


def latency_breakdown(trace: "TraceRecorder | Iterable[TraceEvent]",
                      total_time: float | None = None) -> dict:
    """Decompose traced match latency into per-agent wait vs. service.

    Returns a JSON-serialisable report; see the module docstring for the
    method.  Works on any trace, including empty ones (all sections come
    back zeroed) and partition-strategy traces (where "agents" are
    partition runs and queue waits come from the dispatcher's ``inflight``
    channel).
    """
    events = _events_of(trace)

    service: dict[int, list[float]] = {}
    by_kind: dict[int, dict[str, float]] = {}
    depth_samples: dict[int, list[tuple[float, int]]] = {}
    match_latency: dict[int, list[float]] = {}
    all_latencies: list[float] = []
    span_end = 0.0

    for event in events:
        if event.kind == TraceKind.UNIT_BUSY:
            agent = event.agent if event.agent is not None else -1
            service.setdefault(agent, []).append(event.dur)
            kinds = by_kind.setdefault(agent, {})
            item = event.args.get("item", "item")
            kinds[item] = kinds.get(item, 0.0) + event.dur
            if event.ts + event.dur > span_end:
                span_end = event.ts + event.dur
        elif event.kind == TraceKind.QUEUE_DEPTH:
            agent = event.agent if event.agent is not None else -1
            depth = event.args.get("depth", 0)
            depth_samples.setdefault(agent, []).append((event.ts, depth))
            if event.ts > span_end:
                span_end = event.ts
        elif event.kind == TraceKind.MATCH:
            latency = event.args.get("latency")
            if latency is not None:
                agent = event.agent if event.agent is not None else -1
                match_latency.setdefault(agent, []).append(latency)
                all_latencies.append(latency)
            if event.ts > span_end:
                span_end = event.ts

    if total_time is None or total_time <= 0:
        total_time = span_end

    agents = sorted(set(service) | set(depth_samples) | set(match_latency))
    per_agent: list[dict] = []
    stage_weights: dict[int, dict] = {}
    for agent in agents:
        durations = service.get(agent, [])
        svc = _distribution(durations)
        integral = _depth_integral(depth_samples.get(agent, []), total_time)
        mean_depth = integral / total_time if total_time > 0 else 0.0
        # Little's law: time-averaged occupancy over completion rate.
        rate = svc["count"] / total_time if total_time > 0 else 0.0
        est_wait = mean_depth / rate if rate > 0 else 0.0
        row = {
            "agent": agent,
            "items": svc["count"],
            "service": svc,
            "service_by_kind": dict(
                sorted(by_kind.get(agent, {}).items())
            ),
            "queue": {
                "samples": len(depth_samples.get(agent, [])),
                "depth_integral": integral,
                "mean_depth": mean_depth,
                "est_wait": est_wait,
            },
            "arrival_rate": rate,
            "stage_latency": est_wait + svc["mean"],
        }
        latencies = match_latency.get(agent)
        if latencies:
            row["match_latency"] = _distribution(latencies)
        per_agent.append(row)
        stage_weights[agent] = row

    dominant = None
    if stage_weights:
        worst = max(
            stage_weights.values(), key=lambda row: row["stage_latency"]
        )
        if worst["stage_latency"] > 0:
            wait = worst["queue"]["est_wait"]
            svc_mean = worst["service"]["mean"]
            dominant = {
                "agent": worst["agent"],
                "component": "queue" if wait > svc_mean else "service",
                "stage_latency": worst["stage_latency"],
                "share": (
                    worst["stage_latency"]
                    / sum(r["stage_latency"] for r in stage_weights.values())
                    if sum(r["stage_latency"] for r in stage_weights.values()) > 0
                    else 0.0
                ),
            }

    return {
        "total_time": total_time,
        "per_agent": per_agent,
        "end_to_end": _distribution(all_latencies),
        "dominant": dominant,
    }
