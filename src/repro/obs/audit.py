"""Decision provenance: the causal chain behind every ``REPLAN`` event.

The runtime control plane (:mod:`repro.control.plane`) emits
:class:`~repro.control.decisions.ReplanDecision`\\ s from a live
:class:`~repro.obs.drift.DriftEstimator`; this module reconstructs, from
the recorded trace **alone**, what each decision saw and what it did:

* **trigger** — a shadow ``DriftEstimator`` observes the same signals
  the live one consumed (``ALLOC_PLAN``/``FUSION_PLAN`` plans,
  ``UNIT_BUSY`` spans) through its ``observe``, so at each ``REPLAN``
  event its state — observation count, observed vs. predicted shares,
  the empirically optimal split, the move count against the tolerance —
  *is* the evidence the plane acted on.  Reallocations mirror the
  plane's estimator reset, so later decisions are judged against
  post-replan observations only, exactly as live.
* **effect** — the run is partitioned at the decision timestamps; for
  each decision the per-agent busy shares and queue-depth integrals in
  the span *before* it are compared with the span *after* it, and for
  allocation-shaping decisions the misplacement (moves to the span's own
  empirically optimal split) before vs. after says whether the decision
  aligned the allocation with where load actually went.

Everything is a pure function of the event list, so the report computed
live (``extra["obs"]["audit"]``, attached by the kernel at finish) and
the report recomputed from the JSONL export are byte-identical — the
audit CI job replays a recorded adaptive trace and asserts exactly that.
Returns ``None`` for traces without ``REPLAN`` events (non-adaptive
runs), keeping the obs summary of golden-pinned runs unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from repro.costmodel.model import allocation_moves, proportional_allocation
from repro.obs.analysis import _depth_integral
from repro.obs.calibration import DEFAULT_TOLERANCE
from repro.obs.drift import DriftEstimator
from repro.obs.tracer import TraceEvent, TraceKind, TraceRecorder, _events_of

__all__ = ["audit_report"]


def _span_rows(num_agents: int) -> dict:
    return {
        "busy": [0.0] * num_agents,
        "depth_samples": [[] for _ in range(num_agents)],
    }


def audit_report(trace: "TraceRecorder | Iterable[TraceEvent]",
                 total_time: float | None = None,
                 tolerance: float = DEFAULT_TOLERANCE) -> dict | None:
    """Reconstruct the causal chain of every ``REPLAN`` in *trace*.

    Returns ``None`` when the trace holds no control-plane decisions.
    """
    events = _events_of(trace)
    if not any(event.kind == TraceKind.REPLAN for event in events):
        return None

    span_end = 0.0
    for event in events:
        if event.kind == TraceKind.SLO:
            continue  # window-end stamps may overhang the run
        end = event.ts + event.dur
        if end > span_end:
            span_end = end
    if total_time is None or total_time <= 0:
        total_time = span_end

    # Pass 1: shadow the live estimator and snapshot it at each decision.
    est = DriftEstimator(tolerance)
    plan_ts = 0.0
    decisions: list[dict] = []
    num_agents = 0
    for event in events:
        est.observe(event)
        if event.kind in (TraceKind.ALLOC_PLAN, TraceKind.FUSION_PLAN):
            plan_ts = event.ts
            num_agents = max(num_agents, est.num_agents)
        elif event.kind == TraceKind.REPLAN:
            args = event.args
            kind = args.get("decision", "?")
            per_agent = [int(c) for c in args.get("per_agent", [])]
            num_agents = max(num_agents, len(per_agent))
            record = {
                "ts": event.ts,
                "kind": kind,
                "per_agent": per_agent,
                "reason": args.get("reason", ""),
                "trigger": {
                    "since_plan_ts": plan_ts,
                    "observations": est.items,
                    "per_agent_before": list(est.per_agent),
                    "predicted_shares": est.predicted_shares(),
                    "observed_shares": est.observed_shares(),
                    "optimal": est.optimal_allocation(),
                    "moves": est.moves(),
                    "allowed_moves": est.allowed_moves(),
                    "drifted": est.drifted(),
                },
            }
            for key in ("epoch", "agent", "partner"):
                if key in args:
                    record[key] = args[key]
            decisions.append(record)
            if kind in ("reallocate", "migrate") and per_agent:
                # Mirror the plane's reset: the new allocation is judged
                # against post-replan observations only, with the busy at
                # replan time as its load forecast.
                est.note_plan(per_agent, list(est.busy))
                plan_ts = event.ts

    # Pass 2: partition the run at the decision timestamps and aggregate
    # busy time / queue integrals per span (span i precedes decision i).
    cuts = [record["ts"] for record in decisions]
    spans = [_span_rows(num_agents) for _ in range(len(cuts) + 1)]
    bounds = [0.0] + cuts + [max(total_time, cuts[-1] if cuts else 0.0)]
    for event in events:
        if event.kind == TraceKind.UNIT_BUSY:
            agent = event.agent
            if agent is None or not 0 <= agent < num_agents:
                continue
            spans[bisect_right(cuts, event.ts)]["busy"][agent] += event.dur
        elif event.kind == TraceKind.QUEUE_DEPTH:
            agent = event.agent
            if agent is None or not 0 <= agent < num_agents:
                continue
            spans[bisect_right(cuts, event.ts)]["depth_samples"][agent].append(
                (event.ts, event.args.get("depth", 0))
            )

    def span_summary(index: int) -> dict:
        rows = spans[index]
        start, end = bounds[index], bounds[index + 1]
        total = sum(rows["busy"])
        return {
            "start": start,
            "end": end,
            "busy_total": total,
            "busy_shares": (
                [value / total for value in rows["busy"]] if total > 0 else []
            ),
            "queue_integrals": [
                _depth_integral(samples, end)
                for samples in rows["depth_samples"]
            ],
        }

    by_kind: dict[str, int] = {}
    for index, record in enumerate(decisions):
        by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
        before = span_summary(index)
        after = span_summary(index + 1)
        effect = {"before": before, "after": after}
        if record["kind"] in ("reallocate", "migrate") and record["per_agent"]:
            total_units = sum(record["per_agent"])
            moves = {}
            for label, span, allocation in (
                ("before", before, record["trigger"]["per_agent_before"]),
                ("after", after, record["per_agent"]),
            ):
                busy = spans[index if label == "before" else index + 1]["busy"]
                if sum(busy) > 0 and allocation:
                    moves[label] = allocation_moves(
                        list(allocation),
                        proportional_allocation(busy, total_units),
                    )
            effect["moves_to_optimal"] = moves
            if "before" in moves and "after" in moves:
                effect["aligned"] = moves["after"] <= moves["before"]
        record["effect"] = effect

    return {
        "decisions": decisions,
        "summary": {
            "count": len(decisions),
            "by_kind": dict(sorted(by_kind.items())),
            "first_ts": decisions[0]["ts"],
            "last_ts": decisions[-1]["ts"],
        },
        "tolerance": tolerance,
        "total_time": total_time,
    }
