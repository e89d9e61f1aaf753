"""Cost-model calibration: predicted vs. observed per-agent load.

HYPERSONIC's outer load balancer allocates execution units proportionally
to the closed-form per-agent loads of Theorems 1-3
(:mod:`repro.costmodel.model`).  This module measures how good those
predictions were for an *actual* run, using nothing but the recorded
trace — no simulator re-run:

* the ``ALLOC_PLAN`` event carries the model's predicted per-agent loads
  and the unit counts the plan assigned (``FUSION_PLAN`` carries unit
  counts only, so fused runs are calibrated against the allocation
  intent rather than raw loads);
* ``UNIT_BUSY`` spans give the observed per-agent busy-time shares and
  per-unit busy totals (the load-imbalance index);
* ``QUEUE_DEPTH`` samples give a secondary observed-load signal (the
  time-weighted backlog integral per agent);
* ``UNIT_BUSY`` spans of ``match`` items give the observed match-stream
  consumption rate per agent — the empirical counterpart of the model's
  ``m_i`` (Theorem 2).

The verdict compares the plan's integer allocation against the
*empirically optimal* split — the Theorem-1 proportional allocation re-run
on the observed busy shares — and reports how many units would have to
move, normalised to the pool size.
"""

from __future__ import annotations

from typing import Iterable

from repro.costmodel.model import allocation_moves, proportional_allocation
from repro.obs.analysis import _depth_integral
from repro.obs.tracer import TraceEvent, TraceKind, TraceRecorder, _events_of

__all__ = ["calibration_report", "DEFAULT_TOLERANCE"]

#: Fraction of the unit pool allowed to be misplaced before the verdict
#: flips to "drifted" (one unit is always forgiven: integer rounding).
DEFAULT_TOLERANCE = 0.25


def _relative_error(predicted: float, observed: float) -> float:
    """Signed relative error, with the observed value as the reference."""
    if observed > 0:
        return (predicted - observed) / observed
    return 0.0 if predicted == 0 else float("inf")


def calibration_report(trace: "TraceRecorder | Iterable[TraceEvent]",
                       total_time: float | None = None,
                       tolerance: float = DEFAULT_TOLERANCE) -> dict | None:
    """Compare the planned load model against the trace's observed loads.

    Returns ``None`` when the trace carries no allocation/fusion plan or
    no busy spans (partition-strategy traces, empty traces) — calibration
    is only defined for runs the cost model planned.

    Adaptive traces (REPLAN events present) are calibrated against the
    *last* plan using post-plan observations only: drift the control
    plane already acted on mid-run is its doing, not a model residual.
    The report then carries an ``"adaptation"`` block naming how many
    decisions fired; non-adaptive traces are byte-unchanged.
    """
    events = _events_of(trace)

    plan = None
    replans = 0
    replan_kinds: dict[str, int] = {}
    shed_events = 0
    for event in events:
        if event.kind in (TraceKind.ALLOC_PLAN, TraceKind.FUSION_PLAN):
            plan = event  # the last plan wins (re-planning runs)
        elif event.kind == TraceKind.REPLAN:
            replans += 1
            kind = event.args.get("decision", "?")
            replan_kinds[kind] = replan_kinds.get(kind, 0) + 1
        elif event.kind == TraceKind.SHED:
            shed_events += 1
    if plan is None:
        return None

    per_agent_units = [int(count) for count in plan.args.get("per_agent", [])]
    num_agents = len(per_agent_units)
    if num_agents == 0:
        return None
    total_units = sum(per_agent_units)

    predicted_loads = [float(load) for load in plan.args.get("loads", [])]
    if len(predicted_loads) != num_agents:
        # Fusion plans record unit counts but not raw loads; treat the
        # allocated unit shares as the plan's load prediction.
        predicted_loads = [float(count) for count in per_agent_units]
    predicted_total = sum(predicted_loads)

    def _accumulate(cutoff: float):
        busy = [0.0] * num_agents
        match_items = [0] * num_agents
        unit_busy: dict[int, float] = {}
        depth_samples: dict[int, list[tuple[float, int]]] = {}
        span_end = 0.0
        for event in events:
            if event.kind == TraceKind.UNIT_BUSY:
                if event.agent is None or not 0 <= event.agent < num_agents:
                    continue
                if event.ts < cutoff:
                    continue
                busy[event.agent] += event.dur
                if event.args.get("item") == "match":
                    match_items[event.agent] += 1
                if event.unit is not None:
                    unit_busy[event.unit] = (
                        unit_busy.get(event.unit, 0.0) + event.dur
                    )
                if event.ts + event.dur > span_end:
                    span_end = event.ts + event.dur
            elif event.kind == TraceKind.QUEUE_DEPTH:
                if event.agent is None or not 0 <= event.agent < num_agents:
                    continue
                if event.ts < cutoff:
                    continue
                depth_samples.setdefault(event.agent, []).append(
                    (event.ts, event.args.get("depth", 0))
                )
        return busy, match_items, unit_busy, depth_samples, span_end

    # Adaptive runs: judge the surviving (last) plan on what it actually
    # governed — observations from its install onward.  Pre-replan drift
    # was acted on, not left unexplained.
    post_plan_only = replans > 0 and plan.ts > 0
    adaptation_note = ""
    busy, match_items, unit_busy, depth_samples, span_end = _accumulate(
        plan.ts if post_plan_only else 0.0
    )
    if post_plan_only and sum(busy) <= 0:
        # The final plan landed too late to govern any busy span; fall
        # back to whole-run observations rather than returning nothing.
        post_plan_only = False
        adaptation_note = (
            "final plan saw no post-plan busy spans; calibrated against "
            "the whole run"
        )
        busy, match_items, unit_busy, depth_samples, span_end = _accumulate(0.0)

    total_busy = sum(busy)
    if total_busy <= 0:
        return None
    if total_time is None or total_time <= 0:
        total_time = span_end
    # Match-consumption rates are measured over the span the observations
    # cover: post-plan only for adaptive runs, the whole run otherwise.
    rate_window = total_time - plan.ts if post_plan_only else total_time

    integrals = [
        _depth_integral(depth_samples.get(agent, []), total_time)
        for agent in range(num_agents)
    ]
    total_integral = sum(integrals)

    rows: list[dict] = []
    abs_errors: list[float] = []
    for agent in range(num_agents):
        predicted_share = (
            predicted_loads[agent] / predicted_total if predicted_total > 0
            else 1.0 / num_agents
        )
        observed_share = busy[agent] / total_busy
        error = _relative_error(predicted_share, observed_share)
        abs_errors.append(abs(error))
        rows.append({
            "agent": agent,
            "allocated_units": per_agent_units[agent],
            "predicted_load": predicted_loads[agent],
            "predicted_share": predicted_share,
            "observed_busy": busy[agent],
            "observed_busy_share": observed_share,
            "relative_error": error,
            "queue_integral": integrals[agent],
            "queue_share": (
                integrals[agent] / total_integral if total_integral > 0 else 0.0
            ),
            "match_rate": (
                match_items[agent] / rate_window if rate_window > 0 else 0.0
            ),
        })

    # Empirically optimal Theorem-1 split: proportional allocation re-run
    # on the observed busy shares.
    optimal = proportional_allocation(busy, total_units)
    moves = allocation_moves(per_agent_units, optimal)
    allowed = max(1, int(tolerance * total_units))
    within = moves <= allowed
    for row, ideal in zip(rows, optimal):
        row["optimal_units"] = ideal

    unit_loads = list(unit_busy.values())
    unit_mean = sum(unit_loads) / len(unit_loads) if unit_loads else 0.0
    agent_norm = [
        busy[agent] / per_agent_units[agent]
        for agent in range(num_agents) if per_agent_units[agent] > 0
    ]
    agent_mean = sum(agent_norm) / len(agent_norm) if agent_norm else 0.0

    report = {
        "scheme": plan.args.get("scheme", "fusion"),
        "total_units": total_units,
        "total_time": total_time,
        "per_agent": rows,
        "mean_abs_relative_error": (
            sum(abs_errors) / len(abs_errors) if abs_errors else 0.0
        ),
        "max_abs_relative_error": max(abs_errors, default=0.0),
        # Classic load-imbalance index: max over mean.  Unit-level shows
        # scheduling skew between execution units; agent-level (busy per
        # allocated unit) shows how well the plan sized each agent.
        "imbalance": {
            "unit": (
                max(unit_loads) / unit_mean if unit_mean > 0 else 0.0
            ),
            "agent": (
                max(agent_norm) / agent_mean if agent_mean > 0 else 0.0
            ),
        },
        "allocation": {
            "actual": per_agent_units,
            "optimal": optimal,
            "moves": moves,
            "tolerance": tolerance,
            "allowed_moves": allowed,
            "within_tolerance": within,
        },
        "verdict": "calibrated" if within else "drifted",
    }
    if replans or shed_events:
        # Drift the control plane acted on mid-run is accounted for here,
        # not reported as unexplained residual model error.
        adaptation = {
            "replans": replans,
            "by_kind": dict(sorted(replan_kinds.items())),
            "shed_events": shed_events,
            "post_plan_only": post_plan_only,
        }
        if adaptation_note:
            adaptation["note"] = adaptation_note
        report["adaptation"] = adaptation
    return report
