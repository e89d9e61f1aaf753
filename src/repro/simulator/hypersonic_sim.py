"""Discrete-event simulation of the HYPERSONIC agent chain.

Drives the agent chain that :class:`~repro.hypersonic.engine.HypersonicEngine`
plans and wires — splitter, agents, worker policy — under a virtual clock;
``HypersonicEngine.run`` is this simulation at the engine's own cost
constants.  Every processed work item advances its unit's clock by the
modelled cost of the actions the item's
:class:`~repro.hypersonic.items.Receipt` records:

    locks * b  +  comparisons * c  +  scan(touch, fragments)  +  pushes * q

so scheduling decisions (outer allocation, role dynamics, migration,
fusion) manifest as virtual-time throughput, latency, and memory — the
quantities of the paper's Figures 7–12 — while the emitted match set stays
exactly correct (every simulated run still produces the full match set and
the tests verify it).

Injection is closed-loop: the splitter routes the next input event as soon
as the number of in-flight items falls below ``inflight_cap``, modelling a
saturated source with bounded channel capacity.  Event *arrival time* is
its injection time; a match's detection latency is its completion time
minus the arrival time of its latest constituent event (the paper's
definition, Section 5.1).  ``Match.detected_at`` stays in *stream* time
(the splitter watermark when the match completes), so ``Match.latency``
is the event-time lag the sequential engine reports too.

The discrete-event machinery itself — heap, clock, unit pool, injection
policy, latency reservoir, window payload accounting, result assembly —
lives in the shared :class:`~repro.simulator.kernel.SimKernel`; this module
keeps only the agent-chain semantics (splitter routing, unit wake/park,
receipt routing, flush).  Input may be any iterable: a plain list, a
generator, or a :class:`~repro.simulator.sources.WorkloadSource`; a
non-list stream is consumed in a single pass and never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.control import ControlPlane, LoadShedder, ReplanDecision
from repro.core.errors import AllocationError
from repro.core.events import Event, validate_stream_order
from repro.core.matches import Match
from repro.core.patterns import Pattern
from repro.core.policies import resolve_matches
from repro.costmodel.model import CostParameters, WorkloadStatistics
from repro.hypersonic.buffers import BufferSnapshot
from repro.hypersonic.engine import HypersonicConfig, HypersonicEngine
from repro.hypersonic.items import ItemKind, Receipt, WorkItem
from repro.obs.slo import SloEngine, SloSpec
from repro.obs.tracer import Tracer
from repro.simulator.cache import CacheModel
from repro.simulator.kernel import SimKernel
from repro.simulator.metrics import SimResult
from repro.simulator.sources import as_source

__all__ = ["HypersonicSimulation", "simulate_hypersonic"]

_INJECT = 0
_WAKE = 1

@dataclass
class _SimKnobs:
    inflight_cap: int = 96
    snapshot_interval: int = 128
    queue_item_pointers: int = 4  # modelled pointer footprint of a queued item
    batch_size: int = 1           # events per splitter/agent micro-batch


class HypersonicSimulation:
    """One simulated run of the hybrid engine on a finite stream."""

    def __init__(
        self,
        pattern: Pattern,
        num_units: int,
        config: HypersonicConfig | None = None,
        stats: WorkloadStatistics | None = None,
        costs: CostParameters | None = None,
        cache: CacheModel | None = None,
        inflight_cap: int = 96,
        snapshot_interval: int = 128,
        strategy_name: str = "hypersonic",
        pace: float | None = None,
        tracer: Tracer | None = None,
        model_costs: CostParameters | None = None,
        batch_size: int = 1,
        adapt: str = "off",
        shed_bound: int = 0,
        shed_policy: str | None = None,
        slos: Iterable[SloSpec] | None = None,
        _engine: HypersonicEngine | None = None,
    ) -> None:
        # ``costs`` drives the virtual clock — the simulated deployment's
        # actual per-action costs.  ``model_costs`` is the *planner's*
        # cost model (allocation, fusion, predicted loads); it defaults to
        # the world costs, but calibration auto-tuning
        # (repro.costmodel.fitting.autotune) runs the two separately: the
        # world stays fixed while the planner's model is re-fitted to the
        # observed trace.  ``_engine`` is how HypersonicEngine.run drives
        # itself: the simulation then adopts that engine (and its planner
        # settings) instead of building one from the arguments.
        self.engine = _engine if _engine is not None else HypersonicEngine(
            pattern, num_units, config=config, stats=stats,
            costs=model_costs if model_costs is not None else costs,
            tracer=tracer,
        )
        self.tracer = self.engine.tracer
        self.costs = costs if costs is not None else CostParameters()
        self.cache = cache if cache is not None else CacheModel()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.knobs = _SimKnobs(
            inflight_cap=inflight_cap, snapshot_interval=snapshot_interval,
            batch_size=batch_size,
        )
        self.strategy_name = strategy_name
        # Paced (open-loop) injection disables backpressure: events arrive
        # at a fixed virtual-time interval, modelling steady-state operation
        # below saturation — the regime latency is measured in.
        self.pace = pace
        self.kernel = SimKernel(
            0,
            window=self.engine.nfa.window,
            inflight_cap=inflight_cap,
            pace=pace,
            snapshot_interval=snapshot_interval,
            latency_seed=self.engine.config.seed,
            tracer=self.tracer,
            costs=self.costs,
        )
        # Online adaptation (repro.control).  Everything here is ``None``
        # when ``adapt="off"`` and ``shed_bound == 0`` — the default path
        # then performs exactly the pre-control-plane arithmetic, pinned
        # bit-identical by the golden suite.
        if adapt not in ("off", "on"):
            raise ValueError(f"adapt must be 'off' or 'on', got {adapt!r}")
        self.adapt = adapt
        self.shed_bound = shed_bound
        self.shed_policy = (
            shed_policy if shed_policy is not None
            else ("pattern" if adapt == "on" else "tail")
        )
        self.shedder: LoadShedder | None = None
        self._control: ControlPlane | None = None
        # SLO evaluation (repro.obs.slo) — ``None`` unless specs were
        # given, so the default path does no extra per-event work.
        specs = tuple(slos) if slos else ()
        self.slo: SloEngine | None = (
            SloEngine(specs, tracer=self.tracer) if specs else None
        )
        self._splitter_parked = False
        self._inject_times: dict[int, float] = {}
        self._matches: list[Match] = []
        self._items_processed = 0
        self._comparisons = 0
        self._total_work = 0.0
        self._events_routed = 0
        self._exhausted = False
        self._flushed = False

    # ------------------------------------------------------------------ #

    def run(self, events: Iterable[Event]) -> SimResult:
        engine = self.engine
        kernel = self.kernel
        source = as_source(events)
        engine.ensure_statistics(source.prefix(engine.config.sample_size))
        engine.build()
        if self.shed_bound > 0:
            self.shedder = self._build_shedder()
            engine.splitter.shedder = self.shedder
        if self.adapt == "on":
            self._control = ControlPlane(
                window=engine.nfa.window,
                shedder=self.shedder,
                slo=self.slo,
                tracer=self.tracer,
            )
            if engine.allocation_plan is not None:
                plan = engine.allocation_plan.describe()
                self._control.note_plan(plan["per_agent"], plan["loads"])
            else:
                plan = engine.fusion_plan.describe()
                self._control.note_plan(plan["per_agent"], [])
            kernel.epoch_hook = self._control_epoch
        kernel.init_units(len(engine.units))
        self._stream = validate_stream_order(source)

        kernel.schedule(0.0, _INJECT, 0)
        while True:
            while True:
                entry = kernel.pop()
                if entry is None:
                    break
                time, tag, payload = entry
                if tag == _INJECT:
                    self._do_inject(time)
                else:
                    self._do_wake(payload, time)
            if self._exhausted and not self._flushed:
                self._do_flush()
                if kernel.pending:
                    continue
            break

        stuck = [repr(agent) for agent in engine.agents if agent.queue_depth()]
        if stuck:
            raise AllocationError(
                f"pipeline stalled with items in flight at: {stuck}; "
                "check role assignments cover both streams of every agent"
            )
        total_time = kernel.total_time()
        # Terminal policy resolution (identity for default patterns): the
        # simulated chain enumerates the skip-till-any set; the pattern's
        # selection/consumption policies refine it once per run.
        self._matches = resolve_matches(engine.pattern, self._matches)
        if self.tracer.enabled:
            self._sample_queues(total_time)
        extra_control: dict = {}
        if self.slo is not None:
            # Close before finish so SLO window events precede the final
            # frame tick (live dashboard == replay) and the report lands
            # in the extras alongside control/shed.
            self.slo.close(total_time)
            extra_control["slo"] = self.slo.report()
        if self.shedder is not None:
            extra_control["shed"] = self.shedder.counts()
        if self._control is not None:
            extra_control["control"] = {
                "epochs": self._control.epochs,
                "decisions": [
                    decision.as_dict()
                    for decision in self._control.decisions
                ],
            }
        result = kernel.finish(
            strategy=self.strategy_name,
            events=self._events_routed,
            matches=len(self._matches),
            total_comparisons=self._comparisons,
            total_work=self._total_work,
            duplication_factor=1.0,
            total_time=total_time,
            extra={
                "hops": sum(unit.hops for unit in engine.units),
                "per_agent_items": [
                    agent.items_processed for agent in engine.agents
                ],
                "allocation": (
                    list(engine.allocation_plan.per_agent)
                    if engine.allocation_plan is not None
                    else list(engine.fusion_plan.per_agent)
                ),
            },
        )
        result.extra.update(extra_control)
        return result

    @property
    def matches(self) -> list[Match]:
        return self._matches

    @property
    def control(self) -> ControlPlane | None:
        return self._control

    # -- online adaptation (repro.control) ------------------------------- #

    def _build_shedder(self) -> LoadShedder:
        engine = self.engine
        nfa = engine.nfa
        guard_types: set[str] = set()
        consumers: dict[str, object] = {}
        for agent in engine.agents:
            for type_name, _queue, kind in agent.input_routes():
                if kind is ItemKind.GUARD:
                    guard_types.add(type_name)
                else:
                    consumers[type_name] = agent
        return LoadShedder(
            bound=self.shed_bound,
            policy=self.shed_policy,
            guard_types=frozenset(guard_types),
            seed_types=frozenset({nfa.stages[0].event_type_name}),
            consumers=consumers,
        )

    def _control_epoch(self, now: float) -> None:
        """Kernel snapshot-cadence hook: evaluate one control epoch and
        apply whatever the plane decided."""
        control = self._control
        assert control is not None
        for decision in control.epoch(now):
            if decision.kind in ("reallocate", "migrate"):
                self._apply_reallocation(decision, now)
            elif decision.kind == "fuse":
                self.engine.policy.link(decision.agent, decision.partner)
            elif decision.kind == "defuse":
                self.engine.policy.unlink(decision.agent, decision.partner)
            # "shed" decisions are markers; admission control already
            # runs per event inside the splitter.

    def _apply_reallocation(self, decision: ReplanDecision, now: float) -> None:
        """Reassign units so primary-agent counts match the decision.

        Deterministic: recipients are filled in agent order; each move
        takes the highest-numbered unit from the donor with the largest
        surplus (ties to the lowest donor index).  Roles are kept — the
        role split re-balances itself through role dynamics.
        """
        engine = self.engine
        kernel = self.kernel
        units = engine.units
        target = list(decision.per_agent)
        counts = [0] * len(target)
        for unit in units:
            counts[unit.primary_agent] += 1
        watermark = engine.splitter.watermark
        moved: list[tuple[int, int, int]] = []
        for recipient in range(len(target)):
            while counts[recipient] < target[recipient]:
                donor = max(
                    range(len(target)),
                    key=lambda i: (counts[i] - target[i], -i),
                )
                unit = max(
                    (u for u in units if u.primary_agent == donor),
                    key=lambda u: u.unit_id,
                )
                unit.primary_agent = recipient
                unit.current_agent = recipient
                unit.last_hop_watermark = watermark
                unit.hops += 1
                counts[donor] -= 1
                counts[recipient] += 1
                moved.append((unit.unit_id, donor, recipient))
        if self.tracer.enabled:
            for unit_id, donor, recipient in moved:
                self.tracer.migration(now, unit_id, donor, recipient)
            self.tracer.alloc_plan(
                now, target, list(self._control.estimator.predicted_loads),
                "replan",
            )
        # Moved units may be parked at a drained agent; wake them so they
        # discover their new home's backlog.
        for unit_id, _donor, _recipient in moved:
            if unit_id in kernel.parked:
                kernel.parked.discard(unit_id)
                kernel.schedule(now, _WAKE, unit_id)

    # ------------------------------------------------------------------ #

    def _do_inject(self, time: float) -> None:
        """Route up to ``batch_size`` input events in one splitter turn.

        A batch pays one (summed) injection delay, modelling the amortized
        ingestion of a micro-batched source; with ``batch_size=1`` the
        loop body executes exactly once and reproduces the scalar
        schedule bit for bit.
        """
        kernel = self.kernel
        splitter = self.engine.splitter
        assert splitter is not None
        total_cost = 0.0
        consumed = 0
        routed = False
        if self.shedder is not None:
            self.shedder.note_backlog(kernel.in_flight)
        for _ in range(self.knobs.batch_size):
            if not kernel.admit():
                # Park only when this turn schedules no follow-up inject
                # (consumed == 0, below); a partial batch keeps the single
                # inject chain alive and re-checks admission next turn.
                if consumed == 0:
                    self._splitter_parked = True
                break
            event = next(self._stream, None)
            if event is None:
                self._exhausted = True
                break
            consumed += 1
            receipt = splitter.route(event, ready_at=time)
            if self.slo is not None:
                # Same signals the trace records (SPLITTER_ROUTE / SHED),
                # so slo_report over the JSONL reproduces this evaluation.
                if receipt.shed:
                    self.slo.observe_shed(time)
                elif not receipt.dropped:
                    self.slo.observe_route(time)
            if not receipt.dropped and not receipt.shed:
                routed = True
                self._events_routed += 1
                self._inject_times[event.event_id] = time
                kernel.in_flight += receipt.pushes
                self._comparisons += receipt.comparisons
                kernel.window.observe(event.timestamp, event.payload_size)
            total_cost += max(
                receipt.pushes * self.costs.queue_push
                + receipt.comparisons * self.costs.comparison,
                self.costs.queue_push,
            )
        if consumed == 0:
            return
        if routed:
            self._wake_consumers_of_push(time)
        self._total_work += total_cost
        kernel.schedule(time + kernel.inject_delay(total_cost), _INJECT, 0)

    def _wake_consumers_of_push(self, time: float) -> None:
        """Wake every parked unit that might now have work.

        With agent-dynamic allocation any parked unit can hop to the agent
        that just received work, so all parked units wake; otherwise only
        residents of agents with ready items need to.
        """
        parked = self.kernel.parked
        if not parked:
            return
        engine = self.engine
        agent_dynamic = engine.config.agent_dynamic
        to_wake = []
        for unit_id in parked:
            if agent_dynamic:
                to_wake.append(unit_id)
                continue
            unit = engine.units[unit_id]
            if engine.agents[unit.current_agent].has_any_work(float("inf")):
                to_wake.append(unit_id)
        for unit_id in to_wake:
            parked.discard(unit_id)
            self.kernel.schedule(time, _WAKE, unit_id)

    def _do_wake(self, unit_id: int, time: float) -> None:
        engine = self.engine
        kernel = self.kernel
        if time < kernel.unit_free[unit_id]:
            return  # stale wake; the completion wake will re-drive it
        unit = engine.units[unit_id]
        policy = engine.policy
        assert policy is not None
        selection = policy.select(unit, now=time)
        if selection is None:
            agent = engine.agents[unit.current_agent]
            receipt = agent.maintenance()
            if receipt.pushes:
                done = time + receipt.pushes * self.costs.queue_push
                self._route(agent, receipt, done, unit_id)
                kernel.schedule(done, _WAKE, unit_id)
                return
            next_ready = self._next_ready_time(unit)
            if next_ready is not None and next_ready > time:
                kernel.schedule(next_ready, _WAKE, unit_id)
            else:
                kernel.parked.add(unit_id)
            return
        agent = engine.agents[selection.agent_index]
        items = [selection.item]
        batch = self.knobs.batch_size
        batch_queue = None
        if batch > 1:
            # Micro-batch: drain up to batch_size ready same-kind items into
            # one agent turn — from the event queue the popped item came
            # from (each input queue holds one kind, so a single-queue drain
            # is a single-kind batch by construction).  Ready guard work
            # blocks batching, as agents drain their guard queue before the
            # ES.
            for _type, queue, kind in agent.input_routes():
                if kind is ItemKind.GUARD:
                    if queue.has_ready(time):
                        batch_queue = None
                        break
                elif kind is selection.item.kind:
                    batch_queue = queue
        if batch_queue is not None:
            while len(items) < batch:
                follow = batch_queue.pop(time)
                if follow is None:
                    break
                items.append(follow)
        kernel.in_flight -= len(items)
        if len(items) > 1:
            receipt = agent.process_batch(items, unit_id)
        else:
            receipt = agent.process(selection.item, unit_id)
        cost = self._cost_of(receipt)
        done = kernel.occupy(unit_id, time, cost)
        if self.tracer.enabled:
            self.tracer.unit_busy(
                time, cost, unit_id, selection.agent_index,
                selection.role, selection.item.kind.value,
            )
        if self._control is not None:
            self._control.observe_busy(selection.agent_index, cost)
        unit.items_processed += len(items)
        self._items_processed += len(items)
        self._comparisons += receipt.comparisons
        self._total_work += cost
        self._route(agent, receipt, done, unit_id)
        if self._splitter_parked and kernel.admit():
            self._splitter_parked = False
            kernel.schedule(done, _INJECT, 0)
        kernel.schedule(done, _WAKE, unit_id)
        # Backlog invitation: if this agent still has queued work and units
        # are parked elsewhere, wake them — during a drain (no new pushes)
        # nothing else would, and idle units must get the chance to migrate
        # (agent-dynamic) or resume (role-dynamic).
        if kernel.parked and agent.queue_depth() > 2:
            self._wake_consumers_of_push(done)
        if kernel.snapshot_due(self._items_processed):
            self._sample_memory()
            if self.tracer.enabled:
                self._sample_queues(done)

    def _cost_of(self, receipt: Receipt) -> float:
        penalty = self.cache.comparison_penalty(receipt.scanned, receipt.scan_sq)
        return (
            receipt.fragments_locked * self.costs.lock
            + receipt.comparisons * self.costs.comparison * penalty
            + self.cache.scan_cost(receipt.scanned, receipt.scan_sq)
            + receipt.pushes * self.costs.queue_push
        )

    def _route(self, agent, receipt: Receipt, done: float, unit_id: int) -> None:
        engine = self.engine
        kernel = self.kernel
        position = agent.agent_index
        for partial in receipt.emitted_self:
            agent.ms.push(WorkItem(ItemKind.MATCH, partial), ready_at=done)
            kernel.in_flight += 1
        if position + 1 < len(engine.agents):
            downstream = engine.agents[position + 1]
            for partial in receipt.emitted_down:
                downstream.ms.push(WorkItem(ItemKind.MATCH, partial), ready_at=done)
                kernel.in_flight += 1
        else:
            watermark = engine.splitter.watermark
            window = engine.nfa.window
            for partial in receipt.emitted_down:
                # Stream-time detection: the watermark, or once the
                # splitter is sealed, the window close of the match.
                detected = (
                    watermark if watermark < float("inf")
                    else max(partial.latest, partial.earliest + window)
                )
                self._matches.append(
                    Match.from_partial(partial, detected_at=detected)
                )
                latest_id = max(
                    partial.events(), key=lambda e: (e.timestamp, e.event_id)
                ).event_id
                arrival = self._inject_times.get(latest_id)
                if arrival is not None:
                    kernel.latency.add(done - arrival)
                if self.slo is not None:
                    self.slo.observe_match(
                        done, done - arrival if arrival is not None else None,
                    )
                if self.tracer.enabled:
                    self.tracer.match(
                        done, position,
                        done - arrival if arrival is not None else None,
                    )
        if receipt.pushes:
            self._wake_consumers_of_push(done)

    def _next_ready_time(self, unit) -> float | None:
        agent = self.engine.agents[unit.current_agent]
        candidates = []
        for queue in agent.input_queues():
            ready = queue.peek_ready_at()
            if ready is not None:
                candidates.append(ready)
        return min(candidates) if candidates else None

    def _do_flush(self) -> None:
        self._flushed = True
        kernel = self.kernel
        splitter = self.engine.splitter
        assert splitter is not None
        splitter.seal()
        time = kernel.total_time()
        for agent in self.engine.agents:
            for receipt in (agent.maintenance(), agent.flush()):
                if receipt.pushes:
                    self._route(agent, receipt, time, unit_id=-1)
        # Wake everything for the post-seal drain.
        for unit_id in list(kernel.parked):
            kernel.parked.discard(unit_id)
            kernel.schedule(time, _WAKE, unit_id)

    def _sample_queues(self, now: float) -> None:
        """Record the depth of every agent channel at virtual time *now*."""
        tracer = self.tracer
        for index, agent in enumerate(self.engine.agents):
            for channel, depth in agent.channel_depths():
                tracer.queue_depth(now, index, channel, depth)

    def _sample_memory(self) -> None:
        kernel = self.kernel
        snapshot = BufferSnapshot.merge(
            [agent.snapshot() for agent in self.engine.agents]
        )
        pointer = self.costs.pointer_size
        queued = kernel.in_flight * self.knobs.queue_item_pointers * pointer
        kernel.note_memory(
            snapshot.pointer_items * pointer
            + snapshot.mb_items * self.costs.match_overhead
            + kernel.window.payload
            + queued
        )


def simulate_hypersonic(
    pattern: Pattern,
    events: Iterable[Event],
    num_units: int,
    config: HypersonicConfig | None = None,
    stats: WorkloadStatistics | None = None,
    costs: CostParameters | None = None,
    cache: CacheModel | None = None,
    inflight_cap: int = 96,
    strategy_name: str = "hypersonic",
    pace: float | None = None,
    tracer: Tracer | None = None,
    model_costs: CostParameters | None = None,
    batch_size: int = 1,
    adapt: str = "off",
    shed_bound: int = 0,
    shed_policy: str | None = None,
    slos=None,
) -> SimResult:
    """Convenience wrapper: build, simulate, return the result."""
    simulation = HypersonicSimulation(
        pattern,
        num_units,
        config=config,
        stats=stats,
        costs=costs,
        cache=cache,
        inflight_cap=inflight_cap,
        strategy_name=strategy_name,
        pace=pace,
        tracer=tracer,
        model_costs=model_costs,
        batch_size=batch_size,
        adapt=adapt,
        shed_bound=shed_bound,
        shed_policy=shed_policy,
        slos=slos,
    )
    return simulation.run(events)
