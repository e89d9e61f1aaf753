"""Wall-clock multiprocessing runtime for the agent pipeline.

This module runs the HYPERSONIC agent chain on real OS *processes* — the
chain is cut into contiguous slices of agents, each slice hosted by one
worker process, with the parent playing the splitter over bounded
``multiprocessing`` queues.  Separate processes execute on separate
cores, so this backend produces *measured* wall-clock traces: the same JSONL schema the
virtual-clock simulators emit (``UNIT_BUSY`` spans against a shared
monotonic epoch, an ``ALLOC_PLAN`` with fittable feature rows), which lets
:func:`repro.costmodel.fitting.fit_from_trace` calibrate
:class:`~repro.costmodel.model.CostParameters` — including the
window-based communication terms ``comm_event`` / ``comm_match`` (Mayer et
al., arXiv:1705.05824) — against reality instead of the simulator.

Topology and protocol
---------------------
``num_procs = min(procs, num_agents)`` workers each own a contiguous agent
slice (:func:`agent_slices`).  The parent routes each stream event to the
process hosting the agent that consumes it (ES event, guard candidate, or
a stage-0 seed match), piggybacking its splitter watermark on every
message and broadcasting it periodically so idle workers still purge and
release negation quarantines.  Workers forward partial matches to the next
slice's inbox; the last agent's full matches ride back on a result queue
at shutdown, together with each worker's busy spans, receipts, and
per-agent communication counters.

Determinism contract
--------------------
Message interleavings are racy, but the agents' streaming join evaluates
every event/match pair exactly once regardless of arrival order, and a
worker's local watermark only ever *lags* the parent splitter's eager
watermark (it advances exclusively through parent-sourced messages, whose
per-producer FIFO guarantees every guard candidate is enqueued before any
watermark that passes it).  Lagging is always safe — it can only delay
purges and quarantine releases — so the match-key set is identical to the
sequential engine under both ``fork`` and ``spawn`` start methods; only
span timings vary between runs.

Robustness
----------
Every parent-side queue operation polls worker liveness, so a crashed
worker (any exit path, including ``os._exit``) surfaces as a clean
:class:`~repro.core.errors.EngineError` naming the worker and exit code —
never a hang.  Workers ignore ``SIGINT``; on ``KeyboardInterrupt`` the
parent terminates and joins all children before re-raising.  Workers are
daemonic as a backstop: no child outlives the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import signal
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.errors import EngineError, PatternError
from repro.core.events import Event, validate_stream_order
from repro.core.matches import Match, PartialMatch, match_key
from repro.core.nfa import compile_pattern
from repro.core.patterns import Operator, Pattern
from repro.core.policies import resolve_matches
from repro.costmodel.model import CostParameters, LoadModel
from repro.hypersonic.agent import AgentCore
from repro.hypersonic.items import ItemKind, WorkItem
from repro.obs.tracer import Tracer
from repro.simulator.metrics import SimResult

__all__ = ["ProcsPipelineEngine", "agent_slices", "partial_size"]

# Inbox opcodes (first tuple element).  Small strings pickle compactly.
_EVENT = "E"   # (op, local_agent, ItemKind, event, watermark) from parent
_SEED = "S"    # (op, partial, watermark) stage-0 seed from parent
_FWD = "F"     # (op, partial) partial match from the upstream worker
_WM = "W"      # (op, watermark) parent broadcast
_EOS = "X"     # (op,) parent end-of-stream — watermark goes to +inf
_STOP = "T"    # (op,) upstream worker flushed and stopped

#: Gap (seconds) under which consecutive same-key items merge into one
#: recorded busy span — keeps wall-clock traces compact without losing the
#: per-agent busy shares calibration needs.
_SPAN_MERGE_GAP = 5e-4

#: Grace period for a worker's final result message to drain out of its
#: queue feeder after the process exits.
_RESULT_GRACE = 3.0


def agent_slices(num_agents: int, procs: int) -> list[tuple[int, int]]:
    """Cut ``num_agents`` chain agents into ``procs`` contiguous slices.

    Returns ``[lo, hi)`` bounds, earlier slices taking the remainder —
    deterministic, so fork and spawn runs place agents identically.
    """
    if num_agents < 1:
        raise EngineError("agent_slices needs at least one agent")
    procs = max(1, min(procs, num_agents))
    base, extra = divmod(num_agents, procs)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for index in range(procs):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def partial_size(partial: PartialMatch) -> int:
    """Event pointers a partial match carries across an IPC boundary."""
    total = 0
    for bound in partial.binding.values():
        total += len(bound) if isinstance(bound, tuple) else 1
    return total


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker needs, picklable for the spawn start method."""

    worker_index: int
    pattern: Pattern
    agent_lo: int
    agent_hi: int
    num_agents: int
    batch_size: int
    trace: bool
    epoch: float
    crash_after: int | None = None


@dataclass
class _WorkerStats:
    """Per-worker measurement shipped back with the ``done`` message."""

    comparisons: int = 0
    items: int = 0
    busy: dict[int, float] = field(default_factory=dict)
    events_in: dict[int, int] = field(default_factory=dict)
    match_ptrs_in: dict[int, int] = field(default_factory=dict)
    match_ptrs_out: dict[int, int] = field(default_factory=dict)


class _SpanLog:
    """Coalescing recorder for worker-side ``UNIT_BUSY`` spans.

    Rows are ``(start, dur, unit, agent, role, item_kind)`` with ``start``
    relative to the shared monotonic epoch; consecutive items of the same
    (agent, role, kind) within :data:`_SPAN_MERGE_GAP` merge into one span.
    """

    def __init__(self, enabled: bool, epoch: float) -> None:
        self.enabled = enabled
        self.epoch = epoch
        self.rows: list[tuple] = []
        self._open: tuple | None = None

    def add(self, start: float, end: float, agent: int, role: str,
            kind: str) -> None:
        if not self.enabled:
            return
        key = (agent, role, kind)
        if self._open is not None and self._open[0] == key \
                and start - self._open[2] < _SPAN_MERGE_GAP:
            self._open = (key, self._open[1], end)
            return
        self.close()
        self._open = (key, start, end)

    def close(self) -> None:
        if self._open is None:
            return
        (agent, role, kind), start, end = self._open
        self.rows.append(
            (start - self.epoch, end - start, agent, agent, role, kind)
        )
        self._open = None


def _guard_type_names(stages, stage_index: int, is_last: bool) -> frozenset:
    """Guard event types agent ``stage_index - 1`` consumes (mirrors
    :class:`AgentCore`'s derivation without building the agent)."""
    names = {
        guard.item.event_type.name
        for guard in stages[stage_index - 1].guards_after
        if not guard.trailing
    }
    if is_last:
        names |= {
            guard.item.event_type.name
            for guard in stages[stage_index].guards_after
            if guard.trailing
        }
    return frozenset(names)


# --------------------------------------------------------------------- #
# Worker process                                                         #
# --------------------------------------------------------------------- #


def _worker_main(spec: _WorkerSpec, inbox, downstream, results) -> None:
    # The parent orchestrates shutdown; a Ctrl-C must not tear workers
    # down mid-queue-write (that is what corrupts pipes and leaks locks).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        _run_worker(spec, inbox, downstream, results)
    except BaseException as error:  # ship the failure, never hang the chain
        try:
            if downstream is not None:
                downstream.put((_STOP,))
            results.put((
                "error", spec.worker_index,
                f"{type(error).__name__}: {error}",
            ))
        except BaseException:
            os._exit(70)


def _run_worker(spec: _WorkerSpec, inbox, downstream, results) -> None:
    nfa = compile_pattern(spec.pattern)
    watermark = [float("-inf")]
    agents = [
        AgentCore(
            agent_index=global_index,
            stages=nfa.stages,
            stage_index=global_index + 1,
            window=nfa.window,
            watermark=lambda: watermark[0],
            is_last=global_index == spec.num_agents - 1,
        )
        for global_index in range(spec.agent_lo, spec.agent_hi)
    ]
    hosts_last = spec.agent_hi == spec.num_agents
    stats = _WorkerStats()
    spans = _SpanLog(spec.trace, spec.epoch)
    matches: list[Match] = []
    clock = time.monotonic

    def dispatch(local: int, receipt) -> None:
        for _partial in receipt.emitted_self:
            raise EngineError(
                "unexpected self-loop emission; Kleene growth is inline"
            )
        if not receipt.emitted_down:
            return
        global_index = spec.agent_lo + local
        if global_index == spec.num_agents - 1:
            for partial in receipt.emitted_down:
                matches.append(
                    Match.from_partial(partial, detected_at=partial.latest)
                )
        elif local + 1 < len(agents):
            for partial in receipt.emitted_down:
                agents[local + 1].ms.push(WorkItem(ItemKind.MATCH, partial))
        else:
            for partial in receipt.emitted_down:
                stats.match_ptrs_out[global_index] = (
                    stats.match_ptrs_out.get(global_index, 0)
                    + partial_size(partial)
                )
                downstream.put((_FWD, partial))

    def transfer(local: int, kind: ItemKind, payload) -> None:
        agent = agents[local]
        if kind is ItemKind.GUARD:
            agent.guard_q.push(WorkItem(ItemKind.GUARD, payload))
        else:
            agent.es.push(WorkItem(ItemKind.EVENT, payload))

    eos = False
    stop = False

    def handle(message) -> None:
        nonlocal eos, stop
        op = message[0]
        if op == _EVENT:
            _, local, kind, event, wm = message
            if wm > watermark[0]:
                watermark[0] = wm
            global_index = spec.agent_lo + local
            stats.events_in[global_index] = (
                stats.events_in.get(global_index, 0) + 1
            )
            transfer(local, kind, event)
        elif op == _SEED:
            _, partial, wm = message
            if wm > watermark[0]:
                watermark[0] = wm
            stats.match_ptrs_in[spec.agent_lo] = (
                stats.match_ptrs_in.get(spec.agent_lo, 0) + 1
            )
            agents[0].ms.push(WorkItem(ItemKind.MATCH, partial))
        elif op == _FWD:
            stats.match_ptrs_in[spec.agent_lo] = (
                stats.match_ptrs_in.get(spec.agent_lo, 0)
                + partial_size(message[1])
            )
            agents[0].ms.push(WorkItem(ItemKind.MATCH, message[1]))
        elif op == _WM:
            if message[1] > watermark[0]:
                watermark[0] = message[1]
        elif op == _EOS:
            eos = True
            watermark[0] = float("inf")
        elif op == _STOP:
            stop = True

    def drain_agent(local: int) -> bool:
        """Process everything queued at one agent; True if anything ran."""
        agent = agents[local]
        global_index = spec.agent_lo + local
        processed = False
        while True:
            item = agent.pop("event")
            role = "event"
            if item is None:
                item = agent.pop("match")
                role = "match"
            if item is None:
                return processed
            processed = True
            items = [item]
            if (
                spec.batch_size > 1
                and item.kind is ItemKind.EVENT
                and not agent.guard_q.has_ready(float("inf"))
            ):
                while len(items) < spec.batch_size:
                    follow = agent.es.pop(float("inf"))
                    if follow is None:
                        break
                    items.append(follow)
            started = clock()
            if len(items) > 1:
                receipt = agent.process_batch(items, unit_id=global_index)
            else:
                receipt = agent.process(item, unit_id=global_index)
            ended = clock()
            stats.busy[global_index] = (
                stats.busy.get(global_index, 0.0) + (ended - started)
            )
            stats.comparisons += receipt.comparisons
            stats.items += len(items)
            spans.add(started, ended, global_index, role, item.kind.value)
            dispatch(local, receipt)
            if spec.crash_after is not None \
                    and stats.items >= spec.crash_after:
                os._exit(23)

    while True:
        message = None
        try:
            message = inbox.get(timeout=0.02)
        except queue_mod.Empty:
            pass
        if message is not None:
            handle(message)
        # Transfer the whole pending inbox BEFORE any watermark-dependent
        # decision — this keeps the negation quarantine sound (every
        # striking guard routed before a watermark value is already
        # queued when that value is observed).
        while True:
            try:
                pending = inbox.get_nowait()
            except queue_mod.Empty:
                break
            handle(pending)
        processed = False
        for local in range(len(agents)):
            if drain_agent(local):
                processed = True
        done = eos and (spec.worker_index == 0 or stop)
        if not processed and message is None and not done:
            # Idle: release quarantines whose point the watermark passed.
            for local in range(len(agents)):
                dispatch(local, agents[local].maintenance())
        if done and not processed:
            break

    for local, agent in enumerate(agents):
        drain_agent(local)
        started = clock()
        receipt = agent.flush()
        ended = clock()
        global_index = spec.agent_lo + local
        stats.busy[global_index] = (
            stats.busy.get(global_index, 0.0) + (ended - started)
        )
        stats.comparisons += receipt.comparisons
        spans.add(started, ended, global_index, "event", "flush")
        dispatch(local, receipt)
        drain_agent(local)
    if downstream is not None:
        downstream.put((_STOP,))
    spans.close()
    results.put((
        "done", spec.worker_index, matches if hosts_last else None,
        spans.rows, stats,
    ))


# --------------------------------------------------------------------- #
# Parent-side engine                                                     #
# --------------------------------------------------------------------- #


class ProcsPipelineEngine:
    """One process per agent slice; real cores; exact match set.

    Usage::

        engine = ProcsPipelineEngine(pattern, procs=4)
        matches = engine.run(events)
        engine.result        # wall-clock SimResult (after run)

    ``tracer`` (any :class:`~repro.obs.Tracer`) receives the merged
    wall-clock trace: one ``ALLOC_PLAN`` with fittable feature rows, then
    every worker's ``UNIT_BUSY`` spans in start-time order — the same
    schema the simulators emit, so ``fit_from_trace`` and the calibration
    report replay it unchanged.
    """

    def __init__(
        self,
        pattern: Pattern,
        procs: int | None = None,
        queue_capacity: int = 1024,
        start_method: str | None = None,
        batch_size: int = 1,
        tracer: Tracer | None = None,
        costs: CostParameters | None = None,
        wm_interval: int = 64,
        sample_size: int = 2000,
        strategy_name: str = "procs",
        _crash_worker: tuple[int, int] | None = None,
    ) -> None:
        if pattern.operator is not Operator.SEQ:
            raise PatternError("the procs pipeline evaluates SEQ patterns")
        self.pattern = pattern
        self.nfa = compile_pattern(pattern)
        if self.nfa.num_stages < 2:
            raise PatternError("need at least two positive event types")
        if self.nfa.stages[0].is_kleene:
            raise PatternError(
                "Kleene closure on the first event type is not supported"
            )
        if queue_capacity < 1:
            raise EngineError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if batch_size < 1:
            raise EngineError(f"batch_size must be >= 1, got {batch_size}")
        if wm_interval < 1:
            raise EngineError(f"wm_interval must be >= 1, got {wm_interval}")
        self.num_agents = self.nfa.num_stages - 1
        if procs is not None and procs < 1:
            raise EngineError(f"procs must be >= 1, got {procs}")
        self.procs = min(procs or self.num_agents, self.num_agents)
        self.queue_capacity = queue_capacity
        self.start_method = start_method
        self.batch_size = batch_size
        self.tracer = tracer if tracer is not None else Tracer()
        self.costs = costs if costs is not None else CostParameters()
        self.wm_interval = wm_interval
        self.sample_size = sample_size
        self.strategy_name = strategy_name
        self._crash_worker = _crash_worker
        self.result: SimResult | None = None
        self._ran = False

    # ------------------------------------------------------------------ #

    def run(self, events: Iterable[Event],
            timeout: float = 300.0) -> list[Match]:
        if self._ran:
            raise EngineError("run() may only be called once per engine")
        self._ran = True
        context = multiprocessing.get_context(self.start_method)
        method = context.get_start_method()
        if method != "fork":
            try:
                pickle.dumps(self.pattern)
            except Exception as error:
                raise EngineError(
                    f"pattern is not picklable under the {method!r} start "
                    "method (closure-based predicates?); use fork or a "
                    f"picklable condition: {error}"
                ) from None
        stream = list(validate_stream_order(events))
        slices = agent_slices(self.num_agents, self.procs)
        num_procs = len(slices)
        epoch = time.monotonic()
        self._record_plan(stream)

        inboxes = [
            context.Queue(maxsize=self.queue_capacity)
            for _ in range(num_procs)
        ]
        results = context.Queue()
        workers = []
        for index, (lo, hi) in enumerate(slices):
            crash_after = None
            if self._crash_worker is not None \
                    and self._crash_worker[0] == index:
                crash_after = self._crash_worker[1]
            spec = _WorkerSpec(
                worker_index=index,
                pattern=self.pattern,
                agent_lo=lo,
                agent_hi=hi,
                num_agents=self.num_agents,
                batch_size=self.batch_size,
                trace=self.tracer.enabled,
                epoch=epoch,
                crash_after=crash_after,
            )
            downstream = inboxes[index + 1] if index + 1 < num_procs else None
            workers.append(context.Process(
                target=_worker_main,
                args=(spec, inboxes[index], downstream, results),
                daemon=True,
                name=f"repro-procs-{index}",
            ))
        for worker in workers:
            worker.start()

        deadline = time.monotonic() + timeout
        try:
            self._route(stream, slices, inboxes, workers, deadline, results)
            collected = self._collect(workers, results, num_procs, deadline)
        except BaseException:
            self._shutdown(workers, inboxes, results)
            raise
        total_time = time.monotonic() - epoch
        self._shutdown(workers, inboxes, results)
        return self._assemble(stream, collected, total_time, method,
                              num_procs)

    # ------------------------------------------------------------------ #

    def _record_plan(self, stream: Sequence[Event]) -> None:
        """Record the ALLOC_PLAN (with fittable features) for the trace."""
        if not self.tracer.enabled:
            return
        from repro.costmodel.statistics import estimate_statistics

        stats = estimate_statistics(
            self.pattern, stream[: self.sample_size]
        )
        model = LoadModel.for_nfa(self.nfa, stats, self.costs)
        loads = [load.total for load in model.agent_loads(self.num_agents)]
        features = model.load_features(self.num_agents)
        self.tracer.alloc_plan(
            0.0, [1] * self.num_agents, loads, "procs", features=features,
        )

    def _build_routes(self, slices) -> dict[str, list]:
        placement: dict[int, tuple[int, int]] = {}
        for proc, (lo, hi) in enumerate(slices):
            for global_index in range(lo, hi):
                placement[global_index] = (proc, global_index - lo)
        stages = self.nfa.stages
        routes: dict[str, list] = {}
        routes.setdefault(stages[0].event_type_name, []).append(
            (_SEED, 0, 0)
        )
        for global_index in range(self.num_agents):
            proc, local = placement[global_index]
            stage = stages[global_index + 1]
            routes.setdefault(stage.event_type_name, []).append(
                (_EVENT, proc, local)
            )
            guard_types = _guard_type_names(
                stages, global_index + 1,
                global_index == self.num_agents - 1,
            )
            for type_name in guard_types:
                routes.setdefault(type_name, []).append(
                    ("G", proc, local)
                )
        return routes

    def _route(self, stream, slices, inboxes, workers, deadline,
               results) -> None:
        stage0 = self.nfa.stages[0]
        routes = self._build_routes(slices)
        watermark = float("-inf")
        sent = 0
        for event in stream:
            if event.timestamp > watermark:
                watermark = event.timestamp
            for op, proc, local in routes.get(event.type.name, ()):
                if op == _SEED:
                    if stage0.accepts(PartialMatch.empty(), event):
                        seed = PartialMatch.of(stage0.item.name, event)
                        self._put(inboxes[proc], (_SEED, seed, watermark),
                                  workers, deadline, results)
                else:
                    kind = ItemKind.GUARD if op == "G" else ItemKind.EVENT
                    self._put(
                        inboxes[proc],
                        (_EVENT, local, kind, event, watermark),
                        workers, deadline, results,
                    )
            sent += 1
            if sent % self.wm_interval == 0:
                for inbox in inboxes:
                    self._put(inbox, (_WM, watermark), workers, deadline,
                              results)
        # Broadcast end-of-stream *last worker first*: worker 0 is the only
        # one that can finish on EOS alone (the rest also need the upstream
        # _STOP), so giving it EOS last guarantees no worker exits while
        # this broadcast is still in flight — which keeps the premature-exit
        # check in _check_liveness free of false positives.
        for inbox in reversed(inboxes):
            self._put(inbox, (_EOS,), workers, deadline, results)

    def _put(self, inbox, message, workers, deadline,
             results=None) -> None:
        while True:
            try:
                inbox.put(message, timeout=0.2)
                return
            except queue_mod.Full:
                self._check_liveness(workers, results)
                if time.monotonic() > deadline:
                    raise EngineError(
                        "procs pipeline did not drain in time (a worker "
                        "queue stayed full past the timeout)"
                    )

    def _check_liveness(self, workers, results=None) -> None:
        """Raise a clean error if any worker exited while events are still
        being routed — no worker legitimately exits before end-of-stream."""
        for worker in workers:
            code = worker.exitcode
            if code is None:
                continue
            if results is not None:
                # The worker may have shipped its real failure before
                # exiting (error path exits 0); surface that over the
                # bare exit code.
                try:
                    message = results.get_nowait()
                except queue_mod.Empty:
                    message = None
                if message is not None and message[0] == "error":
                    raise EngineError(
                        f"worker process {message[1]} failed: {message[2]}"
                    )
            if code != 0:
                raise EngineError(
                    f"worker process {worker.name} died with exit code "
                    f"{code}; the run cannot complete"
                )
            raise EngineError(
                f"worker process {worker.name} exited before end of "
                "stream; the run cannot complete"
            )

    def _collect(self, workers, results, num_procs, deadline):
        pending = set(range(num_procs))
        matches: list[Match] = []
        rows: list[tuple] = []
        stats: list[_WorkerStats | None] = [None] * num_procs
        dead_since: dict[int, float] = {}
        while pending:
            try:
                message = results.get(timeout=0.2)
            except queue_mod.Empty:
                now = time.monotonic()
                if now > deadline:
                    raise EngineError(
                        "procs pipeline did not finish in time"
                    )
                for index in list(pending):
                    worker = workers[index]
                    if worker.exitcode is None:
                        continue
                    if worker.exitcode != 0:
                        raise EngineError(
                            f"worker process {worker.name} died with exit "
                            f"code {worker.exitcode}; the run cannot "
                            "complete"
                        )
                    # Exit code 0 with the result possibly still in the
                    # queue feeder: allow a short grace, then give up.
                    first_seen = dead_since.setdefault(index, now)
                    if now - first_seen > _RESULT_GRACE:
                        raise EngineError(
                            f"worker process {worker.name} exited without "
                            "reporting a result"
                        )
                continue
            kind = message[0]
            if kind == "error":
                _, index, detail = message
                raise EngineError(f"worker process {index} failed: {detail}")
            _, index, worker_matches, worker_rows, worker_stats = message
            pending.discard(index)
            if worker_matches:
                matches.extend(worker_matches)
            rows.extend(worker_rows)
            stats[index] = worker_stats
        return matches, rows, stats

    def _shutdown(self, workers, inboxes, results) -> None:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(timeout=5.0)
        for inbox in inboxes:
            inbox.close()
            # Unflushed routed events must not block interpreter exit once
            # the consumer is gone.
            inbox.cancel_join_thread()
        results.close()
        results.cancel_join_thread()

    # ------------------------------------------------------------------ #

    def _assemble(self, stream, collected, total_time, method,
                  num_procs) -> list[Match]:
        matches, rows, stats = collected
        # Arrival order across workers is racy; canonicalise before the
        # policy resolution so the returned list is deterministic.
        matches.sort(key=lambda m: (m.detected_at, match_key(m.binding)))
        resolved = resolve_matches(self.pattern, matches)

        busy = [0.0] * self.num_agents
        events_in = [0] * self.num_agents
        ptrs_in = [0] * self.num_agents
        ptrs_out = [0] * self.num_agents
        comparisons = 0
        items = 0
        for worker_stats in stats:
            if worker_stats is None:
                continue
            comparisons += worker_stats.comparisons
            items += worker_stats.items
            for agent, value in worker_stats.busy.items():
                busy[agent] += value
            for agent, value in worker_stats.events_in.items():
                events_in[agent] += value
            for agent, value in worker_stats.match_ptrs_in.items():
                ptrs_in[agent] += value
            for agent, value in worker_stats.match_ptrs_out.items():
                ptrs_out[agent] += value

        if self.tracer.enabled:
            for start, dur, unit, agent, role, kind in sorted(rows):
                self.tracer.unit_busy(start, dur, unit, agent, role, kind)

        elapsed = max(total_time, 1e-9)
        result = SimResult(
            strategy=self.strategy_name,
            num_units=self.num_agents,
            events=len(stream),
            matches=len(resolved),
            total_time=total_time,
            throughput=len(stream) / elapsed,
            avg_latency=0.0,
            p95_latency=0.0,
            max_latency=0.0,
            peak_memory_bytes=0,
            total_comparisons=comparisons,
            total_work=sum(busy),
            duplication_factor=1.0,
            unit_busy=list(busy),
            extra={
                "backend": "procs",
                "procs": num_procs,
                "start_method": method,
                "batch_size": self.batch_size,
                "items": items,
                "comm": {
                    "events_in": events_in,
                    "match_pointers_in": ptrs_in,
                    "match_pointers_out": ptrs_out,
                },
            },
        )
        if self.tracer.enabled:
            from repro.obs.calibration import calibration_report
            from repro.obs.export import summarize

            obs = summarize(self.tracer, total_time, unit_busy=busy)
            events = getattr(self.tracer, "events", None)
            if events is not None:
                calibration = calibration_report(
                    events, total_time=total_time
                )
                if calibration is not None:
                    obs["calibration"] = calibration
            obs["costs"] = self.costs.as_dict()
            result.extra["obs"] = obs
            self.tracer.frame_tick(total_time)
        self.result = result
        return resolved
