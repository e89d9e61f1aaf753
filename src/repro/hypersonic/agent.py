"""HYPERSONIC agents (paper Section 3.2).

An agent is the logical unit of execution responsible for one NFA state.
Agent ``j`` (0-based; the paper's ``A_{j+2}``) matches events of stage
``j+1``'s type — received on its *event stream* (ES) — against the partial
matches covering stages ``0..j`` received from its predecessor on its
*match stream* (MS).  Internally it keeps:

* a fragmented event buffer (EB) and match buffer (MB), one fragment per
  worker, so synchronization is pairwise;
* an agent-global buffer (AGB) reference-counting unique event payloads;
* for stages guarded by negation, a buffer of negated-type events plus a
  *quarantine* of candidate matches awaiting the all-clear.

The streaming-join discipline gives exactly-once pair evaluation: an
incoming item is compared against everything already stored in the opposite
buffer, then stored itself; any later opposite item will find it.

Negation and the quarantine
---------------------------
The chain NFA attaches negation guards to the stage *preceding* the negated
item (see :mod:`repro.core.nfa`).  Agent ``j`` therefore enforces the
guards between stages ``j`` and ``j+1``... from the perspective of binding:
when agent ``j`` binds stage ``j+1``'s event, both neighbours of any guard
between stages ``j`` and ``j+1`` are known.  Because events and matches
reach an agent with (bounded) delay, a freshly extended match cannot be
declared guard-clean immediately: a negated-type event with a smaller
timestamp may still be in flight.  The agent quarantines the candidate
until the splitter watermark passes the candidate's release point and the
agent's own guard queue holds nothing older — then no striking event can
exist anywhere in the system.

Trailing guards (negation at the end of the pattern) are enforced by the
*last* agent on its own outputs with release point ``earliest + W``.

Kleene closure
--------------
A Kleene agent implements the NFA self-loop by growing every accepted
tuple *inline* on the unit that created it: the new tuple is joined against
the event buffer ("append after the tuple's last element" semantics) and
stored into the match buffer so future events keep extending it — every
non-empty subsequence appears exactly once, as skip-till-any-match
requires.  (The paper routes loop-backs through the agent's own match
stream; inline growth performs the identical comparisons but avoids the
unbounded event-time lag a loop-back accumulates behind queue backlogs,
which no window-based purge bound could tolerate.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.events import Event
from repro.core.matches import PartialMatch
from repro.core.nfa import NegationGuard, Stage, seq_order_allows
from repro.hypersonic.buffers import AgentGlobalBuffer, BufferSnapshot, FragmentedBuffer
from repro.hypersonic.items import ItemKind, Receipt, WorkItem, WorkQueue

__all__ = ["AgentCore", "QuarantineEntry"]


@dataclass
class QuarantineEntry:
    """A candidate match awaiting negation clearance."""

    partial: PartialMatch
    release_ts: float
    guards: tuple[NegationGuard, ...]
    phase: str  # "internal" or "trailing"


class AgentCore:
    """State and matching logic of one agent.

    Drivers call :meth:`pop` / :meth:`process` in a loop; the returned
    :class:`Receipt` carries both the emitted matches (for routing) and the
    work counters (for the simulator's virtual clock).
    """

    def __init__(
        self,
        agent_index: int,
        stages: tuple[Stage, ...],
        stage_index: int,
        window: float,
        watermark: Callable[[], float],
        is_last: bool,
        purge_slack: float | None = None,
        global_floor=None,
    ) -> None:
        if stage_index < 1 or stage_index >= len(stages):
            raise ValueError(f"agent stage index {stage_index} out of range")
        self.agent_index = agent_index
        self.stages = stages
        self.stage = stages[stage_index]
        self.stage_index = stage_index
        self.window = window
        self.watermark = watermark
        self.is_last = is_last
        # Two different safety slacks: partial matches can arrive with an
        # ``earliest`` up to one window older than the splitter watermark
        # (a Kleene loop-back adds up to W of event-time skew), so buffered
        # *events* must out-live the window by a full W.  The event stream,
        # by contrast, is timestamp-FIFO, so buffered *matches* can be
        # purged against a tight watermark-backed bound.
        self.event_purge_slack = window if purge_slack is None else purge_slack
        self.match_purge_slack = (
            0.25 * window if purge_slack is None else purge_slack
        )

        self.internal_guards: tuple[NegationGuard, ...] = tuple(
            guard
            for guard in stages[stage_index - 1].guards_after
            if not guard.trailing
        )
        self.trailing_guards: tuple[NegationGuard, ...] = (
            tuple(g for g in stages[stage_index].guards_after if g.trailing)
            if is_last
            else ()
        )
        guard_types = {g.item.event_type.name for g in self.internal_guards}
        guard_types |= {g.item.event_type.name for g in self.trailing_guards}
        self.guard_type_names = frozenset(guard_types)

        label = f"A{agent_index}"
        self.es = WorkQueue(f"{label}.ES")
        self.ms = WorkQueue(f"{label}.MS")
        self.guard_q = WorkQueue(f"{label}.GQ")

        self.event_buffer: FragmentedBuffer[Event] = FragmentedBuffer(f"{label}.EB")
        self.match_buffer: FragmentedBuffer[PartialMatch] = FragmentedBuffer(
            f"{label}.MB"
        )
        self.agb = AgentGlobalBuffer()
        self._guard_events: list[Event] = []
        self._quarantine: list[QuarantineEntry] = []
        self._pending_loop: list[PartialMatch] = []
        # Per-fragment minimum match timestamp, maintained on store/purge;
        # min over fragments bounds the oldest buffered match (the guard
        # buffer may only purge events no alive match could still need).
        self._mb_frag_min: dict[int, float] = {}

        self.latest_event_ts = float("-inf")
        self.latest_match_ts = float("-inf")
        self.items_processed = 0
        # Callable returning the minimum timestamp of any partial match
        # still alive anywhere in the system (queued, buffered, or
        # quarantined at any agent).  Guard-event purges must respect it:
        # a negated event may still need to strike a candidate derived
        # from a match that has not reached this agent yet.
        self.global_floor = global_floor

    # ------------------------------------------------------------------ #
    # Work intake                                                        #
    # ------------------------------------------------------------------ #

    def has_event_work(self, now: float = float("inf")) -> bool:
        return self.guard_q.has_ready(now) or self.es.has_ready(now)

    def has_match_work(self, now: float = float("inf")) -> bool:
        return self.ms.has_ready(now)

    def has_any_work(self, now: float = float("inf")) -> bool:
        return self.has_event_work(now) or self.has_match_work(now)

    def pop(self, role: str, now: float = float("inf")) -> WorkItem | None:
        """Dequeue per role: event workers drain the guard queue first so
        quarantine release points are reached promptly."""
        if role == "event":
            item = self.guard_q.pop(now)
            if item is not None:
                return item
            return self.es.pop(now)
        return self.ms.pop(now)

    # ------------------------------------------------------------------ #
    # Processing                                                         #
    # ------------------------------------------------------------------ #

    def process(self, item: WorkItem, unit_id: int) -> Receipt:
        self.items_processed += 1
        if item.kind is ItemKind.EVENT:
            receipt = self._process_event(item.payload, unit_id)
        elif item.kind is ItemKind.MATCH:
            receipt = self._process_match(item.payload, unit_id)
        else:
            receipt = self._process_guard_event(item.payload)
        self._release_quarantine(receipt)
        self._drain_kleene(receipt, unit_id)
        return receipt

    def process_batch(self, items: list[WorkItem], unit_id: int) -> Receipt:
        """Process the items of one agent turn with one merged receipt.

        ``batch_size`` only groups items into a turn: each still goes
        through :meth:`process`, so the match set is the per-item one.
        :class:`~repro.hypersonic.fusion.FusedAgentCore` shares this body.
        """
        receipt = Receipt()
        for item in items:
            receipt.merge(self.process(item, unit_id))
        return receipt

    def maintenance(self) -> Receipt:
        """Release any quarantine entries whose release point has passed.

        Drivers call this when an agent is otherwise idle so negation
        results are not withheld until the next data item.
        """
        receipt = Receipt()
        self._release_quarantine(receipt)
        self._drain_kleene(receipt, unit_id=-1)
        return receipt

    def flush(self) -> Receipt:
        """End of stream: no more events can arrive, release everything."""
        receipt = Receipt()
        remaining = self._quarantine
        self._quarantine = []
        for entry in remaining:
            if entry.phase == "internal":
                self._finish_candidate(entry.partial, receipt, from_flush=True)
            else:
                receipt.emitted_down.append(entry.partial)
        self._drain_kleene(receipt, unit_id=-1)
        return receipt

    # -- event path ----------------------------------------------------- #

    def _process_event(self, event: Event, unit_id: int) -> Receipt:
        receipt = Receipt()
        if event.timestamp > self.latest_event_ts:
            self.latest_event_ts = event.timestamp
        window = self.window
        stage = self.stage
        stages = self.stages
        kleene = stage.is_kleene
        position = stage.item.name
        # Purge horizon for matches: the opposite stream's progress, with
        # slack absorbing inter-agent delay (paper Section 3.2 assumes W
        # exceeds the processing delay).
        horizon = self.latest_event_ts - window - self.match_purge_slack

        for owner, fragment in self.match_buffer.fragments():
            if horizon > float("-inf"):
                self._purge_match_fragment(owner, horizon)
            resident = self.match_buffer._fragments.get(owner, ())
            receipt.note_fragment(len(resident))
            for partial in resident:
                if not partial.fits_with(event, window):
                    continue
                bound = partial.binding.get(position)
                if bound is not None:
                    # Kleene loop-back match already holding a tuple here:
                    # append semantics.
                    if not kleene:
                        continue
                    last = bound[-1]
                    if (last.timestamp, last.event_id) >= (
                        event.timestamp,
                        event.event_id,
                    ):
                        continue
                    receipt.comparisons += 1
                    if not stage.accepts(partial, event):
                        continue
                    grown = partial.extended_kleene(position, event)
                    self._accept(grown, receipt)
                    continue
                if not seq_order_allows(partial, stages, self.stage_index, event):
                    continue
                receipt.comparisons += 1
                if not stage.accepts(partial, event):
                    continue
                extended = self._bind(partial, event)
                self._route_new_candidate(extended, event.timestamp, receipt)
        self._store_event(event, unit_id)
        return receipt

    # -- match path ------------------------------------------------------ #

    def _process_match(self, partial: PartialMatch, unit_id: int) -> Receipt:
        receipt = Receipt()
        if partial.timestamp > self.latest_match_ts:
            self.latest_match_ts = partial.timestamp
        window = self.window
        stage = self.stage
        stages = self.stages
        kleene = stage.is_kleene
        position = stage.item.name
        looping = kleene and position in partial.binding
        # A buffered event may only expire relative to the oldest partial
        # match that can still reach it: the slowest match waiting in the
        # MS queue (emitted matches land in the queue instantly, so the
        # queue minimum is a sound bound on arrival skew — including Kleene
        # loop-backs, which re-enter this same queue).
        horizon = self.latest_match_ts - window - self.event_purge_slack
        ms_min = self.ms.min_event_time()
        if ms_min is not None and ms_min < horizon:
            horizon = ms_min
        # The match in hand is no longer in the queue, so the queue minimum
        # does not cover it — it still needs every event from its own
        # earliest onward.
        if partial.timestamp < horizon:
            horizon = partial.timestamp

        for owner, fragment in self.event_buffer.fragments():
            if horizon > float("-inf"):
                self._purge_event_fragment(owner, horizon)
            resident = self.event_buffer._fragments.get(owner, ())
            receipt.note_fragment(len(resident))
            for event in resident:
                if not partial.fits_with(event, window):
                    continue
                if looping:
                    bound = partial.binding[position]
                    last = bound[-1]
                    if (last.timestamp, last.event_id) >= (
                        event.timestamp,
                        event.event_id,
                    ):
                        continue
                    receipt.comparisons += 1
                    if not stage.accepts(partial, event):
                        continue
                    grown = partial.extended_kleene(position, event)
                    self._accept(grown, receipt)
                    continue
                if not seq_order_allows(partial, stages, self.stage_index, event):
                    continue
                receipt.comparisons += 1
                if not stage.accepts(partial, event):
                    continue
                extended = self._bind(partial, event)
                self._route_new_candidate(extended, event.timestamp, receipt)
        # Purge the fragment we are about to store into using the tightest
        # safe bound on future event timestamps: the head of the unprocessed
        # ES backlog, or the splitter watermark when the backlog is empty
        # (every routed event of this type is then already processed).
        # Without this, bursts of arriving matches outpace the event-driven
        # purges and the MB balloons past its steady-state size.
        es_head = self.es.head_event_time()
        effective_event_ts = max(
            self.latest_event_ts,
            es_head if es_head is not None else self.watermark(),
        )
        tight_horizon = effective_event_ts - self.window - self.match_purge_slack
        if tight_horizon > float("-inf"):
            self._purge_match_fragment(unit_id, tight_horizon)
            if partial.timestamp < tight_horizon:
                # The arriving match is itself already expired — no future
                # event can extend it; drop instead of storing.
                self.match_buffer.purged += 1
                return receipt
        self._store_match(partial, unit_id)
        return receipt

    # -- guard path ------------------------------------------------------ #

    def _process_guard_event(self, event: Event) -> Receipt:
        receipt = Receipt()
        self._guard_events.append(event)
        # Strike quarantined candidates this event invalidates.
        if self._quarantine:
            survivors = []
            for entry in self._quarantine:
                if self._struck_by(entry, event, receipt):
                    continue
                survivors.append(entry)
            self._quarantine = survivors
        # Purge guard events too old to matter for any future candidate:
        # candidates bind events after their match's earliest, so any alive
        # match — anywhere in the system, since in-flight matches may still
        # be headed here — bounds the oldest guard event that can strike.
        horizon = self.watermark() - 3.0 * self.window - self.event_purge_slack
        floor = (
            self.global_floor() if self.global_floor is not None
            else self.local_match_floor()
        )
        if floor < horizon:
            horizon = floor
        if horizon > float("-inf") and self._guard_events:
            self._guard_events = [
                e for e in self._guard_events if e.timestamp >= horizon
            ]
        return receipt

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #

    def _bind(self, partial: PartialMatch, event: Event) -> PartialMatch:
        stage = self.stage
        if stage.is_kleene:
            base = dict(partial.binding)
            base[stage.item.name] = (event,)
            return PartialMatch(
                binding=base,
                earliest=min(partial.earliest, event.timestamp),
                latest=max(partial.latest, event.timestamp),
            )
        return partial.extended(stage.item.name, event)

    def _route_new_candidate(
        self, extended: PartialMatch, bind_ts: float, receipt: Receipt
    ) -> None:
        """Send a freshly extended match through guard checks, quarantine,
        or straight out."""
        if self.internal_guards:
            for guard_event in self._guard_events:
                receipt.comparisons += 1
                if any(
                    guard.item.event_type.name == guard_event.type.name
                    and guard.violates(
                        extended.binding,
                        guard_event,
                        self.window,
                        extended.earliest,
                    )
                    for guard in self.internal_guards
                ):
                    return
            if not self._internal_clear(bind_ts):
                self._quarantine.append(
                    QuarantineEntry(
                        partial=extended,
                        release_ts=bind_ts,
                        guards=self.internal_guards,
                        phase="internal",
                    )
                )
                return
        self._finish_candidate(extended, receipt)

    def _finish_candidate(
        self, extended: PartialMatch, receipt: Receipt, from_flush: bool = False
    ) -> None:
        """Internal guards cleared; apply trailing quarantine if needed."""
        if self.trailing_guards:
            release_ts = extended.earliest + self.window
            struck = False
            for guard_event in self._guard_events:
                receipt.comparisons += 1
                if any(
                    guard.item.event_type.name == guard_event.type.name
                    and guard.violates(
                        extended.binding,
                        guard_event,
                        self.window,
                        extended.earliest,
                    )
                    for guard in self.trailing_guards
                ):
                    struck = True
                    break
            if struck:
                return
            if not from_flush and not self._clear_at(release_ts):
                self._quarantine.append(
                    QuarantineEntry(
                        partial=extended,
                        release_ts=release_ts,
                        guards=self.trailing_guards,
                        phase="trailing",
                    )
                )
                return
        self._accept(extended, receipt)

    def _accept(self, partial: PartialMatch, receipt: Receipt) -> None:
        """A guard-clean result: emit downstream and, at a Kleene stage,
        queue it for inline self-loop growth.

        The paper routes loop-backs through the agent's own match stream;
        we grow them inline on the creating unit instead (same work, same
        results) because queueing a loop-back behind a backlog would let
        its event-time lag grow without bound — every loop hop would add a
        full queue traversal — defeating any window-based purge bound.
        """
        receipt.successes += 1
        receipt.emitted_down.append(partial)
        if self.stage.is_kleene:
            self._pending_loop.append(partial)

    def _drain_kleene(self, receipt: Receipt, unit_id: int) -> None:
        """Inline Kleene self-loop: grow each pending tuple against the
        event buffer, then make it visible in the MB for future events."""
        if not self._pending_loop:
            return
        stage = self.stage
        position = stage.item.name
        window = self.window
        while self._pending_loop:
            current = self._pending_loop.pop()
            bound = current.binding[position]
            last = bound[-1]
            last_key = (last.timestamp, last.event_id)
            for owner, _fragment in self.event_buffer.fragments():
                resident = self.event_buffer._fragments.get(owner, ())
                receipt.note_fragment(len(resident))
                for event in resident:
                    if (event.timestamp, event.event_id) <= last_key:
                        continue
                    if not current.fits_with(event, window):
                        continue
                    receipt.comparisons += 1
                    if not stage.accepts(current, event):
                        continue
                    grown = current.extended_kleene(position, event)
                    receipt.successes += 1
                    receipt.emitted_down.append(grown)
                    self._pending_loop.append(grown)
            self._store_match(current, unit_id)

    def _internal_clear(self, bind_ts: float) -> bool:
        return self._clear_at(bind_ts)

    def _clear_at(self, release_ts: float) -> bool:
        """All negated events with timestamp <= release_ts processed?"""
        if self.watermark() <= release_ts:
            return False
        head_ts = self.guard_q.head_event_time()
        return head_ts is None or head_ts > release_ts

    def _struck_by(
        self, entry: QuarantineEntry, event: Event, receipt: Receipt
    ) -> bool:
        for guard in entry.guards:
            if guard.item.event_type.name != event.type.name:
                continue
            receipt.comparisons += 1
            if guard.violates(
                entry.partial.binding, event, self.window, entry.partial.earliest
            ):
                return True
        return False

    def _release_quarantine(self, receipt: Receipt) -> None:
        if not self._quarantine:
            return
        still_held = []
        for entry in self._quarantine:
            if self._clear_at(entry.release_ts):
                if entry.phase == "internal":
                    self._finish_candidate(entry.partial, receipt)
                else:
                    self._accept(entry.partial, receipt)
            else:
                still_held.append(entry)
        self._quarantine = still_held

    # -- storage and purging ---------------------------------------------- #

    def _store_event(self, event: Event, unit_id: int) -> None:
        self.event_buffer.store(unit_id, event)
        self.agb.retain_event(event)

    def _store_match(self, partial: PartialMatch, unit_id: int) -> None:
        self.match_buffer.store(unit_id, partial)
        self.agb.retain_match(partial)
        current = self._mb_frag_min.get(unit_id)
        if current is None or partial.timestamp < current:
            self._mb_frag_min[unit_id] = partial.timestamp

    def _purge_match_fragment(self, owner: int, horizon: float) -> None:
        fragment = self.match_buffer._fragments.get(owner)
        if not fragment:
            self._mb_frag_min.pop(owner, None)
            return
        kept = []
        kept_min = None
        for partial in fragment:
            if partial.timestamp >= horizon:
                kept.append(partial)
                if kept_min is None or partial.timestamp < kept_min:
                    kept_min = partial.timestamp
            else:
                self.agb.release_match(partial)
        if len(kept) != len(fragment):
            self.match_buffer.replace_fragment(owner, kept)
        if kept_min is None:
            self._mb_frag_min.pop(owner, None)
        else:
            self._mb_frag_min[owner] = kept_min

    def _purge_event_fragment(self, owner: int, horizon: float) -> None:
        fragment = self.event_buffer._fragments.get(owner)
        if not fragment:
            return
        kept = []
        for event in fragment:
            if event.timestamp >= horizon:
                kept.append(event)
            else:
                self.agb.release_event(event)
        if len(kept) != len(fragment):
            self.event_buffer.replace_fragment(owner, kept)

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    def local_match_floor(self) -> float:
        """Minimum timestamp of any match alive at this agent: queued in
        the MS, buffered in the MB, or held in quarantine."""
        floor = min(self._mb_frag_min.values(), default=float("inf"))
        ms_min = self.ms.min_event_time()
        if ms_min is not None and ms_min < floor:
            floor = ms_min
        for entry in self._quarantine:
            if entry.partial.timestamp < floor:
                floor = entry.partial.timestamp
        for pending in self._pending_loop:
            if pending.timestamp < floor:
                floor = pending.timestamp
        return floor

    def snapshot(self) -> BufferSnapshot:
        mb_pointers = sum(
            partial.event_count() for partial in self.match_buffer.all_items()
        )
        return BufferSnapshot(
            eb_items=self.event_buffer.total_items(),
            mb_items=self.match_buffer.total_items(),
            mb_pointers=mb_pointers,
            agb_bytes=self.agb.current_bytes,
            quarantined=len(self._quarantine),
            accounting_errors=self.agb.accounting_errors,
        )

    def working_set_items(self, unit_id: int) -> int:
        """Items resident in the fragments owned by *unit_id* — the working
        set driving the simulator's cache-pressure model."""
        eb = self.event_buffer._fragments.get(unit_id)
        mb = self.match_buffer._fragments.get(unit_id)
        return (len(eb) if eb else 0) + (len(mb) if mb else 0)

    def input_routes(self) -> tuple[tuple[str, WorkQueue, ItemKind], ...]:
        """``(event type, queue, item kind)`` for every splitter-fed input:
        this stage's events on the ES, negated types on the guard queue."""
        return ((self.stage.event_type_name, self.es, ItemKind.EVENT),) + tuple(
            (name, self.guard_q, ItemKind.GUARD)
            for name in sorted(self.guard_type_names)
        )

    def input_queues(self) -> tuple[WorkQueue, ...]:
        return (self.es, self.ms, self.guard_q)

    def queue_depth(self) -> int:
        return len(self.es) + len(self.ms) + len(self.guard_q)

    def channel_depths(self) -> tuple[tuple[str, int], ...]:
        """Current depth of each input channel, for queue-depth tracing."""
        return (
            ("ES", len(self.es)),
            ("MS", len(self.ms)),
            ("GQ", len(self.guard_q)),
        )

    def __repr__(self) -> str:
        return (
            f"AgentCore(A{self.agent_index}, stage={self.stage_index}, "
            f"type={self.stage.event_type_name})"
        )
