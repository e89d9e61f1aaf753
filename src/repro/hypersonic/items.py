"""Work items and inter-agent queues.

Agents exchange three kinds of items: events (from the splitter's per-type
substreams), partial matches (from the preceding agent — the match stream),
and guard events (negated-type events routed to the agent that enforces a
negation guard).

Queues are FIFO producer-consumer channels.  Each enqueued entry carries a
``ready_at`` virtual timestamp: the procs runtime ignores it, while
the discrete-event simulator uses it to model transfer delay — an item is
only visible to consumers once the simulated clock passes ``ready_at``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.events import Event
from repro.core.matches import PartialMatch

__all__ = ["ItemKind", "WorkItem", "WorkQueue", "Receipt"]


class ItemKind(enum.Enum):
    """Kind of payload carried by a :class:`WorkItem`."""

    EVENT = "event"
    EVENT2 = "event2"  # second event input of a fused agent (Section 4.2)
    MATCH = "match"
    GUARD = "guard"


@dataclass(frozen=True, slots=True)
class WorkItem:
    """One unit of work flowing between system components."""

    kind: ItemKind
    payload: Any  # Event for EVENT/GUARD, PartialMatch for MATCH

    @classmethod
    def event(cls, event: Event) -> "WorkItem":
        return cls(ItemKind.EVENT, event)

    @classmethod
    def match(cls, partial: PartialMatch) -> "WorkItem":
        return cls(ItemKind.MATCH, partial)

    @classmethod
    def guard(cls, event: Event) -> "WorkItem":
        return cls(ItemKind.GUARD, event)

    @property
    def event_timestamp(self) -> float:
        """Event-time of the payload (pm timestamp for matches)."""
        if self.kind is ItemKind.MATCH:
            return self.payload.timestamp
        return self.payload.timestamp


class WorkQueue:
    """FIFO channel with virtual-time visibility and depth statistics.

    ``push(item, ready_at)`` enqueues; ``pop(now)`` dequeues the head if its
    ``ready_at`` does not exceed *now* (pass ``float('inf')`` to ignore
    virtual time).  ``peek_ready_at()`` lets the simulator know when the
    next item becomes visible, and ``head_event_time()`` exposes the head's
    event-time for negation-quarantine release checks.
    """

    __slots__ = (
        "name", "_entries", "pushed", "popped", "peak_depth", "_min_times"
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: deque[tuple[WorkItem, float]] = deque()
        self.pushed = 0
        self.popped = 0
        self.peak_depth = 0
        # Monotone deque over the queued items' event-times: the front is
        # always the minimum event-time currently in the queue.  Agents use
        # it to bound buffer purges — a buffered event may only expire
        # relative to the *oldest* partial match still waiting in the queue
        # (sliding-window-minimum technique, O(1) amortized).
        self._min_times: deque[float] = deque()

    def push(self, item: WorkItem, ready_at: float = 0.0) -> None:
        self._entries.append((item, ready_at))
        event_time = item.event_timestamp
        while self._min_times and self._min_times[-1] > event_time:
            self._min_times.pop()
        self._min_times.append(event_time)
        self.pushed += 1
        depth = len(self._entries)
        if depth > self.peak_depth:
            self.peak_depth = depth

    def pop(self, now: float = float("inf")) -> WorkItem | None:
        if not self._entries:
            return None
        item, ready_at = self._entries[0]
        if ready_at > now:
            return None
        self._entries.popleft()
        if self._min_times and self._min_times[0] == item.event_timestamp:
            self._min_times.popleft()
        self.popped += 1
        return item

    def min_event_time(self) -> float | None:
        """Minimum event-time among all queued items (None when empty)."""
        if not self._min_times:
            return None
        return self._min_times[0]

    def has_ready(self, now: float = float("inf")) -> bool:
        if not self._entries:
            return False
        return self._entries[0][1] <= now

    def peek_ready_at(self) -> float | None:
        if not self._entries:
            return None
        return self._entries[0][1]

    def head_event_time(self) -> float | None:
        if not self._entries:
            return None
        return self._entries[0][0].event_timestamp

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"WorkQueue({self.name}, depth={len(self._entries)})"


@dataclass
class Receipt:
    """Accounting record for one processed work item.

    The drivers convert these counts into virtual time:
    ``fragments_locked * b_i + comparisons * c_i + pushes * q_i`` — the
    exact decomposition of the paper's per-agent load (Section 3.3.1).
    ``emitted_down`` flows to the next agent (or the match collector);
    ``emitted_self`` loops back into this agent's own match stream (the
    Kleene self-loop of Section 3.2).
    """

    comparisons: int = 0
    fragments_locked: int = 0
    successes: int = 0
    scanned: int = 0        # buffered items examined across fragments
    scan_sq: int = 0        # sum of squared fragment sizes (cache model)
    emitted_down: list[PartialMatch] = field(default_factory=list)
    emitted_self: list[PartialMatch] = field(default_factory=list)

    @property
    def pushes(self) -> int:
        return len(self.emitted_down) + len(self.emitted_self)

    def note_fragment(self, size: int) -> None:
        """Record one fragment traversal of *size* resident items."""
        self.fragments_locked += 1
        self.scanned += size
        self.scan_sq += size * size

    def merge(self, other: "Receipt") -> None:
        self.comparisons += other.comparisons
        self.fragments_locked += other.fragments_locked
        self.successes += other.successes
        self.scanned += other.scanned
        self.scan_sq += other.scan_sq
        self.emitted_down.extend(other.emitted_down)
        self.emitted_self.extend(other.emitted_self)
