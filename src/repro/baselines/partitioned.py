"""Shared machinery for data-parallel baselines (RIP, RR/JSQ/LLSF).

Both families split the input stream into *partitions* (overlapping
sub-streams), run an independent sequential matcher per partition, and
deduplicate results by an ownership rule: a match belongs to the partition
that owns its earliest event.  Because any subset of events within the
window can form a match, partitions must overlap by (at least) one window
length — the stream-duplication cost that is inherent to data-parallel CEP
and that HYPERSONIC's design avoids (paper Sections 1 and 4).

Concrete strategies provide:
  * the partition boundaries and replication ranges,
  * the partition -> execution-unit assignment policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.events import Event, validate_stream_order
from repro.core.matches import Match
from repro.core.patterns import Pattern
from repro.core.policies import resolve_matches
from repro.core.streams import Lookahead
from repro.engine.sequential import SequentialEngine

__all__ = ["PartitionSpan", "PartitionMetrics", "PartitionedEngine"]


def _owns_key(match: Match) -> tuple[float, int]:
    earliest_event = min(
        match.events(), key=lambda e: (e.timestamp, e.event_id)
    )
    return (earliest_event.timestamp, earliest_event.event_id)


@dataclass(frozen=True)
class PartitionSpan:
    """One unit of data-parallel work, described by stream *positions*.

    ``begin`` is the stream position of the partition's first input event;
    ``end`` is the exclusive position past its last (``None`` meaning the
    partition runs to the end of the stream); ``size`` is its input-event
    count (``end - begin`` when bounded) — the queue-length proxy JSQ
    balances on.  :meth:`owns` decides whether a match's earliest event
    belongs to this partition, in ``(timestamp, event_id)`` space.  Spans
    are produced in ``begin`` order by :meth:`PartitionedEngine.spans` with
    bounded lookahead, so the simulator never needs the whole stream in
    memory.
    """

    index: int
    begin: int
    end: int | None
    size: int
    own_start: float
    own_end: float
    own_start_id: int = -1
    own_end_id: int = 1 << 62

    def contains(self, position: int) -> bool:
        return self.begin <= position and (
            self.end is None or position < self.end
        )

    def owns(self, match: Match) -> bool:
        key = _owns_key(match)
        return (self.own_start, self.own_start_id) <= key < (
            self.own_end,
            self.own_end_id,
        )


@dataclass
class PartitionMetrics:
    """Aggregated work/duplication counters across all partitions."""

    events_ingested: int = 0
    events_replicated: int = 0       # total partition inputs minus stream size
    comparisons: int = 0
    matches_before_dedup: int = 0
    matches_emitted: int = 0
    partitions: int = 0
    peak_memory_items: int = 0       # sum over units of their peak buffers
    per_unit_comparisons: list[int] = field(default_factory=list)
    per_unit_events: list[int] = field(default_factory=list)

    @property
    def duplication_factor(self) -> float:
        if self.events_ingested == 0:
            return 0.0
        return (
            self.events_ingested + self.events_replicated
        ) / self.events_ingested


class PartitionedEngine:
    """Run one sequential matcher per partition and merge the results.

    Subclasses implement :meth:`spans` (how the stream splits) and
    :meth:`assign_unit` (which unit runs each partition).  The same two
    hooks drive the partition simulator
    (:func:`repro.simulator.partition_sim.simulate_partitioned`).
    """

    def __init__(self, pattern: Pattern, num_units: int) -> None:
        if num_units < 1:
            raise ValueError("need at least one execution unit")
        self.pattern = pattern
        self.num_units = num_units
        self.metrics = PartitionMetrics()

    # -- strategy hooks -------------------------------------------------- #

    def spans(self, stream: Lookahead) -> Iterator[PartitionSpan]:
        """Yield :class:`PartitionSpan`\\ s in ``begin`` order from a
        single-pass stream, peeking ahead only as far as a span's end
        (a chunk plus a window for RIP, two windows for the
        window-segment family), so the partition simulator's memory stays
        bounded by the window rather than the stream length."""
        raise NotImplementedError

    def assign_unit(self, partition: PartitionSpan,
                    unit_loads: list[float]) -> int:
        raise NotImplementedError

    # -- execution -------------------------------------------------------- #

    def run(self, events: Iterable[Event]) -> list[Match]:
        event_list = list(validate_stream_order(events))
        self.metrics.events_ingested = len(event_list)
        self.metrics.per_unit_comparisons = [0] * self.num_units
        self.metrics.per_unit_events = [0] * self.num_units
        unit_loads = [0.0] * self.num_units
        unit_peaks = [0] * self.num_units

        results: list[Match] = []
        total_inputs = 0
        for span in self.spans(Lookahead(event_list)):
            self.metrics.partitions += 1
            unit = self.assign_unit(span, unit_loads)
            engine = SequentialEngine(self.pattern)
            inputs = event_list[span.begin:span.end]
            matches = []
            for event in inputs:
                matches.extend(engine.process(event))
            matches.extend(engine.close())
            total_inputs += len(inputs)
            self.metrics.matches_before_dedup += len(matches)
            self.metrics.comparisons += engine.stats.comparisons
            self.metrics.per_unit_comparisons[unit] += engine.stats.comparisons
            self.metrics.per_unit_events[unit] += len(inputs)
            unit_loads[unit] += engine.stats.comparisons + len(inputs)
            peak = (
                engine.stats.peak_partial_matches
                + engine.stats.peak_buffered_events
                + len(inputs)
            )
            if peak > unit_peaks[unit]:
                unit_peaks[unit] = peak
            for match in matches:
                if span.owns(match):
                    results.append(match)
        self.metrics.events_replicated = total_inputs - len(event_list)
        results = resolve_matches(self.pattern, results)
        self.metrics.matches_emitted = len(results)
        self.metrics.peak_memory_items = sum(unit_peaks)
        return results
