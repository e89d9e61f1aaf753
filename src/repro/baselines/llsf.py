"""Window-based data-parallel strategies of Xiao et al. (2017):
RR (round-robin), JSQ (join-the-shortest-queue) and LLSF
(least-loaded-server-first).

Event time is divided into consecutive segments of one window length
``W``.  A segment owns every match whose earliest event falls inside it;
since matches span at most ``W``, the segment's processing run needs the
events of the segment plus the following window — so every event is
replicated to exactly two runs (duplication factor ~2, independent of
``W``, which is why these strategies scale better than RIP but still
carry the duplication and whole-window working sets that HYPERSONIC
avoids).

The three variants differ only in how segments are assigned to execution
units:

* **RR** — segment ``k`` goes to unit ``k mod n``;
* **JSQ** — the unit with the fewest pending input events;
* **LLSF** — the unit with the least accumulated measured load.  Xiao et
  al. show empirically that LLSF dominates the other two; the paper under
  reproduction uses LLSF as its strongest data-parallel comparator.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.patterns import Pattern
from repro.core.streams import Lookahead
from repro.baselines.partitioned import PartitionSpan, PartitionedEngine

__all__ = ["WindowSegmentEngine", "RREngine", "JSQEngine", "LLSFEngine"]


class WindowSegmentEngine(PartitionedEngine):
    """Common segmentation; subclasses choose the assignment policy."""

    def spans(self, stream: Lookahead) -> Iterator[PartitionSpan]:
        """Segment ``k`` covers ``[origin + kW, origin + (k+1)W)`` and
        reads up to ``origin + (k+2)W``.

        Segment ``k``'s span ends where segment ``k + 2`` begins, so a
        span is final as soon as the first event two segments ahead is
        seen — a lookahead of at most two windows of events.  Empty
        segments inherit the next segment's start and are skipped when
        that leaves them without events.
        """
        first = stream.get(0)
        if first is None:
            return
        window = self.pattern.window
        origin = first.timestamp

        def emit(segment: int, starts: list[int],
                 end: int) -> Iterator[PartitionSpan]:
            begin = starts[segment]
            if begin >= end:
                return
            yield PartitionSpan(
                index=segment,
                begin=begin,
                end=end,
                size=end - begin,
                own_start=origin + segment * window,
                own_end=origin + (segment + 1) * window,
                own_start_id=-1,
                own_end_id=-1,
            )

        starts = [0]           # starts[k] = first position with segment >= k
        last_segment = 0
        emitted = 0            # next segment index to consider
        position = 1
        while True:
            event = stream.get(position)
            if event is None:
                break
            segment = int((event.timestamp - origin) / window)
            if segment > last_segment:
                starts.extend([position] * (segment - last_segment))
                last_segment = segment
                while emitted + 2 <= last_segment:
                    yield from emit(emitted, starts, starts[emitted + 2])
                    emitted += 1
            position += 1
        total = position
        for segment in range(emitted, last_segment + 1):
            end = starts[segment + 2] if segment + 2 <= last_segment else total
            yield from emit(segment, starts, end)


class RREngine(WindowSegmentEngine):
    """Round-robin segment assignment."""

    def assign_unit(self, partition, unit_loads: list[float]) -> int:
        return partition.index % self.num_units


class JSQEngine(WindowSegmentEngine):
    """Join-the-shortest-queue: fewest pending input events wins.

    In this offline setting queue length is approximated by the number of
    events already dealt to each unit.
    """

    def __init__(self, pattern: Pattern, num_units: int) -> None:
        super().__init__(pattern, num_units)
        self._pending = [0] * num_units

    def assign_unit(self, partition, unit_loads: list[float]) -> int:
        unit = min(range(self.num_units), key=lambda i: self._pending[i])
        self._pending[unit] += partition.size
        return unit


class LLSFEngine(WindowSegmentEngine):
    """Least-loaded-server-first: least accumulated measured load wins.

    ``unit_loads`` carries the comparisons+events performed so far per
    unit, maintained by the shared :class:`PartitionedEngine` runner —
    the greedy heuristic Xiao et al. found strongest.
    """

    def assign_unit(self, partition, unit_loads: list[float]) -> int:
        return min(range(self.num_units), key=lambda i: unit_loads[i])
