"""Agent fusion (paper Section 4.2, Algorithm 2).

Fusion merges two consecutive agents into a single structure preserving
their joint functionality so a lightweight agent does not hold two
execution units hostage.  A fused agent is a thin composite over one
:class:`AgentCore` per stage: stage one owns ``EB_i``/``MB_i`` and stage
two owns ``EB_{i+1}``/``MB_{i+1}``.  Partial matches that stage one
extends are handed to stage two's match path in the same call instead of
crossing a queue — the paper's "written to ``MB_{i+1}`` triggering a
comparison against ``EB_{i+1}``" — so exactly-once pair evaluation holds
across the internal boundary and both stages keep ``AgentCore``'s join,
scan, purge and vector paths.

Fusion is planned by :func:`plan_with_fusion` — Algorithm 2: allocate,
fuse any agent that received fewer than two units with its lighter
neighbour, re-allocate, repeat.

Restrictions (as in the paper's evaluation, which fused plain adjacent
pairs of sequence agents): Kleene and negation-guarded stages are not
fusable (:func:`fusable_stages`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.errors import AllocationError, PatternError
from repro.core.nfa import ChainNFA, Stage
from repro.costmodel.model import (
    CostParameters,
    WorkloadStatistics,
    proportional_allocation,
)
from repro.hypersonic.agent import AgentCore
from repro.hypersonic.buffers import BufferSnapshot
from repro.hypersonic.items import ItemKind, Receipt, WorkItem, WorkQueue

__all__ = ["FusedAgentCore", "FusionPlan", "fusable_stages", "plan_with_fusion"]


def fusable_stages(stages: tuple[Stage, ...], first: int) -> bool:
    """The one fusability rule: stages ``first`` and ``first + 1`` fuse
    only as plain sequence stages — no Kleene loop on either and no
    negation guard before, between or after them."""
    second = first + 1
    return not (
        stages[first].is_kleene
        or stages[second].is_kleene
        or stages[first - 1].guards_after
        or stages[first].guards_after
        or stages[second].guards_after
    )


class FusedAgentCore:
    """Two consecutive stages executed by one agent (Section 4.2).

    Exposes the same driving surface as :class:`AgentCore` (``pop`` /
    ``process`` / ``has_*_work`` / ``input_routes`` / ``snapshot``), so
    drivers and policies treat fused and plain agents uniformly.  The
    splitter feeds stage one's events as ``EVENT`` items on ES1 and stage
    two's as ``EVENT2`` items on ES2; the MS carries stage one's inbound
    matches.
    """

    def __init__(
        self,
        agent_index: int,
        stages: tuple[Stage, ...],
        first_stage_index: int,
        window: float,
        watermark: Callable[[], float],
        is_last: bool,
        purge_slack: float | None = None,
    ) -> None:
        if first_stage_index + 1 >= len(stages):
            raise AllocationError("fusion needs two consecutive stages")
        if not fusable_stages(stages, first_stage_index):
            raise PatternError("Kleene and negation-guarded stages cannot be fused")
        self.agent_index = agent_index
        self.stage1 = AgentCore(
            agent_index, stages, first_stage_index, window, watermark,
            is_last=False, purge_slack=purge_slack,
        )
        self.stage2 = AgentCore(
            agent_index, stages, first_stage_index + 1, window, watermark,
            is_last=is_last, purge_slack=purge_slack,
        )
        # Stage two's matches come from stage one inside this agent, never
        # through a queue of its own.  Sharing the inbound MS bounds its
        # event-buffer horizon by the oldest match still queued here (the
        # match in hand bounds it too, as in every AgentCore).
        self.stage2.ms = self.stage1.ms
        self.es = self.stage1.es
        self.es2 = self.stage2.es
        self.ms = self.stage1.ms
        self.mb1 = self.stage1.match_buffer
        self.mb2 = self.stage2.match_buffer
        self.items_processed = 0
        self.vector_mode = False

    # -- work intake ----------------------------------------------------- #

    def has_event_work(self, now: float = float("inf")) -> bool:
        return self.es.has_ready(now) or self.es2.has_ready(now)

    def has_match_work(self, now: float = float("inf")) -> bool:
        return self.ms.has_ready(now)

    def has_any_work(self, now: float = float("inf")) -> bool:
        return self.has_event_work(now) or self.has_match_work(now)

    def pop(self, role: str, now: float = float("inf")) -> WorkItem | None:
        if role == "event":
            item = self.es.pop(now)
            if item is not None:
                return item
            return self.es2.pop(now)
        return self.ms.pop(now)

    def input_routes(self) -> tuple[tuple[str, WorkQueue, ItemKind], ...]:
        """``(event type, queue, item kind)`` for every splitter-fed input."""
        return (
            (self.stage1.stage.event_type_name, self.es, ItemKind.EVENT),
            (self.stage2.stage.event_type_name, self.es2, ItemKind.EVENT2),
        )

    def input_queues(self) -> tuple[WorkQueue, ...]:
        return (self.es, self.es2, self.ms)

    def queue_depth(self) -> int:
        return len(self.es) + len(self.es2) + len(self.ms)

    def channel_depths(self) -> tuple[tuple[str, int], ...]:
        """Current depth of each input channel, for queue-depth tracing."""
        return (
            ("ES1", len(self.es)),
            ("ES2", len(self.es2)),
            ("MS", len(self.ms)),
        )

    def maintenance(self) -> Receipt:
        # Fused stages hold no guards or Kleene loops: nothing is held back.
        return Receipt()

    def flush(self) -> Receipt:
        return Receipt()

    # -- processing ------------------------------------------------------ #

    def process(self, item: WorkItem, unit_id: int) -> Receipt:
        self.items_processed += 1
        if item.kind is ItemKind.EVENT2:
            return self.stage2.process(_as_event(item), unit_id)
        return self._into_second(self.stage1.process(item, unit_id), unit_id)

    def process_batch(self, items: list[WorkItem], unit_id: int) -> Receipt:
        """Process a micro-batch drained from one input queue with one
        merged receipt, through that stage's batched scan."""
        self.items_processed += len(items)
        if items[0].kind is ItemKind.EVENT2:
            return self.stage2.process_batch(
                [_as_event(item) for item in items], unit_id
            )
        return self._into_second(
            self.stage1.process_batch(items, unit_id), unit_id
        )

    def enable_vector_mode(self) -> bool:
        """Compile both stages' vectorized kernels (batched mode); a stage
        without one keeps its scalar path.  Idempotent."""
        first = self.stage1.enable_vector_mode()
        second = self.stage2.enable_vector_mode()
        self.vector_mode = first or second
        return self.vector_mode

    def _into_second(self, receipt: Receipt, unit_id: int) -> Receipt:
        """Hand stage one's extensions to stage two's match path.

        They go in ascending timestamp order: stage two bounds each EB
        purge by the match in hand, so no purge can pass a match still
        waiting in this hand-off — which also keeps a batched stage-one
        scan from purging EB2 past anything its own extensions need.
        """
        internal = sorted(
            receipt.emitted_down, key=lambda partial: partial.timestamp
        )
        receipt.emitted_down = []
        for partial in internal:
            receipt.merge(
                self.stage2.process(WorkItem(ItemKind.MATCH, partial), unit_id)
            )
        return receipt

    # -- introspection ----------------------------------------------------- #

    def local_match_floor(self) -> float:
        """Minimum timestamp of any match alive in either stage."""
        return min(self.stage1.local_match_floor(),
                   self.stage2.local_match_floor())

    def snapshot(self) -> BufferSnapshot:
        return BufferSnapshot.merge(
            [self.stage1.snapshot(), self.stage2.snapshot()]
        )

    def working_set_items(self, unit_id: int) -> int:
        return (self.stage1.working_set_items(unit_id)
                + self.stage2.working_set_items(unit_id))

    def __repr__(self) -> str:
        return (
            f"FusedAgentCore(F{self.agent_index}, stages="
            f"{self.stage1.stage_index}+{self.stage2.stage_index})"
        )


def _as_event(item: WorkItem) -> WorkItem:
    return WorkItem(ItemKind.EVENT, item.payload)


@dataclass(frozen=True)
class FusionPlan:
    """Outcome of Algorithm 2: agent groups and the final allocation.

    ``groups[i]`` lists the NFA stage indexes handled by chain position
    ``i`` — a single stage for a plain agent, two for a fused one.
    """

    groups: tuple[tuple[int, ...], ...]
    per_agent: tuple[int, ...]

    @property
    def num_agents(self) -> int:
        return len(self.groups)

    def fused_groups(self) -> tuple[int, ...]:
        return tuple(
            index for index, group in enumerate(self.groups) if len(group) > 1
        )

    def describe(self) -> dict:
        """JSON-serialisable view of the plan, used by trace exports."""
        return {
            "groups": [list(group) for group in self.groups],
            "per_agent": list(self.per_agent),
        }


def _fusable(nfa: ChainNFA, group_a: tuple[int, ...],
             group_b: tuple[int, ...]) -> bool:
    """Only adjacent single-stage agents fuse, by :func:`fusable_stages`."""
    if len(group_a) > 1 or len(group_b) > 1:
        return False
    return fusable_stages(nfa.stages, group_a[0])


def plan_with_fusion(
    nfa: ChainNFA,
    stats: WorkloadStatistics,
    total_units: int,
    costs: CostParameters | None = None,
    force_pairs: Sequence[tuple[int, int]] = (),
) -> FusionPlan:
    """Algorithm 2: allocate, fuse under-provisioned agents, re-allocate.

    ``force_pairs`` lets experiments fuse chosen adjacent stage pairs up
    front (the Figure 12 setup fixes a pair per pattern in advance).
    """
    from repro.costmodel.model import LoadModel  # local to avoid cycle noise

    num_agents = nfa.num_stages - 1
    groups: list[tuple[int, ...]] = [(index + 1,) for index in range(num_agents)]

    for first_stage, second_stage in force_pairs:
        for position, group in enumerate(groups):
            if group == (first_stage,):
                if (
                    position + 1 < len(groups)
                    and groups[position + 1] == (second_stage,)
                    and _fusable(nfa, group, groups[position + 1])
                ):
                    groups[position] = (first_stage, second_stage)
                    del groups[position + 1]
                break

    model = LoadModel.for_nfa(nfa, stats, costs)

    def group_loads(current: list[tuple[int, ...]]) -> list[float]:
        loads = [load.total for load in model.agent_loads(total_units)]
        return [sum(loads[stage - 1] for stage in group) for group in current]

    def allocate(current: list[tuple[int, ...]]) -> list[int]:
        return proportional_allocation(group_loads(current), total_units)

    allocation = allocate(groups)
    changed = True
    while changed:
        changed = False
        for position, count in enumerate(allocation):
            if count >= 2 or len(groups) == 1:
                continue
            # Fuse with the neighbour holding the smaller allocation
            # (Algorithm 2 line 5), falling back to whichever side is
            # fusable.
            candidates = []
            if position > 0 and _fusable(nfa, groups[position - 1],
                                         groups[position]):
                candidates.append(
                    (allocation[position - 1], position - 1, position)
                )
            if position + 1 < len(groups) and _fusable(
                nfa, groups[position], groups[position + 1]
            ):
                candidates.append(
                    (allocation[position + 1], position, position + 1)
                )
            if not candidates:
                continue
            candidates.sort()
            _load, left, right = candidates[0]
            groups[left] = groups[left] + groups[right]
            del groups[right]
            allocation = allocate(groups)
            changed = True
            break
    return FusionPlan(groups=tuple(groups), per_agent=tuple(allocation))


def build_agent(
    group: tuple[int, ...],
    agent_index: int,
    nfa: ChainNFA,
    watermark: Callable[[], float],
    is_last: bool,
    purge_slack: float | None,
):
    """Instantiate the right core for one chain position."""
    if len(group) == 1:
        return AgentCore(
            agent_index=agent_index,
            stages=nfa.stages,
            stage_index=group[0],
            window=nfa.window,
            watermark=watermark,
            is_last=is_last,
            purge_slack=purge_slack,
        )
    return FusedAgentCore(
        agent_index=agent_index,
        stages=nfa.stages,
        first_stage_index=group[0],
        window=nfa.window,
        watermark=watermark,
        is_last=is_last,
        purge_slack=purge_slack,
    )
