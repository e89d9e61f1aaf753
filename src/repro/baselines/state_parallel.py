"""State-parallel baseline (paper Section 5.1, "state-based" [12]).

Each NFA state is assigned exactly one execution unit — the classic
state-parallel scheme whose degree of parallelism is capped by the number
of states.  Functionally this is HYPERSONIC's outer layer with the inner
layer collapsed to a single worker per agent, so we reuse the agent chain
with a one-unit-per-agent allocation; extra cores beyond the state count
are simply never used, which is exactly why the method fails to scale with
the number of cores in Figure 7.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.events import Event
from repro.core.matches import Match
from repro.core.nfa import compile_pattern
from repro.core.patterns import Pattern
from repro.costmodel.model import WorkloadStatistics
from repro.hypersonic.engine import HypersonicConfig, HypersonicEngine

__all__ = ["StateParallelEngine"]


class StateParallelEngine:
    """One execution unit per agent; no inner data parallelism."""

    def __init__(
        self,
        pattern: Pattern,
        stats: WorkloadStatistics | None = None,
        seed: int = 7,
    ) -> None:
        self.pattern = pattern
        nfa = compile_pattern(pattern)
        self.num_agents = nfa.num_stages - 1
        # Role dynamics must stay on: a lone unit serves both of its
        # agent's input streams by alternating roles.
        config = HypersonicConfig(
            role_dynamic=True,
            agent_dynamic=False,
            allocation="equal",
            seed=seed,
        )
        self._engine = HypersonicEngine(
            pattern, num_units=self.num_agents, config=config, stats=stats
        )

    def run(self, events: Iterable[Event]) -> list[Match]:
        return self._engine.run(events)
