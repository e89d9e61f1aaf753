"""The HYPERSONIC engine: planning and wiring of the agent chain.

:class:`HypersonicEngine` assembles the full two-tier system for one SEQ
pattern — splitter, agent chain (with optional fusion), execution units
with their role assignments.  It has no driver of its own: :meth:`run`
hands the wired engine to the discrete-event simulator
(:mod:`repro.simulator.hypersonic_sim`), which interleaves the units on a
virtual clock and returns the exact match set that the tests compare
against the sequential baseline.  The same simulator, with caller-chosen
costs and knobs, produces the performance figures.

Restrictions (matching the paper's system): SEQ patterns only, at least
two event types, no Kleene closure on the first type (the first agent
represents the first two NFA states and cannot host a self-loop).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.errors import AllocationError, PatternError
from repro.core.events import Event
from repro.core.matches import Match
from repro.core.nfa import ChainNFA, compile_pattern
from repro.core.patterns import Operator, Pattern
from repro.control.planning import plan_build
from repro.costmodel.model import CostParameters, WorkloadStatistics
from repro.costmodel.statistics import estimate_statistics
from repro.hypersonic.allocation import AllocationPlan
from repro.hypersonic.fusion import FusionPlan, build_agent
from repro.hypersonic.items import ItemKind
from repro.hypersonic.splitter import RouteTarget, Splitter
from repro.hypersonic.workers import ExecutionUnit, WorkerPolicy, assign_roles
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["HypersonicConfig", "HypersonicEngine"]


@dataclass(frozen=True)
class HypersonicConfig:
    """Feature switches for the engine (paper Sections 3.3–4.2).

    ``allocation`` selects the outer balancing scheme (``"cost"`` per
    Theorem 1 or the ``"equal"`` ablation).  ``fusion`` enables Algorithm 2;
    ``force_fusion_pairs`` pre-fuses chosen adjacent stage pairs as in the
    Figure 12 setup.  ``sample_size`` bounds the statistics-estimation
    prefix when no statistics are supplied.
    """

    role_dynamic: bool = True
    agent_dynamic: bool = False
    fusion: bool = False
    force_fusion_pairs: tuple[tuple[int, int], ...] = ()
    allocation: str = "cost"
    seed: int = 7
    purge_slack: float | None = None
    sample_size: int = 2000


class HypersonicEngine:
    """End-to-end hybrid-parallel CEP engine for a single pattern."""

    def __init__(
        self,
        pattern: Pattern,
        num_units: int,
        config: HypersonicConfig | None = None,
        stats: WorkloadStatistics | None = None,
        costs: CostParameters | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if pattern.operator is not Operator.SEQ:
            raise PatternError("HYPERSONIC evaluates SEQ patterns")
        self.pattern = pattern
        self.nfa: ChainNFA = compile_pattern(pattern)
        if self.nfa.num_stages < 2:
            raise PatternError(
                "HYPERSONIC needs at least two positive event types"
            )
        if self.nfa.stages[0].is_kleene:
            raise PatternError(
                "Kleene closure on the first event type is not supported by "
                "the agent chain (the first agent covers the first two states)"
            )
        if num_units < 1:
            raise AllocationError("need at least one execution unit")
        self.num_units = num_units
        self.config = config if config is not None else HypersonicConfig()
        self.costs = costs if costs is not None else CostParameters()
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER

        self._rng = random.Random(self.config.seed)
        self.splitter: Splitter | None = None
        self.agents: list = []
        self.units: list[ExecutionUnit] = []
        self.policy: WorkerPolicy | None = None
        self.fusion_plan: FusionPlan | None = None
        self.allocation_plan: AllocationPlan | None = None
        self._built = False

    # ------------------------------------------------------------------ #
    # Planning and wiring                                                 #
    # ------------------------------------------------------------------ #

    def ensure_statistics(self, sample: Sequence[Event]) -> WorkloadStatistics:
        if self.stats is None:
            self.stats = estimate_statistics(self.pattern, sample)
        return self.stats

    def build(self) -> None:
        """Create agents, queues, units, and the routing table."""
        if self.stats is None:
            raise AllocationError(
                "statistics required before build(); call ensure_statistics() "
                "or pass stats="
            )
        config = self.config
        nfa = self.nfa

        build_plan = plan_build(
            nfa, self.stats, self.num_units, self.costs,
            fusion=config.fusion,
            force_fusion_pairs=config.force_fusion_pairs,
            allocation=config.allocation,
            tracer=self.tracer,
        )
        self.fusion_plan = build_plan.fusion_plan
        self.allocation_plan = build_plan.allocation_plan
        groups = build_plan.groups
        per_agent = list(build_plan.per_agent)

        splitter = Splitter(nfa=nfa, tracer=self.tracer)
        self.splitter = splitter
        watermark = lambda: splitter.watermark  # noqa: E731

        self.agents = []
        for position, group in enumerate(groups):
            is_last = position == len(groups) - 1
            agent = build_agent(
                group, position, nfa, watermark, is_last, config.purge_slack
            )
            self.agents.append(agent)
        # System-wide match floor for guard-event purges (see AgentCore).
        agents = self.agents

        def global_floor() -> float:
            return min(
                (agent.local_match_floor() for agent in agents),
                default=float("inf"),
            )

        for agent in agents:
            agent.global_floor = global_floor

        self._wire_routes()

        if not config.role_dynamic:
            per_agent = _enforce_two_per_agent(per_agent, self.num_units)
        self.units = assign_roles(per_agent, self._rng)
        self.policy = WorkerPolicy(
            agents=self.agents,
            units=self.units,
            window=nfa.window,
            role_dynamic=config.role_dynamic,
            agent_dynamic=config.agent_dynamic,
            rng=random.Random(config.seed + 1),
            tracer=self.tracer,
        )
        self.policy.watermark = watermark
        self._built = True

    def _wire_routes(self) -> None:
        nfa = self.nfa
        splitter = self.splitter
        assert splitter is not None
        first_agent = self.agents[0]
        stage0 = nfa.stages[0]
        splitter.add_route(
            stage0.event_type_name,
            RouteTarget(
                queue=first_agent.ms,
                kind=ItemKind.MATCH,
                seed_position=stage0.item.name,
            ),
        )
        for agent in self.agents:
            for type_name, queue, kind in agent.input_routes():
                splitter.add_route(type_name, RouteTarget(queue=queue, kind=kind))

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #

    def run(self, events: Iterable[Event]) -> list[Match]:
        """Process an in-order stream to completion, returning all matches.

        Accepts a list, generator, or
        :class:`~repro.core.streams.WorkloadSource`; the stream is consumed
        in a single pass (statistics estimation buffers only the
        ``sample_size`` prefix).  May be called once per engine instance.

        The engine is driven by the discrete-event simulator
        (:class:`~repro.simulator.hypersonic_sim.HypersonicSimulation`) at
        this engine's own cost constants, so matches come back
        policy-resolved in simulated completion order.  Raises
        :class:`~repro.core.errors.StreamError` on an out-of-order stream
        and :class:`~repro.core.errors.AllocationError` naming the stuck
        agents if work remains in flight at the end of the stream.
        """
        if self._built:
            raise AllocationError("run() may only be called once per engine")
        # Imported here: the simulator module imports this one.
        from repro.simulator.hypersonic_sim import HypersonicSimulation

        simulation = HypersonicSimulation(
            self.pattern, self.num_units, costs=self.costs, _engine=self
        )
        simulation.run(events)
        return simulation.matches


def _enforce_two_per_agent(per_agent: list[int], total_units: int) -> list[int]:
    """Role-static mode needs one event worker and one match worker per
    agent; redistribute so no agent falls below two units."""
    num_agents = len(per_agent)
    if total_units < 2 * num_agents:
        raise AllocationError(
            f"role-static mode needs at least {2 * num_agents} units for "
            f"{num_agents} agents, got {total_units}"
        )
    adjusted = list(per_agent)
    while any(count < 2 for count in adjusted):
        needy = min(range(num_agents), key=lambda i: adjusted[i])
        donor = max(range(num_agents), key=lambda i: adjusted[i])
        adjusted[donor] -= 1
        adjusted[needy] += 1
    return adjusted


def detect_hybrid(
    pattern: Pattern,
    events: Iterable[Event],
    num_units: int = 8,
    config: HypersonicConfig | None = None,
    stats: WorkloadStatistics | None = None,
) -> list[Match]:
    """One-shot convenience wrapper over :class:`HypersonicEngine`."""
    engine = HypersonicEngine(pattern, num_units, config=config, stats=stats)
    return engine.run(events)
