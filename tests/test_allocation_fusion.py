"""Tests for outer allocation plans and agent fusion (Algorithm 2)."""

import pytest

from repro.core import Pattern, PatternError, compile_pattern
from repro.core.errors import AllocationError
from repro.costmodel import WorkloadStatistics
from repro.hypersonic import allocate_units, plan_with_fusion
from repro.hypersonic.fusion import FusedAgentCore, build_agent
from repro.hypersonic.items import ItemKind, WorkItem
from repro.core import Event, EventType, PartialMatch

A, B, C, D = (EventType(n) for n in "ABCD")


def ev(type_, t):
    return Event(type_, t)


def stats_for(nfa, work=None):
    n = nfa.num_stages
    return WorkloadStatistics(
        rates=tuple(1.0 for _ in range(n)),
        selectivities=(1.0,) + tuple(0.1 for _ in range(n - 1)),
        stage_work=tuple(work) if work else (),
    )


class TestAllocateUnits:
    def test_cost_scheme_follows_load(self):
        nfa = compile_pattern(Pattern.sequence(["A", "B", "C"], window=2.0))
        plan = allocate_units(
            nfa, stats_for(nfa, work=[0, 10, 40]), total_units=10
        )
        assert plan.total_units == 10
        assert plan.per_agent[1] > plan.per_agent[0]
        assert plan.scheme == "cost"

    def test_equal_scheme(self):
        nfa = compile_pattern(Pattern.sequence(["A", "B", "C"], window=2.0))
        plan = allocate_units(nfa, stats_for(nfa), 7, scheme="equal")
        assert plan.per_agent == (4, 3)

    def test_unknown_scheme(self):
        nfa = compile_pattern(Pattern.sequence(["A", "B", "C"], window=2.0))
        with pytest.raises(AllocationError):
            allocate_units(nfa, stats_for(nfa), 4, scheme="magic")

    def test_too_few_units(self):
        nfa = compile_pattern(Pattern.sequence(["A", "B", "C"], window=2.0))
        with pytest.raises(AllocationError):
            allocate_units(nfa, stats_for(nfa), 1)

    def test_underprovisioned_detection(self):
        nfa = compile_pattern(
            Pattern.sequence(["A", "B", "C", "D"], window=2.0)
        )
        plan = allocate_units(
            nfa, stats_for(nfa, work=[0, 1, 1, 100]), total_units=6
        )
        assert 2 not in plan.underprovisioned() or plan.per_agent[2] < 2
        assert any(count < 2 for count in plan.per_agent) == bool(
            plan.underprovisioned()
        )


class TestFusionPlanning:
    def test_no_fusion_when_well_provisioned(self):
        nfa = compile_pattern(Pattern.sequence(["A", "B", "C"], window=2.0))
        plan = plan_with_fusion(nfa, stats_for(nfa), total_units=8)
        assert plan.num_agents == 2
        assert plan.fused_groups() == ()

    def test_underprovisioned_agents_fuse(self):
        nfa = compile_pattern(
            Pattern.sequence(["A", "B", "C", "D"], window=2.0)
        )
        plan = plan_with_fusion(
            nfa, stats_for(nfa, work=[0, 1, 1, 100]), total_units=6
        )
        assert plan.num_agents < 3
        assert sum(plan.per_agent) == 6
        assert all(count >= 1 for count in plan.per_agent)

    def test_forced_pairs(self):
        nfa = compile_pattern(
            Pattern.sequence(["A", "B", "C", "D"], window=2.0)
        )
        plan = plan_with_fusion(
            nfa, stats_for(nfa), total_units=8, force_pairs=((1, 2),)
        )
        assert (1, 2) in plan.groups

    def test_kleene_stage_not_fusable(self):
        nfa = compile_pattern(
            Pattern.sequence(["A", "B", "C", "D"], window=2.0, kleene=[1])
        )
        plan = plan_with_fusion(
            nfa, stats_for(nfa), total_units=8, force_pairs=((1, 2),)
        )
        assert (1, 2) not in plan.groups


class TestFusedAgentCore:
    def build(self, window=10.0):
        nfa = compile_pattern(
            Pattern.sequence(["A", "B", "C", "D"], window=window)
        )
        return FusedAgentCore(
            agent_index=0,
            stages=nfa.stages,
            first_stage_index=1,
            window=window,
            watermark=lambda: float("-inf"),
            is_last=False,
        )

    def test_joint_functionality(self):
        fused = self.build()
        seed = WorkItem(ItemKind.MATCH, PartialMatch.of("p1", ev(A, 1)))
        fused.process(seed, unit_id=0)
        r_b = fused.process(WorkItem(ItemKind.EVENT, ev(B, 2)), unit_id=0)
        # (A, B) stays internal: written to MB2, not emitted.
        assert r_b.emitted_down == []
        r_c = fused.process(WorkItem(ItemKind.EVENT2, ev(C, 3)), unit_id=0)
        assert len(r_c.emitted_down) == 1

    def test_internal_result_joins_eb2_immediately(self):
        fused = self.build()
        fused.process(WorkItem(ItemKind.EVENT2, ev(C, 3)), unit_id=0)
        fused.process(WorkItem(ItemKind.EVENT, ev(B, 2)), unit_id=0)
        receipt = fused.process(
            WorkItem(ItemKind.MATCH, PartialMatch.of("p1", ev(A, 1))),
            unit_id=0,
        )
        # The (A,B) intermediate must meet the buffered C in the same call.
        assert len(receipt.emitted_down) == 1

    def test_batched_scan_keeps_eb2_for_pending_extensions(self):
        # A stage-one batch spanning more than W: the newer B's extension
        # must not lead stage two to purge the C an older extension of the
        # same batch needs.
        fused = self.build()
        fused.process(WorkItem(ItemKind.EVENT2, ev(C, 5)), unit_id=0)
        for unit, t in ((0, 30), (1, 0)):
            seed = PartialMatch.of("p1", ev(A, t))
            fused.process(WorkItem(ItemKind.MATCH, seed), unit_id=unit)
        receipt = fused.process_batch(
            [WorkItem(ItemKind.EVENT, ev(B, t)) for t in (1, 31)], unit_id=0
        )
        assert [m.earliest for m in receipt.emitted_down] == [0]

    def test_minimum_two_workers_suffice(self):
        fused = self.build()
        assert fused.pop("event") is None
        fused.es.push(WorkItem(ItemKind.EVENT, ev(B, 1)))
        fused.es2.push(WorkItem(ItemKind.EVENT2, ev(C, 2)))
        assert fused.pop("event").kind is ItemKind.EVENT
        assert fused.pop("event").kind is ItemKind.EVENT2

    def test_guarded_stage_rejected(self):
        # The constructor and the planner share one fusability rule:
        # negation-guarded and Kleene stages are rejected by both.
        for pattern in (
            Pattern.sequence(["A", "X", "B", "C"], window=5.0, negated=[1]),
            Pattern.sequence(["A", "B", "C", "D"], window=5.0, kleene=[2]),
        ):
            nfa = compile_pattern(pattern)
            with pytest.raises(PatternError):
                FusedAgentCore(
                    agent_index=0, stages=nfa.stages, first_stage_index=1,
                    window=5.0, watermark=lambda: 0.0, is_last=False,
                )
            plan = plan_with_fusion(
                nfa, stats_for(nfa), total_units=8, force_pairs=((1, 2),)
            )
            assert (1, 2) not in plan.groups

    def test_snapshot_covers_both_pairs(self):
        fused = self.build()
        fused.process(
            WorkItem(ItemKind.MATCH, PartialMatch.of("p1", ev(A, 1))),
            unit_id=0,
        )
        fused.process(WorkItem(ItemKind.EVENT, ev(B, 2)), unit_id=0)
        snapshot = fused.snapshot()
        assert snapshot.eb_items == 1   # B in EB1
        assert snapshot.mb_items == 2   # seed in MB1 + (A,B) in MB2


class TestBuildAgent:
    def test_single_stage_builds_agent_core(self):
        nfa = compile_pattern(Pattern.sequence(["A", "B", "C"], window=2.0))
        agent = build_agent((1,), 0, nfa, lambda: 0.0, False, None)
        assert type(agent).__name__ == "AgentCore"

    def test_pair_builds_fused(self):
        nfa = compile_pattern(
            Pattern.sequence(["A", "B", "C", "D"], window=2.0)
        )
        agent = build_agent((1, 2), 0, nfa, lambda: 0.0, False, None)
        assert isinstance(agent, FusedAgentCore)
