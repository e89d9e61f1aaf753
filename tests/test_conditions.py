"""Tests for the condition algebra."""

import pytest

from repro.core import (
    KLEENE_REDUCTIONS,
    AggregateCondition,
    AndCondition,
    AttributeCondition,
    ConditionError,
    CorrelationCondition,
    Event,
    EventType,
    NotCondition,
    OrCondition,
    PairwiseCondition,
    Pattern,
    PatternError,
    TrueCondition,
    UnaryCondition,
    kleene_representative,
    pearson_correlation,
)
from repro.core.conditions import CENTER_CACHE_SIZE, _centered, center_history

A = EventType("A")
B = EventType("B")


def ev(t, **attrs):
    return Event(A, t, attrs)


class TestTrueCondition:
    def test_accepts_everything(self):
        cond = TrueCondition()
        assert cond.evaluate({})
        assert cond.depends_on() == frozenset()


class TestUnaryCondition:
    def test_predicate_applied(self):
        cond = UnaryCondition("p1", lambda e: e["x"] > 3)
        assert cond.evaluate({"p1": ev(0, x=4)})
        assert not cond.evaluate({"p1": ev(0, x=2)})

    def test_depends_on_single_position(self):
        cond = UnaryCondition("p1", lambda e: True)
        assert cond.depends_on() == frozenset({"p1"})

    def test_kleene_tuple_uses_last_event(self):
        cond = UnaryCondition("p1", lambda e: e["x"] == 9)
        binding = {"p1": (ev(0, x=1), ev(1, x=9))}
        assert cond.evaluate(binding)

    def test_empty_kleene_tuple_raises(self):
        cond = UnaryCondition("p1", lambda e: True)
        with pytest.raises(ConditionError):
            cond.evaluate({"p1": ()})


class TestAttributeCondition:
    def test_operators(self):
        left = ev(0, v=1)
        right = ev(1, v=2)
        binding = {"a": left, "b": right}
        cases = {
            "<": True, "<=": True, ">": False, ">=": False,
            "==": False, "!=": True,
        }
        for op, expected in cases.items():
            cond = AttributeCondition("a", "v", op, "b", "v")
            assert cond.evaluate(binding) is expected, op

    def test_unknown_operator_rejected(self):
        with pytest.raises(ConditionError):
            AttributeCondition("a", "v", "~", "b", "v")

    def test_missing_attribute_raises_condition_error(self):
        cond = AttributeCondition("a", "nope", "<", "b", "v")
        with pytest.raises(ConditionError):
            cond.evaluate({"a": ev(0), "b": ev(1, v=1)})
        history = (1.0, 2.0, 3.0)
        corr = CorrelationCondition("a", "b", threshold=0.5)
        with pytest.raises(ConditionError, match=r"b\.history"):
            corr.evaluate({"a": ev(0, history=history), "b": ev(1)})
        with pytest.raises(ConditionError, match=r"a\.history"):
            corr.evaluate({"a": ev(0, history=2.5), "b": ev(1, history=history)})
        with pytest.raises(ConditionError, match=r"b\.history"):
            corr.evaluate({"a": ev(0, history=history), "b": ev(1, history=2.5)})

    def test_depends_on_both_positions(self):
        cond = AttributeCondition("a", "v", "<", "b", "v")
        assert cond.depends_on() == frozenset({"a", "b"})


class TestPairwiseCondition:
    def test_predicate_receives_events(self):
        cond = PairwiseCondition(
            "a", "b", lambda x, y: x["v"] + y["v"] == 3
        )
        assert cond.evaluate({"a": ev(0, v=1), "b": ev(1, v=2)})


class TestPearsonCorrelation:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_sequence_is_zero(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_short_sequence_is_zero(self):
        assert pearson_correlation([1], [2]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ConditionError):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_bounded(self):
        value = pearson_correlation([1, 5, 2, 8, 3], [2, 1, 9, 4, 7])
        assert -1.0 <= value <= 1.0

    def test_mutated_list_is_never_served_stale(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [1.0, 2.0, 3.0, 4.0]
        assert pearson_correlation(xs, ys) == pytest.approx(1.0)
        ys.reverse()
        assert pearson_correlation(xs, ys) == pytest.approx(-1.0)
        xs[:] = [5.0, 5.0, 5.0, 5.0]
        assert pearson_correlation(xs, ys) == 0.0

    def test_lists_are_not_cached(self):
        _centered.clear()
        pearson_correlation([1.0, 2.0, 4.0], [3.0, 1.0, 2.0])
        assert not _centered
        pearson_correlation((1.0, 2.0, 4.0), (3.0, 1.0, 2.0))
        assert len(_centered) == 2

    def test_cache_never_grows_past_its_bound(self):
        _centered.clear()
        histories = [
            (float(i), float(i) + 1.0, float(i) * 3.0)
            for i in range(CENTER_CACHE_SIZE * 2 + 5)
        ]
        for left, right in zip(histories, histories[1:]):
            pearson_correlation(left, right)
            assert len(_centered) <= CENTER_CACHE_SIZE
        assert len(_centered) == CENTER_CACHE_SIZE
        # FIFO: the newest histories are the ones kept.
        assert _centered[id(histories[-1])][0] is histories[-1]
        assert id(histories[0]) not in _centered

    def test_cache_hit_returns_the_first_result(self):
        history = (3.0, 1.0, 4.0, 1.0, 5.0)
        assert center_history(history) is center_history(history)

    @pytest.mark.parametrize(
        "degenerate",
        [(), (1.0,), (2.5, 2.5, 2.5), (5e-324, 5e-324, 5e-324), (0.0, 0.0)],
    )
    def test_degenerate_tuples_are_zero(self, degenerate):
        other = tuple(float(i) for i in range(len(degenerate)))
        assert pearson_correlation(degenerate, other) == 0.0
        assert pearson_correlation(other, degenerate) == 0.0
        # Second call: served from the cache, same verdict.
        assert pearson_correlation(degenerate, other) == 0.0

    def test_denormal_deviations_are_zero(self):
        # Deviations of 5e-324 square to 0.0, so the sum of squares is
        # 0.0 although the history is not constant.
        tiny = (0.0, 5e-324, 0.0, 5e-324)
        assert center_history(tiny) is None
        assert pearson_correlation(tiny, (1.0, 2.0, 3.0, 4.0)) == 0.0


class TestCorrelationCondition:
    def test_threshold(self):
        high = ev(0, history=(1.0, 2.0, 3.0))
        also_high = ev(1, history=(2.0, 4.0, 6.0))
        low = ev(2, history=(3.0, 1.0, 2.0))
        cond = CorrelationCondition("a", "b", threshold=0.9)
        assert cond.evaluate({"a": high, "b": also_high})
        assert not cond.evaluate({"a": high, "b": low})


class TestKleeneReduction:
    """Regression: the old ``_first_event`` helper silently took the *last*
    tuple element.  The reduction is now an explicit, validated choice."""

    def test_reductions_enumerated(self):
        assert KLEENE_REDUCTIONS == ("first", "last", "strict")

    def test_representative_first_and_last(self):
        first, last = ev(0, x=1), ev(1, x=9)
        assert kleene_representative((first, last), "first") is first
        assert kleene_representative((first, last), "last") is last
        assert kleene_representative((first, last)) is last  # default

    def test_representative_passthrough_for_single_event(self):
        event = ev(0, x=1)
        for reduce in KLEENE_REDUCTIONS:
            assert kleene_representative(event, reduce) is event

    def test_strict_refuses_tuples(self):
        with pytest.raises(ConditionError, match="ambiguous"):
            kleene_representative((ev(0), ev(1)), "strict")

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ConditionError):
            kleene_representative(ev(0), "median")
        with pytest.raises(ConditionError):
            UnaryCondition("p1", lambda e: True, reduce="median")

    def test_unary_first_reduction(self):
        cond = UnaryCondition("p1", lambda e: e["x"] == 1, reduce="first")
        binding = {"p1": (ev(0, x=1), ev(1, x=9))}
        assert cond.evaluate(binding)

    def test_attribute_condition_reduction_choice(self):
        binding = {
            "a": (ev(0, v=1), ev(1, v=5)),
            "b": ev(2, v=3),
        }
        last = AttributeCondition("a", "v", "<", "b", "v")
        first = AttributeCondition("a", "v", "<", "b", "v", reduce="first")
        assert not last.evaluate(binding)  # 5 < 3 is False
        assert first.evaluate(binding)  # 1 < 3

    def test_strict_condition_raises_on_tuple_binding(self):
        cond = PairwiseCondition(
            "a", "b", lambda x, y: True, reduce="strict"
        )
        assert cond.evaluate({"a": ev(0), "b": ev(1)})
        with pytest.raises(ConditionError, match="ambiguous"):
            cond.evaluate({"a": (ev(0), ev(1)), "b": ev(2)})

    def test_strict_over_kleene_position_rejected_at_pattern_build(self):
        cond = AttributeCondition("p2", "x", "<=", "p3", "x", reduce="strict")
        with pytest.raises(PatternError, match="ambiguous"):
            Pattern.sequence(
                ["A", "B", "C"], window=5.0, kleene=[1], condition=cond
            )
        # The same condition is fine when no Kleene position is involved.
        Pattern.sequence(["A", "B", "C"], window=5.0, condition=cond)


class TestAggregateCondition:
    def test_aggregates_over_tuple(self):
        binding = {"p": (ev(0, x=1), ev(1, x=4), ev(2, x=3))}
        assert AggregateCondition("p", "sum", "==", 8, "x").evaluate(binding)
        assert AggregateCondition("p", "max", "==", 4, "x").evaluate(binding)
        assert AggregateCondition("p", "min", "==", 1, "x").evaluate(binding)
        assert AggregateCondition("p", "avg", ">", 2.5, "x").evaluate(binding)
        assert AggregateCondition("p", "first", "==", 1, "x").evaluate(binding)
        assert AggregateCondition("p", "last", "==", 3, "x").evaluate(binding)

    def test_count_ignores_attribute(self):
        binding = {"p": (ev(0), ev(1))}
        assert AggregateCondition("p", "count", ">=", 2).evaluate(binding)
        assert not AggregateCondition("p", "count", ">", 2).evaluate(binding)

    def test_single_event_degenerates(self):
        binding = {"p": ev(0, x=7)}
        assert AggregateCondition("p", "sum", "==", 7, "x").evaluate(binding)
        assert AggregateCondition("p", "count", "==", 1).evaluate(binding)

    def test_validation(self):
        with pytest.raises(ConditionError):
            AggregateCondition("p", "median", "==", 1, "x")
        with pytest.raises(ConditionError):
            AggregateCondition("p", "sum", "~", 1, "x")
        with pytest.raises(ConditionError):
            AggregateCondition("p", "sum", "==", 1)  # needs an attribute

    def test_missing_attribute_raises(self):
        cond = AggregateCondition("p", "sum", "==", 1, "nope")
        with pytest.raises(ConditionError):
            cond.evaluate({"p": (ev(0, x=1),)})

    def test_empty_tuple_raises(self):
        cond = AggregateCondition("p", "count", "==", 0)
        with pytest.raises(ConditionError):
            cond.evaluate({"p": ()})

    def test_depends_on(self):
        cond = AggregateCondition("p", "count", ">=", 2)
        assert cond.depends_on() == frozenset({"p"})

    def test_kept_off_stages_and_applied_at_closure(self):
        from repro.core import compile_pattern

        cond = AggregateCondition("p2", "count", ">=", 2)
        pattern = Pattern.sequence(
            ["A", "B", "C"], window=10.0, kleene=[1], condition=cond
        )
        assert pattern.closure_conjuncts() == (cond,)
        assert pattern.stage_conjuncts() == ()
        nfa = compile_pattern(pattern)
        assert all(stage.conditions == () for stage in nfa.stages)

    def test_filters_completed_matches(self):
        from tests.conftest import reference_matches

        B_type = EventType("B")
        C_type = EventType("C")
        events = [
            Event(A, 0.0, {"x": 0}),
            Event(B_type, 1.0, {"x": 1}),
            Event(B_type, 2.0, {"x": 2}),
            Event(C_type, 3.0, {"x": 3}),
        ]
        base = Pattern.sequence(["A", "B", "C"], window=10.0, kleene=[1])
        # Skip-till-any over two B events: tuples (b1), (b2), (b1, b2).
        assert len(reference_matches(base, events)) == 3
        pattern = Pattern.sequence(
            ["A", "B", "C"],
            window=10.0,
            kleene=[1],
            condition=AggregateCondition("p2", "count", ">=", 2),
        )
        matches = reference_matches(pattern, events)
        assert len(matches) == 1
        assert len(matches[0].binding["p2"]) == 2


class TestCombinators:
    def test_and_short_circuits(self):
        calls = []

        def tracking(result):
            def predicate(e):
                calls.append(result)
                return result
            return UnaryCondition("p", predicate)

        cond = AndCondition((tracking(False), tracking(True)))
        assert not cond.evaluate({"p": ev(0)})
        assert calls == [False]

    def test_or(self):
        cond = OrCondition(
            (
                UnaryCondition("p", lambda e: False),
                UnaryCondition("p", lambda e: True),
            )
        )
        assert cond.evaluate({"p": ev(0)})

    def test_not(self):
        cond = NotCondition(TrueCondition())
        assert not cond.evaluate({})

    def test_operator_overloads(self):
        true = TrueCondition()
        assert isinstance(true & true, AndCondition)
        assert isinstance(true | true, OrCondition)
        assert isinstance(~true, NotCondition)

    def test_and_flattened(self):
        inner = AndCondition((TrueCondition(), TrueCondition()))
        outer = AndCondition((inner, TrueCondition()))
        assert len(outer.flattened()) == 3

    def test_combined_depends_on(self):
        cond = AndCondition(
            (
                UnaryCondition("a", lambda e: True),
                UnaryCondition("b", lambda e: True),
            )
        )
        assert cond.depends_on() == frozenset({"a", "b"})
