"""Self-time arithmetic of the traced run's layer wrappers.

Run from the root of a checkout::

    python3 -m unittest perfbench/test_spans.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import LayerTimer  # noqa: E402


class FakeClock:
    """A clock that only moves when the test advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def setUp(self) -> None:
        self.clock = FakeClock()
        self.timer = LayerTimer(clock=self.clock)

    def test_nested_spans_subtract_children(self) -> None:
        clock, timer = self.clock, self.timer

        def leaf():
            clock.advance(2.0)

        leaf = timer.wrap("leaf", leaf)

        def middle():
            clock.advance(1.0)
            leaf()
            clock.advance(0.5)
            leaf()

        middle = timer.wrap("middle", middle)

        def outer():
            clock.advance(3.0)
            middle()

        timer.wrap("outer", outer)()

        self.assertEqual(timer.calls, {"outer": 1, "middle": 1, "leaf": 2})
        self.assertAlmostEqual(timer.total["leaf"], 4.0)
        self.assertAlmostEqual(timer.self_time["leaf"], 4.0)
        self.assertAlmostEqual(timer.total["middle"], 5.5)
        self.assertAlmostEqual(timer.self_time["middle"], 1.5)
        self.assertAlmostEqual(timer.total["outer"], 8.5)
        self.assertAlmostEqual(timer.self_time["outer"], 3.0)
        # Self times partition the outermost span.
        self.assertAlmostEqual(sum(timer.self_time.values()),
                               timer.total["outer"])

    def test_reentrant_calls_count_once(self) -> None:
        """An AND of two conditions evaluates each child through the same
        wrapped method: one call and one span, covering the children."""
        from repro.core.conditions import AndCondition, Condition

        clock, timer = self.clock, self.timer

        class Leaf(Condition):
            def depends_on(self):
                return frozenset()

            def evaluate(self, binding):
                clock.advance(1.0)
                return True

        originals = {cls: cls.__dict__["evaluate"]
                     for cls in (Leaf, AndCondition)}
        try:
            for cls, method in originals.items():
                cls.evaluate = timer.wrap("conditions.evaluate", method)
            condition = AndCondition((Leaf(), Leaf()))
            self.assertTrue(condition.evaluate({}))
        finally:
            for cls, method in originals.items():
                cls.evaluate = method

        self.assertEqual(timer.calls["conditions.evaluate"], 1)
        self.assertAlmostEqual(timer.total["conditions.evaluate"], 2.0)
        self.assertAlmostEqual(timer.self_time["conditions.evaluate"], 2.0)

    def test_reentry_below_another_layer_still_counts_once(self) -> None:
        clock, timer = self.clock, self.timer

        def inner_a():
            clock.advance(1.0)

        def b():
            clock.advance(2.0)
            wrapped_a_inner()

        def outer_a():
            clock.advance(0.5)
            wrapped_b()

        wrapped_a_inner = timer.wrap("a", inner_a)
        wrapped_b = timer.wrap("b", b)
        timer.wrap("a", outer_a)()

        # The inner "a" runs inside the outer "a" span, so it is part of
        # "b"'s self time, not a second "a" call.
        self.assertEqual(timer.calls["a"], 1)
        self.assertAlmostEqual(timer.total["a"], 3.5)
        self.assertAlmostEqual(timer.self_time["a"], 0.5)
        self.assertAlmostEqual(timer.self_time["b"], 3.0)

    def test_exception_closes_span(self) -> None:
        clock, timer = self.clock, self.timer

        def failing():
            clock.advance(1.0)
            raise ValueError("boom")

        wrapped = timer.wrap("x", failing)
        with self.assertRaises(ValueError):
            wrapped()
        clock.advance(5.0)
        timer.wrap("x", lambda: clock.advance(1.0))()
        self.assertEqual(timer.calls["x"], 2)
        self.assertAlmostEqual(timer.self_time["x"], 2.0)

    def test_rows_counted_per_outermost_call(self) -> None:
        timer = self.timer
        wrapped = timer.wrap("k", lambda indices: None,
                             rows=lambda indices: len(indices))
        wrapped([1, 2, 3])
        wrapped([4])
        self.assertEqual(timer.counts["k.rows"], 4)


class BenchmarkFileTest(unittest.TestCase):
    def test_declared_metrics_match_the_runner(self) -> None:
        import run

        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            declared = json.load(handle)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["per_layer"]],
            run.per_layer_names(),
        )
        self.assertEqual(
            sorted(w["name"] for w in declared["workloads"]),
            sorted(run.WORKLOADS),
        )


if __name__ == "__main__":
    unittest.main()
