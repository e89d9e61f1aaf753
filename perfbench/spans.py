"""Per-layer timing wrappers for the traced benchmark run.

A :class:`LayerTimer` wraps the public functions of each layer and keeps,
per layer, the number of outermost calls, their total wall time and their
*self* time: a span's duration minus the part of it covered by the spans
of other wrapped layers it called.  A call into a layer that is already
active on the stack (``AndCondition.evaluate`` calling each child's
``evaluate``) runs unwrapped and is counted once, inside the outer span.

:func:`instrument` installs the wrappers the benchmark reports on.  It is
called only in the traced child process of a path, never in a process
whose numbers feed an end-to-end metric.  Wrapped names that the program
does not define are skipped, so a later refactor of a private helper makes
a layer's figures shrink instead of crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["LayerTimer", "instrument"]

#: Modules the wrappers reach, imported before patching so that aliases
#: bound by ``from ... import`` exist and are patched too.
_MODULES = (
    "repro.bench.harness",
    "repro.control.planning",
    "repro.core.vectorized",
    "repro.costmodel.statistics",
    "repro.engine.sequential",
    "repro.hypersonic.agent",
    "repro.hypersonic.buffers",
    "repro.hypersonic.splitter",
    "repro.runtime.procs",
    "repro.simulator.hypersonic_sim",
    "repro.simulator.kernel",
    "repro.simulator.runner",
    "repro.workloads.queries",
)


class LayerTimer:
    """Call counts, total and self time per layer, from nested spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # One [child_seconds] cell per open span, innermost last.
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, func: Callable,
             rows: Callable[..., int] | None = None) -> Callable:
        """Return *func* wrapped in a span of *layer*.

        *rows*, given the call's arguments, returns a work count added to
        ``counts[layer + ".rows"]`` for each outermost call.
        """
        clock = self.clock
        stack = self._stack
        active = self._active
        calls, total, self_time = self.calls, self.total, self.self_time
        counts = self.counts
        rows_key = layer + ".rows"

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if active[layer]:
                return func(*args, **kwargs)
            if rows is not None:
                counts[rows_key] += rows(*args, **kwargs)
            active[layer] = 1
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[layer] = 0
                calls[layer] += 1
                total[layer] += elapsed
                self_time[layer] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def span(self, layer: str, func: Callable, *args: Any,
             **kwargs: Any) -> Any:
        """Call ``func(*args, **kwargs)`` inside one span of *layer*."""
        return self.wrap(layer, func)(*args, **kwargs)


def _patch_function(timer: LayerTimer, module_name: str, attr: str,
                    layer: str) -> None:
    """Wrap a module-level function and every ``from x import f`` alias of
    it in the loaded ``repro`` modules."""
    module = sys.modules.get(module_name)
    original = getattr(module, attr, None) if module is not None else None
    if original is None:
        return
    wrapped = timer.wrap(layer, original)
    for name, loaded in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapped)


def _patch_method(timer: LayerTimer, cls: type | None, name: str, layer: str,
                  rows: Callable[..., int] | None = None) -> None:
    if cls is None:
        return
    original = cls.__dict__.get(name)
    if original is None or getattr(original, "__isabstractmethod__", False):
        return
    setattr(cls, name, timer.wrap(layer, original, rows))


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _attr(module_name: str, name: str) -> Any:
    module = sys.modules.get(module_name)
    return getattr(module, name, None) if module is not None else None


def instrument(timer: LayerTimer) -> list:
    """Install the layer wrappers; return the list that collects every
    :class:`FragmentedBuffer` created afterwards (for purged-item counts).
    """
    for module in _MODULES:
        try:
            importlib.import_module(module)
        except ImportError:
            pass
    import repro.core.conditions as conditions

    # repro.core.conditions
    _patch_function(timer, "repro.core.conditions", "pearson_correlation",
                    "conditions.pearson")
    for cls in _subclasses(conditions.Condition):
        _patch_method(timer, cls, "evaluate", "conditions.evaluate")

    # repro.core.vectorized
    stage_kernel = _attr("repro.core.vectorized", "StageKernel")
    for name in ("accepts_over_matches", "accepts_over_events"):
        _patch_method(timer, stage_kernel, name, "vectorized.kernel",
                      rows=lambda self, item, columns, indices, *rest,
                      **kw: len(indices))
    for cls_name in ("EventColumns", "MatchColumns"):
        _patch_method(timer, _attr("repro.core.vectorized", cls_name), "sync",
                      "vectorized.sync")

    # repro.core.nfa and repro.core.matches
    _patch_method(timer, _attr("repro.core.nfa", "Stage"), "accepts",
                  "nfa.accepts")
    _patch_function(timer, "repro.core.nfa", "seq_order_allows", "nfa.order")
    partial_match = _attr("repro.core.matches", "PartialMatch")
    _patch_method(timer, partial_match, "fits_with", "nfa.order")
    for name in ("extended", "extended_kleene"):
        _patch_method(timer, partial_match, name, "matches.extend")

    # repro.engine.sequential
    _patch_method(timer, _attr("repro.engine.sequential", "SequentialEngine"),
                  "process", "engine.process")

    # repro.hypersonic
    _patch_method(timer, _attr("repro.hypersonic.splitter", "Splitter"),
                  "route", "splitter.route")
    buffer_cls = _attr("repro.hypersonic.buffers", "FragmentedBuffer")
    for name in ("purge_fragment", "replace_fragment"):
        _patch_method(timer, buffer_cls, name, "buffers.purge")
    agent_cls = _attr("repro.hypersonic.agent", "AgentCore")
    for name in ("_purge_match_fragment", "_purge_event_fragment"):
        _patch_method(timer, agent_cls, name, "buffers.purge")
    agb = _attr("repro.hypersonic.buffers", "AgentGlobalBuffer")
    for name in ("retain_event", "retain_match"):
        _patch_method(timer, agb, name, "agb.retain")
    created: list = []
    if buffer_cls is not None:
        original_init = buffer_cls.__init__

        @functools.wraps(original_init)
        def init(self, *args: Any, **kwargs: Any) -> None:
            original_init(self, *args, **kwargs)
            created.append(self)

        buffer_cls.__init__ = init

    # repro.simulator
    kernel_cls = _attr("repro.simulator.kernel", "SimKernel")
    for name in ("schedule", "pop", "occupy", "run_task"):
        _patch_method(timer, kernel_cls, name, "simulator.kernel")

    # repro.costmodel, repro.control.planning, repro.bench.harness
    _patch_function(timer, "repro.costmodel.statistics", "estimate_statistics",
                    "costmodel.estimate_statistics")
    _patch_function(timer, "repro.control.planning", "plan_build",
                    "costmodel.plan")
    _patch_function(timer, "repro.bench.harness", "build_query",
                    "workloads.build_query")
    return created
