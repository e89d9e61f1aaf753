"""Boolean conditions over events participating in a pattern.

A condition constrains the events bound to pattern positions.  Conditions
are the ``C = {C_1..C_k}`` component of a pattern (paper Section 2.1) and
are verified at NFA states; the fraction of comparisons a condition accepts
is the *state selectivity* ``s_i`` in the cost model.

The public classes form a small algebra:

* :class:`AttributeCondition` — binary predicate over attributes of two
  pattern positions (the common case in the paper's queries, e.g.
  ``Corr(S_{i-1}.history, S_i.history) > T``).
* :class:`UnaryCondition` — predicate over a single position.
* :class:`AndCondition` / :class:`OrCondition` / :class:`NotCondition` —
  combinators.
* :class:`TrueCondition` — always accepts (useful in tests and as a default).

Each condition reports which pattern positions it ``depends_on`` so the NFA
compiler can attach it to the earliest state at which all of its positions
are bound — conditions are thus verified as early as possible, exactly like
the per-state predicate placement the paper assumes.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.errors import ConditionError
from repro.core.events import Event

__all__ = [
    "Condition",
    "TrueCondition",
    "UnaryCondition",
    "AttributeCondition",
    "PairwiseCondition",
    "AggregateCondition",
    "AndCondition",
    "OrCondition",
    "NotCondition",
    "CorrelationCondition",
    "KLEENE_REDUCTIONS",
    "CENTER_CACHE_SIZE",
    "center_history",
    "kleene_representative",
    "pearson_correlation",
]

# A binding maps pattern position name -> the event(s) bound there.  Kleene
# positions bind a tuple of events; plain positions bind a single event.
Binding = Mapping[str, Any]


class Condition(abc.ABC):
    """Base class for all pattern conditions."""

    @abc.abstractmethod
    def depends_on(self) -> frozenset[str]:
        """Names of pattern positions this condition reads."""

    @abc.abstractmethod
    def evaluate(self, binding: Binding) -> bool:
        """Evaluate against a (possibly partial) binding.

        All positions in :meth:`depends_on` are guaranteed present when an
        engine calls this; evaluating with missing positions raises
        ``KeyError`` by design.
        """

    def __and__(self, other: "Condition") -> "AndCondition":
        return AndCondition((self, other))

    def __or__(self, other: "Condition") -> "OrCondition":
        return OrCondition((self, other))

    def __invert__(self) -> "NotCondition":
        return NotCondition(self)


@dataclass(frozen=True)
class TrueCondition(Condition):
    """A condition that accepts every binding."""

    def depends_on(self) -> frozenset[str]:
        return frozenset()

    def evaluate(self, binding: Binding) -> bool:
        return True


#: Valid per-condition Kleene reductions.  ``"last"`` is the historical
#: default (and what the self-loop edge evaluation produces naturally:
#: while a Kleene tuple grows, each appended event is checked with the
#: position bound to that event alone, so the completed tuple's *last*
#: element is the representative the stage conditions already agreed on).
#: ``"strict"`` declares the condition ambiguous over tuples: binding a
#: Kleene position to it is a pattern error.
KLEENE_REDUCTIONS = ("first", "last", "strict")


def kleene_representative(bound: Any, reduce: str = "last") -> Event:
    """Reduce a Kleene tuple binding to its representative event.

    Single-event bindings pass through.  ``reduce`` picks the tuple
    element: ``"first"`` or ``"last"``; ``"strict"`` refuses tuples with a
    clear error — use it on predicates whose meaning over a tuple is
    genuinely ambiguous (an :class:`AggregateCondition` is the explicit
    alternative).
    """
    _check_reduce(reduce)
    if isinstance(bound, tuple):
        if not bound:
            raise ConditionError("empty Kleene binding reached a condition")
        if reduce == "first":
            return bound[0]
        if reduce == "last":
            return bound[-1]
        raise ConditionError(
            "condition is ambiguous over a Kleene tuple binding "
            f"(reduce={reduce!r}); pick reduce='first' or 'last', or "
            "aggregate over the tuple with an AggregateCondition"
        )
    return bound


def _representative(bound: Any, reduce: str) -> Event:
    """:func:`kleene_representative` for a condition's own ``reduce``,
    which ``__post_init__`` has already validated: a single event passes
    straight through."""
    if isinstance(bound, tuple):
        return kleene_representative(bound, reduce)
    return bound


def _check_reduce(reduce: str) -> None:
    if reduce not in KLEENE_REDUCTIONS:
        raise ConditionError(
            f"unknown Kleene reduction {reduce!r}; expected one of "
            f"{KLEENE_REDUCTIONS}"
        )


@dataclass(frozen=True)
class UnaryCondition(Condition):
    """Predicate over the attributes of a single position.

    ``predicate`` receives the bound :class:`Event`.  ``name`` is used in
    ``repr`` and error messages only.  ``reduce`` picks the representative
    of a Kleene tuple binding (see :func:`kleene_representative`).
    """

    position: str
    predicate: Callable[[Event], bool]
    name: str = "unary"
    reduce: str = "last"

    def __post_init__(self) -> None:
        _check_reduce(self.reduce)

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.position})

    def evaluate(self, binding: Binding) -> bool:
        return bool(
            self.predicate(
                _representative(binding[self.position], self.reduce)
            )
        )

    def __repr__(self) -> str:
        return f"UnaryCondition({self.name}:{self.position})"


@dataclass(frozen=True)
class PairwiseCondition(Condition):
    """Predicate over two bound events.

    The general two-position condition; :class:`AttributeCondition` and
    :class:`CorrelationCondition` are convenience specialisations.
    ``reduce`` picks the representative of a Kleene tuple binding on either
    side (see :func:`kleene_representative`).
    """

    left: str
    right: str
    predicate: Callable[[Event, Event], bool]
    name: str = "pairwise"
    reduce: str = "last"

    def __post_init__(self) -> None:
        _check_reduce(self.reduce)

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.left, self.right})

    def evaluate(self, binding: Binding) -> bool:
        return bool(
            self.predicate(
                _representative(binding[self.left], self.reduce),
                _representative(binding[self.right], self.reduce),
            )
        )

    def __repr__(self) -> str:
        return f"PairwiseCondition({self.name}:{self.left},{self.right})"


_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class AttributeCondition(Condition):
    """``left.attr <op> right.attr`` — the sensor-query predicate form.

    Example: the paper's sensor queries use
    ``S_i.distance > S_{i-1}.distance``; that is
    ``AttributeCondition("s_i", "distance", ">", "s_im1", "distance")``.
    """

    left: str
    left_attribute: str
    operator: str
    right: str
    right_attribute: str
    reduce: str = "last"

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise ConditionError(
                f"unknown operator {self.operator!r}; "
                f"expected one of {sorted(_OPERATORS)}"
            )
        _check_reduce(self.reduce)

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.left, self.right})

    def evaluate(self, binding: Binding) -> bool:
        left_event = _representative(binding[self.left], self.reduce)
        right_event = _representative(binding[self.right], self.reduce)
        try:
            lhs = left_event[self.left_attribute]
            rhs = right_event[self.right_attribute]
        except KeyError as exc:
            raise ConditionError(
                f"missing attribute {exc} on event while evaluating "
                f"{self.left}.{self.left_attribute} {self.operator} "
                f"{self.right}.{self.right_attribute}"
            ) from exc
        return _OPERATORS[self.operator](lhs, rhs)

    def __repr__(self) -> str:
        return (
            f"({self.left}.{self.left_attribute} {self.operator} "
            f"{self.right}.{self.right_attribute})"
        )


_AGGREGATES: dict[str, Callable[[Sequence[Any]], Any]] = {
    "min": min,
    "max": max,
    "sum": sum,
    "avg": lambda values: sum(values) / len(values),
    "first": lambda values: values[0],
    "last": lambda values: values[-1],
}


@dataclass(frozen=True)
class AggregateCondition(Condition):
    """``agg(position.attribute) <op> value`` over a (Kleene) binding.

    The explicit alternative to reducing a Kleene tuple to one
    representative: the aggregate ranges over **all** events bound at
    ``position``.  ``aggregate`` is one of ``min``/``max``/``sum``/``avg``/
    ``first``/``last``/``count`` (``count`` ignores ``attribute`` and
    compares the tuple length).  Over a single-event binding the aggregate
    degenerates to that event's attribute (count = 1).

    Over a Kleene position the aggregate is only meaningful on the
    *completed* tuple, so such conditions are evaluated at match closure
    (``Pattern.closure_conjuncts``), never on the growing self-loop — the
    NFA compiler excludes them from stage placement and the match
    resolution step (:mod:`repro.core.policies`) applies them.
    """

    position: str
    aggregate: str
    operator: str
    value: float
    attribute: str = ""

    #: Marks the condition for closure-time evaluation when it reads a
    #: Kleene position (see Pattern.closure_conjuncts).
    evaluate_on_closure = True

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise ConditionError(
                f"unknown operator {self.operator!r}; "
                f"expected one of {sorted(_OPERATORS)}"
            )
        if self.aggregate != "count" and self.aggregate not in _AGGREGATES:
            raise ConditionError(
                f"unknown aggregate {self.aggregate!r}; expected one of "
                f"{sorted(_AGGREGATES) + ['count']}"
            )
        if self.aggregate != "count" and not self.attribute:
            raise ConditionError(
                f"aggregate {self.aggregate!r} needs an attribute"
            )

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.position})

    def evaluate(self, binding: Binding) -> bool:
        bound = binding[self.position]
        events = bound if isinstance(bound, tuple) else (bound,)
        if not events:
            raise ConditionError("empty Kleene binding reached a condition")
        if self.aggregate == "count":
            aggregated: Any = len(events)
        else:
            try:
                values = [event[self.attribute] for event in events]
            except KeyError as exc:
                raise ConditionError(
                    f"missing attribute {exc} on event while evaluating "
                    f"{self.aggregate}({self.position}.{self.attribute})"
                ) from exc
            aggregated = _AGGREGATES[self.aggregate](values)
        return _OPERATORS[self.operator](aggregated, self.value)

    def __repr__(self) -> str:
        target = self.attribute if self.aggregate != "count" else "*"
        return (
            f"({self.aggregate}({self.position}.{target}) "
            f"{self.operator} {self.value:g})"
        )


#: Most centered histories :func:`center_history` keeps.  Each history is
#: compared against every partial match in its window, so a small table
#: serves nearly every lookup; a large one costs resident memory.
CENTER_CACHE_SIZE = 256

# id(tuple) -> (tuple, centered).  Each entry holds its tuple, so the id
# cannot be reused while the entry lives.  Dicts keep insertion order, so
# the first key is the oldest entry (FIFO eviction).
_centered: dict[int, tuple[Sequence[float], Any]] = {}


def center_history(
    seq: Sequence[float],
) -> tuple[tuple[float, ...], float] | None:
    """Deviations of *seq* from its mean and the root of their squared sum;
    ``None`` if the correlation is degenerate (too short or constant, so
    always 0.0).

    :func:`pearson_correlation` centers each side through this function,
    so a history compared against many partial matches is centered once.
    Results for tuples are cached by identity in a table of at most
    :data:`CENTER_CACHE_SIZE` entries; lists may change between calls and
    are never cached.
    """
    if type(seq) is tuple:
        entry = _centered.get(id(seq))
        if entry is not None and entry[0] is seq:
            return entry[1]
        result = _center(seq)
        if len(_centered) >= CENTER_CACHE_SIZE:
            del _centered[next(iter(_centered))]
        _centered[id(seq)] = (seq, result)
        return result
    return _center(seq)


def _center(seq: Sequence[float]) -> tuple[tuple[float, ...], float] | None:
    n = len(seq)
    if n < 2:
        return None
    mean = sum(seq) / n
    centered = tuple([x - mean for x in seq])
    sxx = 0.0
    for d in centered:
        sxx += d * d
    if sxx == 0.0:
        return None
    return centered, math.sqrt(sxx)


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson's correlation coefficient of two equal-length sequences.

    Pure-Python implementation (no numpy dependency in the core library).
    Returns 0.0 when either sequence is constant, mirroring the convention
    used for the stock-history predicate: a flat price history correlates
    with nothing.

    Each side is centered by :func:`center_history` (cached for tuples);
    the covariance then accumulates left to right in an explicit loop.
    ``sum()`` is avoided on purpose: from Python 3.12 it compensates float
    sums, which would change the last bits between interpreter versions.
    """
    n = len(xs)
    if n != len(ys):
        raise ConditionError(
            f"correlation needs equal-length sequences, got {n} and {len(ys)}"
        )
    cx = center_history(xs)
    cy = center_history(ys)
    if cx is None or cy is None:
        return 0.0
    cov = 0.0
    for dx, dy in zip(cx[0], cy[0]):
        cov += dx * dy
    # sqrt each factor separately: for tiny deviations the product
    # sxx * syy underflows to 0.0 while both factors are nonzero.  Clamp
    # the quotient: with denormal deviations the separate roundings can
    # push it a hair past the mathematical bound of +/-1.
    value = cov / (cx[1] * cy[1])
    if -1.0 <= value <= 1.0:
        return value
    return max(-1.0, min(1.0, value))  # also maps NaN to 1.0, as always


@dataclass(frozen=True)
class CorrelationCondition(Condition):
    """``Corr(left.attr, right.attr) > threshold`` — the stock-query form.

    The paper augments every stock event with a ``history`` attribute holding
    the last 20 recorded prices and accepts pairs whose Pearson correlation
    exceeds a threshold ``T`` (Section 5.1).
    """

    left: str
    right: str
    threshold: float
    attribute: str = "history"
    reduce: str = "last"

    def __post_init__(self) -> None:
        _check_reduce(self.reduce)

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.left, self.right})

    def evaluate(self, binding: Binding) -> bool:
        left_event = _representative(binding[self.left], self.reduce)
        right_event = _representative(binding[self.right], self.reduce)
        attribute = self.attribute
        try:
            xs = left_event[attribute]
        except KeyError as exc:
            raise self._error(self.left, "is missing") from exc
        try:
            ys = right_event[attribute]
        except KeyError as exc:
            raise self._error(self.right, "is missing") from exc
        try:
            corr = pearson_correlation(xs, ys)
        except TypeError as exc:
            position = self.right if isinstance(xs, (list, tuple)) else self.left
            raise self._error(
                position, f"is not a numeric sequence ({exc})"
            ) from exc
        return corr > self.threshold

    def _error(self, position: str, problem: str) -> ConditionError:
        return ConditionError(
            f"attribute {position}.{self.attribute} {problem} while "
            f"evaluating {self!r}"
        )

    def __repr__(self) -> str:
        return f"(Corr({self.left},{self.right}) > {self.threshold:g})"


@dataclass(frozen=True)
class AndCondition(Condition):
    """Conjunction of sub-conditions (short-circuiting)."""

    parts: tuple[Condition, ...] = field(default=())

    def depends_on(self) -> frozenset[str]:
        deps: frozenset[str] = frozenset()
        for part in self.parts:
            deps |= part.depends_on()
        return deps

    def evaluate(self, binding: Binding) -> bool:
        return all(part.evaluate(binding) for part in self.parts)

    def flattened(self) -> tuple[Condition, ...]:
        """Flatten nested conjunctions into a single tuple of conjuncts.

        The NFA compiler uses this so each conjunct can be attached to the
        earliest state where its dependencies are bound.
        """
        parts: list[Condition] = []
        for part in self.parts:
            if isinstance(part, AndCondition):
                parts.extend(part.flattened())
            else:
                parts.append(part)
        return tuple(parts)


@dataclass(frozen=True)
class OrCondition(Condition):
    """Disjunction of sub-conditions (short-circuiting)."""

    parts: tuple[Condition, ...] = field(default=())

    def depends_on(self) -> frozenset[str]:
        deps: frozenset[str] = frozenset()
        for part in self.parts:
            deps |= part.depends_on()
        return deps

    def evaluate(self, binding: Binding) -> bool:
        return any(part.evaluate(binding) for part in self.parts)


@dataclass(frozen=True)
class NotCondition(Condition):
    """Negation of a sub-condition."""

    inner: Condition

    def depends_on(self) -> frozenset[str]:
        return self.inner.depends_on()

    def evaluate(self, binding: Binding) -> bool:
        return not self.inner.evaluate(binding)
