"""Tests for partial and full matches."""

from repro.core import Event, EventType, Match, PartialMatch, match_key

A = EventType("A")


def ev(t):
    return Event(A, t)


class TestPartialMatch:
    def test_empty(self):
        empty = PartialMatch.empty()
        assert empty.binding == {}
        assert empty.event_count() == 0
        assert list(empty.events()) == []

    def test_of_single_event(self):
        event = ev(3.0)
        pm = PartialMatch.of("p1", event)
        assert pm.earliest == 3.0
        assert pm.latest == 3.0
        assert pm["p1"] is event
        assert "p1" in pm

    def test_extended_is_immutable(self):
        base = PartialMatch.of("p1", ev(1.0))
        extended = base.extended("p2", ev(2.0))
        assert "p2" not in base
        assert extended.earliest == 1.0
        assert extended.latest == 2.0
        assert base.event_count() == 1
        assert extended.event_count() == 2

    def test_extended_kleene_appends(self):
        base = PartialMatch(binding={"k": (ev(1.0),)}, earliest=1.0, latest=1.0)
        grown = base.extended_kleene("k", ev(2.0))
        assert len(grown["k"]) == 2
        assert len(base["k"]) == 1
        assert grown.event_count() == 2

    def test_timestamps_track_extremes(self):
        pm = PartialMatch.of("p1", ev(5.0)).extended("p2", ev(2.0))
        assert pm.earliest == 2.0
        assert pm.latest == 5.0
        assert pm.timestamp == 2.0  # paper: pm timestamp = earliest

    def test_within_window(self):
        pm = PartialMatch.of("p1", ev(1.0)).extended("p2", ev(4.0))
        assert pm.within_window(3.0)
        assert not pm.within_window(2.9)
        assert pm.span() == 3.0

    def test_fits_with(self):
        pm = PartialMatch.of("p1", ev(1.0))
        assert pm.fits_with(ev(4.0), window=3.0)
        assert not pm.fits_with(ev(4.5), window=3.0)
        # A two-event span [2.0, 5.0] under window 4.0: events before,
        # inside and after it, and the exact boundaries earliest + W and
        # latest - W, agree with the max/min definition.
        span = PartialMatch.of("p1", ev(2.0)).extended("p2", ev(5.0))
        window = 4.0
        cases = {
            0.5: False,   # before, too early
            1.0: True,    # == latest - W
            1.5: True,    # before, inside the window
            3.0: True,    # inside the span
            6.0: True,    # == earliest + W
            6.5: False,   # after, too late
        }
        for t, expected in cases.items():
            reference = (
                max(span.latest, t) - min(span.earliest, t) <= window
            )
            assert reference is expected, t
            assert span.fits_with(ev(t), window) is expected, t

    def test_repr_includes_ids(self):
        event = ev(1.0)
        pm = PartialMatch.of("p1", event)
        assert str(event.event_id) in repr(pm)


class TestMatchKey:
    def test_order_insensitive_in_positions(self):
        e1, e2 = ev(1.0), ev(2.0)
        assert match_key({"a": e1, "b": e2}) == match_key({"b": e2, "a": e1})

    def test_distinguishes_positions(self):
        e1, e2 = ev(1.0), ev(2.0)
        assert match_key({"a": e1, "b": e2}) != match_key({"a": e2, "b": e1})

    def test_kleene_tuples_ordered(self):
        e1, e2 = ev(1.0), ev(2.0)
        assert match_key({"k": (e1, e2)}) != match_key({"k": (e2, e1)})


class TestMatch:
    def test_from_partial(self):
        pm = PartialMatch.of("p1", ev(1.0)).extended("p2", ev(2.0))
        match = Match.from_partial(pm, detected_at=5.0)
        assert match.earliest == 1.0
        assert match.latest == 2.0
        assert match.latency == 3.0

    def test_equality_and_hash_by_key(self):
        e1, e2 = ev(1.0), ev(2.0)
        pm = PartialMatch.of("p1", e1).extended("p2", e2)
        first = Match.from_partial(pm, detected_at=3.0)
        second = Match.from_partial(pm, detected_at=99.0)
        assert first == second  # detected_at excluded from identity
        assert len({first, second}) == 1

    def test_getitem(self):
        event = ev(1.0)
        match = Match.from_partial(PartialMatch.of("p1", event))
        assert match["p1"] is event

    def test_events_flattens_kleene(self):
        e1, e2, e3 = ev(1.0), ev(2.0), ev(3.0)
        pm = PartialMatch(
            binding={"a": e1, "k": (e2, e3)}, earliest=1.0, latest=3.0
        )
        match = Match.from_partial(pm)
        assert sorted(e.timestamp for e in match.events()) == [1.0, 2.0, 3.0]
