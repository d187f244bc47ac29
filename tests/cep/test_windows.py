"""Unit tests for window assigners (repro.cep.windows)."""

import pytest

from repro.cep.events import Event, EventStream, StreamBuilder
from repro.cep.windows import (
    CountSlidingWindows,
    PredicateWindows,
    TimeSlidingWindows,
    average_window_size,
    collect_windows,
    iter_windows,
)


def make_stream(n, rate=1.0, type_name="A"):
    builder = StreamBuilder(rate=rate)
    for _ in range(n):
        builder.emit(type_name)
    return builder.stream


class TestCountSlidingWindows:
    def test_tumbling_windows(self):
        stream = make_stream(6)
        windows = collect_windows(stream, CountSlidingWindows(size=3))
        assert [w.size for w in windows] == [3, 3]
        assert [e.seq for e in windows[0]] == [0, 1, 2]
        assert [e.seq for e in windows[1]] == [3, 4, 5]

    def test_sliding_windows_overlap(self):
        stream = make_stream(6)
        windows = collect_windows(stream, CountSlidingWindows(size=4, slide=2))
        complete = [w for w in windows if not w.truncated]
        assert [[e.seq for e in w] for w in complete] == [
            [0, 1, 2, 3],
            [2, 3, 4, 5],
        ]

    def test_positions_are_per_window(self):
        assigner = CountSlidingWindows(size=4, slide=2)
        stream = make_stream(4)
        positions = {}
        for event in stream:
            for ref in assigner.on_event(event).assignments:
                positions.setdefault(ref.window_id, []).append(ref.position)
        assert positions[0] == [0, 1, 2, 3]
        assert positions[1] == [0, 1]

    def test_flush_marks_truncated(self):
        stream = make_stream(5)
        windows = collect_windows(stream, CountSlidingWindows(size=4, slide=2))
        truncated = [w for w in windows if w.truncated]
        assert len(truncated) == 2  # windows opened at events 2 and 4
        assert all(w.size < 4 for w in truncated)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CountSlidingWindows(size=0)
        with pytest.raises(ValueError):
            CountSlidingWindows(size=3, slide=0)

    def test_expected_window_size(self):
        assert CountSlidingWindows(size=7).expected_window_size(123.0) == 7.0


class TestTimeSlidingWindows:
    def test_tumbling_time_windows(self):
        stream = make_stream(10, rate=1.0)  # 1 event/second at t=0..9
        windows = collect_windows(stream, TimeSlidingWindows(duration=4.0))
        complete = [w for w in windows if not w.truncated]
        assert [[e.seq for e in w] for w in complete] == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
        ]

    def test_sliding_time_windows(self):
        stream = make_stream(10, rate=1.0)
        windows = collect_windows(stream, TimeSlidingWindows(duration=4.0, slide=2.0))
        complete = [w for w in windows if not w.truncated]
        # the window opened at t=6 is still open at end of stream (its
        # completeness is unknowable without a later event): truncated
        assert [[e.seq for e in w] for w in complete] == [
            [0, 1, 2, 3],
            [2, 3, 4, 5],
            [4, 5, 6, 7],
        ]

    def test_window_boundary_is_half_open(self):
        # event exactly at open+duration belongs to the next window
        stream = EventStream([Event("A", 0, 0.0), Event("A", 1, 4.0)])
        assigner = TimeSlidingWindows(duration=4.0)
        first = assigner.on_event(stream[0])
        assert len(first.assignments) == 1
        second = assigner.on_event(stream[1])
        assert len(second.closed) == 1
        assert [e.seq for e in second.closed[0]] == [0]

    def test_gap_in_stream_opens_backlog_windows(self):
        assigner = TimeSlidingWindows(duration=2.0, slide=1.0)
        assigner.on_event(Event("A", 0, 0.0))
        result = assigner.on_event(Event("A", 1, 5.0))
        # windows at 0 and 1 closed; windows at 4 and 5 hold the event
        assert len(result.closed) >= 2
        assert len(result.assignments) >= 1

    def test_expected_window_size_uses_rate(self):
        assert TimeSlidingWindows(duration=3.0).expected_window_size(10.0) == 30.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimeSlidingWindows(duration=0.0)
        with pytest.raises(ValueError):
            TimeSlidingWindows(duration=1.0, slide=-1.0)


class TestPredicateWindows:
    @staticmethod
    def _assigner(extent_events=None, extent_seconds=None, **kwargs):
        return PredicateWindows(
            open_predicate=lambda e: e.event_type == "OPEN",
            extent_events=extent_events,
            extent_seconds=extent_seconds,
            **kwargs,
        )

    def test_window_opens_on_predicate(self):
        stream = EventStream(
            [
                Event("X", 0, 0.0),
                Event("OPEN", 1, 1.0),
                Event("X", 2, 2.0),
                Event("X", 3, 3.0),
            ]
        )
        windows = collect_windows(stream, self._assigner(extent_events=3))
        assert len(windows) == 1
        assert [e.seq for e in windows[0]] == [1, 2, 3]

    def test_opener_included_by_default(self):
        assigner = self._assigner(extent_events=2)
        result = assigner.on_event(Event("OPEN", 0, 0.0))
        assert len(result.assignments) == 1
        assert result.assignments[0].position == 0

    def test_opener_can_be_excluded(self):
        assigner = self._assigner(extent_events=2, include_opener=False)
        result = assigner.on_event(Event("OPEN", 0, 0.0))
        assert result.assignments == []

    def test_overlapping_predicate_windows(self):
        stream = EventStream(
            [
                Event("OPEN", 0, 0.0),
                Event("OPEN", 1, 1.0),
                Event("X", 2, 2.0),
                Event("X", 3, 3.0),
                Event("X", 4, 4.0),
            ]
        )
        windows = collect_windows(stream, self._assigner(extent_events=3))
        assert [[e.seq for e in w] for w in windows] == [[0, 1, 2], [1, 2, 3]]

    def test_time_extent(self):
        stream = EventStream(
            [
                Event("OPEN", 0, 0.0),
                Event("X", 1, 1.0),
                Event("X", 2, 5.0),  # outside the 4s extent: closes window
            ]
        )
        windows = collect_windows(stream, self._assigner(extent_seconds=4.0))
        assert [e.seq for e in windows[0]] == [0, 1]

    def test_max_open_force_closes_oldest(self):
        assigner = self._assigner(extent_events=100, max_open=2)
        assigner.on_event(Event("OPEN", 0, 0.0))
        assigner.on_event(Event("OPEN", 1, 1.0))
        result = assigner.on_event(Event("OPEN", 2, 2.0))
        assert len(result.closed) == 1
        assert result.closed[0].truncated

    def test_requires_exactly_one_extent(self):
        with pytest.raises(ValueError):
            PredicateWindows(lambda e: True)
        with pytest.raises(ValueError):
            PredicateWindows(lambda e: True, extent_seconds=1.0, extent_events=5)

    def test_max_open_must_be_positive(self):
        with pytest.raises(ValueError):
            PredicateWindows(lambda e: True, extent_seconds=1.0, max_open=0)

    def test_expected_window_size(self):
        by_count = self._assigner(extent_events=50)
        assert by_count.expected_window_size(10.0) == 50.0
        by_time = self._assigner(extent_seconds=5.0)
        assert by_time.expected_window_size(10.0) == 50.0


class TestHelpers:
    def test_iter_windows_yields_in_close_order(self):
        stream = make_stream(9)
        ids = [w.window_id for w in iter_windows(stream, CountSlidingWindows(3))]
        assert ids == sorted(ids)

    def test_average_window_size(self):
        stream = make_stream(9)
        windows = collect_windows(stream, CountSlidingWindows(3))
        assert average_window_size(windows) == 3.0

    def test_average_window_size_empty(self):
        assert average_window_size([]) == 0.0
