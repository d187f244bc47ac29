"""Unit tests for the CEP operator (repro.cep.operator)."""

import pytest

from repro.cep.events import Event, EventStream, StreamBuilder
from repro.cep.operator.operator import CEPOperator
from repro.cep.operator.queue import InputQueue, QueuedItem
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.shedding.base import DropCommand, LoadShedder


def tumbling_query(size=4, name="q"):
    return Query(
        name=name,
        pattern=seq(name, spec("A"), spec("B")),
        window_factory=lambda: CountSlidingWindows(size),
    )


def stream_of(*type_names):
    builder = StreamBuilder(rate=1.0)
    for name in type_names:
        builder.emit(name)
    return builder.stream


class PositionShedder(LoadShedder):
    """Test shedder: drops a fixed set of window positions."""

    def __init__(self, positions):
        super().__init__()
        self.positions = set(positions)
        self.activate()

    def on_drop_command(self, command):
        pass

    def _decide(self, event, position, predicted_ws):
        return position in self.positions


class TestInputQueue:
    def _item(self, seq=0):
        return QueuedItem(event=Event("A", seq, float(seq)))

    def test_fifo_order(self):
        queue = InputQueue()
        queue.push(self._item(0))
        queue.push(self._item(1))
        assert queue.pop().event.seq == 0
        assert queue.pop().event.seq == 1

    def test_size_and_bool(self):
        queue = InputQueue()
        assert not queue
        queue.push(self._item())
        assert queue and queue.size == 1

    def test_capacity_rejects(self):
        queue = InputQueue(capacity=1)
        assert queue.push(self._item(0))
        assert not queue.push(self._item(1))
        assert queue.total_rejected == 1

    def test_peek_does_not_remove(self):
        queue = InputQueue()
        queue.push(self._item(7))
        assert queue.peek().event.seq == 7
        assert queue.size == 1

    def test_peek_empty_returns_none(self):
        assert InputQueue().peek() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            InputQueue().pop()

    def test_counters(self):
        queue = InputQueue()
        queue.push(self._item(0))
        queue.pop()
        assert queue.total_enqueued == 1
        assert queue.total_dequeued == 1

    def test_clear(self):
        queue = InputQueue()
        queue.push(self._item())
        queue.clear()
        assert queue.size == 0


class TestDetectAll:
    def test_detects_pattern_in_tumbling_windows(self):
        operator = CEPOperator(tumbling_query(size=4))
        detected = operator.detect_all(stream_of("A", "B", "X", "X", "X", "A", "X", "B"))
        assert len(detected) == 2
        assert detected[0].positions == (0, 1)
        assert detected[1].positions == (5, 7)

    def test_no_match_no_complex_events(self):
        operator = CEPOperator(tumbling_query(size=4))
        assert operator.detect_all(stream_of("X", "X", "X", "X")) == []

    def test_stats_counters(self):
        operator = CEPOperator(tumbling_query(size=2))
        operator.detect_all(stream_of("A", "B", "A", "B"))
        assert operator.stats.events_processed == 4
        assert operator.stats.windows_completed == 2
        assert operator.stats.complex_events == 2
        assert operator.stats.memberships_kept == 4
        assert operator.stats.memberships_dropped == 0

    def test_complex_event_carries_window_id(self):
        operator = CEPOperator(tumbling_query(size=2))
        detected = operator.detect_all(stream_of("X", "X", "A", "B"))
        assert [c.window_id for c in detected] == [1]

    def test_end_of_stream_flush_stamped_at_last_event(self):
        """Still-open windows flush at the last event's timestamp, the
        clock ``Pipeline.run`` stamps the same detections with."""
        from repro.pipeline import Pipeline

        query = Query(
            name="q",
            pattern=seq("q", spec("A"), spec("B")),
            window_factory=lambda: CountSlidingWindows(6, slide=2),
        )
        builder = StreamBuilder(rate=50.0)
        builder.emit_many(list("XXXXXXXAB"))
        stream = builder.stream
        detected = CEPOperator(query).detect_all(stream)
        assert detected
        assert [c.detection_time for c in detected] == [stream[-1].timestamp] * len(
            detected
        )
        replayed = Pipeline.builder().query(query).build().run(stream)
        assert [(c.key, c.detection_time) for c in replayed.complex_events] == [
            (c.key, c.detection_time) for c in detected
        ]


class TestShedding:
    def test_shedder_drops_memberships(self):
        shedder = PositionShedder(positions={0})
        operator = CEPOperator(tumbling_query(size=2), shedder=shedder)
        detected = operator.detect_all(stream_of("A", "B", "A", "B"))
        # position 0 of every window dropped: the A events vanish
        assert detected == []
        assert operator.stats.memberships_dropped == 2
        assert operator.stats.drop_ratio() == pytest.approx(0.5)

    def test_inactive_shedder_keeps_everything(self):
        shedder = PositionShedder(positions={0, 1})
        shedder.deactivate()
        operator = CEPOperator(tumbling_query(size=2), shedder=shedder)
        detected = operator.detect_all(stream_of("A", "B"))
        assert len(detected) == 1

    def test_matcher_sees_original_positions(self):
        # dropping position 1 must not re-number the remaining events
        shedder = PositionShedder(positions={1})
        operator = CEPOperator(tumbling_query(size=4), shedder=shedder)
        detected = operator.detect_all(stream_of("A", "X", "B", "X"))
        assert len(detected) == 1
        assert detected[0].positions == (0, 2)


class TestWindowListeners:
    def test_listener_receives_window_and_matches(self):
        operator = CEPOperator(tumbling_query(size=2))
        seen = []
        operator.add_window_listener(lambda w, m: seen.append((w.size, len(m))))
        operator.detect_all(stream_of("A", "B", "X", "X"))
        assert seen == [(2, 1), (2, 0)]

    def test_listener_gets_unshedded_window(self):
        shedder = PositionShedder(positions={0, 1})
        operator = CEPOperator(tumbling_query(size=2), shedder=shedder)
        seen = []
        operator.add_window_listener(lambda w, m: seen.append(w.size))
        operator.detect_all(stream_of("A", "B"))
        assert seen == [2]  # full window content despite drops


class TestWindowSizePrediction:
    def test_prime_window_size(self):
        operator = CEPOperator(tumbling_query())
        operator.prime_window_size(100.0, weight=2)
        assert operator.predicted_window_size() == 100.0

    def test_running_average(self):
        operator = CEPOperator(tumbling_query(size=3))
        operator.detect_all(stream_of("A", "B", "X", "A", "B", "X"))
        assert operator.predicted_window_size() == 3.0

    def test_zero_before_any_window(self):
        assert CEPOperator(tumbling_query()).predicted_window_size() == 0.0

    def test_truncated_windows_excluded(self):
        operator = CEPOperator(tumbling_query(size=4))
        operator.detect_all(stream_of("A", "B", "X", "X", "A", "B"))
        # second window has only 2 events and is flushed/truncated
        assert operator.predicted_window_size() == 4.0
