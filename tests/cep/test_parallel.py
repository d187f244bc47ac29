"""Unit tests for the window-parallel operator (repro.cep.parallel)."""

import pytest

from repro.cep.events import StreamBuilder
from repro.cep.operator.operator import CEPOperator
from repro.cep.parallel import WindowParallelOperator
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.shedding.base import LoadShedder


def tumbling_query(size=4):
    return Query(
        name="q",
        pattern=seq("q", spec("A"), spec("B")),
        window_factory=lambda: CountSlidingWindows(size),
    )


def stream_of_pattern(repetitions=12):
    builder = StreamBuilder(rate=10.0)
    for i in range(repetitions):
        builder.emit_many(["A", "B", "X", "X"] if i % 2 == 0 else ["X"] * 4)
    return builder.stream


class PositionShedder(LoadShedder):
    def __init__(self, positions):
        super().__init__()
        self.positions = set(positions)
        self.activate()

    def on_drop_command(self, command):
        pass

    def _decide(self, event, position, predicted_ws):
        return position in self.positions


class TestEquivalenceToSequential:
    @pytest.mark.parametrize("degree", [1, 2, 3, 8])
    def test_detections_invariant_in_degree(self, degree):
        stream = stream_of_pattern()
        sequential = CEPOperator(tumbling_query()).detect_all(stream)
        parallel = WindowParallelOperator(tumbling_query(), degree=degree).detect_all(
            stream
        )
        assert [c.key for c in parallel] == [c.key for c in sequential]

    def test_end_of_stream_flush_stamped_like_sequential(self):
        builder = StreamBuilder(rate=10.0)
        builder.emit_many(["X", "A", "B"])  # the size-4 window stays open
        stream = builder.stream
        sequential = CEPOperator(tumbling_query()).detect_all(stream)
        parallel = WindowParallelOperator(tumbling_query(), degree=2).detect_all(stream)
        assert sequential
        assert [(c.key, c.detection_time) for c in parallel] == [
            (c.key, c.detection_time) for c in sequential
        ]

    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_shedding_invariant_in_degree(self, degree):
        # the paper's claim: eSPICE is independent of the parallelism
        # degree -- shedding by (type, position) gives identical output
        stream = stream_of_pattern()
        results = []
        for d in (1, degree):
            shedder = PositionShedder({0})
            operator = WindowParallelOperator(tumbling_query(), degree=d, shedder=shedder)
            results.append([c.key for c in operator.detect_all(stream)])
        assert results[0] == results[1]


class TestDispatchAndStats:
    def test_round_robin_balance(self):
        operator = WindowParallelOperator(tumbling_query(), degree=3)
        operator.detect_all(stream_of_pattern(12))
        counts = [s.windows for s in operator.instance_stats]
        assert sum(counts) == operator.total_windows()
        assert max(counts) - min(counts) <= 1
        assert operator.load_imbalance() < 1.5

    def test_shedding_stats_accumulate(self):
        shedder = PositionShedder({0, 1})
        operator = WindowParallelOperator(tumbling_query(), degree=2, shedder=shedder)
        operator.detect_all(stream_of_pattern(8))
        dropped = sum(s.memberships_dropped for s in operator.instance_stats)
        kept = sum(s.memberships_kept for s in operator.instance_stats)
        assert dropped > 0
        assert dropped + kept == 8 * 4

    def test_window_size_prediction(self):
        operator = WindowParallelOperator(tumbling_query(size=4), degree=2)
        operator.detect_all(stream_of_pattern(8))
        assert operator.predicted_window_size() == 4.0

    def test_prime_window_size(self):
        operator = WindowParallelOperator(tumbling_query(), degree=2)
        operator.prime_window_size(10.0, weight=3)
        assert operator.predicted_window_size() == 10.0

    def test_load_imbalance_empty(self):
        operator = WindowParallelOperator(tumbling_query(), degree=2)
        assert operator.load_imbalance() == 1.0

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            WindowParallelOperator(tumbling_query(), degree=0)
