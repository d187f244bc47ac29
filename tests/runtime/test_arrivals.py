"""Unit tests for arrival processes (repro.runtime.arrivals)."""

import pytest

from repro.runtime.arrivals import (
    burst_arrivals,
    mean_rate,
    poisson_arrivals,
    uniform_arrivals,
)


class TestUniform:
    def test_spacing(self):
        times = uniform_arrivals(5, rate=10.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.1) for g in gaps)

    def test_start_offset(self):
        assert uniform_arrivals(1, 10.0, start=5.0) == [5.0]

    def test_empty(self):
        assert uniform_arrivals(0, 10.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_arrivals(-1, 1.0)
        with pytest.raises(ValueError):
            uniform_arrivals(1, 0.0)


class TestPoisson:
    def test_mean_rate_approximates(self):
        times = poisson_arrivals(5000, rate=100.0, seed=1)
        assert mean_rate(times) == pytest.approx(100.0, rel=0.1)

    def test_monotone(self):
        times = poisson_arrivals(200, rate=50.0, seed=2)
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_deterministic_seed(self):
        assert poisson_arrivals(50, 10.0, seed=3) == poisson_arrivals(50, 10.0, seed=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(10, 0.0)


class TestBurst:
    def test_burst_density(self):
        times = burst_arrivals(
            count=10_000,
            base_rate=100.0,
            burst_rate=1000.0,
            burst_start=5.0,
            burst_duration=2.0,
        )
        in_burst = sum(1 for t in times if 5.0 <= t < 7.0)
        # the burst window holds ~2000 events vs ~200 at base rate
        assert in_burst > 1500

    def test_no_burst_reduces_to_uniform(self):
        times = burst_arrivals(
            count=10,
            base_rate=10.0,
            burst_rate=100.0,
            burst_start=1000.0,
            burst_duration=0.0,
        )
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.1) for g in gaps)

    def test_monotone(self):
        times = burst_arrivals(500, 10.0, 100.0, 1.0, 3.0)
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            burst_arrivals(10, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            burst_arrivals(10, 1.0, 1.0, 0.0, -1.0)


class TestMeanRate:
    def test_short_sequences(self):
        assert mean_rate([]) == 0.0
        assert mean_rate([1.0]) == 1.0

    def test_zero_span(self):
        assert mean_rate([1.0, 1.0]) == 2.0


class TestSimulationIntegration:
    def test_explicit_arrivals_drive_queueing(self):
        from repro.cep.events import StreamBuilder
        from repro.cep.patterns import seq, spec
        from repro.cep.patterns.query import Query
        from repro.cep.windows import CountSlidingWindows
        from repro.pipeline import Pipeline
        from repro.runtime.simulation import SimulationConfig, simulate_pipeline

        builder = StreamBuilder(rate=100.0)
        for i in range(1000):
            builder.emit("A" if i % 2 == 0 else "B")
        query = Query(
            name="q",
            pattern=seq("q", spec("A"), spec("B")),
            window_factory=lambda: CountSlidingWindows(10),
        )
        config = SimulationConfig(input_rate=500.0, throughput=1000.0)
        # all events arriving at once: the last one queues behind 999
        instant = [0.0] * 1000
        pipeline = Pipeline.builder().query(query).build()
        result = simulate_pipeline(
            pipeline, builder.stream, config, arrival_times=instant
        )["q"]
        assert result.latency.stats().maximum == pytest.approx(1.0, rel=0.05)

    def test_arrival_times_validated(self):
        from repro.cep.events import StreamBuilder
        from repro.cep.patterns import seq, spec
        from repro.cep.patterns.query import Query
        from repro.cep.windows import CountSlidingWindows
        from repro.pipeline import Pipeline
        from repro.runtime.simulation import SimulationConfig, simulate_pipeline

        builder = StreamBuilder()
        builder.emit("A")
        builder.emit("B")
        query = Query(
            name="q",
            pattern=seq("q", spec("A")),
            window_factory=lambda: CountSlidingWindows(2),
        )
        config = SimulationConfig(input_rate=1.0, throughput=1.0)
        pipeline = Pipeline.builder().query(query).build()
        with pytest.raises(ValueError):
            simulate_pipeline(pipeline, builder.stream, config, arrival_times=[0.0])
        with pytest.raises(ValueError):
            simulate_pipeline(
                pipeline, builder.stream, config, arrival_times=[1.0, 0.5]
            )
