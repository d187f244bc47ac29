"""Behavioural tests for the unified Pipeline (repro.pipeline.pipeline)."""

import pytest

from repro.cep.events import StreamBuilder
from repro.cep.operator.operator import CEPOperator
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.pipeline import Pipeline
from repro.queries import build_q1
from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.runtime.quality import compare_results, ground_truth


def toy_query(name="toy", window=4, types=("A", "B")):
    return Query(
        name=name,
        pattern=seq(name, *[spec(t) for t in types]),
        window_factory=lambda: CountSlidingWindows(window),
    )


def toy_stream(repetitions=30):
    builder = StreamBuilder(rate=10.0)
    for _ in range(repetitions):
        builder.emit_many(["A", "B", "X", "C"])
    return builder.stream


def soccer_setup(duration=1200, pattern_size=2):
    stream = generate_soccer_stream(SoccerStreamConfig(duration_seconds=duration))
    train, live = split_stream(stream, train_fraction=0.5)
    query = build_q1(pattern_size=pattern_size, window_seconds=15.0)
    return query, train, live


class TestLiveMode:
    def test_run_matches_ground_truth(self):
        query = toy_query()
        stream = toy_stream()
        truth = ground_truth(query, stream)
        result = Pipeline.builder().query(query).build().run(stream)
        assert [c.key for c in result.complex_events] == [c.key for c in truth]

    def test_feed_returns_new_detections(self):
        query = toy_query()
        pipeline = Pipeline.builder().query(query).build()
        total = 0
        for event in toy_stream(10):
            out = pipeline.feed(event)
            total += len(out["toy"])
        # windows closed by later arrivals: all but the trailing ones
        truth = ground_truth(query, toy_stream(10))
        assert total >= len(truth) - 2
        assert total <= len(truth)

    def test_run_collects_per_run(self):
        query = toy_query()
        pipeline = Pipeline.builder().query(query).build()
        first = pipeline.run(toy_stream(10))
        second = pipeline.run(toy_stream(10))
        # second run sees fresh events only (no double counting)
        assert first.events_fed == second.events_fed == 40


class TestMultiQueryFanOut:
    def test_two_queries_equal_two_sequential_runs(self):
        """ISSUE satellite: fan-out == independent sequential runs."""
        q1 = toy_query("q_ab", types=("A", "B"))
        q2 = toy_query("q_ac", types=("A", "C"))
        stream = toy_stream(40)

        fanout = Pipeline.builder().query(q1).query(q2).build().run(stream)

        solo1 = Pipeline.builder().query(toy_query("q_ab", types=("A", "B"))).build()
        solo2 = Pipeline.builder().query(toy_query("q_ac", types=("A", "C"))).build()
        keys = lambda events: [c.key for c in events]  # noqa: E731

        assert keys(fanout.for_query("q_ab")) == keys(
            solo1.run(stream).complex_events
        )
        assert keys(fanout.for_query("q_ac")) == keys(
            solo2.run(stream).complex_events
        )
        assert fanout.totals()["q_ab"] > 0
        assert fanout.totals()["q_ac"] > 0

    def test_fanout_against_direct_operators(self):
        q1 = toy_query("q_ab", types=("A", "B"))
        q2 = toy_query("q_ac", types=("A", "C"))
        stream = toy_stream(40)
        fanout = Pipeline.builder().query(q1).query(q2).build().run(stream)
        for query in (q1, q2):
            direct = CEPOperator(query).detect_all(stream)
            assert [c.key for c in fanout.for_query(query.name)] == [
                c.key for c in direct
            ]


class TestSimulationEquivalence:
    """Virtual-time overload through ``Pipeline.simulate``."""

    def test_sim_quality_beats_random(self):
        query, train, live = soccer_setup(duration=1600, pattern_size=3)
        truth = ground_truth(query, live)
        outcomes = {}
        for label in ("espice", "random"):
            pipeline = (
                Pipeline.builder()
                .query(query)
                .shedder(label, f=0.8, seed=1)
                .latency_bound(1.0)
                .bin_size(8)
                .build()
            )
            pipeline.train(train)
            pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
            result = pipeline.simulate(live, input_rate=1400.0, throughput=1000.0)
            outcomes[label] = compare_results(truth, result.complex_events)
        assert (
            outcomes["espice"].false_negative_pct
            < outcomes["random"].false_negative_pct
        )


def espice_pipeline(**knobs):
    """A single-query eSPICE pipeline; ``knobs`` name builder setters."""
    builder = Pipeline.builder().query(toy_query()).shedder("espice")
    for setter, value in knobs.items():
        getattr(builder, setter)(value)
    return builder.build()


class TestTrainAndDeploy:
    def test_train_builds_model(self):
        model = espice_pipeline().train(toy_stream(20)).model
        assert model.reference_size == 4
        assert model.windows_trained == 20
        assert model.utility("A", 0, 4.0) == 100
        assert model.utility("X", 2, 4.0) == 0

    def test_train_accumulates(self):
        pipeline = espice_pipeline()
        pipeline.train(toy_stream(10))
        assert pipeline.train(toy_stream(10)).model.windows_trained == 20

    def test_retrain_resets_statistics(self):
        pipeline = espice_pipeline()
        pipeline.train(toy_stream(10))
        assert pipeline.retrain(toy_stream(5)).model.windows_trained == 5

    def test_deploy_before_training_raises(self):
        pipeline = espice_pipeline()
        with pytest.raises(RuntimeError, match="train"):
            pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1200.0)
        assert pipeline.chains[0].shedder is None

    def test_deploy_builds_shedder_on_model(self):
        pipeline = espice_pipeline().train(toy_stream())
        pipeline.deploy()
        assert pipeline.chains[0].shedder.model is pipeline.model

    def test_deploy_wires_detector_to_shedder(self):
        pipeline = espice_pipeline().train(toy_stream())
        pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1200.0)
        chain = pipeline.chains[0]
        assert chain.detector.shedder is chain.shedder
        assert chain.detector.latency_bound == pipeline.config.latency_bound
        assert chain.detector.reference_size == pipeline.model.reference_size

    def test_configured_f_wins(self):
        pipeline = espice_pipeline(f=0.7).train(toy_stream())
        pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1200.0)
        assert pipeline.chains[0].detector.f == 0.7

    def test_auto_f_selected_with_hints(self):
        pipeline = espice_pipeline(f=None).train(toy_stream())
        pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1200.0)
        assert 0.0 < pipeline.chains[0].detector.f < 1.0

    def test_auto_f_needs_hints(self):
        pipeline = espice_pipeline(f=None).train(toy_stream())
        with pytest.raises(ValueError, match="hints"):
            pipeline.deploy()

    def test_bin_size_reaches_model(self):
        model = espice_pipeline(bin_size=2).train(toy_stream()).model
        assert model.bin_size == 2
        assert model.table.bins == 2


class TestRetrain:
    def test_hot_swap_updates_live_components(self):
        query, train, live = soccer_setup()
        pipeline = (
            Pipeline.builder()
            .query(query)
            .shedder("espice", f=0.8)
            .latency_bound(1.0)
            .bin_size(8)
            .build()
        )
        pipeline.train(train)
        pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
        chain = pipeline.chains[0]
        old_model = chain.model
        assert chain.shedder.model is old_model

        pipeline.retrain(live)
        assert chain.model is not old_model
        assert chain.shedder.model is chain.model  # hot swap reached the shedder
        assert chain.detector.reference_size == chain.model.reference_size

    def test_shedder_stays_active_through_swap(self):
        query, train, live = soccer_setup()
        pipeline = (
            Pipeline.builder()
            .query(query)
            .shedder("espice", f=0.8)
            .latency_bound(1.0)
            .bin_size(8)
            .build()
        )
        pipeline.train(train)
        pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
        chain = pipeline.chains[0]
        chain.shedder.activate()
        pipeline.retrain(live)
        assert chain.shedder.active
