"""Shared machinery for the paper-figure experiments.

Every quality experiment follows the paper's protocol (§4.1):

1. stream the dataset at a sustainable rate until the model is built
   (our ``train`` stream),
2. raise the input rate to ``R1 = 1.2·th`` or ``R2 = 1.4·th`` and
   replay the evaluation stream through the simulated pipeline,
3. compare detected complex events against the ground truth of an
   unconstrained run and report %false negatives / %false positives.

:func:`run_quality_point` performs one such (strategy, rate) run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cep.events import EventStream
from repro.cep.patterns.query import Query
from repro.cep.windows import average_window_size, collect_windows
from repro.pipeline import Pipeline
from repro.runtime.latency import LatencyStats
from repro.runtime.quality import QualityReport, compare_results, ground_truth
from repro.runtime.simulation import measure_mean_memberships

# The paper's two overload levels: input rate exceeds throughput by 20/40 %.
R1 = 1.2
R2 = 1.4

STRATEGIES = ("espice", "bl", "bl-integral", "random", "none")


@dataclass
class ExperimentConfig:
    """Shared knobs of one experiment family."""

    throughput: float = 1000.0  # th, events/second (virtual)
    latency_bound: float = 1.0  # LB, seconds (paper default)
    f: float = 0.8  # paper default
    bin_size: int = 1
    check_interval: float = 0.05
    seed: int = 0


@dataclass
class QualityOutcome:
    """One (strategy, rate) quality point."""

    strategy: str
    rate_factor: float
    quality: QualityReport
    latency: LatencyStats
    drop_ratio: float
    truth_count: int
    detected_count: int

    @property
    def fn_pct(self) -> float:
        """% false negatives."""
        return self.quality.false_negative_pct

    @property
    def fp_pct(self) -> float:
        """% false positives."""
        return self.quality.false_positive_pct

    def __str__(self) -> str:
        return (
            f"{self.strategy}@R={self.rate_factor:.1f}: "
            f"FN={self.fn_pct:.1f}% FP={self.fp_pct:.1f}% "
            f"drop={100 * self.drop_ratio:.1f}% "
            f"(truth={self.truth_count}, detected={self.detected_count})"
        )


def reference_window_size(query: Query, stream: EventStream) -> int:
    """Average seen window size ``N`` for ``stream`` under ``query``."""
    windows = collect_windows(stream, query.new_assigner())
    return max(1, round(average_window_size(windows)))


def strategy_pipeline(
    strategy: str,
    query: Query,
    train_stream: EventStream,
    config: ExperimentConfig,
    rate_factor: float,
) -> Pipeline:
    """A trained, deployed single-query pipeline for one experiment run.

    eSPICE fits its utility model on the training stream; the
    comparator strategies skip model fitting, pin the reference window
    size to the training stream's average (the historical protocol)
    and only warm their online type statistics.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    builder = (
        Pipeline.builder()
        .query(query)
        .shedder(strategy, seed=config.seed)
        .latency_bound(config.latency_bound)
        .f(config.f)
        .bin_size(config.bin_size)
        .check_interval(config.check_interval)
    )
    if strategy != "espice":
        builder.reference_size(reference_window_size(query, train_stream))
    pipeline = builder.build()
    if strategy == "espice":
        pipeline.train(train_stream)
    else:
        pipeline.warm(train_stream)
    pipeline.deploy(
        expected_throughput=config.throughput,
        expected_input_rate=rate_factor * config.throughput,
    )
    return pipeline


def run_quality_point(
    query: Query,
    train_stream: EventStream,
    eval_stream: EventStream,
    strategy: str,
    rate_factor: float,
    config: Optional[ExperimentConfig] = None,
    truth: Optional[list] = None,
) -> QualityOutcome:
    """One full experiment point: train, overload, compare to truth.

    ``truth`` may be precomputed (it does not depend on the strategy or
    the rate) and shared across points to save time.
    """
    cfg = config if config is not None else ExperimentConfig()
    if truth is None:
        truth = ground_truth(query, eval_stream)
    pipeline = strategy_pipeline(strategy, query, train_stream, cfg, rate_factor)
    result = pipeline.simulate(
        eval_stream,
        input_rate=rate_factor * cfg.throughput,
        throughput=cfg.throughput,
        mean_memberships=measure_mean_memberships(query, eval_stream),
    )
    report = compare_results(truth, result.complex_events)
    return QualityOutcome(
        strategy=strategy,
        rate_factor=rate_factor,
        quality=report,
        latency=result.latency.stats(),
        drop_ratio=result.operator_stats.drop_ratio(),
        truth_count=report.truth_count,
        detected_count=report.detected_count,
    )


def format_rows(
    header: Iterable[str], rows: Iterable[Iterable[object]]
) -> str:
    """Simple fixed-width table rendering for runner output."""
    header = [str(h) for h in header]
    body = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
