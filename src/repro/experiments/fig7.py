"""Figure 7: event processing latency over time under R1 and R2.

The paper's headline latency result: with LB = 1 s and f = 0.8, eSPICE
keeps the event latency around ``f · LB`` (~800 ms) and never violates
the bound.  The runner replays Q1 under both rates and reports the
latency timeline plus the violation count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.experiments import workloads
from repro.experiments.common import (
    ExperimentConfig,
    R1,
    R2,
    format_rows,
    strategy_pipeline,
)
from repro.queries import build_q1
from repro.runtime.latency import LatencyStats
from repro.runtime.simulation import measure_mean_memberships


@dataclass
class LatencyRun:
    """Latency series of one rate."""

    rate_factor: float
    stats: LatencyStats
    timeline: List[Tuple[float, float]]  # (time bucket end, mean latency)

    @property
    def violated(self) -> bool:
        """Did any event exceed the latency bound?"""
        return self.stats.violations > 0


@dataclass
class Fig7Result:
    """Both rates' latency behaviour."""

    latency_bound: float
    f: float
    runs: List[LatencyRun] = field(default_factory=list)

    def rows(self) -> str:
        header = [
            "rate",
            "mean (ms)",
            "p99 (ms)",
            "max (ms)",
            "violations",
            "bound (ms)",
        ]
        body = [
            [
                f"R={run.rate_factor:.1f}",
                f"{run.stats.mean * 1000:.0f}",
                f"{run.stats.p99 * 1000:.0f}",
                f"{run.stats.maximum * 1000:.0f}",
                run.stats.violations,
                f"{self.latency_bound * 1000:.0f}",
            ]
            for run in self.runs
        ]
        return "Fig7 latency under overload\n" + format_rows(header, body)


def fig7_latency(
    pattern_size: int = 4,
    rates: Sequence[float] = (R1, R2),
    config: Optional[ExperimentConfig] = None,
    strategy: str = "espice",
    bucket_seconds: float = 1.0,
) -> Fig7Result:
    """Run Q1 under each rate and collect the latency timeline."""
    cfg = config or ExperimentConfig()
    train, eval_stream = workloads.soccer_streams()
    query = build_q1(pattern_size)
    result = Fig7Result(latency_bound=cfg.latency_bound, f=cfg.f)
    mean_memberships = measure_mean_memberships(query, eval_stream)
    for rate in rates:
        sim = strategy_pipeline(strategy, query, train, cfg, rate).simulate(
            eval_stream,
            input_rate=rate * cfg.throughput,
            throughput=cfg.throughput,
            mean_memberships=mean_memberships,
        )
        result.runs.append(
            LatencyRun(
                rate_factor=rate,
                stats=sim.latency.stats(),
                timeline=sim.latency.timeline(bucket_seconds),
            )
        )
    return result
