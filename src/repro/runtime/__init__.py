"""Simulation runtime: rates, queueing, latency and result quality.

- :mod:`repro.runtime.simulation` -- virtual-time pipeline
  (source -> input queue -> shedder -> operator) with a configured
  input rate ``R`` and operator throughput ``th``; reproduces the
  queueing/latency mathematics of paper §3.4 deterministically.
- :mod:`repro.runtime.quality` -- false positives/negatives against a
  ground-truth (no shedding, no overload) run (paper §2.1).
- :mod:`repro.runtime.latency` -- per-event latency series and
  latency-bound accounting (Fig. 7).
- :mod:`repro.runtime.serving` -- server-driven replay harness: the
  same stored streams shipped through a real
  :class:`repro.serve.PipelineServer` socket (tests, benchmarks, CI).
"""

from repro.runtime.arrivals import (
    burst_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.runtime.latency import LatencyStats, LatencyTracker
from repro.runtime.quality import QualityReport, compare_results, ground_truth
from repro.runtime.serving import ServeReplayResult, serve_replay
from repro.runtime.simulation import (
    SimulationConfig,
    SimulationResult,
    measure_mean_memberships,
    simulate_sharded,
)

__all__ = [
    "LatencyStats",
    "LatencyTracker",
    "QualityReport",
    "ServeReplayResult",
    "SimulationConfig",
    "SimulationResult",
    "burst_arrivals",
    "compare_results",
    "ground_truth",
    "measure_mean_memberships",
    "poisson_arrivals",
    "serve_replay",
    "simulate_sharded",
    "uniform_arrivals",
]
