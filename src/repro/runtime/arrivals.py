"""Arrival processes for the simulation (steady, Poisson, bursty).

The default simulation spaces arrivals uniformly at the configured
rate.  Real streams are not that polite: the paper's discussion of the
``f`` parameter (§3.4) hinges on *short bursts* -- a high ``f`` avoids
shedding when the queue spike is transient.  These generators produce
explicit arrival-time sequences for :func:`repro.runtime.simulation.simulate_pipeline`
so that burstiness becomes an experimental variable.
"""

from __future__ import annotations

import random
from typing import List


def uniform_arrivals(count: int, rate: float, start: float = 0.0) -> List[float]:
    """``count`` arrivals evenly spaced at ``rate`` events/second."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    interval = 1.0 / rate
    return [start + i * interval for i in range(count)]


def poisson_arrivals(
    count: int, rate: float, seed: int = 0, start: float = 0.0
) -> List[float]:
    """``count`` arrivals of a Poisson process with intensity ``rate``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)
    times: List[float] = []
    now = start
    for _ in range(count):
        now += rng.expovariate(rate)
        times.append(now)
    return times


def burst_arrivals(
    count: int,
    base_rate: float,
    burst_rate: float,
    burst_start: float,
    burst_duration: float,
    start: float = 0.0,
) -> List[float]:
    """Arrivals at ``base_rate`` with one burst at ``burst_rate``.

    During ``[burst_start, burst_start + burst_duration)`` the inter-
    arrival gap shrinks to ``1/burst_rate``; outside it is
    ``1/base_rate``.  Exactly ``count`` arrivals are produced.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if base_rate <= 0.0 or burst_rate <= 0.0:
        raise ValueError("rates must be positive")
    if burst_duration < 0.0:
        raise ValueError("burst duration must be non-negative")
    times: List[float] = []
    now = start
    burst_end = burst_start + burst_duration
    for _ in range(count):
        rate = burst_rate if burst_start <= now < burst_end else base_rate
        now += 1.0 / rate
        times.append(now)
    return times


def mean_rate(arrival_times: List[float]) -> float:
    """Average arrival rate of a time sequence (events/second)."""
    if len(arrival_times) < 2:
        return float(len(arrival_times))
    span = arrival_times[-1] - arrival_times[0]
    if span <= 0.0:
        return float(len(arrival_times))
    return (len(arrival_times) - 1) / span
