"""Window-based data-parallel CEP (the paper's deployment context).

The paper's §1/§5 situate eSPICE inside window-based data-parallel CEP
(RIP, SPECTRE): complete windows are distributed round-robin over
several operator instances, each instance matches its windows
independently, and the merged complex events equal a sequential run's.
The paper claims eSPICE "is independent of the parallelism degree of
the operator" -- this module makes that claim testable: the same
shedder object is consulted by every instance with identical (type,
position) features, so detections are invariant in the degree.

This is a logical parallelisation (no threads): instances model the
per-node operators of a deployment, and the scheduler dispatches whole
windows, which is exactly the unit of distribution in window-based
parallelisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.cep.events import ComplexEvent, Event
from repro.cep.patterns.matcher import Match
from repro.cep.patterns.query import Query
from repro.cep.windows import Window


@dataclass
class _InstanceStats:
    """Per-instance accounting."""

    windows: int = 0
    memberships_kept: int = 0
    memberships_dropped: int = 0
    complex_events: int = 0


class WindowParallelOperator:
    """Round-robin window-parallel operator with optional shedding.

    Windows are dispatched to ``degree`` logical instances in
    round-robin order of window id.  Every instance applies the shared
    ``shedder`` (drop decisions depend only on type and position, so
    sharing is safe and mirrors a replicated utility model) and the
    query's matcher.

    Complex events are merged in window-id order, so the output is
    identical to a sequential operator's.
    """

    def __init__(
        self,
        query: Query,
        degree: int = 1,
        shedder: Optional[object] = None,
    ) -> None:
        if degree <= 0:
            raise ValueError("parallelism degree must be positive")
        self.query = query
        self.degree = degree
        self.shedder = shedder
        self.instance_stats: List[_InstanceStats] = [
            _InstanceStats() for _ in range(degree)
        ]
        self._matchers = [query.new_matcher() for _ in range(degree)]
        self._size_sum = 0.0
        self._size_count = 0

    # ------------------------------------------------------------------
    def predicted_window_size(self) -> float:
        """Running average of processed (complete) window sizes."""
        if self._size_count == 0:
            return 0.0
        return self._size_sum / self._size_count

    def prime_window_size(self, size: float, weight: int = 1) -> None:
        """Seed the window-size predictor."""
        self._size_sum += size * weight
        self._size_count += weight

    def instance_of(self, window: Window) -> int:
        """Which instance a window is dispatched to (round-robin)."""
        return window.window_id % self.degree

    # ------------------------------------------------------------------
    def process_window(self, window: Window, now: float = 0.0) -> List[ComplexEvent]:
        """Shed + match one complete window on its instance."""
        instance = self.instance_of(window)
        stats = self.instance_stats[instance]
        stats.windows += 1
        if not window.truncated:
            self._size_sum += window.size
            self._size_count += 1

        predicted = self.predicted_window_size()
        events = window.events
        shedder = self.shedder
        if shedder is not None and getattr(shedder, "active", True):
            # whole-window micro-batch: one vectorized kernel pass
            mask = shedder.should_drop_batch(events, range(len(events)), predicted)
            kept_positions = [p for p, drop in enumerate(mask) if not drop]
            kept_events = [events[p] for p in kept_positions]
            stats.memberships_dropped += len(events) - len(kept_events)
            stats.memberships_kept += len(kept_events)
        else:
            kept_positions = list(range(len(events)))
            kept_events = list(events)
            stats.memberships_kept += len(kept_events)

        matches: List[Match] = self._matchers[instance].match_window(
            kept_events, kept_positions
        )
        complex_events = [
            ComplexEvent(
                pattern_name=self.query.name,
                window_id=window.window_id,
                events=tuple(e for _pos, e in match),
                detection_time=now,
            )
            for match in matches
        ]
        stats.complex_events += len(complex_events)
        return complex_events

    def detect_all(self, stream: Iterable[Event]) -> List[ComplexEvent]:
        """Window the stream, dispatch round-robin, merge in window order.

        Equivalent to ``CEPOperator.detect_all`` for any parallelism
        degree (the invariant the paper claims for eSPICE).
        """
        assigner = self.query.new_assigner()
        out: List[ComplexEvent] = []
        last = 0.0
        for event in stream:
            last = event.timestamp
            for window in assigner.on_event(event).closed:
                out.extend(self.process_window(window, now=last))
        for window in assigner.flush():
            out.extend(self.process_window(window, now=last))
        out.sort(key=lambda c: c.window_id)
        return out

    # ------------------------------------------------------------------
    def total_windows(self) -> int:
        """Windows processed across all instances."""
        return sum(s.windows for s in self.instance_stats)

    def load_imbalance(self) -> float:
        """max/mean windows per instance (1.0 = perfectly balanced)."""
        counts = [s.windows for s in self.instance_stats]
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 1.0
        return max(counts) / mean
