"""Window operators: count-, time- and pattern-based sliding windows.

The eSPICE paper assumes a window-based CEP system where the input
stream is partitioned into (possibly overlapping) windows by predicates
(paper §2): *count-based* windows open every ``slide`` events and span
``size`` events; *time-based* windows open every ``slide`` seconds and
span ``duration`` seconds; *pattern-based* windows open whenever an
event satisfies a logical predicate (e.g. Q1 opens a window on every
striker event) and span a count or time extent from the opening event.

Window assignment is a pure function of the raw input stream, and is
performed *before* load shedding: the shedder drops an event from
individual windows, so an event's *position within each window* (the
``P`` of ``UT(T, P)``) is its arrival index in that window regardless of
whether other events were shed.

Assigners are streaming objects.  The entry point is
:meth:`WindowAssigner.on_events`: feed it a micro-batch of events in
arrival order and it reports, per event, the set of
``(window_id, position)`` assignments plus any windows that closed
before the event (or, for count windows, with it).  A single event is a
batch of one (:meth:`WindowAssigner.on_event`).  :func:`iter_windows`
is a batch convenience used by ground-truth computation and model
training.

Window ids are issued in ascending order and a window enters the
open-window dict when its id is issued; dicts keep insertion order, so
iterating that dict visits the open windows oldest first without a
sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.cep.events import Event, EventStream


@dataclass(slots=True)
class WindowRef:
    """An event's membership in one window.

    Slotted: windows overlap, so several refs exist per event on the
    hot path.
    """

    window_id: int
    position: int  # 0-based arrival index of the event within the window


@dataclass(slots=True)
class AssignResult:
    """Result of feeding one event to a :class:`WindowAssigner`.

    Slotted: one instance per event (per chain) on the hot path.
    """

    assignments: List[WindowRef] = field(default_factory=list)
    closed: List["Window"] = field(default_factory=list)


@dataclass(slots=True)
class Window:
    """A closed (complete) window of events.

    ``events`` holds every event assigned to the window in arrival
    order, i.e. the *unshedded* content; position ``i`` in this list is
    the ``P`` used by the utility table.  ``truncated`` marks windows
    force-closed at end of stream (or by the open-window cap): they are
    still matched, but model training skips them so partial windows do
    not skew the reference window size.
    """

    window_id: int
    events: List[Event] = field(default_factory=list)
    open_time: float = 0.0
    close_time: float = 0.0
    truncated: bool = False

    @property
    def size(self) -> int:
        """Number of events assigned to this window."""
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __repr__(self) -> str:
        return f"Window(id={self.window_id}, size={self.size})"


class WindowAssigner:
    """Base class for streaming window assigners."""

    def __init__(self) -> None:
        self._next_id = 0
        self._open: Dict[int, Window] = {}

    def _new_window(self, open_time: float) -> Window:
        window = Window(self._next_id, open_time=open_time)
        self._next_id += 1
        self._open[window.window_id] = window
        return window

    def _close(self, window: Window, close_time: float) -> Window:
        window.close_time = close_time
        del self._open[window.window_id]
        return window

    @property
    def open_windows(self) -> List[Window]:
        """Currently open windows, oldest first (insertion order is id order)."""
        return list(self._open.values())

    def on_event(self, event: Event) -> AssignResult:
        """Assign ``event``; report memberships and windows closed before it."""
        raise NotImplementedError

    def on_events(self, events: Iterable[Event]) -> List[AssignResult]:
        """Assign a micro-batch of events in arrival order.

        Window membership is a pure streaming function, so the base
        implementation is a loop with the dispatch hoisted; assigners
        with cheaper bulk bookkeeping override it.  Results align with
        ``events`` one-to-one -- batched callers
        (:meth:`repro.pipeline.stages.WindowAssignStage.process_batch`)
        rely on that.
        """
        on_event = self.on_event
        return [on_event(event) for event in events]

    def flush(self) -> List[Window]:
        """Close and return every still-open window (end of stream).

        Flushed windows are marked ``truncated``.
        """
        remaining = self.open_windows
        for window in remaining:
            last = window.events[-1].timestamp if window.events else window.open_time
            window.truncated = True
            self._close(window, last)
        return remaining

    def expected_window_size(self, stream_rate: float) -> float:
        """Best-effort estimate of the window size in *events*.

        Used to size the utility table's reference dimension ``N`` and
        by the overload detector's partitioning.  Time-extent assigners
        need the stream rate to convert seconds to events.
        """
        raise NotImplementedError


class CountSlidingWindows(WindowAssigner):
    """Count-based sliding windows: open every ``slide`` events, span ``size``.

    With ``slide == size`` the windows are tumbling.  Q4 in the paper
    uses ``slide = 100`` events with various window sizes.
    """

    def __init__(self, size: int, slide: Optional[int] = None) -> None:
        super().__init__()
        if size <= 0:
            raise ValueError("window size must be positive")
        self.size = size
        self.slide = slide if slide is not None else size
        if self.slide <= 0:
            raise ValueError("slide must be positive")
        self._arrivals = 0

    def on_event(self, event: Event) -> AssignResult:
        result = AssignResult()
        if self._arrivals % self.slide == 0:
            self._new_window(event.timestamp)
        self._arrivals += 1
        for window in self.open_windows:
            window.events.append(event)
            result.assignments.append(WindowRef(window.window_id, window.size - 1))
            if window.size == self.size:
                result.closed.append(self._close(window, event.timestamp))
        return result

    def expected_window_size(self, stream_rate: float) -> float:
        return float(self.size)


class TimeSlidingWindows(WindowAssigner):
    """Time-based sliding windows: open every ``slide`` s, span ``duration`` s.

    A window covers timestamps in ``[open, open + duration)``.  Windows
    close lazily when an event at or past their end arrives (or on
    :meth:`flush`).
    """

    def __init__(self, duration: float, slide: Optional[float] = None) -> None:
        super().__init__()
        if duration <= 0.0:
            raise ValueError("window duration must be positive")
        self.duration = duration
        self.slide = slide if slide is not None else duration
        if self.slide <= 0.0:
            raise ValueError("slide must be positive")
        self._origin: Optional[float] = None
        self._opened_upto: int = 0  # number of slide multiples already opened

    def _open_due_windows(self, now: float) -> None:
        if self._origin is None:
            self._origin = now
        while self._origin + self._opened_upto * self.slide <= now:
            open_time = self._origin + self._opened_upto * self.slide
            self._new_window(open_time)
            self._opened_upto += 1

    def on_event(self, event: Event) -> AssignResult:
        result = AssignResult()
        self._open_due_windows(event.timestamp)
        for window in self.open_windows:
            if event.timestamp >= window.open_time + self.duration:
                result.closed.append(self._close(window, event.timestamp))
            else:
                window.events.append(event)
                result.assignments.append(WindowRef(window.window_id, window.size - 1))
        return result

    def expected_window_size(self, stream_rate: float) -> float:
        return self.duration * stream_rate


class PredicateWindows(WindowAssigner):
    """Pattern-based windows: open on a predicate, span a count or time extent.

    Exactly the strategy of Q1--Q3 in the paper: a new window is opened
    for each event satisfying ``open_predicate`` (e.g. each striker
    event for Q1, each leading-stock event for Q2/Q3) and spans either
    ``extent_seconds`` of event time or ``extent_events`` events,
    *starting with the opening event itself*.

    Parameters
    ----------
    open_predicate:
        Called on every event; a truthy return opens a new window.
    extent_seconds / extent_events:
        Exactly one must be given.
    include_opener:
        Whether the opening event is part of the window (default True).
    max_open:
        Safety cap on simultaneously open windows; the oldest window is
        force-closed when exceeded (high-rate predicate protection).
    """

    def __init__(
        self,
        open_predicate: Callable[[Event], bool],
        extent_seconds: Optional[float] = None,
        extent_events: Optional[int] = None,
        include_opener: bool = True,
        max_open: int = 1024,
    ) -> None:
        super().__init__()
        if (extent_seconds is None) == (extent_events is None):
            raise ValueError("give exactly one of extent_seconds / extent_events")
        if extent_seconds is not None and extent_seconds <= 0.0:
            raise ValueError("extent_seconds must be positive")
        if extent_events is not None and extent_events <= 0:
            raise ValueError("extent_events must be positive")
        if max_open <= 0:
            raise ValueError("max_open must be positive")
        self.open_predicate = open_predicate
        self.extent_seconds = extent_seconds
        self.extent_events = extent_events
        self.include_opener = include_opener
        self.max_open = max_open

    def on_event(self, event: Event) -> AssignResult:
        return self.on_events((event,))[0]

    def on_events(self, events: Iterable[Event]) -> List[AssignResult]:
        """Assign a micro-batch in one pass (the only implementation).

        Per event: close the windows whose extent the event exceeds,
        open a window if the predicate fires (force-closing the oldest
        at the ``max_open`` cap), then append the event to every open
        window.  The expiry scan visits every open window, so event
        timestamps need not be monotonic.
        """
        open_ = self._open
        predicate = self.open_predicate
        extent_seconds = self.extent_seconds
        # read only when extent_seconds is None, i.e. extent_events is set
        extent_events = self.extent_events or 0
        include_opener = self.include_opener
        max_open = self.max_open
        close = self._close
        new_window = self._new_window
        results: List[AssignResult] = []
        for event in events:
            timestamp = event.timestamp
            closed: List[Window] = []
            for window in open_.values():
                if (
                    timestamp >= window.open_time + extent_seconds
                    if extent_seconds is not None
                    else len(window.events) >= extent_events
                ):
                    closed.append(window)
            for window in closed:
                close(window, timestamp)
            opened: Optional[Window] = None
            if predicate(event):
                if len(open_) >= max_open:
                    oldest = next(iter(open_.values()))
                    oldest.truncated = True
                    closed.append(close(oldest, timestamp))
                opened = new_window(timestamp)
            assignments: List[WindowRef] = []
            for window in open_.values():
                if window is opened and not include_opener:
                    continue
                members = window.events
                members.append(event)
                assignments.append(WindowRef(window.window_id, len(members) - 1))
            results.append(AssignResult(assignments, closed))
        return results

    def expected_window_size(self, stream_rate: float) -> float:
        if self.extent_events is not None:
            return float(self.extent_events)
        assert self.extent_seconds is not None
        return self.extent_seconds * stream_rate


def iter_windows(
    stream: Iterable[Event], assigner: WindowAssigner
) -> Iterator[Window]:
    """Drive ``assigner`` over ``stream`` and yield closed windows in order.

    The assigner must be fresh (no events fed yet).  Windows still open
    at end of stream are flushed and yielded last.
    """
    for event in stream:
        for window in assigner.on_event(event).closed:
            yield window
    for window in assigner.flush():
        yield window


def collect_windows(stream: EventStream, assigner: WindowAssigner) -> List[Window]:
    """Materialise :func:`iter_windows` into a list."""
    return list(iter_windows(stream, assigner))


def average_window_size(windows: Iterable[Window]) -> float:
    """Mean number of events per window (0.0 for no windows).

    This is the paper's ``N`` -- "the average seen window size" -- used
    as the fixed position dimension of the utility table when window
    sizes vary (§3.6).
    """
    sizes = [w.size for w in windows]
    if not sizes:
        return 0.0
    return sum(sizes) / len(sizes)
