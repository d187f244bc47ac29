"""Batched window assignment and operator apply against naive references.

``CEPOperator.detect_all`` shares the code under test (it calls
``PredicateWindows.on_events`` and ``CEPOperator.apply`` with batches
of one), so it cannot serve as the reference for them.  The models
here are independent: a per-event assigner that sorts its open windows
on every event, and a dict-of-lists operator.  Hypothesis drives both
sides over random streams -- equal and decreasing timestamps included
-- and random micro-batch splits.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep.events import ComplexEvent, Event
from repro.cep.operator.operator import CEPOperator, OperatorStats, ProcessResult
from repro.cep.operator.queue import QueuedItem
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import (
    AssignResult,
    CountSlidingWindows,
    PredicateWindows,
    TimeSlidingWindows,
)


# ----------------------------------------------------------------------
# the naive per-event assigner model
# ----------------------------------------------------------------------
@dataclass
class ModelWindow:
    window_id: int
    open_time: float
    events: List[Event] = field(default_factory=list)
    close_time: float = 0.0
    truncated: bool = False


class ModelAssigner:
    """Per-event assignment over an id-sorted scan of the open windows."""

    def __init__(self) -> None:
        self.next_id = 0
        self.open: Dict[int, ModelWindow] = {}

    def sorted_open(self) -> List[ModelWindow]:
        return [self.open[wid] for wid in sorted(self.open)]

    def new_window(self, open_time: float) -> ModelWindow:
        window = ModelWindow(self.next_id, open_time)
        self.next_id += 1
        self.open[window.window_id] = window
        return window

    def close(self, window: ModelWindow, close_time: float) -> ModelWindow:
        window.close_time = close_time
        del self.open[window.window_id]
        return window

    def flush(self) -> List[ModelWindow]:
        remaining = self.sorted_open()
        for window in remaining:
            window.truncated = True
            last = window.events[-1].timestamp if window.events else window.open_time
            self.close(window, last)
        return remaining


class ModelPredicate(ModelAssigner):
    def __init__(self, predicate, extent_seconds, extent_events, include_opener, max_open):
        super().__init__()
        self.predicate = predicate
        self.extent_seconds = extent_seconds
        self.extent_events = extent_events
        self.include_opener = include_opener
        self.max_open = max_open

    def expired(self, window: ModelWindow, event: Event) -> bool:
        if self.extent_seconds is not None:
            return event.timestamp >= window.open_time + self.extent_seconds
        return len(window.events) >= self.extent_events

    def on_event(self, event: Event):
        refs: List[Tuple[int, int]] = []
        closed: List[ModelWindow] = []
        for window in self.sorted_open():
            if self.expired(window, event):
                closed.append(self.close(window, event.timestamp))
        opened = None
        if self.predicate(event):
            if len(self.open) >= self.max_open:
                oldest = self.sorted_open()[0]
                oldest.truncated = True
                closed.append(self.close(oldest, event.timestamp))
            opened = self.new_window(event.timestamp)
        for window in self.sorted_open():
            if window is opened and not self.include_opener:
                continue
            window.events.append(event)
            refs.append((window.window_id, len(window.events) - 1))
        return refs, closed


class ModelCount(ModelAssigner):
    def __init__(self, size: int, slide: int) -> None:
        super().__init__()
        self.size = size
        self.slide = slide
        self.arrivals = 0

    def on_event(self, event: Event):
        refs: List[Tuple[int, int]] = []
        closed: List[ModelWindow] = []
        if self.arrivals % self.slide == 0:
            self.new_window(event.timestamp)
        self.arrivals += 1
        for window in self.sorted_open():
            window.events.append(event)
            refs.append((window.window_id, len(window.events) - 1))
            if len(window.events) == self.size:
                closed.append(self.close(window, event.timestamp))
        return refs, closed


class ModelTime(ModelAssigner):
    def __init__(self, duration: float, slide: float) -> None:
        super().__init__()
        self.duration = duration
        self.slide = slide
        self.origin: Optional[float] = None
        self.opened = 0

    def on_event(self, event: Event):
        refs: List[Tuple[int, int]] = []
        closed: List[ModelWindow] = []
        if self.origin is None:
            self.origin = event.timestamp
        while self.origin + self.opened * self.slide <= event.timestamp:
            self.new_window(self.origin + self.opened * self.slide)
            self.opened += 1
        for window in self.sorted_open():
            if event.timestamp >= window.open_time + self.duration:
                closed.append(self.close(window, event.timestamp))
            else:
                window.events.append(event)
                refs.append((window.window_id, len(window.events) - 1))
        return refs, closed


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: Timestamp steps: 0 makes equal timestamps, negatives make the
#: stream go back in time (multiples of 1/4 keep the float sums exact).
STEPS = st.sampled_from([-1.0, -0.25, 0.0, 0.0, 0.25, 0.5, 1.0, 2.0])


@st.composite
def streams(draw, min_size=0, max_size=60):
    types = draw(st.lists(st.sampled_from("AOB"), min_size=min_size, max_size=max_size))
    events = []
    timestamp = 10.0
    for index, type_name in enumerate(types):
        events.append(Event(type_name, index, timestamp))
        timestamp += draw(STEPS)
    return events


@st.composite
def splits(draw, events):
    """``events`` cut into consecutive non-empty micro-batches."""
    batches = []
    start = 0
    while start < len(events):
        size = draw(st.integers(min_value=1, max_value=9))
        batches.append(events[start : start + size])
        start += size
    return batches


def opens_on_o(event: Event) -> bool:
    return event.event_type == "O"


predicate_params = st.one_of(
    st.fixed_dictionaries(
        {"extent_seconds": st.sampled_from([0.25, 1.0, 2.5]), "extent_events": st.none()}
    ),
    st.fixed_dictionaries(
        {"extent_seconds": st.none(), "extent_events": st.integers(min_value=1, max_value=5)}
    ),
).flatmap(
    lambda extent: st.fixed_dictionaries(
        {
            **{key: st.just(value) for key, value in extent.items()},
            "include_opener": st.booleans(),
            "max_open": st.sampled_from([1, 2, 3, 1024]),
        }
    )
)


# ----------------------------------------------------------------------
# assigner comparison
# ----------------------------------------------------------------------
def closed_view(windows) -> List[tuple]:
    return [
        (w.window_id, [e.seq for e in w.events], w.open_time, w.close_time, w.truncated)
        for w in windows
    ]


def assert_assigner_matches(assigner, model, batches) -> None:
    for batch in batches:
        results = assigner.on_events(batch)
        assert len(results) == len(batch)
        for event, result in zip(batch, results):
            assert isinstance(result, AssignResult)
            refs, closed = model.on_event(event)
            assert [(r.window_id, r.position) for r in result.assignments] == refs
            assert closed_view(result.closed) == closed_view(closed)
        assert [w.window_id for w in assigner.open_windows] == sorted(model.open)
    assert closed_view(assigner.flush()) == closed_view(model.flush())


@settings(max_examples=200, deadline=None)
@given(data=st.data(), params=predicate_params, events=streams())
def test_predicate_windows_match_the_per_event_model(data, params, events):
    assigner = PredicateWindows(opens_on_o, **params)
    model = ModelPredicate(
        opens_on_o,
        params["extent_seconds"],
        params["extent_events"],
        params["include_opener"],
        params["max_open"],
    )
    assert_assigner_matches(assigner, model, data.draw(splits(events)))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    size=st.integers(min_value=1, max_value=6),
    slide=st.integers(min_value=1, max_value=6),
    events=streams(),
)
def test_count_windows_match_the_per_event_model(data, size, slide, events):
    assert_assigner_matches(
        CountSlidingWindows(size, slide), ModelCount(size, slide), data.draw(splits(events))
    )


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    duration=st.sampled_from([0.25, 1.0, 2.5]),
    slide=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    events=streams(),
)
def test_time_windows_match_the_per_event_model(data, duration, slide, events):
    assert_assigner_matches(
        TimeSlidingWindows(duration, slide),
        ModelTime(duration, slide),
        data.draw(splits(events)),
    )


def test_force_close_under_decreasing_time():
    """A worked case of the edges the strategies cover at random."""
    events = [
        Event("O", 0, 5.0),
        Event("O", 1, 5.0),  # equal timestamp: nothing expires
        Event("O", 2, 3.0),  # back in time, at the cap: window 0 force-closes
        Event("A", 3, 9.0),  # windows 1 and 2 expire
    ]
    results = PredicateWindows(opens_on_o, extent_seconds=1.0, max_open=2).on_events(events)
    assert [[(r.window_id, r.position) for r in res.assignments] for res in results] == [
        [(0, 0)],
        [(0, 1), (1, 0)],
        [(1, 1), (2, 0)],
        [],
    ]
    assert closed_view(results[2].closed) == [(0, [0, 1], 5.0, 3.0, True)]
    assert closed_view(results[3].closed) == [
        (1, [1, 2], 5.0, 9.0, False),
        (2, [2], 3.0, 9.0, False),
    ]
    assert_assigner_matches(
        PredicateWindows(opens_on_o, extent_seconds=1.0, max_open=2),
        ModelPredicate(opens_on_o, 1.0, None, True, 2),
        [events[:3], events[3:]],
    )


# ----------------------------------------------------------------------
# the naive dict-of-lists operator model
# ----------------------------------------------------------------------
class ModelOperator:
    def __init__(self, query: Query) -> None:
        self.query = query
        self.matcher = query.new_matcher()
        self.buffers: Dict[int, List[Tuple[int, Event]]] = {}
        self.stats = OperatorStats()

    def process(self, item: QueuedItem, drops, now: float) -> ProcessResult:
        result = ProcessResult()
        for index, ref in enumerate(item.refs):
            if drops is not None and drops[index]:
                result.memberships_dropped += 1
            else:
                self.buffers.setdefault(ref.window_id, []).append((ref.position, item.event))
                result.memberships_kept += 1
        for window in item.closed_windows:
            kept = self.buffers.pop(window.window_id, [])
            matches = self.matcher.match_window([e for _p, e in kept], [p for p, _e in kept])
            for match in matches:
                result.complex_events.append(
                    ComplexEvent(
                        self.query.name, window.window_id, tuple(e for _p, e in match), now
                    )
                )
            self.stats.windows_completed += 1
            self.stats.complex_events += len(matches)
        self.stats.events_processed += 1
        self.stats.memberships_kept += result.memberships_kept
        self.stats.memberships_dropped += result.memberships_dropped
        return result


def a_then_b_query(extent_events: int) -> Query:
    return Query(
        name="ab",
        pattern=seq("ab", spec("A"), spec("B")),
        window_factory=lambda: PredicateWindows(opens_on_o, extent_events=extent_events),
    )


def queued_items(query: Query, events: List[Event]) -> List[QueuedItem]:
    """The stream's queue items, flushed windows closing on a last item."""
    assigner = query.new_assigner()
    items = [
        QueuedItem(event, result.assignments, result.closed, event.timestamp)
        for event, result in zip(events, assigner.on_events(events))
    ]
    flushed = assigner.flush()
    if items and flushed:
        items.append(QueuedItem(items[-1].event, [], flushed, items[-1].enqueue_time))
    return items


@st.composite
def drop_masks(draw, items):
    mode = draw(st.sampled_from(["none", "mixed", "all"]))
    if mode == "none":
        return [None] * len(items)
    if mode == "all":
        return [[True] * len(item.refs) for item in items]
    return [
        draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n)))
        for n in (len(item.refs) for item in items)
    ]


def result_view(result: ProcessResult) -> tuple:
    return (
        [(c.key, c.detection_time) for c in result.complex_events],
        result.memberships_kept,
        result.memberships_dropped,
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    extent_events=st.integers(min_value=1, max_value=6),
    events=streams(min_size=1),
)
def test_apply_matches_the_dict_of_lists_model(data, extent_events, events):
    query = a_then_b_query(extent_events)
    items = queued_items(query, events)
    drops = data.draw(drop_masks(items))
    nows = [float(index) for index in range(len(items))]
    operator = CEPOperator(query)
    model = ModelOperator(query)
    start = 0
    for batch in data.draw(splits(list(range(len(items))))):
        end = start + len(batch)
        results = operator.apply(items[start:end], drops[start:end], nows[start:end])
        expected = [
            model.process(item, item_drops, now)
            for item, item_drops, now in zip(
                items[start:end], drops[start:end], nows[start:end]
            )
        ]
        assert [result_view(r) for r in results] == [result_view(r) for r in expected]
        assert operator._buffers == model.buffers
        start = end
    assert operator.stats == model.stats
    assert operator._buffers == {}


# ----------------------------------------------------------------------
# the single path: per-event entry points delegate to the batch ones
# ----------------------------------------------------------------------
def test_predicate_on_event_is_a_batch_of_one():
    assigner = PredicateWindows(opens_on_o, extent_seconds=1.0)
    sentinel = AssignResult()
    seen = []

    def on_events(events):
        seen.append(list(events))
        return [sentinel]

    assigner.on_events = on_events
    event = Event("O", 0, 0.0)
    assert assigner.on_event(event) is sentinel
    assert seen == [[event]]
    assert assigner.open_windows == []  # no per-event twin did the work


def test_operator_process_is_an_apply_of_one():
    operator = CEPOperator(a_then_b_query(3))
    sentinel = ProcessResult()
    seen = []

    def apply(items, drops, nows):
        seen.append((list(items), list(drops), list(nows)))
        return [sentinel]

    operator.apply = apply
    item = QueuedItem(Event("A", 0, 0.0), [], [], 0.0)
    assert operator.process(item, now=2.5) is sentinel
    assert seen == [([item], [None], [2.5])]
    assert operator.stats == OperatorStats()
