"""In-memory spans around calls into the program's public functions.

The traced run never edits the program: :class:`Patcher` swaps a
function on a class or module for a wrapper made by
:meth:`SpanRecorder.wrap`, and puts the original back afterwards.  A
span is the tuple ``(span_id, parent_id, name, start_ns, end_ns,
request_id)``; ``name`` is ``"<layer>:<function>"``, the layer being
the repository module the function belongs to.  Spans stay in memory
and are written out once, when the run ends.

A layer's *self time* is its spans' durations minus the part of each
interval covered by child spans, so a layer that calls into another
(the operator calling the matcher) is not charged for the callee.
"""

from __future__ import annotations

import gzip
import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.stats import merge_intervals

Span = Tuple[int, int, str, int, int, object]

_ABSENT = object()


def layer_of(name: str) -> str:
    """The layer part of a span name."""
    return name.split(":", 1)[0]


class SpanRecorder:
    """Collects spans for one traced run.

    ``request_id`` is stamped into every span opened while it is set;
    workloads set it per iteration (closed loops) or per wire request
    (the server), so the spans of one request share an identifier.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.request_id: object = None
        self.spans: List[Span] = []
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 1

    @property
    def active(self) -> bool:
        """Whether a span is open (the caller runs inside a traced call)."""
        return bool(self._stack)

    def wrap(
        self,
        name: str,
        fn: Callable,
        fold: bool = False,
        observe: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """A wrapper that records a span around every call of ``fn``.

        ``fold=True`` folds a call made from inside a span of the same
        layer into that span (an assigner's batch method looping its
        per-event method costs one span, not one per event).
        ``observe(args, result)`` runs after the call, outside the
        span, to count outcomes such as matched windows.
        """
        layer = layer_of(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        recorder = self

        def wrapper(*args, **kwargs):
            if fold and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            request_id = recorder.request_id
            stack.append((span_id, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, request_id))
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as gzipped JSON lines (one span per line)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans)}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class Patcher:
    """Installs span wrappers on classes or modules and restores them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        fold: bool = False,
        observe: Optional[Callable[[tuple, object], None]] = None,
    ) -> bool:
        """Wrap ``owner.attr``; False (and nothing done) when it is absent.

        For a class, the attribute resolved through the MRO is wrapped
        and set on ``owner`` itself; restoring deletes it again when it
        was inherited, so subclasses and bases are left as they were.
        """
        current = getattr(owner, attr, _ABSENT)
        if current is _ABSENT or not callable(current):
            return False
        if isinstance(owner.__dict__.get(attr), (staticmethod, classmethod)):
            return False
        self.replace(owner, attr, self.recorder.wrap(name, current, fold=fold, observe=observe))
        return True

    def before(self, owner: object, attr: str, hook: Callable) -> bool:
        """Run ``hook`` with the call's arguments ahead of ``owner.attr`` (no span)."""
        current = getattr(owner, attr, _ABSENT)
        if current is _ABSENT:
            return False

        def hooked(*args, **kwargs):
            hook(*args, **kwargs)
            return current(*args, **kwargs)

        self.replace(owner, attr, hooked)
        return True

    def replace(self, owner: object, attr: str, new: object) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`restore`."""
        self._saved.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time (ns) of every span: duration minus what children cover.

    Children are the spans naming it as parent; their intervals are
    clipped to the parent and merged before subtracting, so overlapping
    children are not double-counted.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _sid, parent, _name, start, end, _rid in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, int] = {}
    for sid, _parent, _name, start, end, _rid in spans:
        covered = 0
        kids = children.get(sid)
        if kids:
            clipped = [
                (max(start, s), min(end, e)) for s, e in kids if min(end, e) > max(start, s)
            ]
            covered = sum(e - s for s, e in merge_intervals(clipped))
        out[sid] = max(0, (end - start) - covered)
    return out


def descendants(spans: Sequence[Span], roots: Iterable[int]) -> set:
    """Ids of ``roots`` and every span below them."""
    children: Dict[int, List[int]] = {}
    for sid, parent, *_rest in spans:
        children.setdefault(parent, []).append(sid)
    seen = set()
    todo = list(roots)
    while todo:
        sid = todo.pop()
        if sid in seen:
            continue
        seen.add(sid)
        todo.extend(children.get(sid, ()))
    return seen


def aggregate(spans: Sequence[Span], scope: Optional[set] = None) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total ns and self ns (within ``scope`` ids)."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for sid, _parent, name, start, end, _rid in spans:
        if scope is not None and sid not in scope:
            continue
        row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += selfs[sid]
    return table


def layer_self_ns(table: Dict[str, Dict[str, float]], layer: str) -> float:
    """Summed self time of every span name in ``layer``."""
    return sum(row["self_ns"] for name, row in table.items() if layer_of(name) == layer)


def calls(table: Dict[str, Dict[str, float]], name: str) -> int:
    """Call count of one span name (0 when never called)."""
    row = table.get(name)
    return int(row["calls"]) if row else 0


def total_ns(table: Dict[str, Dict[str, float]], name: str) -> float:
    """Summed duration of one span name (0 when never called)."""
    row = table.get(name)
    return float(row["total_ns"]) if row else 0.0
