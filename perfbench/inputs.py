"""Inputs, references and the environment record shared by all workloads.

Every workload replays soccer Q1 (``build_q1(pattern_size=3)``, 15 s
predicate windows) over the evaluation half of the stream the seed
generates, so figures compare across layers.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import sys
from typing import Callable, Dict, List, Sequence

from perfbench import pace, stats

#: Pattern size n of Q1 in every workload.
PATTERN_SIZE = 3
#: Pipeline micro-batch of the in-process workloads (repro-serve's default).
BATCH = 64
#: Passes a closed loop always runs, and never exceeds.
MIN_PASSES = 3
MAX_PASSES = 200


def query():
    """Soccer Q1 as every workload deploys it."""
    from repro.queries import build_q1

    return build_q1(pattern_size=PATTERN_SIZE)


def streams(seed: int):
    """``(train, eval)`` soccer streams generated from ``seed``."""
    from repro.experiments import workloads

    return workloads.soccer_streams(seed=seed)


def keys(complex_events) -> List[tuple]:
    """Detection identities, in emission order."""
    return [event.key for event in complex_events]


def reference_keys(events) -> List[tuple]:
    """Keys of the unshed sequential reference (``CEPOperator.detect_all``)."""
    from repro.cep.operator.operator import CEPOperator

    return keys(CEPOperator(query()).detect_all(events))


def digest(detection_keys: Sequence[tuple]) -> str:
    """Short stable hash of an ordered key list."""
    body = json.dumps([list(k[:2]) + [list(k[2])] for k in detection_keys])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def environment(seed: int) -> Dict[str, object]:
    """What a result must be compared under: cores, Python, backend."""
    from repro.core.kernel import default_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "kernel_backend": default_backend(),
        "platform": platform.platform(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Pass:
    """One closed-loop iteration: raw times, pace-scaled times, gate."""

    __slots__ = ("setup_s", "work_s", "ok", "setup_slowness", "work_slowness")

    def __init__(self, setup_s, work_s, ok, setup_slowness, work_slowness) -> None:
        self.setup_s = setup_s
        self.work_s = work_s
        self.ok = ok
        self.setup_slowness = setup_slowness
        self.work_slowness = work_slowness

    @property
    def scaled_setup_s(self) -> float:
        return self.setup_s / self.setup_slowness

    @property
    def scaled_work_s(self) -> float:
        return self.work_s / self.work_slowness


def closed_loop(seconds: float, iterate: Callable[[int, Callable[[], None]], tuple]):
    """Run ``iterate(i, between)`` back to back for about ``seconds``.

    ``iterate`` returns ``(setup_s, work_s, ok)`` and calls
    ``between()`` once, after its set-up and before its timed work.
    The host's pace is sampled before each iteration, at ``between``
    and after it (:mod:`perfbench.pace`), so set-up and work are each
    scaled by the pace around them.  The loop stops once the summed
    set-up and work time reaches ``seconds`` and at least
    :data:`MIN_PASSES` ran.  A collection before each pace sample keeps
    one iteration's garbage out of the next one's timing.
    """
    marks = pace.Marks()
    samples: List[Pass] = []
    measured = 0.0
    gc.collect()
    start = marks.mark()
    while len(samples) < MAX_PASSES and (measured < seconds or len(samples) < MIN_PASSES):
        middle = []
        setup_s, work_s, ok = iterate(len(samples), lambda: middle.append(marks.mark()))
        gc.collect()
        end = marks.mark()
        mid = middle[0] if middle else end
        samples.append(
            Pass(setup_s, work_s, ok, marks.slowness(start, mid), marks.slowness(mid, end))
        )
        measured += setup_s + work_s
        start = end
    return samples


def closed_loop_result(events: int, samples: Sequence[Pass], note: str) -> dict:
    """Operations, gate failures and end-to-end values of a closed loop.

    ``setup_s`` is the median pace-scaled set-up; ``throughput_eps`` is
    ``events`` over the median pace-scaled work time.  The raw medians
    and the host's median slowness are printed beside them.
    """
    raw_eps = events / stats.median([s.work_s for s in samples])
    slow = stats.median([s.work_slowness for s in samples])
    return {
        "attempted": len(samples),
        "failed": sum(1 for s in samples if not s.ok),
        "values": {
            "setup_s": stats.median([s.scaled_setup_s for s in samples]),
            "throughput_eps": events / stats.median([s.scaled_work_s for s in samples]),
        },
        "notes": [
            f"events per pass: {events}; passes: {len(samples)}; {note}",
            f"unscaled: setup {stats.median([s.setup_s for s in samples]):.6g} s, "
            f"throughput {raw_eps:.6g} events/s; host slowness median {slow:.3f} "
            f"(range {min(s.work_slowness for s in samples):.3f}"
            f"-{max(s.work_slowness for s in samples):.3f})",
        ],
    }


def add_trace(out: dict, trace: dict, passes: int) -> dict:
    """Fold a traced run (its layers, passes, failures, spans, notes) into ``out``."""
    out["values"].update(trace["layers"])
    out["attempted"] += passes
    out["failed"] += trace["failed"]
    out["recorder"] = trace.get("recorder")
    out["trace_notes"] = trace.get("trace_notes", [])
    return out
