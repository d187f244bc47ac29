"""The serve workload's load generator: one process, one framed connection.

Open loop: frame ``i`` of a phase is *due* at ``t0 + i * 64 / rate``
(``time.monotonic``) and is sent then, whether or not earlier frames
were acknowledged; a server stall delays acknowledgements, never the
schedule.  Each frame carries its due time and a request id.  Latency
is acknowledgement time minus due time, so a stall is charged to every
frame it delays; how late the generator itself sent a frame is its
*lag*.

The sustainable rate comes from a fixed geometric ladder of rates
(:func:`rung_rate`): a rung passes when no request is refused, the
backlog the server reports after the rung did not grow beyond a small
slack, and the rung's tail ingest latency meets :data:`LATENCY_LIMIT_MS`.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from perfbench import stats

#: Events per ingest frame.
FRAME_EVENTS = 64
#: Ladder rung k offers RUNG_BASE_EPS * RUNG_FACTOR**k events/s.
RUNG_BASE_EPS = 1000.0
RUNG_FACTOR = 1.25
#: Highest rung index tried (about 87k events/s).
RUNG_TOP = 20
#: The climb starts at the highest rung within this share of the
#: measured saturation throughput.
START_SHARE = 0.5
#: Tail ingest latency a passing rung must meet.
LATENCY_LIMIT_MS = 50.0
#: A rung's end-of-rung backlog may not exceed this many events ...
BACKLOG_SLACK_EVENTS = 256
#: ... or this share of the events the rung offered, whichever is larger.
BACKLOG_SLACK_SHARE = 0.05


def rung_rate(k: int) -> float:
    """Offered events/s of ladder rung ``k``."""
    return RUNG_BASE_EPS * RUNG_FACTOR**k


def start_rung(estimate_eps: float) -> int:
    """The highest rung at or below :data:`START_SHARE` of an estimated capacity."""
    k = 0
    while k < RUNG_TOP and rung_rate(k + 1) <= START_SHARE * estimate_eps:
        k += 1
    return k


@dataclass
class RungResult:
    """What one ladder rung measured."""

    rate: float
    frames: int
    events: int
    refused: int
    backlog_end: int
    tail_ms: float
    tail_q: float

    def passed(self) -> bool:
        """No refusal, no growing backlog, tail latency within the limit."""
        slack = max(BACKLOG_SLACK_EVENTS, BACKLOG_SLACK_SHARE * self.events)
        return (
            self.refused == 0
            and self.backlog_end <= slack
            and self.tail_ms <= LATENCY_LIMIT_MS
        )


def climb(run_rung: Callable[[int], bool], start: int, top: int = RUNG_TOP) -> Optional[int]:
    """Index of the highest passing rung, searching from ``start``.

    Climbs while rungs pass; when ``start`` itself fails, descends until
    one passes.  ``None`` when not even rung 0 passes.
    """
    if run_rung(start):
        best = start
        while best < top and run_rung(best + 1):
            best += 1
        return best
    for k in range(start - 1, -1, -1):
        if run_rung(k):
            return k
    return None


@dataclass
class FrameLog:
    """Per-frame due, send and acknowledgement times of one phase."""

    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    acked: List[float] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)

    def latencies_ms(self) -> List[float]:
        return [(a - d) * 1e3 for a, d in zip(self.acked, self.due)]

    def lags_ms(self) -> List[float]:
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.due)]

    @property
    def refused(self) -> int:
        return self.ok.count(False) + (len(self.due) - len(self.ok))


class Connection:
    """One framed-protocol connection to the server."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.next_rid = 0

    @classmethod
    async def open(cls, port: int) -> "Connection":
        from repro.serve.protocol import MAGIC

        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(MAGIC)
        await writer.drain()
        return cls(reader, writer)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def _send(self, payload: dict) -> None:
        from repro.serve.protocol import encode_frame

        self.writer.write(encode_frame(payload))

    async def _read(self) -> dict:
        from repro.serve.protocol import read_frame

        message = await read_frame(self.reader)
        if message is None:
            raise ConnectionError("server closed the connection")
        return message

    async def request(self, op: str) -> dict:
        """One request/response round trip (nothing else in flight)."""
        self._send({"op": op})
        await self.writer.drain()
        return await self._read()

    async def pending(self) -> int:
        """The server's admitted-but-unfed events (``healthz``)."""
        return int((await self.request("healthz"))["pending"])

    async def drain(self, timeout: float = 60.0, poll: float = 0.005) -> float:
        """Wait until the server has fed everything; returns the time it did."""
        deadline = time.monotonic() + timeout
        while await self.pending() > 0:
            if time.monotonic() > deadline:
                raise TimeoutError("server did not drain its ingest queue")
            await asyncio.sleep(poll)
        return time.monotonic()

    def _frame(self, events: Sequence[dict], due: float) -> dict:
        rid = self.next_rid
        self.next_rid += 1
        return {"op": "ingest", "rid": rid, "due": due, "events": list(events)}

    async def burst(self, frames: Sequence[Sequence[dict]]) -> FrameLog:
        """Send every frame at once, then collect the acknowledgements.

        Keeps the server's ingest queue full, so its consumer never
        waits for the generator; the caller keeps a burst within the
        server's pending-event bound.
        """
        log = FrameLog()
        for events in frames:
            now = time.monotonic()
            log.due.append(now)
            log.sent.append(now)
            self._send(self._frame(events, now))
        for _ in frames:
            response = await self._read()
            log.acked.append(time.monotonic())
            log.ok.append(response.get("ok") is True)
        return log

    async def open_loop(self, frames: Sequence[Sequence[dict]], rate_eps: float) -> FrameLog:
        """Send frames on the fixed schedule of ``rate_eps`` events/s."""
        log = FrameLog()
        interval = FRAME_EVENTS / rate_eps
        t0 = time.monotonic() + 0.01

        async def receive() -> None:
            for _ in frames:
                response = await self._read()
                log.acked.append(time.monotonic())
                log.ok.append(response.get("ok") is True)

        receiver = asyncio.ensure_future(receive())
        try:
            for i, events in enumerate(frames):
                due = t0 + i * interval
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                log.due.append(due)
                log.sent.append(time.monotonic())
                # no drain: a stalled server must not hold the schedule back
                self._send(self._frame(events, due))
                await asyncio.sleep(0)
            await asyncio.wait_for(receiver, timeout=60.0)
        finally:
            if not receiver.done():
                receiver.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await receiver
        return log


def frames_of(wire_events: Sequence[dict]) -> List[List[dict]]:
    """Split wire events into ingest frames of :data:`FRAME_EVENTS`."""
    return [
        list(wire_events[i : i + FRAME_EVENTS])
        for i in range(0, len(wire_events), FRAME_EVENTS)
    ]


def rung_result(rate: float, log: FrameLog, events: int, backlog_end: int) -> RungResult:
    """Summarise one rung's frame log."""
    summary = stats.summarize(log.latencies_ms())
    return RungResult(
        rate=rate,
        frames=len(log.due),
        events=events,
        refused=log.refused,
        backlog_end=backlog_end,
        tail_ms=summary["tail"] if summary["tail"] is not None else float("inf"),
        tail_q=summary["tail_q"] or 0.0,
    )
