"""``serve-q1``: ``PipelineServer`` in its own process, fed over one connection.

The benchmark owns three server processes (``serve_worker.py``,
``repro-serve`` defaults: Q1, micro-batch 64, no shedding) and is
their load generator (:mod:`perfbench.loadgen`): one connection per
server, 64 events per ingest frame.  The evaluation stream is trimmed
to whole frames and repeated in *cycles*, each shifted in sequence
number and time past the previous one, so a server can be fed for as
long as a phase needs.

Per server:

1. saturation -- each of the first cycles sent as one burst, then a
   wait until the server has fed every event: ``throughput_eps`` is a
   cycle's events over the median pace-scaled time
   (:mod:`perfbench.pace`) of the saturation cycles of all three
   servers, each server's first cycle an untimed warm-up;
2. on traced runs only (their figures are per-layer metrics), server 2
   climbs the rate ladder on the following cycles (``sustained_eps``)
   and server 3 replays the next cycle open loop at the fixed
   :data:`NOMINAL_EPS` (``ingest_*``, ``detect_*``, the generator lag);
3. stop, and check the detections: each whole cycle must equal an
   in-process ``Pipeline.run`` of cycle 0, shifted to that cycle, key
   for key and in order.

Start-up to ``READY`` of each server, pace-scaled, is one ``setup_s``
sample; :data:`SETUP_ONLY_STARTS` more servers are started for that
alone and stopped at once.  The server processes always exit when the
run ends, gate failures and crashes included.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import subprocess
import sys
import time
from typing import List

from perfbench import inputs, loadgen, pace, stats

#: Offered rate of the latency phase: fixed, and below the sustained rate.
NOMINAL_EPS = 10_000.0
#: Seconds between the last event of a cycle and the first of the next
#: (longer than Q1's 15 s windows, so no window spans two cycles).
CYCLE_GAP_S = 60.0
SERVERS = 3
#: Server starts timed for ``setup_s`` only, stopped as soon as they listen.
SETUP_ONLY_STARTS = 4
#: Share of ``--seconds`` the saturation cycles of all servers take.
SATURATION_SHARE = 0.75
#: Saturation cycles each server times at least, after its warm-up cycle.
MIN_TIMED_CYCLES = 3
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 120.0


class ServerProcess:
    """One ``serve_worker.py`` child, driven over its stdin/stdout."""

    def __init__(self, root, trace: bool = False, spans_path: str = "") -> None:
        started = time.perf_counter()
        command = [sys.executable, str(root / "perfbench" / "serve_worker.py"),
                   "--trace", str(int(trace))]
        if spans_path:
            command += ["--spans", spans_path]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(root), bufsize=0
        )
        self._buffer = b""
        try:
            line = self._line(START_TIMEOUT_S)
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise TimeoutError("server process did not answer in time")
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RuntimeError("server process exited early")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8")

    def stop(self) -> dict:
        """Drain the server; returns its report."""
        self.proc.stdin.write(b"stop\n")
        self.proc.stdin.close()
        line = self._line(STOP_TIMEOUT_S)
        if not line.startswith("REPORT "):
            raise RuntimeError(f"unexpected server output: {line[:200]!r}")
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        return json.loads(line[len("REPORT "):])

    def kill(self) -> None:
        """End the process if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


class Cycles:
    """The trimmed evaluation stream, repeated with shifted seq and time."""

    def __init__(self, events) -> None:
        whole = len(events) - len(events) % loadgen.FRAME_EVENTS
        self.events = list(events[:whole])
        self.n = whole
        self.span = self.events[-1].timestamp - self.events[0].timestamp + CYCLE_GAP_S
        self._wire = None

    def frames_of(self, k: int) -> List[List[dict]]:
        """Ingest frames of cycle ``k``: cycle 0's wire events with
        ``seq`` moved by ``k * n`` and ``timestamp`` by ``k * span``."""
        from repro.serve.protocol import events_to_wire

        if self._wire is None:
            self._wire = events_to_wire(self.events)
        if k == 0:
            return loadgen.frames_of(self._wire)
        seq, shift = k * self.n, k * self.span
        return loadgen.frames_of(
            [dict(w, s=w["s"] + seq, ts=w["ts"] + shift) for w in self._wire]
        )


class FrameSource:
    """Frames of cycles ``first``, ``first + 1``, ... handed out in order."""

    def __init__(self, cycles: Cycles, first: int) -> None:
        self.cycles = cycles
        self.k = first - 1
        self.frames: List[List[dict]] = []

    def take(self, count: int) -> List[List[dict]]:
        while len(self.frames) < count:
            self.k += 1
            self.frames.extend(self.cycles.frames_of(self.k))
        out, self.frames = self.frames[:count], self.frames[count:]
        return out


def report_keys(report: dict) -> List[tuple]:
    return [(name, wid, tuple(seqs)) for name, wid, seqs, _t in report["detections"]]


class Reference:
    """What a server fed whole cycles must emit, and when it may.

    ``keys`` is an in-process ``Pipeline.run`` of cycle 0 with the
    server's own pipeline; cycle ``k`` repeats it with window ids moved
    by ``k * windows`` and seqs by ``k * n``.  ``closed_by[w]`` is the
    index (within its cycle) of the event that closed window ``w`` of
    cycle 0; a window still open at the end of a cycle is closed by the
    first event of the next one.
    """

    def __init__(self, cycles: Cycles) -> None:
        from repro.serve import cli

        pipeline = cli.build_pipeline(cli.build_parser().parse_args(["--port", "0"]))
        self.keys = inputs.keys(pipeline.run(cycles.events).complex_events)
        self.n = cycles.n
        assigner = inputs.query().new_assigner()
        self.closed_by = {}
        for index, event in enumerate(cycles.events):
            for window in assigner.on_event(event).closed:
                self.closed_by[window.window_id] = index
        still_open = assigner.flush()
        for window in still_open:
            self.closed_by[window.window_id] = self.n
        self.windows = len(self.closed_by)

    def cycles(self, count: int) -> List[tuple]:
        """Expected keys, in order, of cycles ``0 .. count - 1``."""
        out: List[tuple] = []
        for k in range(count):
            out.extend(
                (name, wid + k * self.windows, tuple(s + k * self.n for s in seqs))
                for name, wid, seqs in self.keys
            )
        return out

    def closing_index(self, window_id: int) -> int:
        """Stream index of the event that closed ``window_id`` (any cycle)."""
        k, w = divmod(window_id, self.windows)
        return k * self.n + self.closed_by[w]


class Generator:
    """One event loop for every network step of the run."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()

    def __call__(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def close(self) -> None:
        self.loop.close()


def saturate(gen, conn, cycles: "Cycles", budget_s: float, marks: pace.Marks) -> tuple:
    """Cycles ``0, 1, ...``, each one burst followed by a wait for the
    drain, until the timed ones took ``budget_s`` (and at least
    :data:`MIN_TIMED_CYCLES` ran): ``(cycles sent, seconds, pace-scaled
    seconds, frame logs)``, the times one per cycle after the first,
    which warms the server up untimed.  A cycle fits the default
    pending bound, so nothing is refused and the consumer is never
    starved."""
    logs, seconds, scaled = [], [], []
    before = -1
    k = 0
    while k <= MIN_TIMED_CYCLES or sum(seconds) < budget_s:
        frames = cycles.frames_of(k)
        started = time.monotonic()
        logs.append(gen(conn.burst(frames)))
        took = gen(conn.drain()) - started
        after = marks.mark()
        if before >= 0:
            seconds.append(took)
            scaled.append(marks.scale(took, before, after))
        before = after
        k += 1
    return k, seconds, scaled, logs


def ladder(gen, conn, source: FrameSource, estimate_eps: float, rung_seconds: float):
    """Climb the fixed rate ladder; ``(sustained_eps, rung results)``."""
    results: List[loadgen.RungResult] = []

    def run_rung(k: int) -> bool:
        rate = loadgen.rung_rate(k)
        count = max(8, round(rate * rung_seconds / loadgen.FRAME_EVENTS))
        log = gen(conn.open_loop(source.take(count), rate))
        backlog = gen(conn.pending())
        gen(conn.drain())
        results.append(loadgen.rung_result(rate, log, count * loadgen.FRAME_EVENTS, backlog))
        return results[-1].passed()

    best = loadgen.climb(run_rung, loadgen.start_rung(estimate_eps))
    return (loadgen.rung_rate(best) if best is not None else 0.0), results


def detect_latencies(report: dict, ref: Reference, log: loadgen.FrameLog, first_index: int):
    """Sink time minus the due time of the frame holding the closing event.

    Only windows closed by an event of the logged phase count, and not
    the detections of the end-of-stream flush at stop.
    """
    out = []
    for _name, wid, _seqs, seen in report["detections"][: report["before_stop"]]:
        frame = (ref.closing_index(wid) - first_index) // loadgen.FRAME_EVENTS
        if 0 <= frame < len(log.due):
            out.append((seen - log.due[frame]) * 1e3)
    return out


def run(ctx) -> dict:
    _train, events = inputs.streams(ctx.seed)
    cycles = Cycles(events)
    ref = Reference(cycles)
    rung_seconds = max(0.5, ctx.seconds / 40.0)

    gen = Generator()
    marks = pace.Marks()
    servers: List[ServerProcess] = []
    setups, raw_setups, sat_seconds, sat_scaled, sat_counts = [], [], [], [], []
    logs, reports = [], []
    sustained = nominal = None
    rungs: List[loadgen.RungResult] = []
    traced_report = traced_eps = None
    try:
        before = marks.mark()
        for index in range(SETUP_ONLY_STARTS + SERVERS):
            server = ServerProcess(ctx.root)
            servers.append(server)
            after = marks.mark()
            raw_setups.append(server.setup_s)
            setups.append(marks.scale(server.setup_s, before, after))
            if index < SETUP_ONLY_STARTS:
                server.stop()
                servers.pop().kill()
            before = after
        for index, server in enumerate(servers):
            conn = gen(loadgen.Connection.open(server.port))
            try:
                sat_cycles, seconds, scaled, sat_logs = saturate(
                    gen, conn, cycles, SATURATION_SHARE * ctx.seconds / SERVERS, marks
                )
                sat_counts.append(sat_cycles)
                sat_seconds.extend(seconds)
                sat_scaled.extend(scaled)
                logs.extend(sat_logs)
                # the phases behind per-layer figures run on traced runs only
                if ctx.trace and index == 1:
                    source = FrameSource(cycles, first=sat_cycles)
                    sustained, rungs = ladder(
                        gen, conn, source, cycles.n * len(seconds) / sum(seconds), rung_seconds
                    )
                elif ctx.trace and index == 2:
                    nominal = gen(conn.open_loop(cycles.frames_of(sat_cycles), NOMINAL_EPS))
                    logs.append(nominal)
            finally:
                gen(conn.close())
            reports.append(server.stop())
        if ctx.trace:
            tag = f"serve-q1-seed{ctx.seed}-server-{os.getpid()}.spans.jsonl.gz"
            server = ServerProcess(ctx.root, trace=True, spans_path=str(ctx.out_dir / tag))
            servers.append(server)
            conn = gen(loadgen.Connection.open(server.port))
            try:
                # cycle 0 open loop at the nominal rate (queue waits, backlog),
                # then cycle 1 as a burst (tracing overhead)
                logs.append(gen(conn.open_loop(cycles.frames_of(0), NOMINAL_EPS)))
                before = marks.mark()
                started = time.monotonic()
                logs.append(gen(conn.burst(cycles.frames_of(1))))
                took = gen(conn.drain()) - started
                traced_eps = cycles.n / marks.scale(took, before, marks.mark())
            finally:
                gen(conn.close())
            traced_report = server.stop()
    finally:
        for server in servers:
            server.kill()
        gen.close()

    # server 2's ladder cycles are partial, and checked up to its saturation;
    # server 3's open-loop cycle is whole
    last = [count - 1 for count in sat_counts]
    if nominal is not None:
        last[2] += 1
    gates = {
        f"server 1 (cycles 0-{last[0]})": report_keys(reports[0]) == ref.cycles(last[0] + 1),
        f"server 2 (cycles 0-{last[1]})": [
            k for k in report_keys(reports[1]) if k[1] < (last[1] + 1) * ref.windows
        ] == ref.cycles(last[1] + 1),
        f"server 3 (cycles 0-{last[2]})": report_keys(reports[2]) == ref.cycles(last[2] + 1),
    }
    if traced_report is not None:
        gates["traced server (cycles 0-1)"] = report_keys(traced_report) == ref.cycles(2)
    frames_sent = sum(len(log.due) for log in logs) + sum(r.frames for r in rungs)
    refused = sum(log.refused for log in logs) + sum(r.refused for r in rungs)
    failed = refused + sum(1 for ok in gates.values() if not ok)
    attempted = frames_sent + len(gates)

    throughput = cycles.n / stats.median(sat_scaled)
    values = {"setup_s": stats.median(setups), "throughput_eps": throughput}
    samples = {
        "throughput_eps": f"median of {len(sat_scaled)} cycles; unscaled: "
        + ", ".join(f"{cycles.n / s:.0f}" for s in sat_seconds),
    }
    notes = [
        f"events per cycle: {cycles.n} in {cycles.n // loadgen.FRAME_EVENTS} frames; "
        f"windows per cycle: {ref.windows}; detections per cycle: {len(ref.keys)}; "
        f"digest {inputs.digest(ref.keys)}",
        f"saturation cycles per server: {', '.join(map(str, sat_counts))}, the first "
        f"untimed; unscaled setup "
        f"{stats.median(raw_setups):.4g} s from {len(setups)} starts; "
        f"host slowness median {stats.median(marks.samples) / pace.NOMINAL_S:.3f}",
    ]
    if nominal is not None:
        ingest = stats.summarize(nominal.latencies_ms())
        detect = stats.summarize(
            detect_latencies(reports[2], ref, nominal, sat_counts[2] * cycles.n)
        )
        lag = stats.summarize(nominal.lags_ms())
        values.update({
            "sustained_eps": sustained,
            "ingest_p50_ms": ingest["p50"],
            "ingest_p99_ms": ingest["tail"],
            "detect_p50_ms": detect["p50"],
            "detect_p99_ms": detect["tail"],
            "loadgen.lag_p99_ms": lag["tail"],
        })
        samples.update({
            "ingest_p50_ms": f"p50 of n={ingest['n']} frames",
            "ingest_p99_ms": f"p{ingest['tail_q'] * 100:g} of n={ingest['n']} frames",
            "detect_p50_ms": f"p50 of n={detect['n']} detections",
            "detect_p99_ms": f"p{detect['tail_q'] * 100:g} of n={detect['n']} detections",
            "loadgen.lag_p99_ms": f"p{lag['tail_q'] * 100:g} of n={lag['n']} frames",
            "sustained_eps": f"limit {loadgen.LATENCY_LIMIT_MS:g} ms on the rung's tail",
        })
        notes.append(
            f"nominal rate {NOMINAL_EPS:g} events/s; rung length {rung_seconds:g} s; "
            "ladder (rate: frames, refused, backlog at end, tail ms, passed):"
        )
        notes += [
            f"  {r.rate:9.0f}: {r.frames:5d}, {r.refused}, {r.backlog_end:6d}, "
            f"p{r.tail_q * 100:g} {r.tail_ms:8.2f}, {r.passed()}"
            for r in rungs
        ]
    notes += [f"gate {name}: {'ok' if ok else 'FAILED'}" for name, ok in gates.items()]
    out = {"attempted": attempted, "failed": failed, "values": values,
           "samples": samples, "notes": notes}
    if traced_report is not None:
        frames = cycles.n // loadgen.FRAME_EVENTS
        open_loop = [w for w in traced_report["queue_waits"] if w[0] < frames]
        waits = stats.summarize([w[1] for w in open_loop])
        layer_values = dict(traced_report["layers"])
        layer_values["serve.queue_wait_ms_p99"] = waits["tail"] or 0.0
        layer_values["serve.pending_events_max"] = max((w[2] for w in open_loop), default=0)
        layer_values["trace.overhead_pct"] = stats.pct(throughput - traced_eps, throughput)
        out["values"].update(layer_values)
        out["samples"]["serve.queue_wait_ms_p99"] = (
            f"p{(waits['tail_q'] or 0) * 100:g} of n={waits['n']} batches at "
            f"{NOMINAL_EPS:g} events/s"
        )
        out["trace_notes"] = [f"traced server saturation: {traced_eps:.0f} events/s"]
    return out
