"""The server process of ``serve-q1``: ``repro-serve``'s defaults.

Started by :mod:`perfbench.serve` with pipes on stdin/stdout::

    python3 perfbench/serve_worker.py --trace 0

It builds the pipeline and middleware exactly as ``repro-serve`` does
with no flags (Q1, pattern size 3, micro-batch 64, no shedding), binds
an ephemeral port and prints ``READY <port>``.  A line on stdin (or
stdin closing, when the benchmark dies) drains the server through
``PipelineServer.stop()``; it then prints ``REPORT <json>`` with every
detection and the time its emit sink saw it (``time.monotonic``, which
is system-wide on Linux, so the generator's due times compare), the
server's wire counters and, with ``--trace 1``, per-layer figures.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _prepare_path() -> None:
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


class ServeTrace:
    """Server-side wrappers: the in-process layers plus wire decode and feed."""

    def __init__(self, run_id: str) -> None:
        from perfbench import layers
        from perfbench import spans as sp

        self.recorder = sp.SpanRecorder(run_id)
        self.counters = layers.Counters()
        self.patcher = sp.Patcher(self.recorder)
        self.server = None
        self.decoded = 0
        self.fed = 0
        # per batch: (request id, ms it waited in the ingest queue, pending events)
        self.queue_waits = []
        # id of a decoded batch's first event -> (decode end ns, request id)
        self._batches = {}

    def install(self) -> None:
        from perfbench import inputs, layers
        from repro.pipeline.pipeline import Pipeline
        from repro.serve import server as server_module

        layers.install(self.patcher, inputs.query(), self.counters)
        recorder = self.recorder
        read_frame = server_module.read_frame

        async def read_frame_with_id(reader):
            message = await read_frame(reader)
            if isinstance(message, dict):
                recorder.request_id = message.get("rid")
            return message

        self.patcher.replace(server_module, "read_frame", read_frame_with_id)
        self.patcher.wrap(
            server_module, "wire_to_events", "serve:wire_to_events", observe=self._decoded
        )
        # outside the feed span: tag the batch's spans with its request
        # id and time how long the batch waited in the ingest queue
        self.patcher.before(Pipeline, "feed", self._before_feed)

    def _decoded(self, _args, events) -> None:
        self.decoded += len(events)
        if events:
            self._batches[id(events[0])] = (time.perf_counter_ns(), self.recorder.request_id)

    def _before_feed(self, _pipeline, event, *_rest, **_kw) -> None:
        self.fed += 1
        batch = self._batches.pop(id(event), None)
        if batch is None:
            return
        decoded_at, request_id = batch
        self.recorder.request_id = request_id
        waited_ms = (time.perf_counter_ns() - decoded_at) / 1e6
        pending = self.server.pending_events if self.server is not None else 0
        self.queue_waits.append((request_id, waited_ms, pending))

    def report(self, pipeline, server_metrics) -> dict:
        from perfbench import layers, stats
        from perfbench import spans as sp

        self.patcher.restore()
        table = sp.aggregate(self.recorder.spans)
        metrics = layers.sequential_metrics(
            table, self.counters, self.fed, layers.first_chain(pipeline.metrics())
        )
        wire, ingest = server_metrics["wire"], server_metrics["ingest"]
        metrics.update(
            {
                "serve.decode_us_per_event": stats.ratio(
                    sp.total_ns(table, "serve:wire_to_events") / 1e3, self.decoded
                ),
                "serve.feed_us_per_event": stats.ratio(
                    sp.total_ns(table, "pipeline:Pipeline.feed") / 1e3, self.fed
                ),
                "serve.bytes_in_per_event": stats.ratio(
                    wire["bytes_in"], ingest["events_admitted"]
                ),
                "serve.overloaded_responses": ingest["overloaded_responses"],
            }
        )
        return {"layers": metrics, "queue_waits": self.queue_waits}


async def serve(trace: bool, spans_path: str) -> dict:
    tracer = None
    if trace:
        tracer = ServeTrace(f"serve-q1/{spans_path}")
        tracer.install()

    from repro.serve import cli
    from repro.serve.server import PipelineServer, ServeConfig

    args = cli.build_parser().parse_args(["--port", "0", "--quiet"])
    pipeline = cli.build_pipeline(args)
    detections = []

    def record(complex_event) -> None:
        detections.append((complex_event.key, time.monotonic()))

    for chain in pipeline.chains:
        chain.emit.subscribe(record)
    server = PipelineServer(
        pipeline,
        config=ServeConfig(host=args.host, port=0, max_pending_events=args.max_pending),
        middleware=cli.build_middleware(args, None),
    )
    if tracer is not None:
        tracer.server = server
    await server.start()
    print(f"READY {server.port}", flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.readline)
    before_stop = len(detections)
    await server.stop()
    metrics = server.metrics()
    report = {
        "detections": [[k[0], k[1], list(k[2]), t] for k, t in detections],
        "before_stop": before_stop,
        "wire": metrics["wire"],
        "ingest": metrics["ingest"],
    }
    if tracer is not None:
        report.update(tracer.report(pipeline, metrics))
        if spans_path:
            tracer.recorder.dump(spans_path)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description="serve-q1 server process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="", help="where a traced server dumps its spans")
    opts = parser.parse_args()
    _prepare_path()
    report = asyncio.run(serve(bool(opts.trace), opts.spans))
    print("REPORT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
