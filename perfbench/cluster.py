"""``cluster-q1``: a closed loop of ``ShardedPipeline(shards=2).run`` calls.

Plain (not fault-tolerant) sharding with the constructor's defaults:
the parent routes complete windows to two forked workers over pickle
IPC and merges their detections back into sequential order.  Each
iteration builds and starts a fresh cluster (set-up: build plus fork),
replays the whole evaluation stream (work) and shuts the workers
down.  Detections must equal ``CEPOperator.detect_all`` key for key,
in order.  With three processes on a small machine this reports counts
and throughput; it claims no scaling.  ``replay-q1`` is its
single-process baseline.
"""

from __future__ import annotations

import time

from perfbench import inputs, layers, pace, stats
from perfbench import spans as sp

SHARDS = 2


def build():
    """An unstarted two-shard cluster over the replay pipeline."""
    from repro.cluster import ShardedPipeline
    from repro.pipeline import Pipeline

    pipeline = Pipeline.builder().query(inputs.query()).batch(inputs.BATCH).build()
    return ShardedPipeline(pipeline, shards=SHARDS)


def one_pass(events, reference, between=None, around_start=None):
    """Build, start, replay, stop: ``(setup_s, work_s, ok, cluster, result)``.

    ``around_start(cluster)`` wraps the fork (the traced run keeps its
    wrappers out of the workers); ``between(cluster)`` runs after
    set-up, outside both timings.
    """
    t0 = time.perf_counter()
    cluster = build()
    if around_start is not None:
        around_start(cluster)
    else:
        cluster.start()
    t1 = time.perf_counter()
    try:
        if between is not None:
            between(cluster)
        t2 = time.perf_counter()
        result = cluster.run(events)
        t3 = time.perf_counter()
    finally:
        cluster.shutdown()
    ok = inputs.keys(result.complex_events) == reference
    return t1 - t0, t3 - t2, ok, cluster, result


def run(ctx) -> dict:
    _train, events = inputs.streams(ctx.seed)
    reference = inputs.reference_keys(events)
    samples = inputs.closed_loop(
        ctx.seconds,
        lambda _i, between: one_pass(events, reference, between=lambda _c: between())[:3],
    )
    out = inputs.closed_loop_result(
        len(events),
        samples,
        f"shards: {SHARDS}; detections: {len(reference)}; digest {inputs.digest(reference)}",
    )
    if ctx.trace:
        trace = traced(ctx, events, reference, out["values"]["throughput_eps"])
        inputs.add_trace(out, trace, passes=1)
    return out


def traced(ctx, events, reference, untraced_eps: float) -> dict:
    """One traced pass; worker-side figures come from ``snapshot()``."""
    import multiprocessing.queues
    from multiprocessing.reduction import ForkingPickler

    n = len(events)
    recorder = sp.SpanRecorder(f"cluster-q1/{ctx.seed}")
    counters = layers.Counters()
    ipc = {"bytes": 0}
    patchers = []

    def count_bytes(args, _result) -> None:
        if recorder.active:  # shipped inside run(), not the shutdown's stop messages
            ipc["bytes"] += len(ForkingPickler.dumps(args[1]))

    def install_parent_side(cluster) -> None:
        patcher = sp.Patcher(recorder)
        patchers.append(patcher)
        layers.install(patcher, inputs.query(), counters)
        patcher.wrap(type(cluster), "run", "cluster:ShardedPipeline.run")
        router = type(cluster.router)
        patcher.wrap(router, "route", f"cluster:{router.__name__}.route")
        patcher.wrap(
            multiprocessing.queues.Queue, "put", "cluster:Queue.put", observe=count_bytes
        )

    def start_unwrapped(cluster) -> None:
        # the chains were built with wrappers bound in; the forked
        # workers must not inherit the class-level ones
        patchers.pop().restore()
        cluster.start()

    try:
        prebuild = sp.Patcher(recorder)
        patchers.append(prebuild)
        layers.install(prebuild, inputs.query(), counters)
        recorder.request_id = "pass-0"
        marks = pace.Marks()
        _setup, work_s, ok, cluster, result = one_pass(
            events,
            reference,
            between=lambda c: (install_parent_side(c), counters.reset(), marks.mark()),
            around_start=start_unwrapped,
        )
        work_s = marks.scale(work_s, 0, marks.mark())
    finally:
        while patchers:
            patchers.pop().restore()

    spans = recorder.spans
    scope = layers.scope_of(spans, "cluster:ShardedPipeline.run")
    table = sp.aggregate(spans, scope)
    metrics_view = layers.first_chain(cluster.metrics())
    router_stages = metrics_view.get("router", {})
    workers = metrics_view.get("workers", {})
    metrics = layers.sequential_metrics(table, counters, n, router_stages)
    metrics["cep.operator.memberships_kept"] = float(workers.get("memberships_kept", 0))
    metrics["cep.operator.memberships_dropped"] = float(workers.get("memberships_dropped", 0))
    metrics["cep.patterns.windows_matched"] = float(workers.get("windows", 0))

    snapshot = result.snapshot
    route_name = f"cluster:{type(cluster.router).__name__}.route"
    routes = sp.calls(table, route_name)
    messages = float(snapshot.transport.get("messages", 0))
    windows = [shard.windows for shard in snapshot.shards]
    mean_windows = sum(windows) / len(windows) if windows else 0.0
    in_run = [s for s in spans if s[0] in scope]
    put_ends = [s[4] for s in in_run if s[2] == "cluster:Queue.put"]
    run_ends = [s[4] for s in in_run if s[2] == "cluster:ShardedPipeline.run"]
    metrics.update(
        {
            "cluster.route_us_per_window": stats.ratio(
                sp.total_ns(table, route_name) / 1e3, routes
            ),
            "cluster.ipc_bytes_per_event": stats.ratio(ipc["bytes"], n),
            "cluster.messages": messages,
            "cluster.windows_per_message": stats.ratio(
                sum(snapshot.windows_dispatched.values()), messages
            ),
            "cluster.worker_busy_frac": stats.ratio(
                sum(shard.utilization for shard in snapshot.shards), len(snapshot.shards)
            ),
            "cluster.shard_skew": stats.ratio(max(windows, default=0), mean_windows),
            # from the last window shipped to the merged result: the
            # time the coordinator only waits for the workers
            "cluster.coord_wait_s": (
                (max(run_ends) - max(put_ends)) / 1e9 if put_ends and run_ends else 0.0
            ),
        }
    )
    traced_eps = n / work_s
    metrics["trace.overhead_pct"] = stats.pct(untraced_eps - traced_eps, untraced_eps)
    return {
        "layers": metrics,
        "recorder": recorder,
        "failed": int(not ok),
        "trace_notes": [f"traced pass detections equal the reference: {ok}"],
    }
