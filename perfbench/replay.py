"""``replay-q1``: a closed loop of in-process ``Pipeline.run`` calls.

Micro-batch 64, no shedding: window assignment and the operator's
``apply`` dominate, and the shedder is bypassed.  Each iteration builds
a fresh pipeline (set-up) and replays the whole evaluation stream
(work); the detections must equal ``CEPOperator.detect_all`` key for
key, in order.
"""

from __future__ import annotations

import time

from perfbench import inputs, layers, pace
from perfbench import spans as sp
from perfbench.stats import pct


def build():
    """The replayed pipeline: Q1, micro-batch 64, no shedder."""
    from repro.pipeline import Pipeline

    return Pipeline.builder().query(inputs.query()).batch(inputs.BATCH).build()


def one_pass(events, reference, observe: bool = False, between=None):
    """Build and replay once: ``(setup_s, work_s, ok, pipeline, obs)``.

    ``between`` runs after set-up, outside both timings.
    """
    t0 = time.perf_counter()
    pipeline = build()
    obs = pipeline.enable_observability() if observe else None
    t1 = time.perf_counter()
    if between is not None:
        between()
    t2 = time.perf_counter()
    result = pipeline.run(events)
    t3 = time.perf_counter()
    ok = inputs.keys(result.complex_events) == reference
    return t1 - t0, t3 - t2, ok, pipeline, obs


def run(ctx) -> dict:
    _train, events = inputs.streams(ctx.seed)
    reference = inputs.reference_keys(events)
    samples = inputs.closed_loop(
        ctx.seconds, lambda _i, between: one_pass(events, reference, between=between)[:3]
    )
    out = inputs.closed_loop_result(
        len(events),
        samples,
        f"detections: {len(reference)}; digest {inputs.digest(reference)}",
    )
    if ctx.trace:
        trace = traced(ctx, events, reference, out["values"]["throughput_eps"])
        inputs.add_trace(out, trace, passes=2)
    return out


def traced(ctx, events, reference, untraced_eps: float) -> dict:
    """One traced pass for the layers, then one with obs on for the cross-check."""
    n = len(events)
    recorder = sp.SpanRecorder(f"replay-q1/{ctx.seed}")
    counters = layers.Counters()
    with sp.Patcher(recorder) as patcher:
        layers.install(patcher, inputs.query(), counters)
        recorder.request_id = "pass-0"
        marks = pace.Marks()
        _setup, work, ok, pipeline, _obs = one_pass(events, reference, between=marks.mark)
        work = marks.scale(work, 0, marks.mark())
        scope = layers.scope_of(recorder.spans, "pipeline:Pipeline.run")
        table = sp.aggregate(recorder.spans, scope)
        metrics = layers.sequential_metrics(
            table, counters, n, layers.first_chain(pipeline.metrics())
        )
        # the cross-check pass: obs histograms and these spans time the
        # same stage calls, so their sums should agree
        first_obs_span = len(recorder.spans)
        recorder.request_id = "pass-obs"
        _s, _w, ok_obs, _p, obs = one_pass(events, reference, observe=True)
    obs_spans = recorder.spans[first_obs_span:]
    span_seconds = layers.stage_span_seconds(sp.aggregate(obs_spans))
    obs_seconds = {}
    for sample in obs.registry.snapshot()["repro_stage_seconds"]["samples"]:
        stage = sample["labels"]["stage"]
        obs_seconds[stage] = obs_seconds.get(stage, 0.0) + float(sample["sum"])
    rows = ["obs cross-check (stage: obs sum ms | span sum ms | gap ms | gap %):"]
    for stage, spans_s in span_seconds.items():
        obs_s = obs_seconds.get(stage, 0.0)
        rows.append(
            f"  {stage:<14} {obs_s * 1e3:9.2f} | {spans_s * 1e3:9.2f} | "
            f"{(obs_s - spans_s) * 1e3:8.2f} | {pct(obs_s - spans_s, spans_s):6.1f}"
        )
    obs_total = sum(obs_seconds.get(stage, 0.0) for stage in span_seconds)
    spans_total = sum(span_seconds.values())
    rows.append(
        f"  {'total':<14} {obs_total * 1e3:9.2f} | {spans_total * 1e3:9.2f} | "
        f"{(obs_total - spans_total) * 1e3:8.2f} | {pct(obs_total - spans_total, spans_total):6.1f}"
    )
    traced_eps = n / work
    metrics["trace.overhead_pct"] = pct(untraced_eps - traced_eps, untraced_eps)
    metrics["obs.stage_gap_pct"] = pct(obs_total - spans_total, spans_total)
    return {
        "layers": metrics,
        "recorder": recorder,
        "failed": int(not ok) + int(not ok_obs),
        "trace_notes": rows,
    }
