"""``overload-q1``: trained eSPICE through virtual-time ``Pipeline.simulate``.

The paper's protocol (``repro.experiments.common``): fit the utility
model on the training stream, deploy with ``ExperimentConfig``
defaults (f=0.8, LB=1 s, th=1000/s), then replay the evaluation stream
at R2 = 1.4·th in virtual time, with shedding live and per-event
egress.  Each iteration trains and deploys a fresh pipeline (set-up)
and simulates once (work).

The quality figures are the paper's contract and exactly repeatable:
every iteration must produce the same ordered detection keys, whose
digest is printed so runs can be compared.
"""

from __future__ import annotations

import time

from perfbench import inputs, layers, pace, stats
from perfbench import spans as sp


def setup(train):
    """A trained, deployed eSPICE pipeline (the paper's protocol)."""
    from repro.experiments.common import R2, ExperimentConfig, strategy_pipeline

    return strategy_pipeline("espice", inputs.query(), train, ExperimentConfig(), R2)


def work(pipeline, events, memberships):
    """Simulate the evaluation stream at R2 = 1.4·th in virtual time."""
    from repro.experiments.common import R2, ExperimentConfig

    throughput = ExperimentConfig().throughput
    return pipeline.simulate(
        events,
        input_rate=R2 * throughput,
        throughput=throughput,
        mean_memberships=memberships,
    )


def one_pass(train, events, memberships, between=None):
    """Train, deploy and simulate once: ``(setup_s, work_s, pipeline, result)``.

    ``between`` runs after set-up, outside both timings.
    """
    t0 = time.perf_counter()
    pipeline = setup(train)
    t1 = time.perf_counter()
    if between is not None:
        between()
    t2 = time.perf_counter()
    result = work(pipeline, events, memberships)
    t3 = time.perf_counter()
    return t1 - t0, t3 - t2, pipeline, result


def quality(truth_keys, result, bound: float):
    """FN/FP against the unshed truth, virtual latency, LB violations.

    Returns the metric values and the virtual-latency summary.
    """
    truth = set(truth_keys)
    detected = set(inputs.keys(result.complex_events))
    latencies_ms = [v * 1e3 for v in result.latency.latencies()]
    summary = stats.summarize(latencies_ms)
    violations = sum(1 for v in latencies_ms if v > bound * 1e3)
    values = {
        "fn_pct": stats.pct(len(truth - detected), len(truth)),
        "fp_pct": stats.pct(len(detected - truth), len(truth)),
        "vlat_p50_ms": summary["p50"],
        "vlat_p99_ms": summary["tail"],
        "lb_violation_pct": stats.pct(violations, len(latencies_ms)),
    }
    return values, summary


def run(ctx) -> dict:
    from repro.runtime.simulation import measure_mean_memberships

    train, events = inputs.streams(ctx.seed)
    truth = inputs.reference_keys(events)
    memberships = measure_mean_memberships(inputs.query(), events)
    n = len(events)
    digests = []
    last = {}

    def iterate(_i, between):
        setup, work, pipeline, result = one_pass(train, events, memberships, between)
        digests.append(inputs.digest(inputs.keys(result.complex_events)))
        last["pipeline"], last["result"] = pipeline, result
        return setup, work, digests[-1] == digests[0]

    samples = inputs.closed_loop(ctx.seconds, iterate)
    pipeline, result = last["pipeline"], last["result"]
    values, vlat = quality(truth, result, pipeline.config.latency_bound)
    out = inputs.closed_loop_result(
        n, samples, f"truth: {len(truth)}; detected: {len(result.complex_events)}"
    )
    out["values"].update(values)
    out["samples"] = {
        "vlat_p50_ms": f"p50 of n={vlat['n']}",
        "vlat_p99_ms": f"p{vlat['tail_q'] * 100:g} of n={vlat['n']}",
    }
    out["notes"].append(
        f"overload digest: {digests[0]} (identical in all {len(digests)} passes: "
        f"{len(set(digests)) == 1})"
    )
    if ctx.trace:
        untraced_eps = out["values"]["throughput_eps"]
        trace = traced(ctx, train, events, memberships, digests[0], untraced_eps)
        inputs.add_trace(out, trace, passes=1)
    return out


def traced(ctx, train, events, memberships, digest, untraced_eps) -> dict:
    """One traced train/deploy/simulate; its digest must match the untraced one."""
    n = len(events)
    recorder = sp.SpanRecorder(f"overload-q1/{ctx.seed}")
    counters = layers.Counters()
    with sp.Patcher(recorder) as patcher:
        layers.install(patcher, inputs.query(), counters)
        recorder.request_id = "pass-0"
        marks = pace.Marks()
        _setup, work_s, pipeline, result = one_pass(
            train, events, memberships, between=lambda: (counters.reset(), marks.mark())
        )
        work_s = marks.scale(work_s, 0, marks.mark())
    scope = layers.scope_of(recorder.spans, "pipeline:Pipeline.simulate")
    table = sp.aggregate(recorder.spans, scope)
    chain = pipeline.chains[0]
    metrics = layers.sequential_metrics(
        table, counters, n, layers.first_chain(pipeline.metrics())
    )
    whole = sp.aggregate(recorder.spans)
    metrics["core.model.train_s"] = sp.total_ns(whole, "core.model:Pipeline.train") / 1e9
    metrics["core.model.windows_seen"] = chain.model.windows_trained if chain.model else 0
    metrics["runtime.simulation.max_queue"] = result.max_queue_size
    traced_eps = n / work_s
    metrics["trace.overhead_pct"] = stats.pct(untraced_eps - traced_eps, untraced_eps)
    same = inputs.digest(inputs.keys(result.complex_events)) == digest
    return {
        "layers": metrics,
        "recorder": recorder,
        "failed": int(not same),
        "trace_notes": [f"traced pass digest matches untraced: {same}"],
    }
