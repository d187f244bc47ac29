"""Per-layer wrappers and the per-layer metrics computed from them.

Layers are the repository's modules.  Each wrapper times one public
function of its layer (see :class:`perfbench.spans.Patcher`); counts
come from the program's public ``metrics()`` / ``snapshot()`` views.
The metric names are the ``per_layer`` entries of ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, Optional

from perfbench import spans as sp
from perfbench.stats import ratio

#: The core stages whose batch calls get their own span (obs cross-check).
STAGE_NAMES = {
    "AdmissionStage": "admission",
    "WindowAssignStage": "window_assign",
    "SheddingStage": "shedding",
    "MatchStage": "match",
    "EmitStage": "emit",
}

_PIPELINE_METHODS = ("run", "feed", "finish", "simulate", "flush_pending")
_CHAIN_METHODS = (
    "run_batch",
    "ingest_batch",
    "process_batch",
    "ingest",
    "process_item",
    "flush",
    "on_tick",
)


class Counters:
    """Outcome counts the wrappers observe (outside their spans)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every count (call between set-up and the measured work)."""
        self.batch_events = 0
        self.windows_hit = 0
        self.commands = 0
        self.shed_pairs = 0


def install(patcher: sp.Patcher, query, counters: Counters) -> None:
    """Wrap the in-process layers: pipeline, cep.*, core.*, runtime.simulation.

    Install before the pipeline is built: chains prebind their stages'
    batch methods at construction, so later patches would miss them.
    """
    from repro.cep.operator.operator import CEPOperator
    from repro.core.overload import OverloadDetector
    from repro.core.shedder import ESpiceShedder
    from repro.pipeline import pipeline as pipeline_module
    from repro.pipeline import stages
    from repro.runtime import simulation

    for method in _PIPELINE_METHODS:
        patcher.wrap(pipeline_module.Pipeline, method, f"pipeline:Pipeline.{method}")
    patcher.wrap(pipeline_module.Pipeline, "train", "core.model:Pipeline.train")

    def count_batch(args, _result) -> None:
        batch = args[1]
        counters.batch_events += len(getattr(batch, "events", batch))

    chain_cls = pipeline_module.QueryChain
    for method in _CHAIN_METHODS:
        patcher.wrap(
            chain_cls,
            method,
            f"pipeline:QueryChain.{method}",
            observe=count_batch if method == "ingest_batch" else None,
        )
    for cls_name in STAGE_NAMES:
        cls = getattr(stages, cls_name, None)
        if cls is not None:
            patcher.wrap(cls, "process_batch", f"pipeline:{cls_name}.process_batch")

    assigner_cls = type(query.new_assigner())
    for method in ("on_events", "on_event", "flush"):
        patcher.wrap(
            assigner_cls, method, f"cep.windows:{assigner_cls.__name__}.{method}", fold=True
        )

    for method in ("apply", "decide", "decide_batch", "flush", "process"):
        patcher.wrap(CEPOperator, method, f"cep.operator:CEPOperator.{method}", fold=True)

    def count_hit(_args, result) -> None:
        if result:
            counters.windows_hit += 1

    matcher_cls = type(query.new_matcher())
    patcher.wrap(
        matcher_cls,
        "match_window",
        f"cep.patterns:{matcher_cls.__name__}.match_window",
        fold=True,
        observe=count_hit,
    )

    def count_pair(_args, _result) -> None:
        counters.shed_pairs += 1

    def count_pairs(_args, result) -> None:
        counters.shed_pairs += len(result)

    for method, observe in (("should_drop", count_pair), ("should_drop_batch", count_pairs)):
        patcher.wrap(
            ESpiceShedder,
            method,
            f"core.shedder:ESpiceShedder.{method}",
            fold=True,
            observe=observe,
        )

    def count_command(_args, result) -> None:
        if result is not None:
            counters.commands += 1

    patcher.wrap(
        OverloadDetector, "check", "core.overload:OverloadDetector.check", observe=count_command
    )
    patcher.wrap(
        simulation, "simulate_pipeline", "runtime.simulation:simulate_pipeline"
    )


def scope_of(spans, root_name: str) -> set:
    """Span ids at or below every span called ``root_name``."""
    roots = [span[0] for span in spans if span[2] == root_name]
    return sp.descendants(spans, roots)


def _stage(metrics: Dict[str, Dict[str, object]], stage: str, key: str) -> float:
    return float(metrics.get(stage, {}).get(key, 0) or 0)


def sequential_metrics(
    table: Dict[str, Dict[str, float]],
    counters: Counters,
    events: int,
    chain_metrics: Optional[Dict[str, Dict[str, object]]],
) -> Dict[str, float]:
    """Metrics of the in-process layers from spans plus stage counters.

    ``table`` is :func:`perfbench.spans.aggregate` over the measured
    scope; ``chain_metrics`` is one chain's ``Pipeline.metrics()``
    entry (per-stage counters).
    """
    m: Dict[str, float] = {}
    stage = chain_metrics or {}
    batches = sp.calls(table, "pipeline:QueryChain.ingest_batch")
    egress_batches = sp.calls(table, "pipeline:QueryChain.process_batch")
    m["pipeline.batches"] = batches
    m["pipeline.batch_events_mean"] = ratio(counters.batch_events, batches)
    m["pipeline.segments_per_batch"] = ratio(
        sp.calls(table, "pipeline:MatchStage.process_batch"), egress_batches
    )
    m["pipeline.self_us_per_event"] = ratio(sp.layer_self_ns(table, "pipeline") / 1e3, events)

    m["cep.windows.us_per_event"] = ratio(sp.layer_self_ns(table, "cep.windows") / 1e3, events)
    m["cep.windows.memberships_per_event"] = ratio(
        _stage(stage, "window_assign", "memberships"), events
    )
    m["cep.windows.windows_closed"] = _stage(stage, "window_assign", "windows_closed")

    m["cep.operator.apply_self_us_per_event"] = ratio(
        _self(table, "cep.operator:CEPOperator.apply") / 1e3, events
    )
    m["cep.operator.memberships_kept"] = _stage(stage, "match", "memberships_kept")
    m["cep.operator.memberships_dropped"] = _stage(stage, "match", "memberships_dropped")

    matched = sum(
        row["calls"] for name, row in table.items() if sp.layer_of(name) == "cep.patterns"
    )
    m["cep.patterns.us_per_window"] = ratio(sp.layer_self_ns(table, "cep.patterns") / 1e3, matched)
    m["cep.patterns.windows_matched"] = matched
    m["cep.patterns.hit_ratio"] = ratio(counters.windows_hit, matched)

    decisions = _stage(stage, "shedding", "decisions")
    drops = _stage(stage, "shedding", "drops")
    m["core.shedder.decisions"] = decisions
    m["core.shedder.drops"] = drops
    # per (event, window) pair the shedder was asked about, active or not
    m["core.shedder.ns_per_decision"] = ratio(
        sp.layer_self_ns(table, "core.shedder"), counters.shed_pairs
    )
    m["core.shedder.drop_ratio"] = ratio(drops, decisions)

    checks = sp.calls(table, "core.overload:OverloadDetector.check")
    m["core.overload.checks"] = checks
    m["core.overload.commands"] = counters.commands
    m["core.overload.us_per_check"] = ratio(
        sp.total_ns(table, "core.overload:OverloadDetector.check") / 1e3, checks
    )

    m["runtime.simulation.self_us_per_event"] = ratio(
        sp.layer_self_ns(table, "runtime.simulation") / 1e3, events
    )
    return m


def _self(table: Dict[str, Dict[str, float]], name: str) -> float:
    row = table.get(name)
    return float(row["self_ns"]) if row else 0.0


def stage_span_seconds(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Total seconds in each core stage's batch calls, by obs stage name."""
    return {
        stage: sp.total_ns(table, f"pipeline:{cls_name}.process_batch") / 1e9
        for cls_name, stage in STAGE_NAMES.items()
    }


def first_chain(metrics: Dict[str, Dict[str, Dict[str, object]]]) -> Dict[str, Dict[str, object]]:
    """The single chain's entry of ``Pipeline.metrics()``."""
    return next(iter(metrics.values()), {})

