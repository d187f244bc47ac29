"""The repository benchmark: one command, four soccer-Q1 workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-q1 --seed 1 --seconds 8 --trace 0

``--trace 0`` measures and prints the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` measures the same way, then runs the
workload once more with spans around each layer's public functions and
prints the per-layer metrics.  Every metric is also printed by name and
unit on the lines before the result, with sample counts and the
environment.  The last line of standard output is the JSON result::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

A failed correctness gate counts as a failed operation and makes
``correct`` false; the exit code stays 0.  Anything that keeps the
benchmark from running at all (no program sources next to it, a
crash) exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where results and span dumps land (inside the checkout, git-ignored).
OUT_DIR = ROOT / ".perfbench"

#: Workload name -> the perfbench module that runs it.
WORKLOADS = {
    "replay-q1": "replay",
    "overload-q1": "overload",
    "serve-q1": "serve",
    "cluster-q1": "cluster",
}


def _prepare_path() -> None:
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


class Context:
    """What a workload needs to know about this run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = ROOT
        self.out_dir = OUT_DIR


def _load_catalog():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def _module(workload: str):
    import importlib

    return importlib.import_module(f"perfbench.{WORKLOADS[workload]}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _prepare_path()
    from perfbench import inputs

    end_to_end, per_layer = _load_catalog()
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.perf_counter()
    result = _module(args.workload).run(ctx)

    # a layer the workload never reaches reports 0 in a traced run
    values = {m["name"]: 0.0 for m in per_layer} if ctx.trace else {}
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    values.update(result["values"])
    values["peak_rss_mb"] = inputs.peak_rss_mb()
    values["failed_pct"] = 100.0 * failed / attempted
    declared = per_layer if ctx.trace else end_to_end
    absent = [m["name"] for m in declared if m["name"] not in values]
    units = {m["name"]: m["unit"] for m in end_to_end + per_layer}
    unknown = sorted(set(values) - set(units))
    if absent or unknown:
        raise RuntimeError(
            f"workload {args.workload}: not measured {absent}, not declared {unknown}"
        )

    env = inputs.environment(args.seed)
    samples = result.get("samples", {})

    print(f"workload {args.workload} seed {args.seed} trace {int(ctx.trace)} "
          f"seconds {args.seconds:g} wall {time.perf_counter() - started:.1f}s")
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in result.get("notes", []):
        print(line)
    for name in sorted(values):
        if name in result["values"] or name in ("peak_rss_mb", "failed_pct"):
            extra = f"  ({samples[name]})" if name in samples else ""
            print(f"  {name:<40} {values[name]:>14.6g} {units[name]}{extra}")
    for line in result.get("trace_notes", []):
        print(line)
    print(f"operations: attempted {attempted}, failed {failed}")

    tag = f"{args.workload}-seed{args.seed}-trace{int(ctx.trace)}-{os.getpid()}"
    recorder = result.get("recorder")
    if recorder is not None:
        recorder.dump(str(OUT_DIR / f"{tag}.spans.jsonl.gz"))
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "environment": env,
                "attempted": attempted,
                "failed": failed,
                "values": values,
                "samples": samples,
                "notes": result.get("notes", []) + result.get("trace_notes", []),
            },
            handle,
            indent=1,
            sort_keys=True,
        )

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
