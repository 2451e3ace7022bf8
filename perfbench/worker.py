"""One cold benchmark iteration in a fresh process.

Imports ``repro``, loads and validates one workload spec, runs it with
``ExperimentRunner(spec).run()`` and prints one JSON object: the timings,
the peak RSS, the digest of the ``ResultSet`` and any broken invariant.
``perfbench/run.py`` starts one of these per iteration; by hand::

    python3 perfbench/worker.py --workload canonical --seed 0 --part 0 --pass plain

``--pass spans`` and ``--pass counts`` add the traced layers of
``perfbench/layers.py`` (see there); ``plain`` is the untraced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path
from typing import Any

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: One benchmark run covers ``PARTS`` fault traces: part ``j`` of benchmark
#: seed ``n`` runs trace seed ``348 + PARTS * n + j``, so part 0 of seed 0
#: is the committed spec itself.  The trace alone moves a workload's cost
#: by about +-10% (``sched_expected`` over trace seeds 349-358), so a run
#: that spans three traces reports a steadier median than a run on one.
#: The job queue stays at its committed seed 0: over queue seeds 1-5 the
#: scheduler's work (``runtime_key`` calls) swings from 1.05M to 2.29M on
#: ``sched_expected``, which makes another queue another workload.
BASE_TRACE_SEED = 348
PARTS = 3


def spec_dict(workload: str, seed: int, part: int) -> dict[str, Any]:
    """The workload's spec file at one part of one benchmark seed."""
    data = json.loads((BENCH_DIR / "specs" / f"{workload}.json").read_text())
    data["scenario"]["trace"]["seed"] = BASE_TRACE_SEED + PARTS * seed + part
    return data


def result_digest(results: Any) -> str:
    """SHA-256 of the canonical ``ResultSet`` JSON, provenance stripped."""
    rows = []
    for row in results.to_dict()["results"]:
        row.pop("provenance", None)
        rows.append(row)
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


#: Waste-ratio metrics of single-seed and multi-seed ``waste`` rows.
WASTE_RATIO_METRICS = ("mean_waste_ratio", "p99_waste_ratio", "mean_waste_ratio_mean", "p99_waste_ratio_mean")


def invariant_errors(results: Any, reports: list[Any]) -> list[str]:
    """Model invariants that must hold at every seed."""
    errors = []
    for row in results:
        metrics = row.metrics_dict
        if row.experiment == "schedule" and metrics["finished_jobs"] != metrics["n_jobs"]:
            errors.append(f"{row.architecture}: {metrics['finished_jobs']} of {metrics['n_jobs']} jobs finished")
        if row.experiment == "waste":
            ratios = [metrics[k] for k in WASTE_RATIO_METRICS if k in metrics]
            ratios += row.series_dict.get("waste_ratios", ())
            if not all(0.0 <= r <= 1.0 for r in ratios):
                errors.append(f"{row.architecture} tp={row.tp_size}: waste ratio outside [0, 1]")
    for report in reports:
        for job in report.jobs:
            if job.jct_hours is None:
                errors.append(f"{report.policy}: job {job.name} did not finish")
                continue
            buckets = job.productive_hours + job.waiting_hours + job.restart_hours
            if not math.isclose(buckets, job.jct_hours, rel_tol=1e-9, abs_tol=1e-9):
                errors.append(f"{report.policy}: job {job.name} buckets {buckets!r} != JCT {job.jct_hours!r}")
    return errors[:20]


def layer_counts(tracer: Any, calls: dict[str, int], runner: Any) -> dict[str, float]:
    """Per-layer work counts every traced pass can derive the same way."""
    replay_calls = calls.get("simulation.replay", 0)
    batch_calls = calls.get("mc.replay_batch", 0)
    jobs = sum(report.n_jobs for report in tracer.reports)
    out: dict[str, float] = {f"{layer}.calls": calls.get(layer, 0) for layer in layers.LAYERS}
    out.update({
        "runner.tasks": len(runner.tasks()),
        "faults.events": tracer.faults_events,
        "timeline.intervals": tracer.timeline_intervals,
        "simulation.intervals_replayed": tracer.intervals_replayed,
        "simulation.replays_per_cell": replay_calls / len(tracer.replay_cells) if tracer.replay_cells else 0.0,
        "mc.seed_intervals": tracer.seed_intervals,
        "mc.replays_per_cell": batch_calls / len(tracer.batch_cells) if tracer.batch_cells else 0.0,
        "scheduler.jobs": jobs,
        "scheduler.preemptions": sum(job.preemptions for report in tracer.reports for job in report.jobs),
        "scheduler.fault_events": sum(report.fault_events for report in tracer.reports),
    })
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, choices=range(PARTS), default=0)
    parser.add_argument("--pass", dest="mode", choices=("plain", "spans", "counts"), default="plain")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.api import ExperimentRunner, ExperimentSpec

    imported = time.perf_counter()
    spec = ExperimentSpec.from_dict(spec_dict(args.workload, args.seed, args.part))
    loaded = time.perf_counter()

    tracer = layers.Tracer()
    layers.install_report_capture(tracer)
    if args.mode == "spans":
        layers.install_spans(tracer)
    elif args.mode == "counts":
        layers.install_counters(tracer)

    runner = ExperimentRunner(spec)
    began = time.perf_counter()
    results = runner.run()
    wall = time.perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out: dict[str, Any] = {
        "setup_s": loaded - start,
        "spec_load_s": loaded - imported,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "rows": len(results),
        "digest": result_digest(results),
        "errors": invariant_errors(results, tracer.reports),
    }
    if args.mode == "spans":
        own = tracer.self_times()
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for span, self_s in zip(tracer.spans, own, strict=True):
            calls[span.name] = calls.get(span.name, 0) + 1
            seconds[span.name] = seconds.get(span.name, 0.0) + self_s
        roots = [s for s in tracer.spans if s.name == layers.ROOT_SPAN]
        out["traced_wall_s"] = sum(s.end - s.start for s in roots)
        out["self_s"] = {f"{name}_s": value for name, value in seconds.items()}
        out["counts"] = layer_counts(tracer, calls, runner)
        out["spans"] = tracer.span_records()
    elif args.mode == "counts":
        calls = dict(tracer.counts)
        out["counts"] = layer_counts(tracer, calls, runner)
        out["counts"].update({name: calls.get(name, 0) for name in (*layers.POLICY_METHODS.values(), *layers.ARCHITECTURE_METHODS.values())})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
