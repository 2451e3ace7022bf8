"""End-to-end benchmark of the InfiniteHBD reproduction.

Runs one pinned workload (a committed ``ExperimentSpec`` under
``perfbench/specs/``) for about ``--seconds`` seconds and prints, as the
last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every iteration is a fresh ``python3 perfbench/worker.py`` process, serial
(``max_workers: 1``, ``cache: "off"``), with a fixed ``PYTHONHASHSEED``:
the same cold start a ``repro run --spec`` user gets.  ``--trace 0``
reports the end-to-end metrics as medians over the iterations; ``--trace
1`` runs a span pass and two count passes (see ``perfbench/layers.py``)
plus untraced iterations for the tracing overhead, and reports the
per-layer metrics.  The metric names and units come from
``BENCHMARK.json``.

Every iteration's ``ResultSet`` digest must repeat across the run, and at
``--seed 0`` must equal the committed digest in
``perfbench/expected.json``; the traced counts must repeat across the two
count passes and, at seed 0, equal the committed baseline.  A host-speed
probe runs before and after every iteration and is printed, ungated, on
the line before the result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload canonical --seed 0 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import layers
from worker import PARTS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("canonical", "sched_expected", "capacity_exact", "capacity_batched")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

#: Fewest untraced iterations a run takes, whatever ``--seconds`` says:
#: every part twice, so each part's digest is seen to repeat.
MIN_ITERATIONS = 2 * PARTS
MIN_TRACED_BASELINE = 2
#: Hard stop for starting new work, below the 180 s a run may take.
DEADLINE_S = 150.0


def host_probe() -> dict[str, float]:
    """Seconds for a fixed pure-Python loop and a fixed numpy loop."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    python_s = time.perf_counter() - start
    values = np.arange(100_000, dtype=np.float64)[::-1].copy()
    start = time.perf_counter()
    for _ in range(20):
        np.cumsum(np.sort(values))
    return {"python_s": python_s, "numpy_s": time.perf_counter() - start}


def run_worker(workload: str, seed: int, part: int, mode: str, timeout: float) -> dict[str, Any]:
    """One fresh worker process; ``{"error": ...}`` when it fails."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed), "--part", str(part), "--pass", mode]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} pass timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


class Run:
    """The iterations of one benchmark run and their checks."""

    def __init__(self, workload: str, seed: int, seconds: float, expected: dict[str, Any]) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.expected = expected
        self.start = time.perf_counter()
        self.results: list[dict[str, Any]] = []
        #: Failed operations: index into ``results`` -> why.
        self.failures: dict[int, str] = {}
        self.durations: dict[str, list[float]] = {}
        self.probes = [host_probe()]

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def iterate(self, mode: str, part: int = 0) -> dict[str, Any]:
        began = time.perf_counter()
        result = run_worker(self.workload, self.seed, part, mode, max(10.0, DEADLINE_S - self.elapsed()))
        self.probes.append(host_probe())
        self.durations.setdefault(mode, []).append(time.perf_counter() - began)
        result["pass"] = mode
        result["part"] = part
        self.results.append(result)
        self.check(result)
        return result

    def fail(self, result: dict[str, Any], why: str) -> None:
        index = next(i for i, r in enumerate(self.results) if r is result)
        self.failures.setdefault(index, f"{result['pass']} pass: {why}")

    def check(self, result: dict[str, Any]) -> None:
        """A failed operation: an exception, a broken invariant, a wrong digest."""
        if "error" in result:
            self.fail(result, result["error"])
        elif result["errors"]:
            self.fail(result, f"broken invariants {result['errors']}")
        elif result["digest"] != next(r["digest"] for r in self.results if "digest" in r and r["part"] == result["part"]):
            self.fail(result, "digest differs from the first iteration's on this part")
        elif self.seed == 0 and result["digest"] != self.expected["digests"][result["part"]]:
            self.fail(result, f"digest {result['digest'][:12]} != committed {self.expected['digests'][result['part']][:12]}")

    def has_time_for_another(self, done: int, minimum: int) -> bool:
        typical = statistics.median(self.durations["plain"])
        if self.elapsed() + typical > DEADLINE_S:
            return False
        return done < minimum or self.elapsed() + typical <= self.seconds

    def timed(self, minimum: int, parts: int) -> list[dict[str, Any]]:
        """Untraced iterations over the parts in turn until ``--seconds``."""
        plain: list[dict[str, Any]] = []
        while not plain or self.has_time_for_another(len(plain), minimum):
            plain.append(self.iterate("plain", len(plain) % parts))
        return [r for r in plain if "error" not in r]

    def diagnostics(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "elapsed_s": self.elapsed(),
            "iterations": [
                {k: r.get(k) for k in ("pass", "part", "wall_s", "setup_s", "peak_rss_mb", "digest", "error")}
                for r in self.results
            ],
            "host_probe": self.probes,
            "failures": list(self.failures.values()),
        }


def end_to_end(run: Run) -> tuple[dict[str, float], dict[str, Any]]:
    plain = run.timed(MIN_ITERATIONS, PARTS)
    if not plain:
        return {}, {}
    spread = {name: quartiles([r[name] for r in plain]) for name in END_TO_END}
    return {name: spread[name]["median"] for name in END_TO_END}, {"n": len(plain), "quartiles": spread}


def per_layer(run: Run) -> tuple[dict[str, float], dict[str, Any]]:
    spans = run.iterate("spans")
    counts = [run.iterate("counts"), run.iterate("counts")]
    plain = run.timed(MIN_TRACED_BASELINE, 1)
    if "error" in spans or any("error" in c for c in counts) or not plain:
        return {}, {}

    if counts[1]["counts"] != counts[0]["counts"]:
        run.fail(counts[1], "counts differ from the first count pass")
    if run.seed == 0 and counts[0]["counts"] != run.expected["counts"]:
        diff = {k: (v, run.expected["counts"].get(k)) for k, v in counts[0]["counts"].items() if run.expected["counts"].get(k) != v}
        run.fail(counts[0], f"counts differ from the committed baseline (got, committed): {diff}")
    coarse = {k: v for k, v in counts[0]["counts"].items() if k in spans["counts"]}
    if coarse != spans["counts"]:
        run.fail(spans, "counts differ from the count pass")
    traced_wall = spans["traced_wall_s"]
    self_sum = sum(spans["self_s"].values())
    if abs(self_sum - traced_wall) > 1e-6:
        run.fail(spans, f"layer self times sum to {self_sum} s, traced wall is {traced_wall} s")
    notes: dict[str, Any] = {"traced_wall_s": traced_wall, "self_time_sum_s": self_sum}

    values: dict[str, float] = dict(counts[0]["counts"])
    workers = [r for r in run.results if "error" not in r]
    values["api.spec_load_s"] = statistics.median(r["spec_load_s"] for r in workers)
    values["runner.self_s"] = spans["self_s"][f"{layers.ROOT_SPAN}_s"]
    for layer in layers.LAYERS:
        values[f"{layer}_s"] = spans["self_s"].get(f"{layer}_s", 0.0)
    jobs = values["scheduler.jobs"]
    values["scheduler.key_evals_per_job"] = values["scheduler.runtime_key.calls"] / jobs if jobs else 0.0
    untraced = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead_s"] = traced_wall - untraced
    notes["untraced_median_s"] = untraced

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{run.workload}-seed{run.seed}.json").write_text(json.dumps(spans["spans"]))
    return values, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the InfiniteHBD reproduction.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "api" / "runner.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH_DIR / "expected.json").read_text())[args.workload]
    run = Run(args.workload, args.seed, args.seconds, expected)
    if args.trace:
        values, notes = per_layer(run)
        declared = bench["per_layer"]
    else:
        values, notes = end_to_end(run)
        declared = bench["end_to_end"]

    print(json.dumps({"diagnostics": {**run.diagnostics(), **notes}}))
    if not values:
        print(f"perfbench: no metrics; failed passes: {list(run.failures.values())}", file=sys.stderr)
        return 1
    for failure in run.failures.values():
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    failed = len(run.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
