"""Check that the benchmark is steady: run it over many seeds and report spreads.

For each workload, runs ``perfbench/run.py --trace 0`` once per seed (each
run a fresh process, workloads alternated across seeds so a slow spell of
the host spreads over all of them) and reports, per end-to-end metric, the
median of the per-run values and the quartile spread (q3 - q1) / median
next to the metric's bound from ``BENCHMARK.json``::

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --seeds 1-5 --workload canonical

``--json FILE`` also writes every run's metrics and diagnostics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT, WORKLOADS


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--json", dest="json_path")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or list(WORKLOADS)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(args.seeds):
        for workload in workloads[i % len(workloads):] + workloads[: i % len(workloads)]:
            command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["diagnostics"] = json.loads(lines[-2])["diagnostics"]
            runs[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{workload:17s} seed {seed:3d} correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}", flush=True)

    worst = 0.0
    print(f"\n{'workload':17s} {'metric':12s} {'median':>9s} {'q1':>9s} {'q3':>9s} {'spread':>7s} {'bound':>6s} runs")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"{workload:17s} {metric['name']:12s} {median:9.4f} {q1:9.4f} {q3:9.4f} {spread:7.3f} {metric['bound']:6.2f} {len(values)}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.2f}")
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(runs, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
