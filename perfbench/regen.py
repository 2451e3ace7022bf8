"""Regenerate ``perfbench/expected.json``: digests and count baselines.

Run this on purpose, in the same change as a program change that alters
results or traced counts, and say so in that change::

    python3 perfbench/regen.py                       # every workload
    python3 perfbench/regen.py --workload canonical  # one workload

Each workload runs untraced on every part of seed 0 (one digest per part)
and twice in the count pass on part 0.  The count passes must agree with
each other on every count and with the untraced run on the digest before
anything is written.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BENCH_DIR, WORKLOADS, run_worker
from worker import PARTS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    path = BENCH_DIR / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or WORKLOADS:
        plain = [run_worker(workload, 0, part, "plain", timeout=170.0) for part in range(PARTS)]
        counts = [run_worker(workload, 0, 0, "counts", timeout=170.0) for _ in range(2)]
        for result in plain + counts:
            if "error" in result or result["errors"]:
                print(f"{workload}: {result.get('error') or result['errors']}", file=sys.stderr)
                return 1
        if {r["digest"] for r in counts} != {plain[0]["digest"]} or counts[0]["counts"] != counts[1]["counts"]:
            print(f"{workload}: runs disagree; nothing written", file=sys.stderr)
            return 1
        expected[workload] = {"digests": [r["digest"] for r in plain], "counts": counts[0]["counts"]}
        print(f"{workload}: digests {[r['digest'][:12] for r in plain]}, {len(counts[0]['counts'])} counts")
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
