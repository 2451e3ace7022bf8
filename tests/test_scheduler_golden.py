"""Golden-file regression snapshot for the cluster scheduler.

Every built-in policy, preemptive and non-preemptive, replays one small
faulty trace in each capacity mode (expected-value, packed, spread), plus a
mixed-TP workload, FIFO + backfill, and a preemptive mixed-TP SiP-Ring run
whose faulty rings drop out of the domain list while still held.  The full :class:`ClusterReport`
dicts (per-job timings included) are kept as checked-in JSON and must stay
**byte-stable**: the engine's bookkeeping (cached priority keys, the
ordered admission queue, skipped no-op boundaries) may only change how fast
a schedule is found, never which schedule it is.

Refresh intentionally with::

    PYTHONPATH=src python -m pytest tests/test_scheduler_golden.py --update-goldens
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.faults.trace import FaultEvent, FaultTrace
from repro.hbd import NVLHBD, SiPRingHBD
from repro.scheduler import (
    POLICY_NAMES,
    ClusterScheduler,
    WorkloadConfig,
    generate_workload,
    policy_by_name,
)
from repro.scheduler.jobs import JobSpec

GOLDEN = Path(__file__).parent / "goldens" / "scheduler_reports.json"

CAPACITY_MODES = (None, "packed", "spread")

#: Knobs that make the dynamic policies move on a small workload: gittins
#: demotes after 64 GPU-hours, so demotions and promotions both happen.
POLICY_KNOBS = {"gittins": {"threshold_gpu_hours": 64.0}, "lookahead": {"k": 3}}


def _timeline(seed, n_nodes, n_faults, lengths):
    """Hour-scale faults starting over the first week (seeded)."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, 150.0, size=n_faults)
    durations = rng.uniform(*lengths, size=n_faults)
    nodes = rng.integers(0, n_nodes, size=n_faults)
    events = [
        FaultEvent(int(node), float(start), float(start + duration))
        for node, start, duration in zip(nodes, starts, durations)
    ]
    trace = FaultTrace(n_nodes=n_nodes, duration_days=10, events=events, gpus_per_node=4)
    return trace.interval_timeline()


def _single_tp_jobs():
    return generate_workload(
        WorkloadConfig(
            n_jobs=12,
            seed=5,
            tp_size=8,
            max_gpus=128,
            mean_interarrival_hours=1.5,
            median_work_hours=15.0,
        )
    )


def _renamed(jobs, prefix):
    return [JobSpec.from_dict({**job.to_dict(), "name": prefix + job.name}) for job in jobs]


def _mixed_tp_jobs():
    small = generate_workload(
        WorkloadConfig(n_jobs=8, seed=6, tp_size=8, max_gpus=64, median_work_hours=15.0)
    )
    large = generate_workload(
        WorkloadConfig(
            n_jobs=4, seed=7, tp_size=32, max_gpus=128, median_tp_groups=2.0,
            mean_interarrival_hours=6.0, median_work_hours=15.0,
        )
    )
    return (*small, *_renamed(large, "tp32-"))


def _sipring_jobs():
    """TP 8 and TP 16 on SiP-Ring, whose rings differ per TP size."""
    small = generate_workload(
        WorkloadConfig(
            n_jobs=12, seed=6, tp_size=8, max_gpus=32,
            mean_interarrival_hours=3.0, median_work_hours=10.0,
        )
    )
    large = generate_workload(
        WorkloadConfig(
            n_jobs=8, seed=7, tp_size=16, max_gpus=48, median_tp_groups=1.5,
            mean_interarrival_hours=5.0, median_work_hours=10.0,
        )
    )
    return (*small, *_renamed(large, "tp16-"))


def _cases():
    """(case id, architecture, timeline, jobs, policy, preemptive, placement, backfill)."""
    nvl = NVLHBD(36, gpus_per_node=4)
    timeline = _timeline(7, n_nodes=48, n_faults=40, lengths=(2.0, 20.0))
    single = _single_tp_jobs()
    for name in POLICY_NAMES:
        for preemptive in (False, True):
            for placement in CAPACITY_MODES:
                mode = "preemptive" if preemptive else "non-preemptive"
                case = f"{name}/{mode}/{placement or 'expected'}"
                yield case, nvl, timeline, single, name, preemptive, placement, False
    mixed = _mixed_tp_jobs()
    case = "mixed-tp/gittins/preemptive/packed"
    yield case, nvl, timeline, mixed, "gittins", True, "packed", False
    yield "mixed-tp/fifo/backfill/packed", nvl, timeline, mixed, "fifo", False, "packed", True
    for placement in CAPACITY_MODES:
        case = f"fifo/backfill/{placement or 'expected'}"
        yield case, nvl, timeline, single, "fifo", False, placement, True
    # Rings that leave the domain list while their healthy nodes stay held
    # by a running job, re-placed preemptively across two TP sizes.
    sipring = SiPRingHBD(4)
    ring_timeline = _timeline(6, n_nodes=32, n_faults=16, lengths=(1.0, 30.0))
    ring_jobs = _sipring_jobs()
    for name in ("fifo", "optimizer"):
        case = f"sip-ring/mixed-tp/{name}/preemptive/packed"
        yield case, sipring, ring_timeline, ring_jobs, name, True, "packed", False


def scheduler_reports():
    reports = {}
    for case, arch, timeline, jobs, name, preemptive, placement, backfill in _cases():
        policy = policy_by_name(name, preemptive=preemptive, **POLICY_KNOBS.get(name, {}))
        report = ClusterScheduler(
            arch,
            timeline,
            jobs,
            policy=policy,
            placement=placement,
            backfill=backfill,
        ).run()
        reports[case] = report.to_dict()
    return reports


def _render(reports):
    return json.dumps(reports, indent=2) + "\n"


class TestSchedulerGolden:
    def test_reports_are_byte_stable(self, update_goldens):
        rendered = _render(scheduler_reports())
        if update_goldens:
            GOLDEN.write_text(rendered)
            return
        assert GOLDEN.is_file(), (
            f"golden {GOLDEN} is missing; generate it with "
            "pytest tests/test_scheduler_golden.py --update-goldens"
        )
        stored = json.loads(GOLDEN.read_text())
        fresh = json.loads(rendered)
        drifted = sorted(case for case in stored if fresh.get(case) != stored[case])
        assert not drifted, f"scheduler reports drifted for {drifted}"
        assert rendered == GOLDEN.read_text()

    def test_golden_is_non_degenerate(self):
        stored = json.loads(GOLDEN.read_text())
        assert len(stored) == len(POLICY_NAMES) * 2 * len(CAPACITY_MODES) + 7
        for case, report in stored.items():
            assert report["finished_jobs"] == report["n_jobs"], case
        placed = [r for r in stored.values() if r["placement"] is not None]
        # Faults really hit placed jobs, and preemptive policies really move
        # work, so the snapshot pins the hit and migration accounting too.
        assert any(r["jobs_killed"] > 0 for r in placed)
        assert any(
            sum(job["preemptions"] for job in r["jobs"]) > 0
            for r in stored.values()
            if r["preemptive"]
        )
        mixed = stored["mixed-tp/fifo/backfill/packed"]["jobs"]
        assert {job["tp_size"] for job in mixed} == {8, 32}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__]))
