"""The scheduler's incremental event boundaries.

The engine caches runtime keys in an ordered admission queue, remembers
predicted priority crossings and skips placement walks that cannot change
anything.  These tests watch it from outside -- wrapping ``_place_plan``,
``_commit_plan``, the policy hooks and the selection entry points at test
time, the way ``perfbench/layers.py`` counts calls -- so ``src/`` carries
no counters:

* a rescan regression gate on a contended gittins/packed workload: failed
  placement plans stay within 3 per committed plan, and keys are evaluated
  far less often than once per boundary per job;
* a property test over all six policies in both capacity models: at every
  selection, the maintained admission queue equals a fresh sort of the
  ranked jobs by freshly evaluated keys -- same order, no stale key.
"""

import bisect
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.faults.trace import FaultEvent, FaultTrace
from repro.hbd import InfiniteHBDArchitecture, NVLHBD
from repro.scheduler import (
    POLICY_NAMES,
    ClusterScheduler,
    WorkloadConfig,
    generate_workload,
    policy_by_name,
)
from repro.scheduler import engine
from repro.scheduler.jobs import JobSpec
from repro.scheduler.policies import GittinsPolicy


def _count(monkeypatch, owner, name, counts, result_key=None):
    """Wrap ``owner.name`` with a call counter (and a None-result counter)."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        result = original(*args, **kwargs)
        if result_key is not None and result is None:
            counts[result_key] += 1
        return result

    monkeypatch.setattr(owner, name, wrapper)


class TestRescanRegression:
    """Failed placement rescans and per-boundary re-keying stay gone."""

    def _run(self):
        trace = generate_synthetic_trace(
            SyntheticTraceConfig(n_nodes=96, duration_days=30, gpus_per_node=4, seed=5)
        )
        jobs = generate_workload(
            WorkloadConfig(
                n_jobs=80,
                seed=2,
                tp_size=8,
                max_gpus=192,
                mean_interarrival_hours=1.0,
                median_work_hours=10.0,
            )
        )
        report = ClusterScheduler(
            InfiniteHBDArchitecture(k=2, gpus_per_node=4),
            trace.interval_timeline(),
            jobs,
            policy=policy_by_name("gittins", threshold_gpu_hours=1024.0),
            placement="packed",
        ).run()
        return trace, report

    def test_failed_plans_and_key_evaluations_stay_bounded(self, monkeypatch):
        counts = Counter()
        cls = engine.ClusterScheduler
        _count(monkeypatch, cls, "_place_plan", counts, result_key="failed_plans")
        _count(monkeypatch, cls, "_commit_plan", counts)
        _count(monkeypatch, GittinsPolicy, "runtime_key", counts)
        _count(monkeypatch, GittinsPolicy, "next_priority_change_hours", counts)
        trace, report = self._run()
        assert report.all_finished

        commits = counts["_commit_plan"]
        assert commits > 0
        # The ROADMAP's acceptance bound: at most 3 failed plans per commit.
        assert counts["failed_plans"] <= 3 * commits

        # Every arrival, completion and in-window fault-interval end is a
        # boundary, so counting those inside each job's stay lower-bounds
        # the (job, boundary) pairs a per-boundary re-key would evaluate.
        instants = sorted(
            {job.submit_hour for job in report.jobs}
            | {job.completion_hour for job in report.jobs}
            | {
                interval.end_hour
                for interval in trace.interval_timeline().intervals
                if interval.end_hour <= report.makespan_hours
            }
        )
        stays = sum(
            bisect.bisect_right(instants, job.completion_hour)
            - bisect.bisect_left(instants, job.submit_hour)
            for job in report.jobs
        )
        # Cached keys and remembered crossings: far below one evaluation
        # per job per boundary.
        assert counts["runtime_key"] <= stays / 4
        assert counts["next_priority_change_hours"] <= stays / 4


# --------------------------------------------------------------------------
# key-cache property
# --------------------------------------------------------------------------
N_NODES = 12


@st.composite
def scheduling_cases(draw):
    n_jobs = draw(st.integers(2, 9))
    jobs = []
    for i in range(n_jobs):
        tp_size = draw(st.sampled_from([4, 8]))
        groups = draw(st.integers(1, 4 if tp_size == 4 else 2))
        jobs.append(
            JobSpec(
                name=f"j{i}",
                gpus=groups * tp_size,
                tp_size=tp_size,
                work_hours=draw(st.floats(0.5, 30.0)),
                submit_hour=draw(st.floats(0.0, 40.0)),
                restart_overhead_hours=draw(st.sampled_from([0.0, 0.25])),
            )
        )
    events = []
    for _ in range(draw(st.integers(0, 5))):
        node = draw(st.integers(0, N_NODES - 1))
        start = draw(st.floats(0.0, 60.0))
        events.append(FaultEvent(node, start, start + draw(st.floats(0.5, 20.0))))
    return {
        "jobs": jobs,
        "events": events,
        "policy": draw(st.sampled_from(POLICY_NAMES)),
        "preemptive": draw(st.booleans()),
        "placement": draw(st.sampled_from([None, "packed", "spread"])),
        "backfill": draw(st.booleans()),
    }


class TestKeyCacheProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=scheduling_cases())
    def test_admission_order_matches_a_fresh_sort(self, case):
        created = []
        original_init = engine._JobRuntime.__init__

        def record(self, spec, sequence):
            original_init(self, spec, sequence)
            created.append(self)

        knobs = {"gittins": {"threshold_gpu_hours": 4.0, "starve_limit": 1.0}}
        policy = policy_by_name(
            case["policy"], preemptive=case["preemptive"], **knobs.get(case["policy"], {})
        )
        placed = case["placement"] is not None
        ranks_running = not placed or policy.preemptive
        checked = Counter()

        def fresh_entries():
            """(fresh key, sequence) of every job the engine should rank."""
            return sorted(
                (
                    policy.runtime_key(
                        rt.spec,
                        rt.remaining_work,
                        rt.sequence,
                        attained_hours=rt.productive,
                        waiting_hours=rt.waiting,
                        allocated=rt.allocated,
                    ),
                    rt.sequence,
                )
                for rt in created
                if rt.in_system and (ranks_running or not rt.allocated)
            )

        def checking(select):
            def wrapper(self, ranked, faults, t):
                # The cached keys, in queue order, are exactly the fresh
                # keys sorted: no key is stale and the order is right.
                assert [rt.key for rt in ranked] == fresh_entries(), (
                    f"stale admission queue at t={t}"
                )
                checked["selections"] += 1
                return select(self, ranked, faults, t)

            return wrapper

        cls = engine.ClusterScheduler
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine._JobRuntime, "__init__", record)
            patch.setattr(cls, "_select", checking(cls._select))
            patch.setattr(cls, "_select_placed", checking(cls._select_placed))
            trace = FaultTrace(
                n_nodes=N_NODES, duration_days=5, events=case["events"], gpus_per_node=4
            )
            report = ClusterScheduler(
                NVLHBD(16, gpus_per_node=4),
                trace.interval_timeline(),
                case["jobs"],
                policy=policy,
                placement=case["placement"],
                backfill=case["backfill"],
                horizon_hours=400.0,
            ).run()
        assert checked["selections"] > 0
        assert report.n_jobs == len(case["jobs"])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__]))
