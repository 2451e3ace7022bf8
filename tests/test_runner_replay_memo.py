"""One replay per capacity cell per ``ExperimentRunner.run``.

The ``waste``, ``max_job_scale`` and ``fault_waiting`` experiments of one run
read the same replay of each (architecture, TP size, trace) cell.  These
tests count the replays at the names the runner calls, check that sharing
them changes no row, that a run without ``waste`` keeps the streaming
replay, that forked workers split no cell, and that the memo does not
outlive the run.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.api.runner as runner
from repro.api import ArchitectureSpec, ExperimentRunner, ExperimentSpec, Scenario, TraceSpec
from repro.api.spec import CorrelatedFaultSpec
from repro.simulation.cluster import replay_intervals

CAPACITY_EXPERIMENTS = ("waste", "max_job_scale", "fault_waiting")
ARCHITECTURES = (
    ArchitectureSpec(name="InfiniteHBD(K=2)"),
    ArchitectureSpec(name="NVL-72"),
    ArchitectureSpec(name="TPUv4"),
)
TP_SIZES = (16, 32)


def capacity_spec(experiments=CAPACITY_EXPERIMENTS, num_seeds=1):
    return ExperimentSpec.of(
        scenario=Scenario(
            name="memo",
            trace=TraceSpec(days=20, seed=348),
            architectures=ARCHITECTURES,
            tp_sizes=TP_SIZES,
            n_nodes=288,
            job_gpus=512,
        ),
        experiments=experiments,
        options={"fault_waiting": {"job_scales": [256, 512, 1024]}},
        num_seeds=num_seeds,
        max_workers=1,
    )


def rows(results):
    """Result rows without provenance (which stamps the whole spec's digest)."""
    out = []
    for result in results:
        row = result.to_dict()
        row.pop("provenance", None)
        out.append(row)
    return out


@pytest.fixture
def replay_calls(monkeypatch):
    """Count the runner's replays, checking each runs inside an active memo.

    ``streaming`` records the ``streaming`` flag of every scalar replay and
    ``memo_sizes`` the memo's size when each replay starts.
    """
    calls = {"replay_intervals": 0, "replay_batch": 0, "streaming": [], "memo_sizes": []}
    for name in ("replay_intervals", "replay_batch"):
        original = getattr(runner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            assert runner._RUN_MEMO is not None
            calls[_name] += 1
            calls["memo_sizes"].append(len(runner._RUN_MEMO))
            if _name == "replay_intervals":
                calls["streaming"].append(kwargs.get("streaming", False))
            return _original(*args, **kwargs)

        monkeypatch.setattr(runner, name, counted)
    return calls


@pytest.mark.parametrize(
    "num_seeds, replayer", [(1, "replay_intervals"), (3, "replay_batch")]
)
def test_each_cell_replays_once(replay_calls, num_seeds, replayer):
    results = ExperimentRunner(capacity_spec(num_seeds=num_seeds)).run()
    assert len(results) == len(CAPACITY_EXPERIMENTS) * len(ARCHITECTURES) * len(TP_SIZES)
    assert replay_calls[replayer] == len(ARCHITECTURES) * len(TP_SIZES)
    other = "replay_batch" if replayer == "replay_intervals" else "replay_intervals"
    assert replay_calls[other] == 0


@pytest.mark.parametrize(
    "experiments, streaming",
    [
        (("max_job_scale", "fault_waiting"), True),
        (("fault_waiting", "waste"), False),
    ],
)
def test_streaming_replay_unless_waste_is_run(replay_calls, experiments, streaming):
    """Without ``waste`` no cell materialises its interval lists."""
    ExperimentRunner(capacity_spec(experiments)).run()
    assert replay_calls["streaming"] == [streaming] * (len(ARCHITECTURES) * len(TP_SIZES))


@pytest.mark.parametrize("experiment", CAPACITY_EXPERIMENTS)
@pytest.mark.parametrize("num_seeds", [1, 3])
def test_single_capacity_experiment_keeps_no_replay(replay_calls, experiment, num_seeds):
    """Nothing else in the run reads a cell, so no replay is held in the memo."""
    ExperimentRunner(capacity_spec((experiment,), num_seeds=num_seeds)).run()
    cells = len(ARCHITECTURES) * len(TP_SIZES)
    assert replay_calls["replay_intervals"] + replay_calls["replay_batch"] == cells
    # Multi-seed runs keep only the one stacked TraceBatch.
    assert set(replay_calls["memo_sizes"]) == {0 if num_seeds == 1 else 1}
    assert replay_calls["streaming"] == [experiment != "waste"] * (cells if num_seeds == 1 else 0)


@pytest.mark.parametrize("num_seeds", [1, 3])
def test_shared_replays_change_no_row(num_seeds):
    combined = ExperimentRunner(capacity_spec(num_seeds=num_seeds)).run()
    separate = []
    for experiment in CAPACITY_EXPERIMENTS:
        separate += rows(
            ExperimentRunner(capacity_spec((experiment,), num_seeds=num_seeds)).run()
        )
    assert rows(combined) == separate


def test_aggregates_match_a_streaming_replay():
    """max_job_scale / fault_waiting keep the streaming walk's summation order.

    The correlated trace has fractional interval bounds, where summing the
    materialised durations in a different order moves the last bits.
    """
    scales = [256, 512, 768, 1024, 1100, 1150]
    trace = TraceSpec(days=20, seed=351, correlated=CorrelatedFaultSpec(correlation=1.0))
    spec = ExperimentSpec.of(
        scenario=dataclasses.replace(capacity_spec().scenario, trace=trace),
        experiments=("max_job_scale", "fault_waiting"),
        options={"fault_waiting": {"job_scales": scales}},
        max_workers=1,
    )
    scenario = spec.scenario
    timeline = trace.build().interval_timeline(scenario.n_nodes)
    for result in ExperimentRunner(spec).run():
        arch_spec = next(a for a in ARCHITECTURES if a.build().name == result.architecture)
        stream = replay_intervals(
            arch_spec.build(), timeline, result.tp_size, streaming=True
        )
        if result.experiment == "max_job_scale":
            assert result.metric("max_job_scale") == stream.supported_job_scale(
                scenario.availability
            )
        else:
            assert list(result.series_dict["waiting_rates"]) == [
                stream.fault_waiting_rate(scale) for scale in scales
            ]


def test_forked_workers_give_identical_rows():
    spec = capacity_spec()
    serial = ExperimentRunner(spec, max_workers=1).run()
    parallel = ExperimentRunner(spec, max_workers=2).run()
    assert serial == parallel


@pytest.mark.parametrize("num_seeds, replayer", [(1, "replay_intervals"), (3, "replay_batch")])
def test_forked_workers_split_no_cell(monkeypatch, num_seeds, replayer):
    """6 cells on 4 workers: a task-by-task deal would replay cells twice."""
    context = runner._fork_context()
    if context is None:
        pytest.skip("fork is unavailable")
    replays = context.Value("i", 0)
    original = getattr(runner, replayer)

    def counted(*args, **kwargs):
        with replays.get_lock():
            replays.value += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, replayer, counted)
    spec = capacity_spec(num_seeds=num_seeds)
    parallel = ExperimentRunner(spec, max_workers=4).run()
    cells = len(ARCHITECTURES) * len(TP_SIZES)
    assert cells % 4 != 0
    assert replays.value == cells
    assert parallel == ExperimentRunner(spec, max_workers=1).run()


def test_cell_groups_keep_a_cells_experiments_together():
    tasks = ExperimentRunner(capacity_spec(CAPACITY_EXPERIMENTS + ("schedule",))).tasks()
    groups = runner._cell_groups(tasks)
    cells = len(ARCHITECTURES) * len(TP_SIZES)
    assert len(groups) == cells + cells  # one per capacity cell + one per schedule task
    assert sorted(i for group in groups for i in group) == list(range(len(tasks)))
    for group in groups:
        cell = {(json.dumps(tasks[i].get("arch"), sort_keys=True), tasks[i]["tp_size"]) for i in group}
        assert len(cell) == 1
        kinds = [tasks[i]["experiment"] for i in group]
        assert kinds in (list(CAPACITY_EXPERIMENTS), ["schedule"])


def test_memo_is_dropped_after_run():
    ExperimentRunner(capacity_spec()).run()
    assert runner._RUN_MEMO is None


def test_memo_is_dropped_after_failed_run(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("replay failed")

    monkeypatch.setattr(runner, "replay_intervals", broken)
    with pytest.raises(RuntimeError, match="replay failed"):
        ExperimentRunner(capacity_spec()).run()
    assert runner._RUN_MEMO is None


def test_capacity_run_does_not_import_networkx():
    script = (
        "import sys\n"
        "import repro.api\n"
        "from repro.api import ArchitectureSpec, ExperimentSpec, Scenario, TraceSpec\n"
        "spec = ExperimentSpec.of(scenario=Scenario(name='nx', trace=TraceSpec(days=5, seed=1),\n"
        "    architectures=(ArchitectureSpec(name='InfiniteHBD(K=2)'),), tp_sizes=(32,),\n"
        "    n_nodes=288), experiments=('waste', 'max_job_scale'), max_workers=1)\n"
        "repro.api.run_experiment(spec)\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
