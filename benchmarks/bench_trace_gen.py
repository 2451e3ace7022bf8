"""Synthetic fault-trace generation: array code vs the frozen scalar loop.

Every trace-driven experiment regenerates the Appendix A fault process
(348 days, 400 nodes, 8 GPUs each) for every trace seed, then converts it to
4-GPU nodes.  The generator used to keep the faulty set as a Python ``set``:
one ``rng.random()`` call per faulty node per day, ``np.setdiff1d`` to
rebuild the healthy set on most days, and a dict walk merging the per-day
sets into events.  The conversion flipped one scalar coin per (event, half)
and read the source mean from the full ``FaultTrace.statistics()``.

The current generator draws the same doubles in the same order as batched
draws over a boolean node mask, so its traces are bit-for-bit the old ones.
This benchmark keeps the old generator and conversion verbatim as the
reference (``reference_synthetic_trace`` / ``reference_convert``; the tier-1
tests import them too), generates and converts 16 seeds both ways, asserts
identical 8-GPU and 4-GPU event lists, and gates the array generator at
>= 3x the reference.  The conversion is timed and reported but not gated:
most of its time is the source trace's interval sweep, which both sides
share (``FaultTrace.statistics`` and ``interval_timeline`` run the same
sweep), so its ratio says little about the coin-flip code.
"""

import gc
import time

import numpy as np

from repro.faults.convert import conversion_probability, convert_trace_8gpu_to_4gpu
from repro.faults.synthetic import (
    SyntheticTraceConfig,
    _daily_ratio_targets,
    generate_synthetic_trace,
)
from repro.faults.trace import FaultEvent, FaultTrace, HOURS_PER_DAY

N_SEEDS = 16
N_NODES = 400
DURATION_DAYS = 348
BASE_SEED = 348
MIN_SPEEDUP = 3.0


# ---------------------------------------------------------------- reference
def reference_synthetic_trace(config=None):
    """The scalar per-day ``set`` loop the array generator replaced."""
    config = config if config is not None else SyntheticTraceConfig()
    rng = np.random.default_rng(config.seed)
    targets = _daily_ratio_targets(config, rng)
    persistence = 1.0 - 1.0 / config.mean_repair_days

    faulty = set()
    membership = []
    all_nodes = np.arange(config.n_nodes)

    for day in range(config.duration_days):
        target_count = int(round(targets[day] * config.n_nodes))
        target_count = min(target_count, config.n_nodes)

        # Nodes repaired today (those that do not persist).  Iterate the
        # fault set in sorted order so the node-to-draw pairing is a pure
        # function of the seed, not of set-insertion history.
        survivors = {
            node for node in sorted(faulty) if rng.random() < persistence
        }
        faulty = survivors

        if len(faulty) > target_count:
            # Repair surplus nodes (oldest-first is irrelevant for the
            # marginal statistics; repair uniformly at random).
            surplus = len(faulty) - target_count
            to_repair = rng.choice(sorted(faulty), size=surplus, replace=False)
            faulty.difference_update(int(n) for n in to_repair)
        elif len(faulty) < target_count:
            healthy = np.setdiff1d(all_nodes, np.fromiter(faulty, dtype=int, count=len(faulty)))
            needed = min(target_count - len(faulty), healthy.size)
            if needed > 0:
                new_faults = rng.choice(healthy, size=needed, replace=False)
                faulty.update(int(n) for n in new_faults)

        membership.append(set(faulty))

    events = _reference_membership_to_events(membership)
    return FaultTrace(
        n_nodes=config.n_nodes,
        duration_days=config.duration_days,
        events=events,
        gpus_per_node=config.gpus_per_node,
    )


def _reference_membership_to_events(membership):
    events = []
    open_since = {}
    for day, members in enumerate(membership):
        # Close events for nodes that recovered.
        for node in list(open_since):
            if node not in members:
                events.append(
                    FaultEvent(
                        node_id=node,
                        start_hour=open_since.pop(node) * HOURS_PER_DAY,
                        end_hour=day * HOURS_PER_DAY,
                    )
                )
        # Open events for newly faulty nodes.
        for node in members:
            if node not in open_since:
                open_since[node] = day
    horizon = len(membership)
    for node, start_day in open_since.items():
        events.append(
            FaultEvent(
                node_id=node,
                start_hour=start_day * HOURS_PER_DAY,
                end_hour=horizon * HOURS_PER_DAY,
            )
        )
    events.sort(key=lambda e: (e.start_hour, e.node_id))
    return events


def reference_convert(trace, seed=0, mean_node_fault_ratio=None):
    """The scalar per-(event, half) coin loop the array conversion replaced."""
    if trace.gpus_per_node != 8:
        raise ValueError("convert_trace_8gpu_to_4gpu expects an 8-GPU-node trace")
    rng = np.random.default_rng(seed)
    if mean_node_fault_ratio is None:
        mean_node_fault_ratio = trace.statistics().mean_fault_ratio
    p_convert = conversion_probability(
        source_node_ratio=mean_node_fault_ratio,
        source_gpus_per_node=8,
        target_gpus_per_node=4,
    )

    events = []
    for event in trace.events:
        for half in (0, 1):
            if rng.random() < p_convert:
                events.append(
                    FaultEvent(
                        node_id=event.node_id * 2 + half,
                        start_hour=event.start_hour,
                        end_hour=event.end_hour,
                    )
                )
    return FaultTrace(
        n_nodes=trace.n_nodes * 2,
        duration_days=trace.duration_days,
        events=events,
        gpus_per_node=4,
    )


# ---------------------------------------------------------------- benchmark
def event_rows(trace):
    """``(node_id, start_hour, end_hour)`` of every event, in trace order."""
    return [(e.node_id, e.start_hour, e.end_hour) for e in trace.events]


def _configs():
    return [
        SyntheticTraceConfig(n_nodes=N_NODES, duration_days=DURATION_DAYS, seed=BASE_SEED + i)
        for i in range(N_SEEDS)
    ]


def _generate(generate, configs):
    return [generate(config) for config in configs]


def _convert(convert, traces, configs):
    return [convert(trace, seed=config.seed) for trace, config in zip(traces, configs)]


def _seconds(fn, *args):
    """Wall time of one call; the output is dropped before the next."""
    gc.collect()
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _best_of_three(generate, convert, configs):
    """Fastest generation and conversion seconds over three passes.

    Each conversion pass gets freshly generated traces: the conversion
    sweeps its source trace once and caches the timeline on it.
    """
    generation = conversion = float("inf")
    for _ in range(3):
        generation = min(generation, _seconds(_generate, generate, configs))
        traces = _generate(generate, configs)
        conversion = min(conversion, _seconds(_convert, convert, traces, configs))
    return generation, conversion


def test_trace_gen_speedup(benchmark):
    # Imported here so the tier-1 tests can import the reference above
    # without the benchmark harness on the path.
    from conftest import emit_report, format_table

    configs = _configs()
    # Warm-up: one untimed pass each (numpy dispatch, first-call imports).
    for generate, convert in (
        (reference_synthetic_trace, reference_convert),
        (generate_synthetic_trace, convert_trace_8gpu_to_4gpu),
    ):
        _convert(convert, _generate(generate, configs[:1]), configs[:1])

    ref_generation, ref_conversion = _best_of_three(
        reference_synthetic_trace, reference_convert, configs
    )
    array_generation, array_conversion = _best_of_three(
        generate_synthetic_trace, convert_trace_8gpu_to_4gpu, configs
    )
    speedup = ref_generation / max(array_generation, 1e-9)
    conversion_speedup = ref_conversion / max(array_conversion, 1e-9)
    overall_speedup = (ref_generation + ref_conversion) / max(
        array_generation + array_conversion, 1e-9
    )

    benchmark.pedantic(
        _generate, rounds=1, iterations=1, args=(generate_synthetic_trace, configs)
    )

    ref_8gpu = _generate(reference_synthetic_trace, configs)
    got_8gpu = _generate(generate_synthetic_trace, configs)
    ref_4gpu = _convert(reference_convert, ref_8gpu, configs)
    got_4gpu = _convert(convert_trace_8gpu_to_4gpu, got_8gpu, configs)
    for reference, got in zip(ref_8gpu + ref_4gpu, got_8gpu + got_4gpu):
        assert event_rows(got) == event_rows(reference)

    text = format_table(
        ["metric", "value"],
        [
            ["seeds", N_SEEDS],
            ["trace nodes (8-GPU)", N_NODES],
            ["trace days", DURATION_DAYS],
            ["8-GPU events", sum(len(t) for t in got_8gpu)],
            ["4-GPU events", sum(len(t) for t in got_4gpu)],
            ["scalar generation (s)", ref_generation],
            ["array generation (s)", array_generation],
            ["generation speedup", speedup],
            ["scalar 8-to-4 conversion (s)", ref_conversion],
            ["array 8-to-4 conversion (s)", array_conversion],
            ["conversion speedup", conversion_speedup],
            ["generation + conversion speedup", overall_speedup],
        ],
    )
    emit_report(
        "trace_gen",
        text,
        gates=[
            (
                f"array trace generation >= {MIN_SPEEDUP:.0f}x scalar loop",
                speedup,
                MIN_SPEEDUP,
                ">=",
            ),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"array trace generation only {speedup:.1f}x faster than the scalar loop"
    )
