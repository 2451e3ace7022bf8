"""Tests for incremental (delta) breakdown replay and streaming aggregation.

The correctness contract of the delta path is *bit-for-bit* equality: a
sweep-line walk advancing one :meth:`~repro.hbd.base.HBDArchitecture.
breakdown_delta` state per interval must produce exactly the series the
memoized full-recompute replay produces, which in turn matches the seed's
grid scans (pinned in test_fault_timeline.py).  Streaming aggregation is
held to the same standard where float summation order allows (integer-time
traces) and to tight tolerances otherwise.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cdf import StreamingDistribution, empirical_cdf, weighted_quantile
from repro.faults.timeline import FaultInterval, IntervalStream, IntervalTimeline
from repro.faults.trace import FaultEvent, FaultTrace, HOURS_PER_DAY
from repro.hbd import (
    BigSwitchHBD,
    InfiniteHBDArchitecture,
    NVLHBD,
    SiPRingHBD,
    TPUv4HBD,
)
from repro.simulation.cluster import (
    IntervalSeries,
    StreamingIntervalSeries,
    replay_intervals,
    replay_timeline,
    FaultTimeline,
)

N_NODES = 24
DURATION_DAYS = 4
DURATION_HOURS = DURATION_DAYS * HOURS_PER_DAY

#: The delta-capable line-up plus the fallback architecture, all at R=4.
ARCHITECTURES = [
    SiPRingHBD(gpus_per_node=4),
    TPUv4HBD(gpus_per_node=4, cube_size=16),
    NVLHBD(36, gpus_per_node=4),
    NVLHBD(8, gpus_per_node=4),
    BigSwitchHBD(gpus_per_node=4),
    InfiniteHBDArchitecture(k=2, gpus_per_node=4),
]

float_event = st.tuples(
    st.integers(min_value=0, max_value=N_NODES - 1),
    st.floats(min_value=-10.0, max_value=DURATION_HOURS + 10.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False),
)

int_event = st.tuples(
    st.integers(min_value=0, max_value=N_NODES - 1),
    st.integers(min_value=0, max_value=int(DURATION_HOURS) - 1),
    st.integers(min_value=1, max_value=40),
)


def walk_infinitehbd(arch, n, tp_size, faults, moves):
    """Toggle each move's nodes in one advance.

    After every advance, compare the usable GPUs with the topology and the
    maintained breakpoint index with one rebuilt from the fault set.
    """
    faults = set(faults)
    state = arch.delta_state(n, faults, tp_size)
    assert state.usable == arch.usable_gpus(n, faults, tp_size)
    for nodes in moves:
        added = {node for node in nodes if node not in faults}
        removed = nodes - added
        faults = (faults | added) - removed
        breakdown, state = arch.breakdown_delta(
            state, added_faults=added, removed_faults=removed
        )
        assert breakdown.usable_gpus == arch.usable_gpus(n, faults, tp_size)
        assert state.faults == frozenset(faults)
        rebuilt = arch.delta_state(n, faults, tp_size).aux
        assert state.aux.runs == rebuilt.runs
        assert state.aux.starts == rebuilt.starts
        assert state.aux.sorted == rebuilt.sorted
        # The index holds every run of >= k faults; the topology's Appendix C
        # count leaves out runs at the ends of a line.
        inner = [
            start for start, length in rebuilt.runs.items()
            if arch.ring or (start > 0 and start + length < n)
        ]
        if n - len(faults) >= 2:
            assert len(inner) == arch.breakpoints(n, faults)


def build_trace(raw_events):
    events = [
        FaultEvent(
            node_id=node,
            start_hour=max(0.0, float(start)),
            end_hour=max(0.0, float(start)) + float(length),
        )
        for node, start, length in raw_events
    ]
    return FaultTrace(
        n_nodes=N_NODES, duration_days=DURATION_DAYS, events=events, gpus_per_node=4
    )


# --------------------------------------------------------------------------
# breakdown_delta against the ground-truth full breakdown
# --------------------------------------------------------------------------
class TestBreakdownDelta:
    @pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda a: a.name)
    @pytest.mark.parametrize("tp_size", [4, 8, 16, 32])
    def test_random_flip_walk_matches_full_breakdown(self, arch, tp_size):
        import random

        rng = random.Random(hash((arch.name, tp_size)) & 0xFFFF)
        faults = set(rng.sample(range(N_NODES), 4))
        state = arch.delta_state(N_NODES, faults, tp_size)
        breakdown, state = arch.breakdown_delta(state)
        assert breakdown == arch.breakdown(N_NODES, faults, tp_size)
        for _ in range(300):
            node = rng.randrange(N_NODES)
            if node in faults:
                faults.discard(node)
                breakdown, state = arch.breakdown_delta(state, removed_faults=[node])
            else:
                faults.add(node)
                breakdown, state = arch.breakdown_delta(state, added_faults=[node])
            assert breakdown == arch.breakdown(N_NODES, faults, tp_size)
            assert state.faults == frozenset(faults)

    def test_multi_node_deltas(self):
        arch = NVLHBD(8, gpus_per_node=4)
        state = arch.delta_state(N_NODES, {0, 1, 5}, 8)
        breakdown, state = arch.breakdown_delta(
            state, added_faults={2, 9, 10}, removed_faults={0, 5}
        )
        assert state.faults == frozenset({1, 2, 9, 10})
        assert breakdown == arch.breakdown(N_NODES, {1, 2, 9, 10}, 8)

    def test_out_of_range_nodes_are_ignored(self):
        arch = SiPRingHBD(gpus_per_node=4)
        state = arch.delta_state(N_NODES, {3}, 8)
        breakdown, state = arch.breakdown_delta(
            state, added_faults={-1, N_NODES, N_NODES + 7}
        )
        assert state.faults == frozenset({3})
        assert breakdown == arch.breakdown(N_NODES, {3}, 8)

    def test_double_add_raises(self):
        arch = NVLHBD(8, gpus_per_node=4)
        state = arch.delta_state(N_NODES, {3}, 8)
        with pytest.raises(ValueError, match="already faulty"):
            arch.breakdown_delta(state, added_faults={3})

    def test_remove_healthy_raises(self):
        arch = NVLHBD(8, gpus_per_node=4)
        state = arch.delta_state(N_NODES, {3}, 8)
        with pytest.raises(ValueError, match="not faulty"):
            arch.breakdown_delta(state, removed_faults={4})

    def test_add_and_remove_same_node_raises(self):
        arch = NVLHBD(8, gpus_per_node=4)
        state = arch.delta_state(N_NODES, {3}, 8)
        with pytest.raises(ValueError, match="both added and removed"):
            arch.breakdown_delta(state, added_faults={6}, removed_faults={6})

    def test_fallback_architecture_is_total(self):
        # Big-Switch is the only remaining full-recompute fallback: its
        # capacity is a single global remainder with no local structure.
        arch = BigSwitchHBD(4)
        assert not arch.supports_delta
        state = arch.delta_state(N_NODES, {1, 2}, 8)
        assert state.aux is None
        breakdown, state = arch.breakdown_delta(state, added_faults={7})
        assert breakdown == arch.breakdown(N_NODES, {1, 2, 7}, 8)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=720),
        k=st.integers(min_value=1, max_value=4),
        ring=st.booleans(),
        tp_index=st.integers(0, 3),
        density=st.floats(min_value=0.0, max_value=1.0),
        converted=st.booleans(),
        rng=st.randoms(use_true_random=False),
        flips=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1.0), st.booleans()),
            max_size=60,
        ),
    )
    def test_infinitehbd_local_update_matches_topology(
        self, n, k, ring, tp_index, density, converted, rng, flips
    ):
        """The K-hop local update is bit-for-bit the topology recompute.

        Every flip only touches the segment(s) within reach of the node
        (bounded by the nearest breakpoints), so this walk stresses run
        merges/splits, wrap-around runs and the no-breakpoint single-segment
        ring across K, ring/line mode, TP sizes and fault densities up to a
        fully faulty cluster.  Paired flips toggle two adjacent nodes in one
        advance, as one 8-GPU node fault does after the 4-GPU conversion;
        ``converted`` draws the initial faults as such aligned pairs.
        """
        tp_size = (2, 4, 8, 16)[tp_index]
        faults = {node for node in range(n) if rng.random() < density}
        if converted:
            faults = {pair + half for pair in {f - f % 2 for f in faults}
                      for half in (0, 1) if pair + half < n}
        moves = []
        for position, paired in flips:
            node = min(int(position * n), n - 1)
            pair = {node, (node + 1) % n} if paired and (ring or node + 1 < n) else {node}
            moves.append(pair)
        walk_infinitehbd(
            InfiniteHBDArchitecture(k=k, gpus_per_node=4, ring=ring),
            n, tp_size, faults, moves,
        )

    @pytest.mark.parametrize(
        "n, k, ring, initial, moves",
        [
            # all but one node faulty, then fully faulty, then back
            (12, 2, True, set(range(1, 12)), [{0}, {0}, {5}, {0}, {5}]),
            (12, 3, True, set(range(12)), [{7}, {8}, {7}, {8}, {0, 11}]),
            # a breakpoint run wrapping n - 1 -> 0, grown and split
            (20, 2, True, {18, 19, 0, 1}, [{2}, {19}, {17}, {19}, {0}, {10, 11}]),
            # runs at the two ends of a line
            (16, 2, False, {0, 1, 2, 14, 15}, [{3}, {13}, {1}, {15}, {0}, {7, 8}]),
            (16, 3, False, set(range(16)), [{0}, {15}, {8}, {0}, {15}]),
            # k = 1: every fault is a breakpoint
            (10, 1, True, {3}, [{4}, {9}, {0}, {3}, {4}, {5, 6}]),
            (10, 1, False, {0, 9}, [{1}, {8}, {0}, {4, 5}, {9}]),
            # a single node
            (1, 2, True, set(), [{0}, {0}]),
        ],
    )
    @pytest.mark.parametrize("tp_size", [4, 8, 16])
    def test_infinitehbd_edge_cases(self, n, k, ring, initial, moves, tp_size):
        walk_infinitehbd(
            InfiniteHBDArchitecture(k=k, gpus_per_node=4, ring=ring),
            n, tp_size, initial, moves,
        )

    def test_infeasible_tp_stays_zero(self):
        arch = NVLHBD(8, gpus_per_node=4)  # tp 16 > hbd_size 8
        state = arch.delta_state(N_NODES, set(), 16)
        breakdown, state = arch.breakdown_delta(state, added_faults={0})
        assert breakdown.usable_gpus == 0
        breakdown, state = arch.breakdown_delta(state, removed_faults={0})
        assert breakdown.usable_gpus == 0


# --------------------------------------------------------------------------
# replay equality: delta walk == memoized full recompute == seed grid path
# --------------------------------------------------------------------------
class TestDeltaReplayEquality:
    @settings(max_examples=40, deadline=None)
    @given(raw=st.lists(float_event, max_size=30), tp_index=st.integers(0, 2))
    def test_delta_replay_bit_for_bit(self, raw, tp_index):
        tp_size = (4, 8, 16)[tp_index]
        trace = build_trace(raw)
        timeline = trace.interval_timeline()
        for arch in ARCHITECTURES:
            full = replay_intervals(arch, timeline, tp_size, incremental=False)
            delta = replay_intervals(arch, timeline, tp_size, incremental=True)
            assert delta == full

    @settings(max_examples=20, deadline=None)
    @given(raw=st.lists(float_event, max_size=20))
    def test_delta_replay_matches_seed_grid_path(self, raw):
        """Grid samples are resampled intervals, so the three paths agree."""
        trace = build_trace(raw)
        timeline = trace.interval_timeline()
        arch = NVLHBD(8, gpus_per_node=4)
        delta = replay_intervals(arch, timeline, 8, incremental=True)
        grid = replay_timeline(
            arch, FaultTimeline.from_trace(trace, sample_interval_hours=1.0), 8
        )
        # Each grid sample falls inside exactly one interval; its replayed
        # value must equal that interval's delta-replayed value.
        index = 0
        for t_days, waste in zip(grid.times_days, grid.waste_ratios):
            t = t_days * HOURS_PER_DAY
            while index < len(delta) - 1 and delta.ends_hours[index] <= t:
                index += 1
            assert waste == delta.waste_ratios[index]

    def test_auto_mode_picks_delta_only_when_supported(self):
        trace = build_trace([(0, 10.0, 5.0), (7, 30.0, 2.0)])
        timeline = trace.interval_timeline()
        for arch in ARCHITECTURES:
            auto = replay_intervals(arch, timeline, 8)
            full = replay_intervals(arch, timeline, 8, incremental=False)
            assert auto == full


# --------------------------------------------------------------------------
# streaming aggregation
# --------------------------------------------------------------------------
def assert_streaming_matches(streaming, materialised, exact):
    approx = (lambda x: x) if exact else (lambda x: pytest.approx(x, rel=1e-9, abs=1e-12))
    assert len(streaming) == len(materialised)
    assert streaming.total_gpus == materialised.total_gpus
    assert streaming.min_usable_gpus == materialised.min_usable_gpus
    assert streaming.max_waste_ratio == materialised.max_waste_ratio
    assert streaming.mean_waste_ratio == approx(materialised.mean_waste_ratio)
    for q in (0.0, 0.5, 0.9, 0.99, 1.0):
        assert streaming.waste_ratio_quantile(q) == approx(
            materialised.waste_ratio_quantile(q)
        )
    for job_gpus in (1, 16, 40, 96):
        assert streaming.fault_waiting_rate(job_gpus) == approx(
            materialised.fault_waiting_rate(job_gpus)
        )
    assert streaming.supported_job_scale(1.0) == materialised.supported_job_scale(1.0)
    if exact:
        for availability in (0.5, 0.9, 0.99):
            assert streaming.supported_job_scale(availability) == \
                materialised.supported_job_scale(availability)
    # The streaming CDF collapses duplicate values; as a step function it is
    # the materialised CDF evaluated at the last duplicate of each value.
    values, cumulative = streaming.waste_ratio_cdf()
    m_values, m_cumulative = materialised.waste_ratio_cdf()
    expected = {}
    for v, c in zip(m_values, m_cumulative):
        expected[v] = c  # later (higher-cumulative) duplicates win
    assert values == sorted(expected)
    for v, c in zip(values, cumulative):
        assert c == approx(expected[v])


class TestStreamingAggregation:
    @settings(max_examples=40, deadline=None)
    @given(raw=st.lists(int_event, max_size=30), tp_index=st.integers(0, 2))
    def test_integer_time_traces_match_exactly(self, raw, tp_index):
        """Integer durations sum exactly, so grouping loses nothing at all."""
        tp_size = (4, 8, 16)[tp_index]
        trace = build_trace(raw)
        timeline = trace.interval_timeline()
        for arch in (NVLHBD(8, gpus_per_node=4), SiPRingHBD(gpus_per_node=4)):
            materialised = replay_intervals(arch, timeline, tp_size)
            streaming = replay_intervals(arch, timeline, tp_size, streaming=True)
            assert_streaming_matches(streaming, materialised, exact=True)

    @settings(max_examples=40, deadline=None)
    @given(raw=st.lists(float_event, max_size=30))
    def test_float_time_traces_match_within_tolerance(self, raw):
        trace = build_trace(raw)
        timeline = trace.interval_timeline()
        for arch in (NVLHBD(8, gpus_per_node=4), BigSwitchHBD(gpus_per_node=4)):
            materialised = replay_intervals(arch, timeline, 8)
            streaming = replay_intervals(arch, timeline, 8, streaming=True)
            assert_streaming_matches(streaming, materialised, exact=False)

    def test_streaming_works_for_both_replay_modes(self):
        trace = build_trace([(0, 5.0, 20.0), (3, 40.0, 8.0), (9, 41.0, 3.0)])
        timeline = trace.interval_timeline()
        arch = NVLHBD(8, gpus_per_node=4)
        s_delta = replay_intervals(arch, timeline, 8, incremental=True, streaming=True)
        s_full = replay_intervals(arch, timeline, 8, incremental=False, streaming=True)
        assert s_delta.mean_waste_ratio == s_full.mean_waste_ratio
        assert s_delta.waste_ratio_cdf() == s_full.waste_ratio_cdf()

    def test_empty_timeline(self):
        timeline = IntervalStream(iter(()), n_nodes=N_NODES, gpus_per_node=4)
        series = replay_intervals(NVLHBD(8, gpus_per_node=4), timeline, 8, streaming=True)
        assert len(series) == 0
        assert series.total_hours == 0.0
        assert series.mean_waste_ratio == 0.0
        assert series.supported_job_scale(1.0) == 0


# --------------------------------------------------------------------------
# generator-backed replay: the interval list is never materialised
# --------------------------------------------------------------------------
class TestGeneratorBackedReplay:
    N_INTERVALS = 100_000

    def _interval_generator(self):
        """A square-wave fault process far longer than anyone should hold.

        Yields intervals lazily; alternating halves have node 0 faulty.  A
        materialising replay would build five 100k-entry lists; the
        streaming replay folds each interval into O(distinct levels)
        accumulators as it goes.
        """
        for i in range(self.N_INTERVALS):
            nodes = frozenset({0}) if i % 2 else frozenset()
            yield FaultInterval(float(i), float(i + 1), nodes)

    def test_streaming_replay_of_generator_timeline(self):
        arch = NVLHBD(8, gpus_per_node=4)
        timeline = IntervalStream(
            intervals=self._interval_generator(), n_nodes=N_NODES, gpus_per_node=4
        )
        series = replay_intervals(arch, timeline, 8, streaming=True)
        assert isinstance(series, StreamingIntervalSeries)
        assert len(series) == self.N_INTERVALS
        # Aggregates-only by construction: no per-interval storage exists.
        assert not hasattr(series, "waste_ratios")
        assert not hasattr(series, "starts_hours")
        assert series.waste.n_values == 2
        assert series.usable.n_values == 2
        # Closed form: node 0 faulty half the time; on NVL-8 one faulty
        # 4-GPU node wastes the other 4 GPUs of its unit at TP-8.
        healthy = arch.breakdown(N_NODES, (), 8)
        degraded = arch.breakdown(N_NODES, {0}, 8)
        assert series.min_usable_gpus == degraded.usable_gpus
        expected_mean = (healthy.waste_ratio + degraded.waste_ratio) / 2.0
        assert series.mean_waste_ratio == pytest.approx(expected_mean, rel=1e-12)
        assert series.fault_waiting_rate(healthy.usable_gpus) == pytest.approx(
            0.5, rel=1e-12
        )
        assert series.total_hours == float(self.N_INTERVALS)
        # The generator is exhausted -- proof the walk consumed it lazily
        # rather than snapshotting it up front.
        assert next(iter(timeline.intervals), None) is None


# --------------------------------------------------------------------------
# scheduler capacity queries ride the same delta states
# --------------------------------------------------------------------------
class TestSchedulerDeltaCapacity:
    @settings(max_examples=15, deadline=None)
    @given(raw=st.lists(float_event, max_size=20))
    def test_scheduler_report_identical_with_and_without_delta(self, raw):
        from repro.scheduler import ClusterScheduler, JobSpec

        trace = build_trace(raw)
        timeline = trace.interval_timeline()
        jobs = [
            JobSpec(name="a", gpus=32, tp_size=8, work_hours=30.0),
            JobSpec(name="b", gpus=16, tp_size=8, work_hours=10.0, submit_hour=5.0),
            JobSpec(name="c", gpus=64, tp_size=8, work_hours=4.0, submit_hour=6.0),
        ]

        class _NoDeltaNVL(NVLHBD):
            supports_delta = False

        fast = ClusterScheduler(
            NVLHBD(8, gpus_per_node=4), timeline, jobs,
            horizon_hours=DURATION_HOURS,
        ).run()
        slow = ClusterScheduler(
            _NoDeltaNVL(8, gpus_per_node=4), timeline, jobs,
            horizon_hours=DURATION_HOURS,
        ).run()
        assert fast == slow


# --------------------------------------------------------------------------
# the StreamingDistribution accumulator itself
# --------------------------------------------------------------------------
class TestStreamingDistribution:
    def test_empty(self):
        dist = StreamingDistribution()
        assert dist.mean() == 0.0
        assert dist.min() == 0.0 and dist.max() == 0.0
        assert dist.cdf() == ([], [])
        assert len(dist) == 0 and dist.n_values == 0

    def test_rejects_negative_weight(self):
        dist = StreamingDistribution()
        with pytest.raises(ValueError):
            dist.add(1.0, -0.5)

    def test_zero_weight_value_still_counts_as_level(self):
        dist = StreamingDistribution()
        dist.add(5.0, 0.0)
        dist.add(7.0, 2.0)
        assert dist.min() == 5.0
        assert dist.mean() == 7.0

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=100),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_materialised_helpers(self, pairs):
        """Integer values/weights: exact agreement with the list-based helpers."""
        values = [float(v) for v, _ in pairs]
        weights = [float(w) for _, w in pairs]
        dist = StreamingDistribution()
        for v, w in zip(values, weights):
            dist.add(v, w)
        assert dist.total_weight == sum(weights)
        if sum(weights) > 0:
            assert dist.mean() == pytest.approx(
                sum(v * w for v, w in zip(values, weights)) / sum(weights)
            )
            for q in (0.0, 0.25, 0.5, 0.9, 1.0):
                assert dist.quantile(q) == weighted_quantile(values, weights, q)
            sorted_distinct, cumulative = dist.cdf()
            ref_values, ref_cumulative = empirical_cdf(values, weights)
            ref_last = {v: c for v, c in zip(ref_values, ref_cumulative)}
            assert sorted_distinct == sorted(ref_last)
            for v, c in zip(sorted_distinct, cumulative):
                assert c == pytest.approx(ref_last[v])
        threshold = 4.5
        assert dist.weight_below(threshold) == sum(
            w for v, w in zip(values, weights) if v < threshold
        )
