"""Tests for the synthetic fault-trace generator (Appendix A calibration)."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.api.spec import TraceSpec
from repro.faults import synthetic
from repro.faults.convert import convert_trace_8gpu_to_4gpu
from repro.faults.synthetic import (
    SyntheticTraceConfig,
    _lognormal_sigma,
    generate_synthetic_trace,
)
from repro.faults.trace import FaultTrace, HOURS_PER_DAY


class TestConfigValidation:
    def test_defaults_match_paper(self):
        config = SyntheticTraceConfig()
        assert config.duration_days == 348
        assert config.gpus_per_node == 8
        assert config.mean_fault_ratio == pytest.approx(0.0233)
        assert config.p99_fault_ratio == pytest.approx(0.0722)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(n_nodes=0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(mean_fault_ratio=0.0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(mean_fault_ratio=0.05, p99_fault_ratio=0.01)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(ar1_coefficient=1.0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(mean_repair_days=0.5)


class TestLognormalSigma:
    def test_matches_target_ratio(self):
        sigma = _lognormal_sigma(0.0233, 0.0722)
        import math
        ratio = math.exp(2.326347874 * sigma - sigma * sigma / 2.0)
        assert ratio == pytest.approx(0.0722 / 0.0233, rel=1e-3)

    def test_degenerate_ratio(self):
        assert _lognormal_sigma(0.02, 0.02) == 0.0


class TestGeneratedTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_synthetic_trace(SyntheticTraceConfig(seed=42))

    def test_shape(self, trace):
        assert trace.n_nodes == 400
        assert trace.duration_days == 348
        assert trace.gpus_per_node == 8
        assert len(trace) > 0

    def test_mean_fault_ratio_calibrated(self, trace):
        stats = trace.statistics()
        assert stats.mean_fault_ratio == pytest.approx(0.0233, rel=0.15)

    def test_p99_fault_ratio_in_range(self, trace):
        stats = trace.statistics()
        assert 0.03 <= stats.p99_fault_ratio <= 0.12

    def test_heavy_tail(self, trace):
        """p99 must sit well above the mean, as in the production trace."""
        stats = trace.statistics()
        assert stats.p99_fault_ratio > 1.5 * stats.mean_fault_ratio

    def test_events_within_bounds(self, trace):
        for event in trace.events:
            assert 0 <= event.node_id < trace.n_nodes
            assert 0.0 <= event.start_hour < event.end_hour <= trace.duration_hours

    def test_repair_time_positive_and_reasonable(self, trace):
        stats = trace.statistics()
        assert 24.0 <= stats.mean_repair_hours <= 24.0 * 14

    def test_no_overlapping_events_per_node(self, trace):
        per_node = {}
        for event in trace.events:
            per_node.setdefault(event.node_id, []).append(event)
        for events in per_node.values():
            events.sort(key=lambda e: e.start_hour)
            for a, b in zip(events, events[1:]):
                assert a.end_hour <= b.start_hour

    def test_reproducible_with_seed(self):
        config = SyntheticTraceConfig(n_nodes=50, duration_days=30, seed=9)
        a = generate_synthetic_trace(config)
        b = generate_synthetic_trace(config)
        assert a.to_csv() == b.to_csv()

    def test_different_seeds_differ(self):
        a = generate_synthetic_trace(SyntheticTraceConfig(n_nodes=50, duration_days=30, seed=1))
        b = generate_synthetic_trace(SyntheticTraceConfig(n_nodes=50, duration_days=30, seed=2))
        assert a.to_csv() != b.to_csv()

    def test_small_cluster_generation(self):
        trace = generate_synthetic_trace(
            SyntheticTraceConfig(n_nodes=20, duration_days=30, seed=0)
        )
        assert trace.n_nodes == 20
        assert trace.statistics().max_fault_ratio <= 0.5


def events_digest(trace):
    """SHA-256 over ``(node_id, start_hour, end_hour)`` of every event, in order.

    ``repr`` of the tuple also pins the value types (plain ``int`` and
    ``float``, never numpy scalars).
    """
    digest = hashlib.sha256()
    for event in trace.events:
        digest.update(repr((event.node_id, event.start_hour, event.end_hour)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


#: ``SyntheticTraceConfig`` kwargs -> (8-GPU digest, 4-GPU conversion digest).
#: The grid crosses 1 and 400 nodes with 1 and 348 days, plus a sparse
#: cluster with mid-trace empty days and a high-ratio config that takes the
#: surplus-repair branch on about a quarter of its days.
GOLDEN_GRID = [
    (
        dict(n_nodes=1, duration_days=1, seed=0),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        dict(n_nodes=1, duration_days=348, seed=0),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        dict(n_nodes=400, duration_days=1, seed=0),
        "a5c173e3a3c9f0014e4b15b0453743cbad7e424b0a7847bee537496d57201b46",
        "8cca2643e7f71f10f9af478d87a87851d640856ebbcc517fdf1d60f5267d605f",
    ),
    (
        dict(n_nodes=400, duration_days=348, seed=0),
        "7c5086ff2a4ca4371f3e77c806dc28352788d26049c03bfb7975da898710db3f",
        "7a52fee53b9f240e1564d2f3f366f897672611749b17beed96839724b0784375",
    ),
    (
        dict(n_nodes=40, duration_days=90, seed=0),
        "031c2f39aaeb847813995dd38233a792703e6516c1644aaffcdd87efeab53ece",
        "d84a7722e003e8d36fdceb75d9518e841d028f8d66f62985cb7e32ae34f5c3e1",
    ),
    (
        dict(
            n_nodes=64,
            duration_days=90,
            mean_fault_ratio=0.2,
            p99_fault_ratio=0.6,
            ar1_coefficient=0.2,
            seed=3,
        ),
        "960a7d8b04e6391078da14b32422453a95c0260c476f7eb56489951c1edf1c23",
        "dd3f275469473637a0b7b0ce647cf4ff86de3be5cff5e97f8f2137851ddc1580",
    ),
]

#: ``TraceSpec(days=348, seed=s)`` -> (8-GPU digest, 4-GPU digest): the
#: trace seeds of perfbench's three parts at benchmark seed 0.
GOLDEN_SPECS = [
    (
        348,
        "0b249f1e7350347e592836a670b459d33bbdcdd000451bf477a91cd3bfb1545a",
        "3c984e332531a97c443a2862aefa7314f108250b114d7b90153e91fdcead1226",
    ),
    (
        349,
        "2e66a173ac6f47c61c9fc550155a4105ee296be2a4d3057be4b281bbb587d3d5",
        "5728fbd1039fefa80e299b2a8ede2559416427bc0258ada890df43b00b71a3db",
    ),
    (
        350,
        "a3f3accbf1f8eae66a58b909d2f17b89bb711ec12c4bd5c92c2a0b5c074d5d9b",
        "164e33053b7d9cb0a439701947856ae0bb03d259e2932463983cdcaba588b88d",
    ),
]


class TestGoldenDigests:
    """Pin the generator's and the 8-to-4 conversion's exact output."""

    @pytest.mark.parametrize("kwargs,digest_8gpu,digest_4gpu", GOLDEN_GRID)
    def test_config_grid(self, kwargs, digest_8gpu, digest_4gpu):
        config = SyntheticTraceConfig(**kwargs)
        trace = generate_synthetic_trace(config)
        assert events_digest(trace) == digest_8gpu
        converted = convert_trace_8gpu_to_4gpu(trace, seed=config.seed)
        assert events_digest(converted) == digest_4gpu

    @pytest.mark.parametrize("seed,digest_8gpu,digest_4gpu", GOLDEN_SPECS)
    def test_trace_specs(self, seed, digest_8gpu, digest_4gpu):
        assert events_digest(TraceSpec(days=348, seed=seed, gpus_per_node=8).build()) == digest_8gpu
        assert events_digest(TraceSpec(days=348, seed=seed).build()) == digest_4gpu


def _load_reference():
    """The frozen scalar generator and conversion kept by the benchmark."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_trace_gen.py"
    spec = importlib.util.spec_from_file_location("bench_trace_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def _assert_matches_reference(config):
    """Array generator and conversion equal the scalar reference, event for event."""
    got = generate_synthetic_trace(config)
    expected = reference.reference_synthetic_trace(config)
    assert reference.event_rows(got) == reference.event_rows(expected)
    got_4gpu = convert_trace_8gpu_to_4gpu(got, seed=config.seed)
    expected_4gpu = reference.reference_convert(expected, seed=config.seed)
    assert reference.event_rows(got_4gpu) == reference.event_rows(expected_4gpu)
    return got


def _faulty_counts(trace):
    counts = np.zeros(int(trace.duration_days), dtype=int)
    for event in trace.events:
        counts[int(event.start_hour // HOURS_PER_DAY) : int(event.end_hour // HOURS_PER_DAY)] += 1
    return counts


class TestVectorDrawEdgeCases:
    """Branches of the batched draws that the typical trace rarely takes."""

    def test_days_with_no_faulty_node(self):
        # About one faulty node on average: the fault set empties mid-trace,
        # so some days draw zero persistence coins.
        trace = _assert_matches_reference(
            SyntheticTraceConfig(n_nodes=40, duration_days=90, seed=0)
        )
        counts = _faulty_counts(trace)
        first_fault = int(np.flatnonzero(counts)[0])
        assert (counts[first_fault:] == 0).any()

    def test_target_covers_every_node(self, monkeypatch):
        real_targets = synthetic._daily_ratio_targets

        def full_every_third_day(config, rng):
            targets = real_targets(config, rng)
            targets[::3] = 1.0
            return targets

        monkeypatch.setattr(synthetic, "_daily_ratio_targets", full_every_third_day)
        monkeypatch.setattr(reference, "_daily_ratio_targets", full_every_third_day)
        config = SyntheticTraceConfig(n_nodes=7, duration_days=30, seed=5)
        trace = _assert_matches_reference(config)
        counts = _faulty_counts(trace)
        assert (counts[::3] == config.n_nodes).all()
        assert (counts[1::3] < config.n_nodes).any()

    def test_single_day_trace(self):
        trace = _assert_matches_reference(
            SyntheticTraceConfig(n_nodes=400, duration_days=1, seed=7)
        )
        assert len(trace) > 0
        assert all(
            (e.start_hour, e.end_hour) == (0.0, HOURS_PER_DAY) for e in trace.events
        )

    def test_events_open_on_the_last_day_end_at_the_horizon(self):
        trace = _assert_matches_reference(
            SyntheticTraceConfig(n_nodes=64, duration_days=90, seed=2)
        )
        last_day = [e for e in trace.events if e.end_hour == trace.duration_hours]
        assert last_day
        assert len(last_day) == _faulty_counts(trace)[-1]

    def test_converting_an_empty_trace(self):
        empty = FaultTrace(n_nodes=5, duration_days=3, events=[])
        got = convert_trace_8gpu_to_4gpu(empty, seed=1)
        expected = reference.reference_convert(empty, seed=1)
        assert (got.n_nodes, len(got)) == (expected.n_nodes, len(expected)) == (10, 0)
        # A one-node cluster rounds every daily target to zero faults.
        assert len(_assert_matches_reference(SyntheticTraceConfig(n_nodes=1, seed=3))) == 0
