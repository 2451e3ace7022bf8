"""Trace replay against an HBD architecture model.

The replay is event-driven: the fault trace is swept once into its exact
piecewise-constant interval timeline (:class:`repro.faults.timeline.
IntervalTimeline`), the architecture model is asked for a
:class:`~repro.hbd.base.WasteBreakdown` once per *distinct* fault set
(memoized -- fault sets repeat whenever a node fails and recovers back to a
previous configuration), and every section 6.2 metric is computed as an exact
duration-weighted quantity over the intervals (:class:`IntervalSeries`).

Two orthogonal scaling switches extend :func:`replay_intervals` for sub-day
granularity production traces where even O(intervals x n_nodes) is too much:

* **incremental replay** -- consecutive intervals differ by a handful of
  node events, so architectures with an O(delta) update
  (``architecture.supports_delta``; see :meth:`repro.hbd.base.
  HBDArchitecture.breakdown_delta`) walk the sweep line event by event in
  O(intervals x delta).  The default (``incremental=None``) picks the delta
  walk exactly when the architecture supports it; both paths are bit-for-bit
  identical (hypothesis-tested).
* **streaming aggregation** -- ``streaming=True`` folds duration-weighted
  mean / quantile / CDF accumulation (:class:`repro.analysis.cdf.
  StreamingDistribution`) into the same walk and returns a
  :class:`StreamingIntervalSeries` of aggregates only, never materialising
  the interval list -- so a generator-backed timeline
  (:class:`repro.faults.timeline.IntervalStream`) of arbitrary length
  replays in O(distinct capacity levels) memory.

The original grid-sampled path (:class:`FaultTimeline`,
:func:`replay_timeline`, :class:`SimulationSeries`, daily by default to match
Figure 18/20's per-day resolution) is kept as a thin compatibility layer:
grid mode is now "resample the exact intervals", which reproduces the old
per-sample scans bit-for-bit at O(samples + events) instead of
O(samples x events).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.cdf import StreamingDistribution, empirical_cdf, weighted_quantile
from repro.faults.timeline import IntervalStream, IntervalTimeline
from repro.faults.trace import FaultTrace, HOURS_PER_DAY
from repro.hbd.base import HBDArchitecture, WasteBreakdown


@dataclass
class SimulationSeries:
    """Grid-sampled time series produced by one trace replay (legacy API).

    Every aggregate weights each sample equally; prefer
    :class:`IntervalSeries` (exact, duration-weighted, grid-independent) for
    new code.
    """

    times_days: list[float]
    waste_ratios: list[float]
    usable_gpus: list[int]
    faulty_gpus: list[int]
    total_gpus: int

    @property
    def mean_waste_ratio(self) -> float:
        if not self.waste_ratios:
            return 0.0
        return float(np.mean(self.waste_ratios))

    @property
    def p99_waste_ratio(self) -> float:
        if not self.waste_ratios:
            return 0.0
        return float(np.percentile(self.waste_ratios, 99))

    @property
    def min_usable_gpus(self) -> int:
        if not self.usable_gpus:
            return 0
        return int(min(self.usable_gpus))

    def waste_ratio_cdf(self) -> tuple[list[float], list[float]]:
        """(sorted waste ratios, cumulative probability) -- Figures 13/21."""
        return empirical_cdf(self.waste_ratios)

    def fault_waiting_rate(self, job_gpus: int) -> float:
        """Fraction of sampled time the job of ``job_gpus`` GPUs cannot run."""
        if not self.usable_gpus:
            return 0.0
        waiting = sum(1 for usable in self.usable_gpus if usable < job_gpus)
        return waiting / len(self.usable_gpus)

    def supported_job_scale(self, availability: float = 1.0) -> int:
        """Largest job scale available at least ``availability`` of the time.

        ``availability=1.0`` (the default, used for Figure 15) requires the
        job to run through the whole trace without waiting.
        """
        if not self.usable_gpus:
            return 0
        if not 0.0 < availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        quantile = 100.0 * (1.0 - availability)
        return int(np.percentile(np.asarray(self.usable_gpus), quantile, method="lower"))


@dataclass
class IntervalSeries:
    """Exact piecewise-constant replay result over the interval timeline.

    One entry per maximal constant-fault-set interval; every aggregate is
    duration-weighted, so the numbers are exact properties of the trace and
    architecture, independent of any sampling grid.
    """

    starts_hours: list[float]
    ends_hours: list[float]
    waste_ratios: list[float]
    usable_gpus: list[int]
    faulty_gpus: list[int]
    total_gpus: int

    def __len__(self) -> int:
        return len(self.starts_hours)

    @property
    def times_days(self) -> list[float]:
        """Interval start times in days (for plotting step series)."""
        return [t / HOURS_PER_DAY for t in self.starts_hours]

    @property
    def durations_hours(self) -> list[float]:
        return [e - s for s, e in zip(self.starts_hours, self.ends_hours, strict=True)]

    @property
    def total_hours(self) -> float:
        return self.ends_hours[-1] - self.starts_hours[0] if self.starts_hours else 0.0

    @property
    def mean_waste_ratio(self) -> float:
        """Exact time-averaged waste ratio."""
        total = self.total_hours
        if total == 0:
            return 0.0
        return sum(
            w * d for w, d in zip(self.waste_ratios, self.durations_hours, strict=True)
        ) / total

    @property
    def p99_waste_ratio(self) -> float:
        return self.waste_ratio_quantile(0.99)

    @property
    def max_waste_ratio(self) -> float:
        return max(self.waste_ratios) if self.waste_ratios else 0.0

    @property
    def min_usable_gpus(self) -> int:
        if not self.usable_gpus:
            return 0
        return int(min(self.usable_gpus))

    def waste_ratio_quantile(self, q: float) -> float:
        """Exact duration-weighted quantile (``q`` in [0, 1]) of the waste ratio."""
        return weighted_quantile(self.waste_ratios, self.durations_hours, q)

    def waste_ratio_cdf(self) -> tuple[list[float], list[float]]:
        """Exact duration-weighted waste-ratio CDF -- Figures 13/21."""
        if not self.waste_ratios:
            return [], []
        return empirical_cdf(self.waste_ratios, self.durations_hours)

    def fault_waiting_rate(self, job_gpus: int) -> float:
        """Exact fraction of time a job of ``job_gpus`` GPUs cannot run."""
        total = self.total_hours
        if total == 0:
            return 0.0
        waiting = sum(
            d
            for usable, d in zip(self.usable_gpus, self.durations_hours, strict=True)
            if usable < job_gpus
        )
        return waiting / total

    def supported_job_scale(self, availability: float = 1.0) -> int:
        """Largest job scale available at least ``availability`` of the time.

        Exact: the largest usable-GPU level whose cumulative downtime (time
        with fewer usable GPUs) does not exceed ``1 - availability`` of the
        trace.  ``availability=1.0`` (Figure 15) is the minimum over all
        intervals -- short dips a sampling grid would miss count here.
        """
        if not self.usable_gpus:
            return 0
        if not 0.0 < availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        if availability == 1.0:
            return self.min_usable_gpus
        # Smallest usable level u with P(usable <= u) > 1 - availability: the
        # job can be any scale up to u and still wait at most 1 - availability.
        pairs = sorted(zip(self.usable_gpus, self.durations_hours, strict=True))
        total = self.total_hours
        budget = (1.0 - availability) * total
        cumulative = 0.0
        for usable, duration in pairs:
            cumulative += duration
            if cumulative > budget * (1.0 + 1e-12):
                return int(usable)
        return int(pairs[-1][0])

    def mean_waste_in_window(self, start_day: float, end_day: float) -> float:
        """Duration-weighted mean waste ratio over ``[start_day, end_day)``."""
        start_h, end_h = start_day * HOURS_PER_DAY, end_day * HOURS_PER_DAY
        weighted = covered = 0.0
        for s, e, w in zip(self.starts_hours, self.ends_hours, self.waste_ratios, strict=True):
            overlap = min(e, end_h) - max(s, start_h)
            if overlap > 0:
                weighted += w * overlap
                covered += overlap
        return weighted / covered if covered else 0.0


@dataclass
class StreamingIntervalSeries:
    """Aggregates-only replay result: the streaming twin of :class:`IntervalSeries`.

    Produced by ``replay_intervals(..., streaming=True)``.  Holds
    duration-weighted accumulators instead of per-interval lists, so memory
    is bounded by the number of distinct capacity levels the replay visits
    -- independent of the interval count.  Every aggregate shares its name
    and semantics with the materialised series; per-interval accessors
    (``times_days``, ``waste_ratios``, ``mean_waste_in_window``...) do not
    exist here, by construction.
    """

    total_gpus: int
    n_intervals: int = 0
    start_hour: float = 0.0
    end_hour: float = 0.0
    waste: StreamingDistribution = field(default_factory=StreamingDistribution)
    usable: StreamingDistribution = field(default_factory=StreamingDistribution)

    @classmethod
    def from_series(cls, series: IntervalSeries) -> StreamingIntervalSeries:
        """Fold a materialised replay interval by interval, in order.

        Bit-for-bit the series ``replay_intervals(..., streaming=True)``
        returns for the same replay: the accumulators see the same values
        in the same order.
        """
        out = cls(total_gpus=series.total_gpus)
        for start, end, waste, usable in zip(
            series.starts_hours, series.ends_hours, series.waste_ratios,
            series.usable_gpus, strict=True,
        ):
            out._add(start, end, waste, usable)
        return out

    def _fold(self, interval, breakdown: WasteBreakdown) -> None:
        self._add(
            interval.start_hour, interval.end_hour,
            breakdown.waste_ratio, breakdown.usable_gpus,
        )

    def _add(self, start: float, end: float, waste: float, usable: int) -> None:
        if self.n_intervals == 0:
            self.start_hour = start
        self.end_hour = end
        self.n_intervals += 1
        duration = end - start
        self.waste.add(waste, duration)
        self.usable.add(usable, duration)

    def __len__(self) -> int:
        return self.n_intervals

    @property
    def total_hours(self) -> float:
        return self.end_hour - self.start_hour if self.n_intervals else 0.0

    @property
    def mean_waste_ratio(self) -> float:
        """Exact time-averaged waste ratio."""
        return self.waste.mean()

    @property
    def p99_waste_ratio(self) -> float:
        return self.waste_ratio_quantile(0.99)

    @property
    def max_waste_ratio(self) -> float:
        return self.waste.max()

    @property
    def min_usable_gpus(self) -> int:
        return int(self.usable.min())

    def waste_ratio_quantile(self, q: float) -> float:
        """Exact duration-weighted quantile (``q`` in [0, 1]) of the waste ratio."""
        return self.waste.quantile(q)

    def waste_ratio_cdf(self) -> tuple[list[float], list[float]]:
        """Exact duration-weighted waste-ratio CDF (distinct values only)."""
        return self.waste.cdf()

    def fault_waiting_rate(self, job_gpus: int) -> float:
        """Exact fraction of time a job of ``job_gpus`` GPUs cannot run."""
        total = self.usable.total_weight
        if total <= 0:
            return 0.0
        return self.usable.weight_below(job_gpus) / total

    def supported_job_scale(self, availability: float = 1.0) -> int:
        """Largest job scale available at least ``availability`` of the time.

        Same algorithm as the materialised series, run over the grouped
        ``(usable level, total duration)`` pairs.
        """
        if self.n_intervals == 0:
            return 0
        if not 0.0 < availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        if availability == 1.0:
            return self.min_usable_gpus
        pairs = self.usable.items()
        budget = (1.0 - availability) * self.usable.total_weight
        cumulative = 0.0
        for usable, duration in pairs:
            cumulative += duration
            if cumulative > budget * (1.0 + 1e-12):
                return int(usable)
        return int(pairs[-1][0])


class _BreakdownMemo:
    """Memoize ``architecture.breakdown`` per distinct fault set.

    Fault sets recur -- on a grid because faults persist across samples, on
    the interval timeline because clusters return to previous configurations
    (most often the empty set) -- so replays share one breakdown per distinct
    set instead of recomputing per instant.
    """

    def __init__(self, architecture: HBDArchitecture, n_nodes: int, tp_size: int) -> None:
        self.architecture = architecture
        self.n_nodes = n_nodes
        self.tp_size = tp_size
        self._cache: dict[frozenset[int], WasteBreakdown] = {}

    def __call__(self, fault_set: frozenset[int]) -> WasteBreakdown:
        breakdown = self._cache.get(fault_set)
        if breakdown is None:
            breakdown = self.architecture.breakdown(
                self.n_nodes, fault_set, self.tp_size
            )
            self._cache[fault_set] = breakdown
        return breakdown


@dataclass(frozen=True)
class FaultTimeline:
    """A trace sampled onto a regular grid of per-instant fault sets.

    Compatibility layer over the exact interval timeline: the grid is now
    produced by *resampling* the swept intervals (O(samples + events)) rather
    than scanning every event per sample, but the sampled fault sets -- and
    hence everything downstream -- are bit-for-bit identical to the old
    per-sample scans.
    """

    times_hours: tuple[float, ...]
    fault_sets: tuple[frozenset[int], ...]
    n_nodes: int
    gpus_per_node: int

    @classmethod
    def from_trace(
        cls,
        trace: FaultTrace,
        n_nodes: int | None = None,
        sample_interval_hours: float = HOURS_PER_DAY,
    ) -> FaultTimeline:
        nodes = n_nodes if n_nodes is not None else trace.n_nodes
        if nodes > trace.n_nodes:
            raise ValueError("simulated cluster larger than the fault trace")
        times = trace.sample_times(sample_interval_hours)
        timeline = trace.interval_timeline(nodes)
        return cls(
            times_hours=tuple(times),
            fault_sets=tuple(timeline.resample(times)),
            n_nodes=nodes,
            gpus_per_node=trace.gpus_per_node,
        )


def replay_timeline(
    architecture: HBDArchitecture, timeline: FaultTimeline, tp_size: int
) -> SimulationSeries:
    """Replay a pre-sampled (grid) fault timeline against one architecture."""
    _check_gpus_per_node(architecture, timeline.gpus_per_node)
    breakdown_for = _BreakdownMemo(architecture, timeline.n_nodes, tp_size)
    waste_ratios: list[float] = []
    usable: list[int] = []
    faulty_gpus: list[int] = []
    for fault_set in timeline.fault_sets:
        breakdown = breakdown_for(fault_set)
        waste_ratios.append(breakdown.waste_ratio)
        usable.append(breakdown.usable_gpus)
        faulty_gpus.append(breakdown.faulty_gpus)
    return SimulationSeries(
        times_days=[t / HOURS_PER_DAY for t in timeline.times_hours],
        waste_ratios=waste_ratios,
        usable_gpus=usable,
        faulty_gpus=faulty_gpus,
        total_gpus=architecture.total_gpus(timeline.n_nodes),
    )


def replay_intervals(
    architecture: HBDArchitecture,
    timeline: IntervalTimeline | IntervalStream,
    tp_size: int,
    *,
    incremental: bool | None = None,
    streaming: bool = False,
) -> IntervalSeries | StreamingIntervalSeries:
    """Exact event-driven replay of the interval timeline against one architecture.

    Parameters
    ----------
    incremental:
        ``None`` (default) walks the sweep line with the O(delta)
        :meth:`~repro.hbd.base.HBDArchitecture.breakdown_delta` path exactly
        when the architecture supports it, and otherwise evaluates one full
        breakdown per *distinct* fault set (memoized).  ``True`` forces the
        delta walk (architectures without an O(delta) update recompute per
        interval -- total, just not faster), ``False`` forces the memoized
        full path.  Both paths are bit-for-bit identical.
    streaming:
        Fold duration-weighted aggregation into the walk and return a
        :class:`StreamingIntervalSeries` instead of materialising the
        per-interval lists.  With a generator-backed
        :class:`~repro.faults.timeline.IntervalStream` this replays traces
        of arbitrary length in O(distinct capacity levels) memory.
    """
    _check_gpus_per_node(architecture, timeline.gpus_per_node)
    n_nodes = timeline.n_nodes
    total_gpus = architecture.total_gpus(n_nodes)
    use_delta = architecture.supports_delta if incremental is None else bool(incremental)

    if streaming:
        series = StreamingIntervalSeries(total_gpus=total_gpus)
        fold = series._fold
    else:
        columnar = timeline.columnar if isinstance(timeline, IntervalTimeline) else None
        waste_ratios: list[float] = []
        usable: list[int] = []
        faulty_gpus: list[int] = []
        if columnar is not None:
            # Interval boundaries come straight off the shared columnar view
            # (bit-identical floats); the walk only accumulates breakdowns.
            starts = columnar.starts_hours.tolist()
            ends = columnar.ends_hours.tolist()

            def fold(interval, breakdown: WasteBreakdown) -> None:
                waste_ratios.append(breakdown.waste_ratio)
                usable.append(breakdown.usable_gpus)
                faulty_gpus.append(breakdown.faulty_gpus)
        else:
            starts = []
            ends = []

            def fold(interval, breakdown: WasteBreakdown) -> None:
                starts.append(interval.start_hour)
                ends.append(interval.end_hour)
                waste_ratios.append(breakdown.waste_ratio)
                usable.append(breakdown.usable_gpus)
                faulty_gpus.append(breakdown.faulty_gpus)

    if use_delta:
        state = None
        for interval in timeline.intervals:
            if state is None:
                state = architecture.delta_state(n_nodes, interval.nodes, tp_size)
                breakdown, state = architecture.breakdown_delta(state)
            else:
                breakdown, state = architecture.breakdown_delta(
                    state,
                    added_faults=interval.nodes - state.faults,
                    removed_faults=state.faults - interval.nodes,
                )
            fold(interval, breakdown)
    else:
        breakdown_for = _BreakdownMemo(architecture, n_nodes, tp_size)
        for interval in timeline.intervals:
            fold(interval, breakdown_for(interval.nodes))

    if streaming:
        return series
    return IntervalSeries(
        starts_hours=starts,
        ends_hours=ends,
        waste_ratios=waste_ratios,
        usable_gpus=usable,
        faulty_gpus=faulty_gpus,
        total_gpus=total_gpus,
    )


def _check_gpus_per_node(architecture: HBDArchitecture, gpus_per_node: int) -> None:
    if gpus_per_node != architecture.gpus_per_node:
        raise ValueError(
            f"timeline GPUs/node ({gpus_per_node}) must match the "
            f"architecture ({architecture.gpus_per_node})"
        )


class ClusterSimulator:
    """Replay a fault trace against one HBD architecture."""

    def __init__(
        self,
        architecture: HBDArchitecture,
        trace: FaultTrace,
        n_nodes: int | None = None,
        sample_interval_hours: float = HOURS_PER_DAY,
    ) -> None:
        if trace.gpus_per_node != architecture.gpus_per_node:
            raise ValueError(
                "trace GPUs/node "
                f"({trace.gpus_per_node}) must match the architecture "
                f"({architecture.gpus_per_node})"
            )
        self.architecture = architecture
        self.n_nodes = n_nodes if n_nodes is not None else trace.n_nodes
        if self.n_nodes > trace.n_nodes:
            raise ValueError("simulated cluster larger than the fault trace")
        # Keep the source trace: its per-size timeline cache is shared, so a
        # whole architecture line-up replays one swept timeline.
        self._source_trace = trace
        self.trace = (
            trace if self.n_nodes == trace.n_nodes else trace.restrict_nodes(self.n_nodes)
        )
        self.sample_interval_hours = sample_interval_hours
        self._timeline: FaultTimeline | None = None

    # --------------------------------------------------------------- running
    def timeline(self) -> FaultTimeline:
        """The sampled (grid) fault timeline (computed once, shared across runs)."""
        if self._timeline is None:
            self._timeline = FaultTimeline.from_trace(
                self.trace, sample_interval_hours=self.sample_interval_hours
            )
        return self._timeline

    def interval_timeline(self) -> IntervalTimeline:
        """The exact interval timeline (swept once, cached on the source trace)."""
        return self._source_trace.interval_timeline(self.n_nodes)

    def run(self, tp_size: int) -> SimulationSeries:
        """Grid-sampled replay for TP groups of ``tp_size`` GPUs (legacy)."""
        return replay_timeline(self.architecture, self.timeline(), tp_size)

    def run_exact(self, tp_size: int) -> IntervalSeries:
        """Exact event-driven replay for TP groups of ``tp_size`` GPUs."""
        return replay_intervals(self.architecture, self.interval_timeline(), tp_size)

    def breakdown_at(self, hour: float, tp_size: int) -> WasteBreakdown:
        """Single-instant GPU accounting (useful for spot checks)."""
        fault_set = self.trace.faulty_nodes_at(hour)
        return self.architecture.breakdown(self.n_nodes, fault_set, tp_size)
