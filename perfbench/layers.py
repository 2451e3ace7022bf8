"""Spans and call counters for the traced benchmark passes.

Everything here wraps public entry points of ``repro`` from outside the
package, at the names the runner binds (``repro.api.runner`` imports
``replay_intervals`` and ``replay_batch`` by name), so the program carries
no tracing code.  Two traced passes use it, each in its own fresh process:

* the span pass (:func:`install_spans`) times the coarse layer boundaries:
  runner, trace build, interval sweep, scalar replay, batch build, batched
  replay and scheduler;
* the count pass (:func:`install_counters`) puts a bare counter on the hot
  per-call entry points: the policies' ``runtime_key`` and
  ``next_priority_change_hours`` and the architectures' capacity methods.
  ``runtime_key`` alone runs about a million times on ``canonical``, so
  timing those calls would distort the very spans they sit in.

Both passes also count the coarse boundaries, so their counts can be
compared with each other and with the committed baseline.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from collections import Counter
from collections.abc import Callable
from typing import Any

#: Hot entry points counted (never timed) in the count pass.
POLICY_METHODS = {
    "runtime_key": "scheduler.runtime_key.calls",
    "next_priority_change_hours": "scheduler.priority_wakeup.calls",
}
ARCHITECTURE_METHODS = {
    "usable_gpus": "hbd.usable_gpus.calls",
    "breakdown": "hbd.breakdown.calls",
    "breakdown_delta": "hbd.breakdown_delta.calls",
    "placement_groups": "hbd.placement_groups.calls",
}

#: The root span (``ExperimentRunner.run``) and the layers nested in it.
ROOT_SPAN = "runner.run"
LAYERS = (
    "faults.trace_build",
    "timeline.sweep",
    "simulation.replay",
    "mc.batch_build",
    "mc.replay_batch",
    "scheduler.run",
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """In-memory spans, counters and the data the layers returned."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.reports: list[Any] = []
        self.faults_events = 0
        self.timeline_intervals = 0
        self.intervals_replayed = 0
        self.seed_intervals = 0
        self.replay_cells: set[tuple[str, int]] = set()
        self.batch_cells: set[tuple[str, int]] = set()
        self._seen: set[int] = set()
        self._batch_intervals: dict[int, int] = {}

    # ----------------------------------------------------------- wrappers
    def timed(self, name: str, fn: Callable[..., Any], observe: Callable[..., None] | None = None) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable[..., Any], observe: Callable[..., None] | None = None) -> Callable[..., Any]:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------ what the layers did
    def _first_time(self, obj: Any) -> bool:
        # Memoized builds hand back the same object; measure each one once.
        if id(obj) in self._seen:
            return False
        self._seen.add(id(obj))
        return True

    def on_trace(self, args: tuple[Any, ...], kwargs: dict[str, Any], trace: Any) -> None:
        if self._first_time(trace):
            self.faults_events += len(trace.events)

    def on_timeline(self, args: tuple[Any, ...], kwargs: dict[str, Any], timeline: Any) -> None:
        if self._first_time(timeline):
            self.timeline_intervals += len(timeline)

    def on_replay(self, args: tuple[Any, ...], kwargs: dict[str, Any], series: Any) -> None:
        architecture, timeline, tp_size = args[:3]
        self.intervals_replayed += len(timeline)
        self.replay_cells.add((architecture.name, tp_size))

    def on_batch(self, args: tuple[Any, ...], kwargs: dict[str, Any], batch: Any) -> None:
        timelines = args[1]  # args[0] is the class: from_timelines is a classmethod
        self._batch_intervals[id(batch)] = sum(len(t) for t in timelines)

    def on_replay_batch(self, args: tuple[Any, ...], kwargs: dict[str, Any], series: Any) -> None:
        architecture, batch, tp_size = args[:3]
        self.seed_intervals += self._batch_intervals[id(batch)]
        self.batch_cells.add((architecture.name, tp_size))

    # ------------------------------------------------------------ results
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def span_records(self) -> list[dict[str, Any]]:
        return [dataclasses.asdict(span) for span in self.spans]


# ------------------------------------------------------------- patching
def _patch(owner: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _defining_classes(classes: set[type], method: str) -> set[type]:
    """The classes that define ``method`` for ``classes`` (each patched once)."""
    owners = set()
    for cls in classes:
        for klass in cls.__mro__:
            if method in vars(klass):
                owners.add(klass)
                break
    return owners


def _policy_classes() -> set[type]:
    from repro.scheduler.policies import POLICY_NAMES, policy_by_name

    return {type(policy_by_name(name)) for name in POLICY_NAMES}


def _architecture_classes() -> set[type]:
    from repro.api.registry import REGISTRY

    return {type(REGISTRY.create(name)) for name in REGISTRY.names()}


def install_report_capture(tracer: Tracer) -> None:
    """Keep every ``ClusterReport`` (all passes: the invariants need them)."""
    from repro.scheduler.engine import ClusterScheduler

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        def run(*args: Any, **kwargs: Any) -> Any:
            report = fn(*args, **kwargs)
            tracer.reports.append(report)
            return report

        return run

    _patch(ClusterScheduler, "run", make)


def _install_boundaries(tracer: Tracer, wrap: Callable[..., Callable[..., Any]]) -> None:
    import repro.api.runner as runner
    from repro.api.spec import TraceSpec
    from repro.faults.trace import FaultTrace
    from repro.mc import TraceBatch
    from repro.scheduler.engine import ClusterScheduler

    _patch(runner.ExperimentRunner, "run", lambda fn: wrap(ROOT_SPAN, fn))
    _patch(TraceSpec, "build", lambda fn: wrap("faults.trace_build", fn, tracer.on_trace))
    _patch(FaultTrace, "interval_timeline", lambda fn: wrap("timeline.sweep", fn, tracer.on_timeline))
    _patch(TraceBatch, "from_timelines", lambda fn: wrap("mc.batch_build", fn, tracer.on_batch))
    _patch(ClusterScheduler, "run", lambda fn: wrap("scheduler.run", fn))
    runner.replay_intervals = wrap("simulation.replay", runner.replay_intervals, tracer.on_replay)
    runner.replay_batch = wrap("mc.replay_batch", runner.replay_batch, tracer.on_replay_batch)


def install_spans(tracer: Tracer) -> None:
    """Span pass: time the coarse layer boundaries."""
    _install_boundaries(tracer, tracer.timed)


def install_counters(tracer: Tracer) -> None:
    """Count pass: count the coarse boundaries and the hot entry points."""
    _install_boundaries(tracer, lambda name, fn, observe=None: tracer.counted(name, fn, observe))
    for method, name in POLICY_METHODS.items():
        for owner in _defining_classes(_policy_classes(), method):
            _patch(owner, method, lambda fn, name=name: tracer.counted(name, fn))
    for method, name in ARCHITECTURE_METHODS.items():
        for owner in _defining_classes(_architecture_classes(), method):
            _patch(owner, method, lambda fn, name=name: tracer.counted(name, fn))
