"""InfiniteHBD architecture model (the paper's contribution).

This adapter exposes the reconfigurable K-Hop Ring topology
(:mod:`repro.core.khop_ring`) through the common
:class:`~repro.hbd.base.HBDArchitecture` interface used by the large-scale
cluster simulations.  The relevant behaviour:

* a run of fewer than ``K`` consecutive faulty nodes is bypassed via backup
  links, so healthy segments merge across it;
* each healthy segment is packed with TP groups of ``ceil(tp/R)`` nodes;
* the remainder of each segment is the only fragmentation loss.

The adapter also implements the incremental replay
(:meth:`~repro.hbd.base.HBDArchitecture.breakdown_delta`): a node flip only
affects the healthy segment(s) it touches, bounded by the nearest
*breakpoints* (fault runs of ``>= K`` consecutive nodes, the Appendix C
notion).  The replay state keeps an index of those runs, so a flip walks the
fault runs adjacent to the node, finds the two bounding breakpoints by
bisect, counts the healthy nodes of the affected segments by bisecting the
sorted fault list, and updates the index -- O(log m + run length) for ``m``
faults, with the sorted-list updates adding an O(m) memory move.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable

from repro.core.khop_ring import KHopRingTopology, KHopTopologyConfig
from repro.hbd.base import DeltaReplayState, HBDArchitecture, PlacementGroup


class _KHopDelta:
    """Incremental payload of the K-hop local update.

    Holds the fault set (for walking the runs next to a node), the same
    faults as a sorted list (for counting the faults of a range by bisect),
    and the *breakpoint index*: every maximal fault run of ``>= k`` nodes,
    keyed by its first node, with the keys kept sorted.  On a ring a run may
    wrap ``n - 1 -> 0`` (its key is then its start near the end); a fully
    faulty ring has no start and is not indexed.  ``npg`` (nodes per TP
    group) is fixed for the state's TP size.
    """

    __slots__ = ("n", "k", "ring", "npg", "tp_size", "faults", "sorted", "runs", "starts")

    def __init__(
        self, n: int, k: int, ring: bool, npg: int, tp_size: int, faulty: frozenset[int]
    ) -> None:
        self.n, self.k, self.ring = n, k, ring
        self.npg, self.tp_size = npg, tp_size
        self.faults = set(faulty)
        self.sorted = sorted(faulty)
        self.runs = self._build_runs()
        self.starts = sorted(self.runs)

    def _build_runs(self) -> dict[int, int]:
        """Breakpoint runs (start -> length) rebuilt from the fault set."""
        n, faults = self.n, self.faults
        if len(faults) == n and self.ring:
            return {}
        runs: dict[int, int] = {}
        for node in self.sorted:
            before = node - 1 if node > 0 else (n - 1 if self.ring else -1)
            if before in faults:
                continue
            length = 1
            limit = n if self.ring else n - node
            while length < limit and (node + length) % n in faults:
                length += 1
            if length >= self.k:
                runs[node] = length
        return runs

    def _indexed(self, length: int) -> bool:
        return length >= self.k and (length < self.n or not self.ring)

    def _add_run(self, start: int, length: int) -> None:
        if self._indexed(length):
            self.runs[start] = length
            bisect.insort(self.starts, start)

    def _drop_run(self, start: int, length: int) -> None:
        if self._indexed(length):
            del self.runs[start]
            del self.starts[bisect.bisect_left(self.starts, start)]

    def _cap(self, healthy: int) -> int:
        return (healthy // self.npg) * self.tp_size

    def _healthy(self, lo: int, hi: int) -> int:
        """Healthy nodes in the (unwrapped, shorter than ``n``) range ``[lo, hi]``."""
        if hi < lo:
            return 0
        faults, n = self.sorted, self.n
        lo_m = lo % n
        hi_m = lo_m + (hi - lo)
        if hi_m < n:
            inside = bisect.bisect_right(faults, hi_m) - bisect.bisect_left(faults, lo_m)
        else:
            inside = (len(faults) - bisect.bisect_left(faults, lo_m)) + (
                bisect.bisect_right(faults, hi_m - n)
            )
        return hi - lo + 1 - inside

    def flip(self, node: int, failed: bool) -> int:
        """Change in usable GPUs when ``node`` flips; updates the payload.

        ``left`` / ``right`` are the fault runs ending just before and
        starting just after ``node`` (``L`` / ``R``); with ``node`` faulty
        they merge into one run ``M``.  The index is taken to the state
        without ``L``, ``R`` and ``M``, so the nearest remaining breakpoints
        bound every segment the flip can change; failing and recovering are
        the same computation with opposite signs.
        """
        n, faults = self.n, self.faults
        left = right = 0
        if self.ring:
            while right < n - 1 and (node + right + 1) % n in faults:
                right += 1
            while left + right < n - 1 and (node - left - 1) % n in faults:
                left += 1
        else:
            while node + right + 1 < n and node + right + 1 in faults:
                right += 1
            while node - left - 1 >= 0 and node - left - 1 in faults:
                left += 1
        start_l = (node - left) % n
        start_r = (node + 1) % n
        merged = left + right + 1
        if failed:
            if left:
                self._drop_run(start_l, left)
            if right:
                self._drop_run(start_r, right)
        else:
            self._drop_run(start_l, merged)
            faults.discard(node)
            del self.sorted[bisect.bisect_left(self.sorted, node)]

        delta = self._fail_delta(node, left, right)

        if failed:
            faults.add(node)
            bisect.insort(self.sorted, node)
            self._add_run(start_l, merged)
            return delta
        if left:
            self._add_run(start_l, left)
        if right:
            self._add_run(start_r, right)
        return -delta

    def _fail_delta(self, node: int, left: int, right: int) -> int:
        """Capacity change of failing the healthy ``node`` between runs
        ``L`` (``left`` faults) and ``R`` (``right`` faults), with neither
        of them nor their merger in the breakpoint index."""
        n, k, cap = self.n, self.k, self._cap
        cut_l, cut_r, cut_m = left >= k, right >= k, left + right + 1 >= k
        starts = self.starts
        if self.ring and not starts:
            # No other breakpoint: every other healthy node lies in one
            # arc from the end of R round to the start of L.
            rest = n - 1 - len(self.sorted)
            before = cap(rest) + cap(1) if cut_l and cut_r else cap(rest + 1)
            return cap(rest) - before
        index = bisect.bisect_right(starts, node)
        if self.ring:
            q_start = starts[index % len(starts)]
            if q_start < node:
                q_start += n
            p_start = starts[index - 1]
            p_len = self.runs[p_start]
            if p_start > node:
                p_start -= n
            lo, hi = p_start + p_len, q_start - 1
        else:
            lo = starts[index - 1] + self.runs[starts[index - 1]] if index else 0
            hi = starts[index] - 1 if index < len(starts) else n - 1
        # Healthy nodes of the span left of L and right of R; L and R hold
        # none, and ``node`` sits between them.
        a = self._healthy(lo, node - left - 1)
        c = self._healthy(node + right + 1, hi)
        if cut_l and cut_r:
            before = cap(a) + cap(1) + cap(c)
        elif cut_l:
            before = cap(a) + cap(1 + c)
        elif cut_r:
            before = cap(a + 1) + cap(c)
        else:
            before = cap(a + 1 + c)
        after = cap(a) + cap(c) if cut_m else cap(a + c)
        return after - before


class InfiniteHBDArchitecture(HBDArchitecture):
    """InfiniteHBD with ``K`` OCSTrx bundles per node (K-Hop Ring)."""

    supports_delta = True

    def __init__(
        self, k: int = 2, gpus_per_node: int = 4, ring: bool = True
    ) -> None:
        super().__init__(gpus_per_node)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.ring = ring
        self.name = f"InfiniteHBD(K={k})"
        self._topology_cache: dict[int, KHopRingTopology] = {}

    def topology(self, n_nodes: int) -> KHopRingTopology:
        """K-Hop topology instance for an ``n_nodes`` cluster (cached)."""
        topo = self._topology_cache.get(n_nodes)
        if topo is None:
            topo = KHopRingTopology(
                KHopTopologyConfig(
                    n_nodes=n_nodes,
                    k=self.k,
                    gpus_per_node=self.gpus_per_node,
                    ring=self.ring,
                )
            )
            self._topology_cache[n_nodes] = topo
        return topo

    def usable_gpus(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> int:
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        return self.topology(n_nodes).usable_gpus(faulty, tp_size)

    def breakpoints(self, n_nodes: int, faulty_nodes: Iterable[int]) -> int:
        """Unbridgeable fault gaps (Appendix C breakpoints) for a fault set."""
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        return self.topology(n_nodes).breakpoints(faulty)

    # ------------------------------------------------------------- placement
    def placement_groups(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> tuple[PlacementGroup, ...]:
        """One domain per healthy segment (bridgeable fault runs included)."""
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        topo = self.topology(n_nodes)
        npg = topo.nodes_per_tp_group(tp_size)
        return tuple(
            PlacementGroup(nodes=seg.nodes, nodes_per_group=npg, tp_size=tp_size)
            for seg in topo.healthy_segments(faulty)
        )

    # ------------------------------------------------------------ delta replay
    def _delta_init(
        self, n_nodes: int, faulty: frozenset[int], tp_size: int
    ) -> tuple[int, _KHopDelta]:
        topo = self.topology(n_nodes)
        usable = topo.usable_gpus(faulty, tp_size)
        npg = topo.nodes_per_tp_group(tp_size)
        return usable, _KHopDelta(n_nodes, self.k, self.ring, npg, tp_size, faulty)

    def _delta_flip(self, state: DeltaReplayState, node: int, failed: bool) -> int:
        aux: _KHopDelta = state.aux
        return aux.flip(node, failed)
