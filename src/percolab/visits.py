"""Exploration algorithms over the percolation graph.

All visits maintain three disjoint node sets: the queue Q, the visited set R,
and the deleted set D.  The L-truncated visits expand only through retained
bridges whose endpoint is "free", at least L + 1 ring steps from every node
touched so far (a ring byte mask, `RingOccupancy`, answers the test).

Each L-visit is an engine whose `step` runs one round: one node for the
sequential engines, whose FIFO order decides the occupancy, and a whole
hop level in array operations for the parallel one.  `_Engine.run` drives
them all and records a per-round trace of (|Q|, |R|, |D|).  Plain BFS runs
on scipy's `breadth_first_order` (neighbour flavour) or `graphs.bfs_order`.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .graphs import (PercolationGraph, SmallWorldGraph, _check_integer, _csr, _matrix,
                     _row_entries, bfs_order)
from .local_clusters import RingOccupancy, local_cluster, truncated_local_cluster

# termination reasons
QUEUE_EMPTY = "QueueEmpty"
REACHED_LINEAR_SIZE = "ReachedLinearSize"
REACHED_QUEUE_THRESHOLD = "ReachedQueueThreshold"
ITERATION_CAP = "IterationCap"


@dataclass
class VisitConfig:
    """Tunable visit parameters.

    L is the truncation radius, k the density divisor (linear-size stop at
    n/k), beta the queue-size threshold multiplier (beta * ln n) and
    beta_prime the bootstrap iteration multiplier (beta_prime * ln n).
    The defaults are engineering choices; every experiment records them.
    """

    L: int = 10
    k: int = 20
    beta: float = 5.0
    beta_prime: float = 25.0

    def __post_init__(self):
        if not (self.L >= 1 and self.k >= 1 and 0 < self.beta < math.inf
                and 0 < self.beta_prime < math.inf):
            raise ValueError("visit parameters must be positive (beta and beta' finite)")

    def queue_threshold(self, n: int) -> int:
        return max(1, math.ceil(self.beta * math.log(n)))

    def bootstrap_rounds(self, n: int) -> int:
        return max(1, math.ceil(self.beta_prime * math.log(n)))

    def linear_size(self, n: int) -> int:
        return max(1, n // self.k)


@dataclass
class VisitTrace:
    rounds: list
    final_q: set
    final_r: set
    final_d: set
    terminated_reason: str
    phase_switch_round: Optional[int] = None
    attempts: Optional[int] = None

    def check_disjoint(self) -> None:
        q, r, d = self.final_q, self.final_r, self.final_d
        if q & r or q & d or r & d:
            raise RuntimeError("visit sets Q, R and D overlap")

    @property
    def visited_size(self) -> int:
        return len(self.final_q) + len(self.final_r)


def _check_node(n: int, v: int) -> None:
    _check_integer(v, "node")
    if not 0 <= v < n:
        raise ValueError(f"node {v} outside [0, {n})")


def _initial_sets(n: int, I0, D0=()) -> tuple:
    """(I0, D0) as sets, checked: nodes of [0, n), I0 nonempty and disjoint
    from D0."""
    I0, D0 = set(I0), set(D0)
    if not I0:
        raise ValueError("need a nonempty initiator set")
    if I0 & D0:
        raise ValueError("I0 and D0 must be disjoint")
    for v in I0 | D0:
        _check_node(n, v)
    return I0, D0


class _Engine:
    """State shared by the L-visits: the queue set `in_q`, the visited set
    R, the deleted set D, the trace rows and `occ`, the ring byte mask of
    every touched node, built with L.  A subclass's `step` runs one round
    and ends with `_record`; its `cap(n)` is the default cap of `run`."""

    def __init__(self, g: SmallWorldGraph, gp: PercolationGraph, I0, D0, cfg: VisitConfig):
        self.g = g
        self.gp = gp
        self.cfg = cfg
        self.adj = gp.retained_bridge_adjacency()
        self.in_q = set(I0)
        self.r: set = set()
        self.d = set(D0)
        self.occ = RingOccupancy(g.n, list(I0) + list(D0), L=cfg.L)
        self.rounds: list = []

    def _record(self) -> None:
        self.rounds.append((len(self.in_q), len(self.r), len(self.d)))

    def run(self, max_rounds: Optional[int] = None,
            stop_queue_threshold: Optional[int] = None,
            stop_linear_size: Optional[int] = None) -> str:
        """Step until Q is empty, |Q| reaches stop_queue_threshold,
        |Q| + |R| reaches stop_linear_size, or max_rounds rounds (by default
        the engine's cap) have run; returns which came first."""
        if max_rounds is None:
            max_rounds = self.cap(self.g.n)
        done = 0
        while True:
            if not self.in_q:
                return QUEUE_EMPTY
            if stop_queue_threshold is not None and len(self.in_q) >= stop_queue_threshold:
                return REACHED_QUEUE_THRESHOLD
            if stop_linear_size is not None and len(self.in_q) + len(self.r) >= stop_linear_size:
                return REACHED_LINEAR_SIZE
            if done >= max_rounds:
                return ITERATION_CAP
            self.step()
            done += 1

    def trace(self, reason: str, **extra) -> VisitTrace:
        t = VisitTrace(self.rounds, set(self.in_q), set(self.r), set(self.d),
                       reason, **extra)
        t.check_disjoint()
        return t


# ---------------------------------------------------------------------------
# sequential L-visit (Erdos-bridge model)
# ---------------------------------------------------------------------------

class _SequentialEngine(_Engine):
    """Stepwise sequential L-visit; shared by the plain visit, the union
    visit, and the giant-component search (which re-seeds the queue between
    bootstrap attempts while keeping D)."""

    def __init__(self, g, gp, I0, D0, cfg: VisitConfig):
        super().__init__(g, gp, I0, D0, cfg)
        self.q = deque(sorted(I0))

    @staticmethod
    def cap(n: int) -> int:
        return 20 * n

    def reseed(self, s: int) -> None:
        """Start a fresh bootstrap attempt from s, keeping D."""
        self.q = deque([s])
        self.in_q = {s}
        self.r = set()
        self.occ = RingOccupancy(self.g.n, [s] + list(self.d), L=self.cfg.L)

    def step(self) -> None:
        """One iteration of the while loop: dequeue w, move it to R, and
        enqueue the truncated cluster of every free retained-bridge
        neighbor of w."""
        w = self.q.popleft()
        self.in_q.remove(w)
        self.r.add(w)
        L = self.cfg.L
        for x in self.adj[w]:
            if self.occ.min_distance(x) >= L + 1:
                for y in sorted(truncated_local_cluster(self.gp, x, L)):
                    self.q.append(y)
                    self.in_q.add(y)
                    self.occ.add(y)
        self._record()


def sequential_l_visit(g, gp, I0, D0, cfg: VisitConfig,
                       cap: Optional[int] = None) -> VisitTrace:
    """FIFO sequential L-visit from initiators I0 with pre-deleted D0."""
    eng = _SequentialEngine(g, gp, *_initial_sets(g.n, I0, D0), cfg)
    return eng.trace(eng.run(cap))


# ---------------------------------------------------------------------------
# parallel L-visit
# ---------------------------------------------------------------------------

def _free_subset(n: int, xs, occ: RingOccupancy, L: int) -> list:
    """Members of the sorted candidates xs at ring distance >= L+1 from
    every occupied node and >= 2L+1 from every other candidate; one cyclic
    difference tests the latter, and only its survivors query `occ`."""
    xs = np.asarray(xs, dtype=np.int64)
    if len(xs) > 1:
        gap = np.diff(xs, append=xs[0] + n)
        far = np.minimum(gap, n - gap) >= 2 * L + 1
        xs = xs.compress(far & np.roll(far, 1))
    return [x for x in xs.tolist() if occ.min_distance(x) >= L + 1]


class _ParallelEngine(_Engine):
    @staticmethod
    def cap(n: int) -> int:
        return 20 * math.ceil(math.log2(max(n, 2)))

    def step(self) -> None:
        """One outer round in array operations: gather Q's retained-bridge
        neighbours X from the CSR, keep X's parallel-free members, read
        their truncated clusters off the ring in one (F, 2, L) gather (both
        directions), mark them as the next queue and retire Q into R.  Free
        members lie >= 2L+1 apart and >= L+1 from every node occupied
        before the round, so their clusters are new and disjoint."""
        L, n, adj = self.cfg.L, self.g.n, self.adj
        entry, _ = _row_entries(adj.indptr, np.fromiter(self.in_q, dtype=np.int64))
        free = np.array(_free_subset(n, np.unique(adj.indices.take(entry)), self.occ, L), np.int64)
        # node x+s is reached over edges x .. x+s-1, node x-s over x-1 .. x-s
        s = np.arange(1, min(L, n - 1) + 1)
        nodes = (free[:, None, None] + np.stack([s, -s])) % n
        reach = np.logical_and.accumulate(self.gp.ring_active.take(nodes - [[1], [0]]), axis=2)
        new = np.append(free, nodes[reach])
        self.occ.add_all(new)
        self.r |= self.in_q
        self.in_q = set(new.tolist())
        self._record()


def _hand_off(eng: _SequentialEngine) -> _ParallelEngine:
    """Parallel engine that carries on from a sequential one: its Q is the
    initiator set, its R and D are the deleted set, and its trace rows run
    on in the same list."""
    par = _ParallelEngine(eng.g, eng.gp, eng.in_q, eng.r | eng.d, eng.cfg)
    par.rounds = eng.rounds
    return par


def parallel_l_visit(g, gp, I0, D0, cfg: VisitConfig,
                     cap: Optional[int] = None) -> VisitTrace:
    """Round-synchronous L-visit; each outer round advances one hop level."""
    I0, D0 = _initial_sets(g.n, I0, D0)
    if len(D0) > math.log(max(g.n, 2)) ** 4:
        warnings.warn("deleted set larger than log^4 n; growth guarantees may not apply")
    eng = _ParallelEngine(g, gp, I0, D0, cfg)
    return eng.trace(eng.run(cap))


# ---------------------------------------------------------------------------
# union visit and giant-component search
# ---------------------------------------------------------------------------

def union_l_visit(g, gp, I0, cfg: VisitConfig) -> VisitTrace:
    """Sequential phase until Q empties or |Q| >= beta*ln n, then a parallel
    phase until Q empties.  The trace marks the phase-switch round."""
    eng = _SequentialEngine(g, gp, _initial_sets(g.n, I0)[0], set(), cfg)
    reason = eng.run(stop_queue_threshold=cfg.queue_threshold(g.n))
    if reason == QUEUE_EMPTY:
        return eng.trace(reason)
    switch = len(eng.rounds)
    par = _hand_off(eng)
    reason = par.run()
    # the sequential R was folded into the parallel D0; report it as R
    par.r, par.d = (par.r | par.d) - eng.d, eng.d
    return par.trace(reason, phase_switch_round=switch)


def _giant_search(eng: _SequentialEngine, second_phase) -> VisitTrace:
    """Bootstrap attempts of `eng`, each from the smallest node outside D
    for at most beta' ln n rounds; an attempt whose queue outgrows
    beta ln n is carried on by `second_phase(eng)` up to n/k visited nodes,
    and a failed attempt's R joins D."""
    n, cfg = eng.g.n, eng.cfg
    threshold = cfg.queue_threshold(n)
    linear = cfg.linear_size(n)
    # gamma (per-attempt success probability) taken as 1/2
    attempt_cap = 4 * math.ceil(math.log2(max(n, 2)))
    attempts = s = 0
    while attempts < attempt_cap:
        # D only grows, so every node below the cursor stays in D
        while s < n and s in eng.d:
            s += 1
        if s == n:
            break
        attempts += 1
        eng.reseed(s)
        eng.run(cfg.bootstrap_rounds(n),
                stop_queue_threshold=threshold + 1,
                stop_linear_size=linear + 1)
        if len(eng.in_q) + len(eng.r) > linear:
            # this attempt alone visited a linear-size set; done
            return eng.trace(REACHED_LINEAR_SIZE, attempts=attempts)
        if len(eng.in_q) > threshold:
            switch = len(eng.rounds)
            eng = second_phase(eng)
            return eng.trace(eng.run(stop_linear_size=linear),
                             phase_switch_round=switch, attempts=attempts)
        eng.d |= eng.r
        eng.r = set()
    return eng.trace(ITERATION_CAP, attempts=attempts)


def search_giant_erdos(g, gp, cfg: VisitConfig) -> VisitTrace:
    """Bootstrap attempts via the sequential visit, then a parallel visit
    seeded with the surviving queue.  Reports failure (IterationCap) after
    4 ceil(log2 n) failed attempts, as expected below threshold."""
    return _giant_search(_SequentialEngine(g, gp, {0}, set(), cfg), _hand_off)


# ---------------------------------------------------------------------------
# matching-model sequential L-visit
# ---------------------------------------------------------------------------

class _MatchingEngine(_SequentialEngine):
    """Sequential L-visit for the matching model.

    Every node has at most one bridge neighbor x, observed exactly once;
    the step dispatches on whether x is free and whether the bridge edge
    survived percolation.  D starts as D0 plus its full graph neighborhood.
    """

    def __init__(self, g, gp, I0, D0, cfg):
        d_init = set(D0)
        for v in D0:
            d_init |= {(v - 1) % g.n, (v + 1) % g.n, *g.bridge_adjacency()[v]}
        d_init -= set(I0)
        super().__init__(g, gp, I0, d_init, cfg)
        self.full_adj = g.bridge_adjacency()

    def step(self) -> None:
        # a node moved from Q to R by its partner stays behind in the deque
        w = self.q.popleft()
        while w not in self.in_q:
            w = self.q.popleft()
        self.in_q.discard(w)
        self.r.add(w)
        L = self.cfg.L
        nbrs = self.full_adj[w]
        if nbrs:
            x = nbrs[0]
            if self.occ.min_distance(x) >= L + 1 and x in self.adj[w]:
                cluster = truncated_local_cluster(self.gp, x, L)
                for y in sorted(cluster - {x}):
                    self.q.append(y)
                    self.in_q.add(y)
                    self.occ.add(y)
                self.r.add(x)
                self.occ.add(x)
            elif x in self.in_q:
                self.in_q.discard(x)
                self.r.add(x)
            elif x not in self.r and x not in self.d:
                # Q, R and D are occupied, so a free x with a dead bridge lands here
                self.d.add(x)
                self.occ.add(x)
        self._record()


def sequential_l_visit_matching(g, gp, I0, D0, cfg: VisitConfig,
                                cap: Optional[int] = None) -> VisitTrace:
    """Four-case sequential visit for graphs whose bridges form a matching."""
    if g.model_tag != "matching":
        raise ValueError("matching visit requires a matching-bridge graph")
    I0, D0 = _initial_sets(g.n, I0, D0)
    if len(D0) > math.log(max(g.n, 2)) ** 4:
        warnings.warn("deleted set larger than log^4 n; growth guarantees may not apply")
    eng = _MatchingEngine(g, gp, I0, D0, cfg)
    return eng.trace(eng.run(cap))


def search_giant_matching(g, gp, cfg: VisitConfig) -> VisitTrace:
    """Giant-component search for the matching model: bootstrap attempts and
    a second *sequential* phase (no parallel variant exists for matchings);
    gives up (IterationCap) after 4 ceil(log2 n) failed attempts."""
    if g.model_tag != "matching":
        raise ValueError("matching search requires a matching-bridge graph")
    return _giant_search(_MatchingEngine(g, gp, {0}, set(), cfg), lambda eng: eng)


# ---------------------------------------------------------------------------
# plain BFS (upper-bound device and generic reachability)
# ---------------------------------------------------------------------------

def plain_bfs(gp: PercolationGraph, s: int, flavor: str = "neighbor") -> VisitTrace:
    """Standard FIFO BFS over the percolation graph from s.

    flavor="neighbor" explores retained edges one hop at a time, queueing
    each node's neighbours in ascending order; it runs scipy's
    `breadth_first_order` on a sorted-row CSR of every retained edge.
    flavor="cluster" starts from the local cluster of s and queues, for
    each dequeued node, the local cluster of each retained-bridge neighbor;
    it runs on `bfs_order`.  Both reach exactly the component of s.  Row i
    of the trace is (|Q|, |R|, 0) once the (i+1)-th node has left the queue.
    """
    if flavor not in ("neighbor", "cluster"):
        raise ValueError(f"unknown flavor: {flavor}")
    _check_node(gp.n, s)
    if flavor == "neighbor":
        from scipy.sparse.csgraph import breadth_first_order
        sources = [s]
        adj = _csr(gp.n, *gp.active_edge_arrays())
        order, pred = breadth_first_order(_matrix(adj.indptr, adj.indices), s,
                                          directed=True, return_predecessors=True)
        # found[i] counts the nodes first reached from order[i], their
        # predecessor; the source has none
        rank = np.empty(gp.n, dtype=np.int64)
        rank[order] = np.arange(len(order))
        found = np.bincount(rank[pred[order[1:]]], minlength=len(order))
        order = order.tolist()
    else:
        adj = gp.retained_bridge_adjacency()
        sources = sorted(local_cluster(gp, s))

        def neighbors(w):
            return [y for x in adj[w] for y in sorted(local_cluster(gp, x))]

        order, found = bfs_order(sources, neighbors)
    queued = len(sources) - 1 + np.cumsum(found) - np.arange(len(order))
    rounds = list(zip(queued.tolist(), range(1, len(order) + 1), repeat(0)))
    return VisitTrace(rounds, set(), set(order), set(), QUEUE_EMPTY)
