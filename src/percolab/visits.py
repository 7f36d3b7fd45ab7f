"""Exploration algorithms over the percolation graph.

All visits maintain three disjoint node sets: the queue Q, the visited set R,
and the deleted set D.  The L-truncated visits only expand through retained
bridges whose endpoint is "free" (far enough along the ring from everything
already touched), which keeps the enqueued local clusters disjoint.  Each
visit records a per-round trace of (|Q|, |R|, |D|) for statistical checks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .graphs import PercolationGraph, SmallWorldGraph
from .local_clusters import RingOccupancy, truncated_local_cluster

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
        if self.L < 1 or self.k < 1 or self.beta <= 0 or self.beta_prime <= 0:
            raise ValueError("visit parameters must be positive")

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


def _default_seq_cap(n: int) -> int:
    return 20 * n


def _default_par_cap(n: int) -> int:
    return 20 * math.ceil(math.log2(max(n, 2)))


# ---------------------------------------------------------------------------
# sequential L-visit (Erdos-bridge model)
# ---------------------------------------------------------------------------

class _SequentialEngine:
    """Stepwise sequential L-visit; shared by the plain visit, the union
    visit, and the giant-component search (which re-seeds the queue between
    bootstrap attempts while keeping D)."""

    def __init__(self, g: SmallWorldGraph, gp: PercolationGraph, I0, D0, cfg: VisitConfig):
        self.g = g
        self.gp = gp
        self.cfg = cfg
        self.adj = gp.retained_bridge_adjacency()
        self.q = deque(sorted(I0))
        self.in_q = set(I0)
        self.r: set = set()
        self.d: set = set(D0)
        self.occ = RingOccupancy(g.n, list(I0) + list(D0))
        self.rounds: list = []

    def reseed(self, s: int) -> None:
        """Start a fresh bootstrap attempt from s, keeping D."""
        self.q = deque([s])
        self.in_q = {s}
        self.r = set()
        self.occ = RingOccupancy(self.g.n, [s] + list(self.d))

    def _record(self) -> None:
        self.rounds.append((len(self.in_q), len(self.r), len(self.d)))

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

    def run(self, max_rounds: int,
            stop_queue_threshold: Optional[int] = None,
            stop_linear_size: Optional[int] = None) -> str:
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


def sequential_l_visit(g, gp, I0, D0, cfg: VisitConfig,
                       cap: Optional[int] = None) -> VisitTrace:
    """FIFO sequential L-visit from initiators I0 with pre-deleted D0."""
    I0, D0 = set(I0), set(D0)
    if not I0:
        raise ValueError("need a nonempty initiator set")
    if I0 & D0:
        raise ValueError("I0 and D0 must be disjoint")
    eng = _SequentialEngine(g, gp, I0, D0, cfg)
    reason = eng.run(cap if cap is not None else _default_seq_cap(g.n))
    return eng.trace(reason)


# ---------------------------------------------------------------------------
# parallel L-visit
# ---------------------------------------------------------------------------

def _free_subset(n: int, xs: list, occ: RingOccupancy, L: int) -> list:
    """Members of the sorted candidate list xs that are at ring distance
    >= L+1 from every occupied node and >= 2L+1 from every other candidate."""
    m = len(xs)
    out = []
    for i, x in enumerate(xs):
        if m > 1:
            left = xs[i - 1]
            right = xs[(i + 1) % m]
            dl = min((x - left) % n, (left - x) % n)
            dr = min((x - right) % n, (right - x) % n)
            if dl < 2 * L + 1 or dr < 2 * L + 1:
                continue
        if occ.min_distance(x) < L + 1:
            continue
        out.append(x)
    return out


class _ParallelEngine:
    def __init__(self, g, gp, I0, D0, cfg: VisitConfig):
        self.g = g
        self.gp = gp
        self.cfg = cfg
        self.adj = gp.retained_bridge_adjacency()
        self.q = set(I0)
        self.r: set = set()
        self.d = set(D0)
        self.occ = RingOccupancy(g.n, list(I0) + list(D0))
        self.rounds: list = []

    def step(self) -> None:
        """One outer round: collect the retained-bridge neighbors X of Q,
        expand the truncated cluster of every parallel-free member of X into
        the next queue, and retire Q into R."""
        L = self.cfg.L
        n = self.g.n
        X = sorted({x for w in self.q for x in self.adj[w]})
        new_q: set = set()
        for x in _free_subset(n, X, self.occ, L):
            new_q |= truncated_local_cluster(self.gp, x, L)
        self.r |= self.q
        self.q = new_q
        for y in new_q:
            self.occ.add(y)
        self.rounds.append((len(self.q), len(self.r), len(self.d)))

    def run(self, max_rounds: int, stop_linear_size: Optional[int] = None) -> str:
        done = 0
        while True:
            if not self.q:
                return QUEUE_EMPTY
            if stop_linear_size is not None and len(self.q) + len(self.r) >= stop_linear_size:
                return REACHED_LINEAR_SIZE
            if done >= max_rounds:
                return ITERATION_CAP
            self.step()
            done += 1

    def trace(self, reason: str, **extra) -> VisitTrace:
        t = VisitTrace(self.rounds, set(self.q), set(self.r), set(self.d),
                       reason, **extra)
        t.check_disjoint()
        return t


def parallel_l_visit(g, gp, I0, D0, cfg: VisitConfig,
                     cap: Optional[int] = None,
                     stop_linear_size: Optional[int] = None) -> VisitTrace:
    """Round-synchronous L-visit; each outer round advances one hop level."""
    import warnings

    I0, D0 = set(I0), set(D0)
    if not I0:
        raise ValueError("need a nonempty initiator set")
    if I0 & D0:
        raise ValueError("I0 and D0 must be disjoint")
    if len(D0) > math.log(max(g.n, 2)) ** 4:
        warnings.warn("deleted set larger than log^4 n; growth guarantees may not apply")
    eng = _ParallelEngine(g, gp, I0, D0, cfg)
    reason = eng.run(cap if cap is not None else _default_par_cap(g.n),
                     stop_linear_size=stop_linear_size)
    return eng.trace(reason)


# ---------------------------------------------------------------------------
# union visit and giant-component search
# ---------------------------------------------------------------------------

def union_l_visit(g, gp, I0, cfg: VisitConfig,
                  cap_sequential: Optional[int] = None,
                  cap_parallel: Optional[int] = None) -> VisitTrace:
    """Sequential phase until Q empties or |Q| >= beta*ln n, then a parallel
    phase until Q empties.  The trace marks the phase-switch round."""
    I0 = set(I0)
    if not I0:
        raise ValueError("need a nonempty initiator set")
    n = g.n
    eng = _SequentialEngine(g, gp, I0, set(), cfg)
    reason = eng.run(cap_sequential if cap_sequential is not None else _default_seq_cap(n),
                     stop_queue_threshold=cfg.queue_threshold(n))
    if reason == QUEUE_EMPTY or not eng.in_q:
        return eng.trace(reason, phase_switch_round=None)
    switch = len(eng.rounds)
    par = _ParallelEngine(g, gp, set(eng.in_q), eng.r | eng.d, cfg)
    par.rounds = eng.rounds
    preason = par.run(cap_parallel if cap_parallel is not None else _default_par_cap(n))
    # the sequential R/D snapshot was folded into the parallel D0; report it as R/D
    final_r = (par.r | par.d) - eng.d
    trace = VisitTrace(par.rounds, set(par.q), final_r, set(eng.d), preason,
                       phase_switch_round=switch)
    trace.check_disjoint()
    return trace


def _giant_search(g, gp, cfg: VisitConfig, engine_factory, second_phase,
                  attempt_cap: Optional[int]) -> VisitTrace:
    n = g.n
    threshold = cfg.queue_threshold(n)
    linear = cfg.linear_size(n)
    rounds_per_attempt = cfg.bootstrap_rounds(n)
    if attempt_cap is None:
        # gamma (per-attempt success probability) taken as 1/2
        attempt_cap = 4 * math.ceil(math.log2(max(n, 2)))
    eng = engine_factory()
    attempts = 0
    while attempts < attempt_cap:
        candidates = (v for v in range(n) if v not in eng.d)
        s = next(candidates, None)
        if s is None:
            break
        attempts += 1
        eng.reseed(s)
        eng.run(rounds_per_attempt,
                stop_queue_threshold=threshold + 1,
                stop_linear_size=linear + 1)
        if len(eng.in_q) + len(eng.r) > linear:
            # this attempt alone visited a linear-size set; done
            return eng.trace(REACHED_LINEAR_SIZE, attempts=attempts)
        if len(eng.in_q) > threshold:
            return second_phase(eng, attempts)
        eng.d |= eng.r
        eng.r = set()
    return eng.trace(ITERATION_CAP, attempts=attempts)


def search_giant_erdos(g, gp, cfg: VisitConfig,
                       attempt_cap: Optional[int] = None) -> VisitTrace:
    """Bootstrap attempts via the sequential visit, then a parallel visit
    seeded with the surviving queue.  Reports failure (IterationCap) after
    the attempt cap when no bootstrap succeeds, as expected below threshold."""
    n = g.n

    def second_phase(eng, attempts):
        switch = len(eng.rounds)
        par = _ParallelEngine(g, gp, set(eng.in_q), eng.r | eng.d, cfg)
        par.rounds = eng.rounds
        reason = par.run(_default_par_cap(n), stop_linear_size=cfg.linear_size(n))
        trace = par.trace(reason, phase_switch_round=switch, attempts=attempts)
        return trace

    return _giant_search(g, gp, cfg, lambda: _SequentialEngine(g, gp, {0}, set(), cfg),
                         second_phase, attempt_cap)


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
        ring_neighbors = lambda v: {(v - 1) % g.n, (v + 1) % g.n}
        for v in set(D0):
            d_init |= ring_neighbors(v)
            d_init |= set(g.bridge_adjacency()[v])
        d_init -= set(I0)
        super().__init__(g, gp, I0, d_init, cfg)
        self.full_adj = g.bridge_adjacency()

    def _dequeue(self) -> Optional[int]:
        while self.q:
            w = self.q.popleft()
            if w in self.in_q:
                return w
        return None

    def step(self) -> None:
        w = self._dequeue()
        if w is None:
            return
        self.in_q.discard(w)
        self.r.add(w)
        L = self.cfg.L
        nbrs = self.full_adj[w]
        if nbrs:
            x = nbrs[0]
            free = self.occ.min_distance(x) >= L + 1
            retained = x in self.adj[w]
            if free and retained:
                cluster = truncated_local_cluster(self.gp, x, L)
                for y in sorted(cluster - {x}):
                    self.q.append(y)
                    self.in_q.add(y)
                    self.occ.add(y)
                self.r.add(x)
                self.occ.add(x)
            elif free:
                self.d.add(x)
                self.occ.add(x)
            elif x in self.in_q:
                self.in_q.discard(x)
                self.r.add(x)
            elif x not in self.r and x not in self.d:
                self.d.add(x)
                self.occ.add(x)
        self._record()

    def run(self, max_rounds: int,
            stop_queue_threshold: Optional[int] = None,
            stop_linear_size: Optional[int] = None) -> str:
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


def sequential_l_visit_matching(g, gp, I0, D0, cfg: VisitConfig,
                                cap: Optional[int] = None) -> VisitTrace:
    """Four-case sequential visit for graphs whose bridges form a matching."""
    import warnings

    if g.model_tag != "matching":
        raise ValueError("matching visit requires a matching-bridge graph")
    I0, D0 = set(I0), set(D0)
    if not I0:
        raise ValueError("need a nonempty initiator set")
    if I0 & D0:
        raise ValueError("I0 and D0 must be disjoint")
    if len(D0) > math.log(max(g.n, 2)) ** 4:
        warnings.warn("deleted set larger than log^4 n; growth guarantees may not apply")
    eng = _MatchingEngine(g, gp, I0, D0, cfg)
    reason = eng.run(cap if cap is not None else _default_seq_cap(g.n))
    return eng.trace(reason)


def search_giant_matching(g, gp, cfg: VisitConfig,
                          attempt_cap: Optional[int] = None) -> VisitTrace:
    """Giant-component search for the matching model: bootstrap attempts and
    a second *sequential* phase (no parallel variant exists for matchings)."""
    if g.model_tag != "matching":
        raise ValueError("matching search requires a matching-bridge graph")
    n = g.n

    def second_phase(eng, attempts):
        switch = len(eng.rounds)
        reason = eng.run(_default_seq_cap(n), stop_linear_size=cfg.linear_size(n))
        return eng.trace(reason, phase_switch_round=switch, attempts=attempts)

    return _giant_search(g, gp, cfg, lambda: _MatchingEngine(g, gp, {0}, set(), cfg),
                         second_phase, attempt_cap)


# ---------------------------------------------------------------------------
# plain BFS (upper-bound device and generic reachability)
# ---------------------------------------------------------------------------

def plain_bfs(gp: PercolationGraph, s: int, cap: Optional[int] = None,
              flavor: str = "neighbor") -> VisitTrace:
    """Standard BFS over the percolation graph from s.

    flavor="neighbor" explores retained edges one hop at a time;
    flavor="cluster" dequeues a node, then enqueues the unvisited local
    cluster of each unvisited retained-bridge neighbor (the queue is seeded
    with the local cluster of s).  Both reach exactly the component of s.
    """
    if flavor not in ("neighbor", "cluster"):
        raise ValueError(f"unknown flavor: {flavor}")
    n = gp.n
    cap = cap if cap is not None else 2 * n
    rounds: list = []
    if flavor == "neighbor":
        adj = gp.retained_bridge_adjacency()
        ring = gp.ring_active

        def neighbors(w):
            out = list(adj[w])
            if ring is not None:
                if ring[w % n]:
                    out.append((w + 1) % n)
                if ring[(w - 1) % n]:
                    out.append((w - 1) % n)
            return sorted(out)

        q = deque([s])
        seen = {s}
        r: set = set()
        done = 0
        while q and done < cap:
            w = q.popleft()
            r.add(w)
            for y in neighbors(w):
                if y not in seen:
                    seen.add(y)
                    q.append(y)
            rounds.append((len(q), len(r), 0))
            done += 1
        reason = QUEUE_EMPTY if not q else ITERATION_CAP
        trace = VisitTrace(rounds, set(q), r, set(), reason)
    else:
        adj = gp.retained_bridge_adjacency()
        from .local_clusters import local_cluster

        seed = sorted(local_cluster(gp, s))
        q = deque(seed)
        seen = set(seed)
        r = set()
        done = 0
        while q and done < cap:
            w = q.popleft()
            r.add(w)
            for x in adj[w]:
                if x not in seen:
                    for y in sorted(local_cluster(gp, x)):
                        if y not in seen:
                            seen.add(y)
                            q.append(y)
            rounds.append((len(q), len(r), 0))
            done += 1
        reason = QUEUE_EMPTY if not q else ITERATION_CAP
        trace = VisitTrace(rounds, set(q), r, set(), reason)
    trace.check_disjoint()
    return trace
