"""Discrete-time epidemic processes on graphs and the percolation link.

All processes are synchronous: at step t every infectious node u attempts to
transmit to each susceptible neighbor v with probability p(e) independently.
Transmission randomness is consumed in a canonical order (round-major, edges
sorted by endpoints), so traces replay exactly from a seed and the k=1
multi-attempt process produces bit-identical traces to the single-shot run.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graphs import GenericGraph, PercolationGraph, SmallWorldGraph, percolate


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class EpidemicConfig:
    """Transmission and timing parameters.

    Either a uniform `p`, or a split (p_local for ring edges, p_bridge for
    bridges), or an explicit per-edge map {(u,v): prob} with u < v.
    Incubation is None (plain SIR), ("fixed", h), or ("geometric", q):
    geometric counts failures before the first success, so its mean is
    (1-q)/q (2 at q = 1/3).
    """

    p: Optional[float] = None
    p_local: Optional[float] = None
    p_bridge: Optional[float] = None
    p_map: Optional[dict] = None
    k_attempts: int = 1
    incubation: Optional[tuple] = None

    def __post_init__(self):
        if self.k_attempts < 1:
            raise ValueError("need k_attempts >= 1")
        for name in ("p", "p_local", "p_bridge"):
            val = getattr(self, name)
            if val is not None and not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {val}")
        if self.p is None and self.p_local is None and self.p_map is None:
            raise ValueError("no transmission probability configured")
        if self.incubation is not None:
            kind = self.incubation[0]
            if kind not in ("fixed", "geometric"):
                raise ValueError(f"unknown incubation law: {kind}")

    def edge_prob(self, u: int, v: int, kind: str) -> float:
        if self.p_map is not None:
            return self.p_map[(min(u, v), max(u, v))]
        if self.p is not None:
            return self.p
        if kind == "B" and self.p_bridge is not None:
            return self.p_bridge
        return self.p_local

    def draw_incubations(self, rng: np.random.Generator, m: int) -> list:
        """Incubation periods of m newly infected nodes, in order; one
        vector draw gives the same stream as m scalar draws."""
        if self.incubation is None:
            return [0] * m
        kind, param = self.incubation
        if kind == "fixed":
            return [int(param)] * m
        # numpy geometric counts trials until success; shift to failures
        return (rng.geometric(param, size=m) - 1).tolist()


@dataclass
class EpidemicTrace:
    """Per-step population counts plus the final reached set.

    counts[t] = (|S_t|, |E_t|, |I_t|, |R_t|); these always partition V.
    stop_time is the first t > 0 with E_t and I_t both empty, or the step
    cap; truncated says the cap was hit while nodes were still exposed or
    infectious (they are counted in final_recovered, not in the last row).
    """

    counts: list
    final_recovered: set
    stop_time: int
    truncated: bool = False

    @property
    def final_size(self) -> int:
        return len(self.final_recovered)

    @property
    def last_infectious_time(self) -> int:
        """Largest t with I_t nonempty."""
        for t in range(len(self.counts) - 1, -1, -1):
            if self.counts[t][2] > 0:
                return t
        return -1

    def infectious_sizes(self) -> list:
        return [c[2] for c in self.counts]

    def to_csv_rows(self) -> list:
        rows = ["t,s,e,i,r"]
        for t, (s, e, i, r) in enumerate(self.counts):
            rows.append(f"{t},{s},{e},{i},{r}")
        return rows


# ---------------------------------------------------------------------------
# core simulator
# ---------------------------------------------------------------------------

def _simulate(g, I0, cfg: EpidemicConfig, rng: np.random.Generator,
              max_steps: Optional[int] = None) -> EpidemicTrace:
    n = g.n
    I0 = sorted(set(I0))
    if not I0:
        raise ValueError("need a nonempty initially-infectious set")
    if I0[0] < 0 or I0[-1] >= n:
        raise ValueError("initial nodes out of range")
    ring = not isinstance(g, GenericGraph)
    adj = g.bridge_adjacency() if ring else g.adjacency()
    indptr, indices = adj.indptr, adj.indices
    kind_bit = 0 if ring else 2   # adjacency edges are bridges (B) or plain (R)
    if max_steps is None:
        max_steps = 2 * n + 10
    p_map = cfg.p_map
    # per-attempt probability by kind bit (0 = B, 1 = R), unless p_map is set
    p_kind = None if p_map is not None else (cfg.edge_prob(0, 1, "B"),
                                             cfg.edge_prob(0, 1, "R"))
    inc_rng = None  # spawned lazily so edge randomness matches the plain run

    k = cfg.k_attempts
    susceptible = bytearray(b"\x01") * n
    for v in I0:
        susceptible[v] = 0
    exposed: dict = {}                    # node -> remaining incubation steps
    infectious = dict.fromkeys(I0, 0)     # node -> completed attempts
    reached = list(I0)
    n_s, n_r = n - len(I0), 0
    counts = [(n_s, 0, len(I0), 0)]
    t = 0
    while (infectious or exposed) and t < max_steps:
        t += 1
        # transmissions in canonical order: an attempt u -> v along an edge
        # of kind bit c is keyed ((min*n + max)*2 + c)*2 + [v is the max],
        # so sorting the keys sorts by edge endpoints, B before R
        attempts = []
        for u in sorted(infectious):
            if ring:
                for v in ((u - 1) % n, (u + 1) % n):
                    if susceptible[v]:
                        attempts.append((u * n + v) * 4 + 3 if u < v else (v * n + u) * 4 + 2)
            for v in indices[indptr[u]:indptr[u + 1]]:
                if susceptible[v]:
                    attempts.append((u * n + v) * 4 + 1 + kind_bit if u < v
                                    else (v * n + u) * 4 + kind_bit)
        newly = []
        if attempts:
            attempts.sort()
            # one coin per attempt, drawn in attempt order; a node already
            # infected this round by a lower-sorted edge still uses its coin
            for key, coin in zip(attempts, rng.random(len(attempts)).tolist()):
                pair = key >> 2
                v = pair % n if key & 1 else pair // n
                if not susceptible[v]:
                    continue
                p = p_kind[(key >> 1) & 1] if p_map is None else p_map[divmod(pair, n)]
                if coin < p:
                    susceptible[v] = 0
                    newly.append(v)
        # state transitions: existing exposed nodes count down first, so a
        # node infected this round waits a full h steps in E
        for v in list(exposed):
            exposed[v] -= 1
            if exposed[v] == 0:
                del exposed[v]
                infectious[v] = -1  # becomes age 0 below
        if newly:
            newly.sort()
            if cfg.incubation is not None and inc_rng is None:
                inc_rng = rng.spawn(1)[0]
            for v, h in zip(newly, cfg.draw_incubations(inc_rng, len(newly))):
                if h > 0:
                    exposed[v] = h
                else:
                    infectious[v] = -1
            n_s -= len(newly)
            reached += newly
        for v in list(infectious):
            age = infectious[v] + 1
            if age >= k:
                del infectious[v]
                n_r += 1
            else:
                infectious[v] = age
        counts.append((n_s, len(exposed), len(infectious), n_r))
        if sum(counts[-1]) != n:
            raise RuntimeError(f"step {t}: S+E+I+R = {sum(counts[-1])}, not n = {n}")
    return EpidemicTrace(counts, set(reached), t, bool(infectious or exposed))


def run_rf(g, I0, cfg: EpidemicConfig, rng: np.random.Generator,
           max_steps: Optional[int] = None) -> EpidemicTrace:
    """Reed-Frost SIR: one infectious step per node, no incubation."""
    if cfg.k_attempts != 1:
        raise ValueError("single-shot run requires k_attempts=1")
    if cfg.incubation is not None:
        raise ValueError("single-shot run takes no incubation law")
    return _simulate(g, I0, cfg, rng, max_steps)


def run_ic_k_attempts(g, I0, cfg: EpidemicConfig, rng: np.random.Generator,
                      max_steps: Optional[int] = None) -> EpidemicTrace:
    """Independent cascade where each node stays infectious k consecutive
    steps, attempting every susceptible neighbor independently each step."""
    if cfg.incubation is not None:
        raise ValueError("multi-attempt run takes no incubation law")
    return _simulate(g, I0, cfg, rng, max_steps)


def run_seir(g, I0, cfg: EpidemicConfig, rng: np.random.Generator,
             max_steps: Optional[int] = None) -> EpidemicTrace:
    """SEIR: newly infected nodes wait out their incubation in E first.

    Incubation draws come from a separately spawned stream, so the edge
    randomness (and hence the final reached set) is identical to the plain
    run with the same seed.
    """
    if cfg.k_attempts != 1:
        raise ValueError("incubation run requires k_attempts=1")
    return _simulate(g, I0, cfg, rng, max_steps)


def run_rf_coupled(g, I0, p_values, rng: np.random.Generator) -> list:
    """Monotone coupling across transmission probabilities.

    Each undirected edge is attempted at most once in a single-shot
    realization, so one shared uniform per edge reproduces the percolation
    coupling: the edge fires at every p above its uniform.  The reached
    sets are therefore nested along sorted p.  Returns the list of final
    recovered sets in the order of p_values.
    """
    n = g.n
    I0 = set(I0)
    if not I0:
        raise ValueError("need a nonempty initially-infectious set")
    uniforms: dict = {}

    def coin(u, v, t):
        key = (min(u, v), max(u, v))
        if key not in uniforms:
            uniforms[key] = rng.random()
        return uniforms[key]

    if isinstance(g, GenericGraph):
        adj = g.adjacency()
        nbr = lambda u: adj[u]
    else:
        bridge_adj = g.bridge_adjacency()
        nbr = lambda u: [(u - 1) % n, (u + 1) % n] + list(bridge_adj[u])

    results = []
    for p in p_values:
        susceptible = set(range(n)) - I0
        infectious = set(I0)
        recovered: set = set()
        t = 0
        while infectious and t < 2 * n + 10:
            t += 1
            newly = set()
            for u in sorted(infectious):
                for v in nbr(u):
                    if v in susceptible and coin(u, v, t) < p:
                        newly.add(v)
            susceptible -= newly
            recovered |= infectious
            infectious = newly
        results.append(recovered | infectious)
    return results


# ---------------------------------------------------------------------------
# percolation equivalence harness
# ---------------------------------------------------------------------------

def _bfs_layers(gp: PercolationGraph, I0) -> list:
    """Sizes (N0, N1, ...) of the hop-distance levels from I0 in the
    retained subgraph."""
    n = gp.n
    eu, ev = gp.active_edge_arrays()
    adj = [[] for _ in range(n)]
    for u, v in zip(eu.tolist(), ev.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    layers = []
    frontier = set(I0)
    seen = set(I0)
    while frontier:
        layers.append(len(frontier))
        nxt = set()
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    return layers


def percolation_reachability_law(g, I0, p_local: float, p_bridge: float,
                                 trials: int, rng: np.random.Generator):
    """Empirical law of (reachable-set size, hop-level sizes) obtained by
    percolating and BFS-layering from I0, one sample per trial.

    Returns (Counter over total size, Counter over layer tuples).
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    I0 = sorted(set(I0))
    size_law: Counter = Counter()
    layer_law: Counter = Counter()
    for _ in range(trials):
        gp = percolate(g, p_local, p_bridge, rng)
        layers = _bfs_layers(gp, I0)
        size_law[sum(layers)] += 1
        layer_law[tuple(layers)] += 1
    return size_law, layer_law


# ---------------------------------------------------------------------------
# exact oracles (small graphs only)
# ---------------------------------------------------------------------------

def exact_final_size_law(g, I0, cfg: EpidemicConfig) -> dict:
    """Exact law of the final reached-set size by enumerating all 2^|E|
    retained-edge subsets, each weighted by prod p(e) * prod (1-p(e)).

    Only feasible for fixture-sized graphs; the simulators are tested
    against it via total-variation distance.
    """
    edges = [(u, v, kind) for u, v, kind in g.edges()]
    if len(edges) > 22:
        raise ValueError("enumeration oracle limited to small graphs")
    I0 = set(I0)
    n = g.n
    law: dict = {}
    for keep in itertools.product([False, True], repeat=len(edges)):
        weight = 1.0
        adj = [[] for _ in range(n)]
        for kept, (u, v, kind) in zip(keep, edges):
            pe = cfg.edge_prob(u, v, kind)
            if kept:
                weight *= pe
                adj[u].append(v)
                adj[v].append(u)
            else:
                weight *= 1.0 - pe
        if weight == 0.0:
            continue
        seen = set(I0)
        stack = list(I0)
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        law[len(seen)] = law.get(len(seen), 0.0) + weight
    return law


def total_variation(law_a: dict, law_b: dict) -> float:
    """TV distance between two laws given as value -> probability maps
    (Counters are normalized first)."""
    def normalize(d):
        total = sum(d.values())
        return {k: v / total for k, v in d.items()}

    a, b = normalize(law_a), normalize(law_b)
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def fixture_graph() -> GenericGraph:
    """6-node test graph: the 5-cycle 0-1-2-3-4-0 with chord {0,3} and an
    isolated node 5."""
    eu = np.array([0, 1, 2, 3, 0, 0])
    ev = np.array([1, 2, 3, 4, 4, 3])
    order = np.lexsort((ev, eu))
    return GenericGraph(6, eu[order], ev[order])
