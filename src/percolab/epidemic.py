"""Discrete-time epidemic processes on graphs and the percolation link.

All processes are synchronous: at step t every infectious node u attempts to
transmit to each susceptible neighbor v with probability p(e) independently.
Transmission randomness is consumed in a canonical order (round-major, edges
sorted by endpoints), so traces replay exactly from a seed and the k=1
multi-attempt process produces bit-identical traces to the single-shot run.
A step with few infectious nodes finds its new cases node by node; a larger
one does it with numpy on the CSR arrays, from the same keys and the same
coins, so the traces do not depend on which step ran.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import (
    GenericGraph,
    PercolationGraph,
    bfs_order,
    component_labels,
    percolate,
    percolate_coupled,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class EpidemicConfig:
    """Transmission and timing parameters.

    Exactly one of: a uniform `p`, a split (p_local for ring edges,
    p_bridge for bridges, p_local alone for both), or an explicit per-edge
    map {(u,v): prob} with u < v that covers every edge of the graph.
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
        if self.p_map is not None:
            for edge, val in self.p_map.items():
                if not 0.0 <= val <= 1.0:
                    raise ValueError(f"p_map{edge} out of [0,1]: {val}")
        split = self.p_local is not None or self.p_bridge is not None
        if (self.p is not None) + split + (self.p_map is not None) > 1:
            raise ValueError("set only one of p, p_local/p_bridge and p_map")
        if self.p_bridge is not None and self.p_local is None:
            raise ValueError("p_bridge needs p_local, the ring-edge probability")
        if self.p is None and self.p_local is None and self.p_map is None:
            raise ValueError("no transmission probability configured")
        if self.incubation is not None:
            kind, param = self.incubation
            if kind not in ("fixed", "geometric"):
                raise ValueError(f"unknown incubation law: {kind}")
            if kind == "fixed" and not (isinstance(param, (int, np.integer)) and param >= 0):
                raise ValueError(f"fixed incubation needs an integer h >= 0, got {param!r}")
            if kind == "geometric" and not 0 < param <= 1:
                raise ValueError(f"geometric incubation needs 0 < q <= 1, got {param!r}")

    def edge_prob(self, u: int, v: int, kind: str) -> float:
        if self.p_map is not None:
            edge = (min(u, v), max(u, v))
            if edge not in self.p_map:
                raise ValueError(f"p_map has no probability for edge {edge}")
            return self.p_map[edge]
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

def _initial_nodes(g, I0) -> list:
    """The distinct initially-infectious nodes, sorted; refuses an empty set
    and nodes outside [0, n)."""
    I0 = sorted(set(I0))
    if not I0:
        raise ValueError("need a nonempty initially-infectious set")
    if I0[0] < 0 or I0[-1] >= g.n:
        raise ValueError("initial nodes out of range")
    return I0


# Frontiers of fewer infectious nodes take the per-node step, where numpy's
# fixed cost per call outweighs the loop (measured in _simulate on n = 2e5
# swg and matching graphs and the six-node fixture, see CHANGES.md).
_ARRAY_STEP_MIN = 32


def _keys_fit_int64(n: int) -> bool:
    """True iff every attempt key ((min*n + max)*2 + kind)*2 + direction,
    which is below 4n^2, fits an int64."""
    return 4 * n * n <= 2 ** 63


def _attempt_keys(u: np.ndarray, v: np.ndarray, n: int, kind_bit: int) -> np.ndarray:
    """Keys of the attempts u[i] -> v[i], as the per-node step of
    `_simulate` builds them; `kind_bit` is 0 for bridges (B) and 2 for ring
    or plain edges (R)."""
    up = u < v
    lo = np.where(up, u, v)
    return (lo * n + (u + v - lo)) * 4 + kind_bit + up


def _array_cases(frontier: np.ndarray, n: int, adj, ring: bool, kind_bit: int,
                 p_kind: tuple, susceptible: np.ndarray,
                 rng: np.random.Generator) -> list:
    """This step's new cases, sorted, from the infectious nodes `frontier`:
    the per-node step of `_simulate` on arrays.  It builds the same attempt
    keys, sorts them (so the order of `frontier` does not matter), draws one
    coin per key in key order and marks the cases in `susceptible`."""
    starts = adj.indptr[frontier]
    sizes = adj.indptr[frontier + 1] - starts
    # row positions of every neighbour: each row's start plus its rank in it
    pos = np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    u, v = np.repeat(frontier, sizes), adj.indices[pos]
    live = susceptible[v] != 0
    keys = [_attempt_keys(u[live], v[live], n, kind_bit)]
    if ring:
        u = np.concatenate([frontier, frontier])
        v = np.concatenate([(frontier - 1) % n, (frontier + 1) % n])
        live = susceptible[v] != 0
        keys.append(_attempt_keys(u[live], v[live], n, 2))
    keys = np.sort(np.concatenate(keys))
    if not len(keys):
        return []
    pair = keys >> 2
    targets = np.where(keys & 1, pair % n, pair // n)
    hit = rng.random(len(keys)) < np.where(keys & 2, p_kind[1], p_kind[0])
    newly = np.unique(targets[hit])
    susceptible[newly] = 0
    return newly.tolist()


def _simulate(g, I0, cfg: EpidemicConfig, rng: np.random.Generator,
              max_steps: Optional[int] = None) -> EpidemicTrace:
    n = g.n
    I0 = _initial_nodes(g, I0)
    ring = not isinstance(g, GenericGraph)
    adj = g.bridge_adjacency() if ring else g.adjacency()
    kind_bit = 0 if ring else 2   # adjacency edges are bridges (B) or plain (R)
    if max_steps is None:
        max_steps = 2 * n + 10
    p_map = cfg.p_map
    if p_map is not None:
        for u, v, kind in g.edges():  # refuse a map that lacks an edge up front
            cfg.edge_prob(u, v, kind)
    # per-attempt probability by kind bit (0 = B, 1 = R), unless p_map is set
    p_kind = None if p_map is not None else (cfg.edge_prob(0, 1, "B"),
                                             cfg.edge_prob(0, 1, "R"))
    arrays = p_kind is not None and _keys_fit_int64(n)
    inc_rng = None  # spawned lazily so edge randomness matches the plain run

    k = cfg.k_attempts
    susceptible = bytearray(b"\x01") * n
    for v in I0:
        susceptible[v] = 0
    # made on first use: the Python CSR for the per-node step, and the array
    # view of `susceptible` (which then must not resize) for the array step
    indptr = indices = susceptible_view = None
    exposed: dict = {}                    # node -> remaining incubation steps
    infectious = dict.fromkeys(I0, 0)     # node -> completed attempts
    reached = list(I0)
    n_s, n_r = n - len(I0), 0
    counts = [(n_s, 0, len(I0), 0)]
    t = 0
    while (infectious or exposed) and t < max_steps:
        t += 1
        if arrays and len(infectious) >= _ARRAY_STEP_MIN:
            if susceptible_view is None:
                susceptible_view = np.frombuffer(susceptible, dtype=np.uint8)
            frontier = np.fromiter(infectious, dtype=np.int64, count=len(infectious))
            newly = _array_cases(frontier, n, adj, ring, kind_bit, p_kind,
                                 susceptible_view, rng)
        else:
            if indptr is None:
                indptr, indices = adj.lists()
            # transmissions in canonical order: an attempt u -> v along an
            # edge of kind bit c is keyed ((min*n + max)*2 + c)*2 + [v is the
            # max], so sorting the keys sorts by edge endpoints, B before R
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
            newly.sort()
        # state transitions: existing exposed nodes count down first, so a
        # node infected this round waits a full h steps in E
        for v in list(exposed):
            exposed[v] -= 1
            if exposed[v] == 0:
                del exposed[v]
                infectious[v] = -1  # becomes age 0 below
        if newly:
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
    run with the same seed.  A config without an incubation law is refused.
    """
    if cfg.incubation is None:
        raise ValueError("seir requires an incubation law")
    if cfg.k_attempts != 1:
        raise ValueError("incubation run requires k_attempts=1")
    return _simulate(g, I0, cfg, rng, max_steps)


def run_rf_coupled(g, I0, p_values, rng: np.random.Generator) -> list:
    """Monotone coupling of single-shot (Reed-Frost) runs across
    transmission probabilities, read off coupled bond percolation.

    A single-shot SIR run from I0 at probability p reaches exactly the
    union of I0's components in g percolated at p (Grassberger 1983;
    Newman 2002), each edge tried at most once.  So one
    `percolate_coupled` draw serves every p, and the reached sets are
    nested along sorted p because the retained edge sets are.  Returns the
    list of final recovered sets in the order of p_values.
    """
    I0 = _initial_nodes(g, I0)
    results = []
    for gp in percolate_coupled(g, [(p, p) for p in p_values], rng):
        labels, _ = component_labels(gp)
        results.append(set(np.flatnonzero(np.isin(labels, labels[I0])).tolist()))
    return results


# ---------------------------------------------------------------------------
# percolation equivalence harness
# ---------------------------------------------------------------------------

def _bfs_layers(gp: PercolationGraph, I0) -> list:
    """Sizes (N0, N1, ...) of the hop-distance levels from the distinct
    nodes I0 in the retained subgraph."""
    eu, ev = gp.active_edge_arrays()
    adj = [[] for _ in range(gp.n)]
    for u, v in zip(eu.tolist(), ev.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    _, found = bfs_order(I0, adj.__getitem__)
    # a layer starts once the last node of the one before has left the
    # queue, and holds the nodes that layer reached first
    layers, left, size = [], 0, len(I0)
    for f in found:
        if not left:
            layers.append(size)
            left, size = size, 0
        size += f
        left -= 1
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
        reached = len(bfs_order(I0, adj.__getitem__)[0])
        law[reached] = law.get(reached, 0.0) + weight
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
