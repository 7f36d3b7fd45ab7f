"""Discrete-time epidemic processes on graphs and the percolation link.

All processes are synchronous: at step t every infectious node u attempts to
transmit to each susceptible neighbor v with probability p(e) independently.
Transmission randomness is consumed in a canonical order (round-major, edges
sorted by endpoints), so traces replay exactly from a seed and the k=1
multi-attempt process produces bit-identical traces to the single-shot run.
One array core runs a block of independent runs on one graph: each step
sorts the attempt keys of every run, prefixed by the run, and draws one
coin per key.  A single run is the block of one.  Blocks hold
max(1, 2^17 // n) runs, so the streams of a batch of runs depend only on n
(and on the number of runs, which can cut the last block short).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import (
    GenericGraph,
    _check_integer,
    _check_probabilities,
    _cut,
    _edge_matrix,
    _row_entries,
    bfs_order,
    component_labels,
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

    def draw_incubations(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """Incubation periods of m newly infected nodes, in order, under the
        configured law; one vector draw gives the same stream as m scalar
        draws."""
        kind, param = self.incubation
        if kind == "fixed":
            return np.full(m, param, dtype=np.int64)
        # numpy geometric counts trials until success; shift to failures
        return rng.geometric(param, size=m) - 1


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

# A block of trials draws at most this many uniforms at once (1 MB of
# float64), labels at most this many nodes and holds at most this many
# (trial, node) states: the fixture's trials share a few blocks, and each
# trial on an n = 2e5 graph is a block of its own.
_BLOCK_SIZE = 2 ** 17


def _initial_nodes(g, I0) -> list:
    """The distinct initially-infectious nodes, sorted; refuses an empty set,
    a node that is not an integer and nodes outside [0, n)."""
    I0 = set(I0)
    for v in I0:
        _check_integer(v, "initial node")
    I0 = sorted(I0)
    if not I0:
        raise ValueError("need a nonempty initially-infectious set")
    if I0[0] < 0 or I0[-1] >= g.n:
        raise ValueError("initial nodes out of range")
    return I0


def _keys_fit_int64(n: int) -> bool:
    """True iff every attempt key ((min*n + max)*2 + kind)*2 + direction,
    which is below 4n^2, fits an int64."""
    return 4 * n * n <= 2 ** 63


def _attempt_table(g, cfg: EpidemicConfig) -> tuple:
    """(indptr, targets, keys, probabilities) of every attempt u -> v along
    an edge of `g`: row u, entries indptr[u]:indptr[u + 1], holds one entry
    per edge id at u, ring edges included.  An attempt along an edge of kind
    bit c (1 for an id below num_local, of kind R; 0 for a bridge, B) is
    keyed ((min*n + max)*2 + c)*2 + [v is the max], so sorting the keys
    sorts the attempts by edge endpoints, B before R."""
    n = g.n
    if not _keys_fit_int64(n):
        raise ValueError(f"n = {n} is too large for int64 attempt keys")
    ids = np.arange(g.num_edges)
    u, v = g.ends(ids)
    # one sort of the codes (source*n + target)*2 + c lays out the rows
    target = np.concatenate([u * n + v, v * n + u]) * 2 + np.tile(ids < g.num_local, 2)
    del ids, u, v
    target.sort()
    kind = (target & 1).astype(bool)
    target >>= 1
    source = target // n
    target -= source * n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=n), out=indptr[1:])
    # min*(n - 1) + source + target is min*n + max, built in one temporary
    keys = ((np.minimum(source, target) * (n - 1) + source + target) * 2 + kind) * 2 \
        + (source < target)
    if cfg.p_map is None:
        probs = np.where(kind, cfg.edge_prob(0, 1, "R"), cfg.edge_prob(0, 1, "B"))
    else:
        probs = np.array([cfg.edge_prob(a, b, "R")
                          for a, b in zip(source.tolist(), target.tolist())], dtype=float)
    return indptr, target, keys, probs


def _run_block(table: tuple, I0: list, cfg: EpidemicConfig, block: int,
               rng: np.random.Generator, max_steps: Optional[int] = None) -> tuple:
    """`block` independent runs from I0 on the graph of `table`, node v of
    run b being state b*n + v.  Each step keys the attempts of every run by
    run*4n^2 plus the edge key, sorts them and draws one coin per key in key
    order; a node that several attempts reach still uses every coin.
    Incubation periods come from a stream spawned on the first new case, one
    vector draw per step in (run, node) order.  Returns (history,
    susceptible, truncated): history[t] holds the (S, E, I, R) counts of
    every run after step t, and truncated says the step cap stopped a run."""
    indptr, targets, keys, probs = table
    n = len(indptr) - 1
    if max_steps is None:
        max_steps = 2 * n + 10
    infectious = (np.arange(block)[:, None] * n + I0).ravel()
    age = np.zeros(len(infectious), dtype=np.int64)
    exposed = countdown = np.zeros(0, dtype=np.int64)
    susceptible = np.ones(block * n, dtype=np.uint8)
    susceptible[infectious] = 0
    s, r = np.full(block, n - len(I0)), np.zeros(block, dtype=np.int64)
    history = [(s, r, np.full(block, len(I0)), r)]  # E and R start empty
    inc_rng = None  # spawned lazily so edge randomness matches the plain run
    t = 0
    while (len(infectious) or len(exposed)) and t < max_steps:
        t += 1
        node = infectious % n
        entry, sizes = _row_entries(indptr, node)
        offset = np.repeat(infectious - node, sizes)
        target = offset + targets[entry]
        live = susceptible[target] != 0
        entry, offset, target = entry[live], offset[live], target[live]
        coins = np.empty(len(entry))
        coins[np.argsort(offset * (4 * n) + keys[entry])] = rng.random(len(entry))
        newly = np.sort(target[coins < probs[entry]])
        newly = newly[np.diff(newly, prepend=-1) != 0]
        susceptible[newly] = 0
        # state transitions: existing exposed nodes count down first, so a
        # node infected this round waits a full h steps in E
        countdown = countdown - 1
        ready = countdown == 0
        h = np.zeros(len(newly), dtype=np.int64)
        if len(newly) and cfg.incubation is not None:
            if inc_rng is None:
                inc_rng = rng.spawn(1)[0]
            h = cfg.draw_incubations(inc_rng, len(newly))
        infectious = np.concatenate([infectious, exposed[ready], newly[h == 0]])
        age = np.concatenate([age, np.full(len(infectious) - len(age), -1)]) + 1
        exposed = np.concatenate([exposed[~ready], newly[h > 0]])
        countdown = np.concatenate([countdown[~ready], h[h > 0]])
        done = age >= cfg.k_attempts
        s = s - np.bincount(newly // n, minlength=block)
        r = r + np.bincount(infectious[done] // n, minlength=block)
        infectious, age = infectious[~done], age[~done]
        e = np.bincount(exposed // n, minlength=block)
        i = np.bincount(infectious // n, minlength=block)
        if np.any(s + e + i + r != n):
            raise RuntimeError(f"step {t}: S+E+I+R is not n = {n} in every run")
        history.append((s, e, i, r))
    return np.array(history), susceptible, bool(len(infectious) or len(exposed))


def _simulate(g, I0, cfg: EpidemicConfig, rng: np.random.Generator,
              max_steps: Optional[int] = None) -> EpidemicTrace:
    """One run, the block of one of `_run_block`."""
    history, susceptible, truncated = _run_block(
        _attempt_table(g, cfg), _initial_nodes(g, I0), cfg, 1, rng, max_steps)
    counts = list(map(tuple, history[:, :, 0].tolist()))
    return EpidemicTrace(counts, set(np.flatnonzero(susceptible == 0).tolist()),
                         len(counts) - 1, truncated)


def simulate_many(g, I0, cfg: EpidemicConfig, trials: int,
                  rng: np.random.Generator) -> tuple:
    """`trials` independent runs from I0, stepping together in blocks of
    max(1, 2^17 // n) runs (`_run_block`), so the block streams depend only
    on n; one trial replays `_simulate` coin for coin.  Returns each trial's
    reached-set size and a (trials x steps) array of its |I_t|, zero after
    it stops."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    I0, n = _initial_nodes(g, I0), g.n
    table = _attempt_table(g, cfg)
    block = max(1, _BLOCK_SIZE // n)
    blocks = [_run_block(table, I0, cfg, min(block, trials - done), rng)[0]
              for done in range(0, trials, block)]
    steps = max(len(history) for history in blocks)
    sizes = np.concatenate([n - history[-1, 0] for history in blocks])
    infectious = np.concatenate([np.pad(history[:, 2].T, ((0, 0), (0, steps - len(history))))
                                 for history in blocks])
    return sizes, infectious


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

def percolation_reachability_law(g, I0, p_local: float, p_bridge: float,
                                 trials: int, rng: np.random.Generator):
    """Empirical law of (reachable-set size, hop-level sizes) obtained by
    percolating and BFS-layering from I0, one sample per trial.

    Trials run in blocks.  One draw gives each trial of a block the
    uniforms `percolate` would draw (one per edge id, trial after trial),
    so the laws and the generator state do not depend on the block size.
    One multi-source hop-distance search then labels the block's disjoint
    copies of the retained graph, node v of trial t being t*n + v.

    Returns (Counter over total size, Counter over layer tuples), keys in
    order of first occurrence.
    """
    # scipy's dijkstra, not graphs._dijkstra: a call of that counts as a
    # sweep of the exact diameter, and the benchmark's tracing counts them
    from scipy.sparse import csgraph
    if trials < 1:
        raise ValueError("need trials >= 1")
    sources = np.array(_initial_nodes(g, I0), dtype=np.int64)
    _check_probabilities(p_local, p_bridge)
    n = g.n
    eu, ev = g.ends(np.arange(g.num_edges))
    block = max(1, _BLOCK_SIZE // max(1, n, len(eu)))
    size_law: Counter = Counter()
    layer_law: Counter = Counter()
    for done in range(0, trials, block):
        count = min(block, trials - done)
        t, k = np.nonzero(_cut(rng.random((count, len(eu))), g.num_local, p_local, p_bridge))
        offset = t * n
        hops = csgraph.dijkstra(
            _edge_matrix(count * n, offset + eu[k], offset + ev[k]), directed=False,
            indices=(np.arange(count)[:, None] * n + sources).ravel(),
            unweighted=True, min_only=True)
        reached = np.flatnonzero(np.isfinite(hops))
        hops = hops[reached].astype(np.int64)
        depth = int(hops.max()) + 1
        # levels[t, d] counts trial t's nodes at hop distance d; the
        # nonempty levels of a trial are 0, 1, ..., its last
        levels = np.bincount(reached // n * depth + hops,
                             minlength=count * depth).reshape(count, depth)
        size_law.update(levels.sum(axis=1).tolist())
        layer_law.update(tuple(row[:m]) for row, m in
                         zip(levels.tolist(), np.count_nonzero(levels, axis=1).tolist()))
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
    if g.num_edges > 22:
        raise ValueError("enumeration oracle limited to small graphs")
    edges = list(g.edges())
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
