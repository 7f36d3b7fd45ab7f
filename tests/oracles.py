"""Reference implementations the tests check the library against.

These are the straightforward per-line, per-node and per-trial versions
that the array-based code in `percolab` replaced: a line-by-line edge-file
parser, list-of-lists adjacency, the eager list of component sets, the
set-based epidemic simulator, the per-trial percolation reachability law,
the per-node neighbour BFS of `plain_bfs`, the all-pairs freeness
predicates of the visits, the per-arc compound offspring sampler, the
masked survival loop and the compound-law population that dominates a
visit's queue.
"""

from collections import Counter

import numpy as np

from percolab.branching import CompoundZeta
from percolab.epidemic import EpidemicTrace
from percolab.graphs import (GenericGraph, SmallWorldGraph, bfs_order, component_labels,
                             percolate)
from percolab.local_clusters import ring_distance
from percolab.visits import QUEUE_EMPTY, VisitTrace


def list_adjacency(n, u, v):
    """Per-node sorted lists of neighbours of the edges (u[k], v[k])."""
    adj = [[] for _ in range(n)]
    for a, b in zip(np.asarray(u).tolist(), np.asarray(v).tolist()):
        adj[a].append(b)
        adj[b].append(a)
    for lst in adj:
        lst.sort()
    return adj


def load_edge_list_lines(path):
    """Line-by-line edge-file parser: header, then one `u v kind` per line,
    blank and `#` lines skipped.  Checks kinds, ranges, u < v and the
    matching degree, but neither the R lines nor duplicates."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# swg "):
            raise ValueError(f"bad header: {header!r}")
        fields = dict(part.split("=", 1) for part in header[6:].split())
        n = int(fields["n"])
        tag = fields["model"]
        us, vs, kinds = [], [], []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            a, b, kind = line.split()
            us.append(int(a))
            vs.append(int(b))
            kinds.append(kind)
    u = np.array(us, dtype=np.int64)
    v = np.array(vs, dtype=np.int64)
    bad = set(kinds) - {"R", "B"}
    if bad:
        raise ValueError(f"unknown edge kind(s): {sorted(bad)}")
    kinds = np.array(kinds)
    if tag == "generic":
        order = np.lexsort((v, u))
        return GenericGraph(n, u[order], v[order])
    bmask = kinds == "B"
    bu, bv = u[bmask], v[bmask]
    order = np.lexsort((bv, bu))
    g = SmallWorldGraph(n, bu[order], bv[order], tag)
    if tag == "matching" and np.bincount(np.concatenate([bu, bv])).max(initial=0) > 1:
        raise ValueError("model=matching but a node has two bridges")
    return g


def connected_components_eager(gp):
    """One set per component, built up front: sorted by size descending,
    then by smallest node."""
    labels, sizes = component_labels(gp)
    members = np.argsort(labels, kind="stable").tolist()
    bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    return [set(members[bounds[k]:bounds[k + 1]])
            for k in np.argsort(-sizes, kind="stable").tolist()]


def simulate_sets(g, I0, cfg, rng, max_steps=None):
    """Set-based synchronous epidemic: every infectious node attempts each
    susceptible neighbour, one scalar coin per attempt in sorted
    (min, max, u, v, kind) order; incubation drawn one scalar at a time
    from a lazily spawned stream."""
    n = g.n
    I0 = set(I0)
    if isinstance(g, GenericGraph):
        adj = list_adjacency(n, g.edge_u, g.edge_v)

        def neighbors(u):
            return [(x, "R") for x in adj[u]]
    else:
        bridge_adj = list_adjacency(n, g.bridge_u, g.bridge_v)

        def neighbors(u):
            return ([((u - 1) % n, "R"), ((u + 1) % n, "R")]
                    + [(x, "B") for x in bridge_adj[u]])

    if max_steps is None:
        max_steps = 2 * n + 10
    inc_rng = None
    k = cfg.k_attempts
    susceptible = set(range(n)) - I0
    exposed = {}
    infectious_age = {v: 0 for v in I0}
    recovered = set()
    counts = [(len(susceptible), 0, len(I0), 0)]
    t = 0
    while (infectious_age or exposed) and t < max_steps:
        t += 1
        attempts = []
        for u in sorted(infectious_age):
            for v, kind in neighbors(u):
                if v in susceptible:
                    attempts.append((min(u, v), max(u, v), u, v, kind))
        newly = set()
        for a, b, u, v, kind in sorted(attempts):
            if v in newly:
                rng.random()
                continue
            if rng.random() < cfg.edge_prob(u, v, kind):
                newly.add(v)
        for v in list(exposed):
            exposed[v] -= 1
            if exposed[v] == 0:
                del exposed[v]
                infectious_age[v] = -1
        for v in sorted(newly):
            susceptible.remove(v)
            h = 0
            if cfg.incubation is not None:
                if inc_rng is None:
                    inc_rng = rng.spawn(1)[0]
                kind, param = cfg.incubation
                h = int(param) if kind == "fixed" else int(inc_rng.geometric(param)) - 1
            if h > 0:
                exposed[v] = h
            else:
                infectious_age[v] = -1
        for v in list(infectious_age):
            infectious_age[v] += 1
            if infectious_age[v] >= k:
                del infectious_age[v]
                recovered.add(v)
        counts.append((len(susceptible), len(exposed), len(infectious_age),
                       len(recovered)))
    truncated = bool(infectious_age or exposed)
    recovered |= set(infectious_age) | set(exposed)
    return EpidemicTrace(counts, recovered, t, truncated)


def bfs_layers(gp, I0):
    """Sizes (N0, N1, ...) of the hop-distance levels from the distinct
    nodes I0 in the retained subgraph, on a list adjacency."""
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


def reachability_law_per_trial(g, I0, p_local, p_bridge, trials, rng):
    """`percolation_reachability_law` one trial at a time: one `percolate`
    and one `bfs_layers` per trial."""
    I0 = sorted(set(I0))
    size_law, layer_law = Counter(), Counter()
    for _ in range(trials):
        layers = bfs_layers(percolate(g, p_local, p_bridge, rng), I0)
        size_law[sum(layers)] += 1
        layer_law[tuple(layers)] += 1
    return size_law, layer_law


def survivors_masked(law, b0, horizon, trials, rng):
    """Survivors of `survival_probability`'s walks, every trial population
    kept and the live ones masked and advanced on each step."""
    pops = np.full(trials, b0, dtype=np.int64)
    for _ in range(horizon):
        alive = pops > 0
        m = int(alive.sum())
        if m == 0:
            break
        pops[alive] += law.sample_many(rng, m) - 1
    return int((pops > 0).sum())


def plain_bfs_neighbor(gp, s):
    """Neighbour-flavour `plain_bfs` on `bfs_order`: each dequeued node
    queues its retained bridges and retained ring neighbours in ascending
    order (a bridge on a ring edge lists that neighbour twice)."""
    adj = gp.retained_bridge_adjacency()
    n, ring = gp.n, gp.ring_active

    def neighbors(w):
        out = list(adj[w])
        if ring is not None:
            if ring[w % n]:
                out.append((w + 1) % n)
            if ring[(w - 1) % n]:
                out.append((w - 1) % n)
        return sorted(out)

    order, found = bfs_order([s], neighbors)
    rounds, reached = [], 0
    for i, f in enumerate(found):
        reached += f
        rounds.append((reached - i, i + 1, 0))
    return VisitTrace(rounds, set(), set(order), set(), QUEUE_EMPTY)


def is_free(n, x, X, L):
    """True iff x is at ring distance >= L+1 from every node of X on the
    un-percolated n-cycle."""
    return all(ring_distance(n, x, y) >= L + 1 for y in X)


def is_free_parallel(n, x, X, A, L):
    """Freeness for the parallel visit: x in X must be at ring distance
    >= L+1 from every node of A and >= 2L+1 from every other node of X."""
    if x not in X:
        raise ValueError("x must belong to X")
    if any(ring_distance(n, x, a) < L + 1 for a in A):
        return False
    return all(ring_distance(n, x, y) >= 2 * L + 1 for y in X if y != x)


def compound_zeta_per_arc(law, rng):
    """One draw of the compound law W = Y + sum of 2Y geometric arcs,
    drawing Y and then each arc one retained ring edge at a time."""
    y = int(rng.binomial(law.n, law.theta))
    total = y
    for _ in range(2 * y):
        while rng.random() < law.p:
            total += 1
    return total


def gw_upper_population(n, p, c, t, rng):
    """Total population sum_{i<=t} W_i of t i.i.d. compound draws.

    This dominates the number of nodes a truncated visit can enqueue in t
    rounds, so its tail upper-bounds the visit-queue tail.
    """
    if t < 0:
        raise ValueError("need t >= 0")
    if p == 0.0 or t == 0:
        return 0
    return int(CompoundZeta(n, p, c).sample_many(rng, t).sum())
