"""Reference implementations the tests check the library against.

These are the straightforward per-line, per-node and per-trial versions
that the array-based code in `percolab` replaced: a line-by-line edge-file
parser, list-of-lists adjacency, the eager list of component sets, the
set-based epidemic simulator, the per-trial percolation reachability law,
the per-node neighbour BFS of `plain_bfs`, the all-pairs freeness
predicates of the visits, the per-arc compound offspring sampler, the
masked survival loop, the compound-law population that dominates a
visit's queue, the fresh-sample threshold probe and bisection, the
level-by-level labelling of a coupled threshold trial, and the pendant
trees of a peel found by searches from their roots.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from percolab import rng as rngmod
from percolab.analysis import SUB, SUPER, _pool_map, classify_largest
from percolab.branching import CompoundZeta
from percolab.epidemic import EpidemicTrace
from percolab.graphs import (GenericGraph, SmallWorldGraph, _retain, bfs_order,
                             component_labels, percolate)
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


def _bfs(nbrs, sources, allowed=lambda y: True):
    """(order, dist, parent) of a FIFO search from `sources` that enters
    only nodes for which `allowed` holds."""
    order, dist, parent = list(sources), dict.fromkeys(sources, 0), dict.fromkeys(sources)
    for w in order:
        for y in nbrs[w]:
            if y not in dist and allowed(y):
                dist[y], parent[y] = dist[w] + 1, w
                order.append(y)
    return order, dist, parent


def pendant_trees(nbrs):
    """Reference for `graphs._peel_pendant_trees` on a connected simple
    graph given as per-node neighbour lists: (core, h, tree_diam).

    The 2-core comes from removing leaves one at a time.  Every other node
    hangs in a tree at a root: a core node or, when the graph is a tree,
    its centre (the middle one or two nodes of a longest path, found by a
    double sweep).  A search from the roots orients the trees, and h[v] is
    the height of the subtree below v, except that a centre's h is its
    eccentricity in the whole tree.  tree_diam is the largest diameter of
    a root's tree, each found by a double sweep.  A tree's core is its
    centre when it has one, and empty when it has two.
    """
    m = len(nbrs)
    deg = [len(a) for a in nbrs]
    removed = [False] * m
    stack = [v for v in range(m) if deg[v] == 1]
    while stack:
        x = stack.pop()
        if removed[x] or deg[x] != 1:
            continue
        removed[x] = True
        for y in nbrs[x]:
            if not removed[y]:
                deg[y] -= 1
                if deg[y] == 1:
                    stack.append(y)
    if sum(map(len, nbrs)) // 2 == m - 1:
        a = _bfs(nbrs, [0])[0][-1]
        order, dist, parent = _bfs(nbrs, [a])
        path = [order[-1]]
        while path[-1] != a:
            path.append(parent[path[-1]])
        roots = sorted({path[len(path) // 2], path[(len(path) - 1) // 2]})
        core = roots if len(roots) == 1 else []
    else:
        roots = core = [v for v in range(m) if not removed[v]]
    order, _, parent = _bfs(nbrs, roots)
    h = [0] * m
    for x in reversed(order):
        if parent[x] is not None:
            h[parent[x]] = max(h[parent[x]], h[x] + 1)
    if len(roots) == 2:
        for c in roots:
            h[c] = max(_bfs(nbrs, [c])[1].values())
    root_of = {r: r for r in roots}
    for x in order:
        if x not in root_of:
            root_of[x] = root_of[parent[x]]
    tree_diam = 0
    for r in roots:
        def mine(y, r=r):
            return root_of[y] == r or len(roots) == 2
        far = _bfs(nbrs, [r], mine)[0][-1]
        tree_diam = max(tree_diam, max(_bfs(nbrs, [far], mine)[1].values()))
    return core, h, tree_diam


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


@dataclass
class MedianProbe:
    p: float
    median_largest: float
    classification: str


def _largest_component_size(model, n, p, seed):
    gp, _ = model.percolated(n, p, seed)
    _, sizes = component_labels(gp)
    return int(sizes.max())


def fresh_probe_point(model, n, p, trials, seed, jobs=1):
    """Classify probe probability p by the median largest component of
    `trials` graphs, each sampled and percolated at p from stream
    derive(seed, i)."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    args = [(model, n, p, rngmod.derive(seed, i)) for i in range(trials)]
    med = float(np.median(_pool_map(_largest_component_size, args, jobs)))
    return MedianProbe(p, med, classify_largest(med, n))


def fresh_threshold_bisection(model, n, trials, tol, seed):
    """(p_low, p_high, probes): bisection of [0, 1] until the bracket is at
    most tol wide, probe i a `fresh_probe_point` on stream
    derive(seed, 1000 + i); a probe that is not supercritical raises the
    lower end."""
    lo, hi = 0.0, 1.0
    probes = []
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        res = fresh_probe_point(model, n, mid, trials, rngmod.derive(seed, 1000 + len(probes)))
        probes.append(res)
        if res.classification == SUPER:
            hi = mid
        else:
            lo = mid
    return lo, hi, probes


def coupled_crossings_by_level(model, n, depth, seed):
    """(g, s) of one coupled threshold trial, from labelling its sample at
    every level m = 1 .. 2^depth - 1 of the grid: the masks are cut from
    the trial's uniforms with `percolate`'s own rule at p = m / 2^depth
    (the ring of nonhom stays at p1).  g is the lowest level whose largest
    component is a giant (2^depth if none), s the highest whose largest
    component is small (0 if none)."""
    gp, _ = model.percolated(n, 0.5, seed)
    scale = 1 << depth
    kinds = []
    for m in range(1, scale):
        p = m / scale
        cut = _retain(gp.base, gp.uniforms, model.p1 if model.name == "nonhom" else p, p)
        _, sizes = component_labels(cut)
        kinds.append(classify_largest(int(sizes.max()), n))
    giant = min((m for m, kind in enumerate(kinds, 1) if kind == SUPER), default=scale)
    small = max((m for m, kind in enumerate(kinds, 1) if kind == SUB), default=0)
    return giant, small
