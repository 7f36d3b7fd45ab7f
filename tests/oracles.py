"""Reference implementations the tests check the library against.

These are the straightforward per-line and per-node versions that the
array-based code in `percolab` replaced: a line-by-line edge-file parser,
list-of-lists adjacency, and the set-based epidemic simulator.
"""

import numpy as np

from percolab.epidemic import EpidemicTrace
from percolab.graphs import GenericGraph, SmallWorldGraph


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
