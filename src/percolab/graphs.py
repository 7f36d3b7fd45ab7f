"""Small-world graph models, bond percolation, and component statistics.

Two random graph distributions are implemented: a ring plus independent
Erdos-Renyi bridges with per-pair probability c/n, and a ring plus a uniform
random perfect matching (bridges that coincide with ring edges are dropped,
so every node has degree 2 or 3).  Percolation keeps each edge independently;
ring edges are stored implicitly and percolated via an n-bit mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc
from scipy.sparse.csgraph import dijkstra as _dijkstra


# ---------------------------------------------------------------------------
# graph types
# ---------------------------------------------------------------------------

@dataclass
class SmallWorldGraph:
    """Ring on n nodes plus a set of bridge edges.

    The ring is implicit: node i is adjacent to (i-1) mod n and (i+1) mod n.
    Bridges are stored as parallel arrays (bridge_u[k] < bridge_v[k]) in
    lexicographic order; the per-node adjacency view is built lazily.
    """

    n: int
    bridge_u: np.ndarray
    bridge_v: np.ndarray
    model_tag: str  # "erdos:c=<c>" or "matching"
    _adj: Optional[list] = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        if np.any(self.bridge_u >= self.bridge_v):
            raise ValueError("bridge arrays must satisfy u < v")

    @property
    def num_bridges(self) -> int:
        return len(self.bridge_u)

    def bridge_adjacency(self) -> list:
        """Per-node sorted lists of bridge neighbors."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for u, v in zip(self.bridge_u.tolist(), self.bridge_v.tolist()):
                adj[u].append(v)
                adj[v].append(u)
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    def edges(self) -> Iterator[tuple]:
        """All edges as (u, v, kind) with u < v; kind in {"R", "B"}."""
        n = self.n
        for i in range(n):
            j = (i + 1) % n
            yield (min(i, j), max(i, j), "R")
        for u, v in zip(self.bridge_u.tolist(), self.bridge_v.tolist()):
            yield (u, v, "B")

    def degree(self, v: int) -> int:
        return 2 + len(self.bridge_adjacency()[v])


@dataclass
class GenericGraph:
    """Arbitrary undirected graph given by explicit edge arrays."""

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    _adj: Optional[list] = field(default=None, repr=False)

    def __post_init__(self):
        if np.any(self.edge_u >= self.edge_v):
            raise ValueError("edge arrays must satisfy u < v")

    @property
    def max_degree(self) -> int:
        if len(self.edge_u) == 0:
            return 0
        counts = np.bincount(np.concatenate([self.edge_u, self.edge_v]), minlength=self.n)
        return int(counts.max())

    def adjacency(self) -> list:
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for u, v in zip(self.edge_u.tolist(), self.edge_v.tolist()):
                adj[u].append(v)
                adj[v].append(u)
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    def edges(self) -> Iterator[tuple]:
        for u, v in zip(self.edge_u.tolist(), self.edge_v.tolist()):
            yield (u, v, "R")


@dataclass
class PercolationGraph:
    """Retained-edge subgraph of a base graph after bond percolation.

    For a SmallWorldGraph base, ring_active[i] says whether ring edge
    {i, (i+1) mod n} survived and bridge_active masks the base bridge arrays.
    For a GenericGraph base, ring_active is None and bridge_active masks the
    explicit edge arrays (p_local applies to every edge).
    """

    base: object
    ring_active: Optional[np.ndarray]
    bridge_active: np.ndarray
    p_local: float
    p_bridge: float

    @property
    def n(self) -> int:
        return self.base.n

    def active_edge_arrays(self) -> tuple:
        """(u, v) arrays of all retained edges."""
        if isinstance(self.base, SmallWorldGraph):
            idx = np.flatnonzero(self.ring_active)
            ru = idx
            rv = (idx + 1) % self.base.n
            bu = self.base.bridge_u[self.bridge_active]
            bv = self.base.bridge_v[self.bridge_active]
            u = np.concatenate([np.minimum(ru, rv), bu])
            v = np.concatenate([np.maximum(ru, rv), bv])
            return u, v
        u = self.base.edge_u[self.bridge_active]
        v = self.base.edge_v[self.bridge_active]
        return u, v

    def retained_bridge_adjacency(self) -> list:
        """Per-node sorted lists of retained bridge neighbors."""
        adj = [[] for _ in range(self.n)]
        if isinstance(self.base, SmallWorldGraph):
            us = self.base.bridge_u[self.bridge_active]
            vs = self.base.bridge_v[self.bridge_active]
        else:
            us = self.base.edge_u[self.bridge_active]
            vs = self.base.edge_v[self.bridge_active]
        for u, v in zip(us.tolist(), vs.tolist()):
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def ring_edge_active(self, i: int) -> bool:
        """Whether ring edge {i, (i+1) mod n} survived."""
        if self.ring_active is None:
            raise ValueError("not a ring-based percolation graph")
        return bool(self.ring_active[i % self.n])


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _pair_offsets(i: np.ndarray, n: int) -> np.ndarray:
    # first linear index of row i in the lexicographic (i<j) pair order
    return i * (2 * n - i - 1) // 2


def _decode_pair_indices(idx: np.ndarray, n: int) -> tuple:
    """Map linear indices over the i<j pair space back to (i, j)."""
    idx = idx.astype(np.int64)
    b = 2 * n - 1
    i = np.floor((b - np.sqrt(b * b - 8.0 * idx)) / 2.0).astype(np.int64)
    i = np.clip(i, 0, n - 2)
    # float sqrt can be off by one row; fix up exactly
    for _ in range(3):
        too_high = _pair_offsets(i, n) > idx
        too_low = _pair_offsets(i + 1, n) <= idx
        if not (too_high.any() or too_low.any()):
            break
        i = i - too_high.astype(np.int64) + too_low.astype(np.int64)
    j = idx - _pair_offsets(i, n) + i + 1
    return i, j


def sample_swg_erdos(n: int, c: float, rng: np.random.Generator) -> SmallWorldGraph:
    """Ring plus Erdos-Renyi bridges with per-pair probability q = c/n.

    Sampling skips over the pair space with geometric gaps, so the cost is
    O(expected number of bridges), not O(n^2).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if c < 0:
        raise ValueError("need c >= 0")
    q = c / n
    if q > 1:
        raise ValueError("need c/n <= 1")
    npairs = n * (n - 1) // 2
    if q == 0:
        empty = np.empty(0, dtype=np.int64)
        return SmallWorldGraph(n, empty, empty, f"erdos:c={c:g}")
    hits = []
    pos = -1
    batch = max(64, int(npairs * q * 1.2))
    while pos < npairs:
        gaps = rng.geometric(q, size=batch)
        pts = pos + np.cumsum(gaps)
        take = pts[pts < npairs]
        hits.append(take)
        if len(take) < len(pts):
            break
        pos = int(pts[-1])
    idx = np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
    u, v = _decode_pair_indices(idx, n)
    return SmallWorldGraph(n, u, v, f"erdos:c={c:g}")


def sample_swg_matching(n: int, rng: np.random.Generator) -> SmallWorldGraph:
    """Ring plus a uniform random perfect matching.

    Matching edges that coincide with ring edges are excluded from the bridge
    set, so every node ends up with bridge degree 0 or 1.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("need even n >= 4")
    perm = rng.permutation(n)
    a = perm[0::2]
    b = perm[1::2]
    u = np.minimum(a, b).astype(np.int64)
    v = np.maximum(a, b).astype(np.int64)
    gap = v - u
    on_ring = (gap == 1) | (gap == n - 1)
    u, v = u[~on_ring], v[~on_ring]
    order = np.lexsort((v, u))
    return SmallWorldGraph(n, u[order], v[order], "matching")


def sample_regular(n: int, d: int, rng: np.random.Generator,
                   max_tries: int = 200) -> GenericGraph:
    """Random d-regular simple graph via stub matching with retry.

    Pairs up node stubs uniformly and resamples whenever the pairing produces
    a self-loop or a multi-edge; the conditional law is the uniform pairing
    model restricted to simple outcomes.
    """
    if n * d % 2 != 0:
        raise ValueError("n*d must be even")
    if d >= n:
        raise ValueError("need d < n")
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(max_tries):
        perm = rng.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        if np.any(a == b):
            continue
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        keys = u * n + v
        if len(np.unique(keys)) != len(keys):
            continue
        order = np.lexsort((v, u))
        return GenericGraph(n, u[order], v[order])
    raise RuntimeError("failed to sample a simple regular graph")


# ---------------------------------------------------------------------------
# percolation
# ---------------------------------------------------------------------------

def percolate(g, p_local: float, p_bridge: float,
              rng: np.random.Generator) -> PercolationGraph:
    """Keep each ring edge independently w.p. p_local and each bridge w.p.
    p_bridge.  For a GenericGraph, p_local applies to every edge and
    p_bridge is ignored.  The base graph is not modified."""
    if not (0 <= p_local <= 1 and 0 <= p_bridge <= 1):
        raise ValueError("probabilities must be in [0, 1]")
    if isinstance(g, SmallWorldGraph):
        ring = rng.random(g.n) < p_local
        bridge = rng.random(g.num_bridges) < p_bridge
        return PercolationGraph(g, ring, bridge, p_local, p_bridge)
    mask = rng.random(len(g.edge_u)) < p_local
    return PercolationGraph(g, None, mask, p_local, p_local)


def percolate_coupled(g, p_pairs: Sequence[tuple],
                      rng: np.random.Generator) -> list:
    """Percolate once per (p_local, p_bridge) pair reusing one uniform per
    edge, so retained edge sets are nested whenever both probabilities are
    ordered.  Used for monotonicity checks."""
    if isinstance(g, SmallWorldGraph):
        u_ring = rng.random(g.n)
        u_bridge = rng.random(g.num_bridges)
        return [
            PercolationGraph(g, u_ring < pl, u_bridge < pb, pl, pb)
            for pl, pb in p_pairs
        ]
    u_edge = rng.random(len(g.edge_u))
    return [PercolationGraph(g, None, u_edge < pl, pl, pl) for pl, pb in p_pairs]


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def _as_edge_arrays(gp) -> tuple:
    if isinstance(gp, PercolationGraph):
        return gp.active_edge_arrays()
    if isinstance(gp, GenericGraph):
        return gp.edge_u, gp.edge_v
    raise TypeError(f"unsupported graph type: {type(gp)!r}")


def _num_nodes(gp) -> int:
    return gp.n


def component_labels(gp) -> tuple:
    """(labels, sizes): labels[v] is the component id of v, sizes[k] the
    size of component k.  Fast path used by the Monte Carlo experiments."""
    n = _num_nodes(gp)
    u, v = _as_edge_arrays(gp)
    data = np.ones(len(u), dtype=np.int8)
    mat = csr_matrix((data, (u, v)), shape=(n, n))
    ncomp, labels = _cc(mat, directed=False)
    sizes = np.bincount(labels, minlength=ncomp)
    return labels, sizes


def connected_components(gp) -> list:
    """Partition of V into components, sorted by size descending and then by
    smallest contained node id."""
    labels, sizes = component_labels(gp)
    order = np.argsort(labels, kind="stable")
    boundaries = np.searchsorted(labels[order], np.arange(len(sizes)))
    comps = []
    for k in range(len(sizes)):
        start = boundaries[k]
        end = boundaries[k + 1] if k + 1 < len(sizes) else len(order)
        comps.append(set(order[start:end].tolist()))
    comps.sort(key=lambda s: (-len(s), min(s)))
    return comps


def largest_component_size(gp) -> int:
    _, sizes = component_labels(gp)
    return int(sizes.max()) if len(sizes) else 0


def _subgraph_csr(gp, nodes: np.ndarray) -> csr_matrix:
    """Unit-weight symmetric CSR of the subgraph induced by the sorted array
    `nodes`, relabelled 0..m-1: each distinct edge once per direction, so
    parallel ring and bridge edges collapse (building from COO sums
    duplicates; the sums are reset to 1) and self-loops are dropped."""
    u, v = _as_edge_arrays(gp)
    m = len(nodes)
    remap = np.full(_num_nodes(gp), -1, dtype=np.int64)
    remap[nodes] = np.arange(m)
    su, sv = remap[u], remap[v]
    keep = (su >= 0) & (sv >= 0) & (su != sv)
    rows = np.concatenate([su[keep], sv[keep]])
    cols = np.concatenate([sv[keep], su[keep]])
    sub = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m))
    sub.data[:] = 1.0
    return sub


def _peel_pendant_trees(sub: csr_matrix) -> tuple:
    """Strip degree-1 nodes of a connected simple graph level by level.

    Returns (core, h, tree_diam): the surviving 2-core node indices (at most
    one node when the graph is a tree), h[v] the height of the trees hanging
    at v, and the longest path lying inside the stripped trees.  Every leaf
    removed in round r has height r; the one neighbour it still has is read
    off the XOR of its remaining neighbour ids.
    """
    m = sub.shape[0]
    deg = np.diff(sub.indptr)
    nb_xor = np.bitwise_xor.reduceat(sub.indices, sub.indptr[:-1])
    alive = np.ones(m, dtype=bool)
    h = np.zeros(m, dtype=np.int64)
    tree_diam = 0
    leaves = np.flatnonzero(deg == 1)
    r = 0
    while len(leaves):
        parents = nb_xor[leaves]
        # two leaves on one parent join into a path of 2r+2; otherwise the
        # new branch extends the parent's tallest earlier branch (height <= r)
        if len(np.unique(parents)) < len(parents):
            tree_diam = max(tree_diam, 2 * r + 2)
        else:
            tree_diam = max(tree_diam, r + 1 + int(h[parents].max()))
        h[parents] = r + 1
        alive[leaves] = False
        np.subtract.at(deg, parents, 1)
        np.bitwise_xor.at(nb_xor, parents, leaves)
        leaves = np.unique(parents[(deg[parents] == 1) & alive[parents]])
        r += 1
    return np.flatnonzero(alive), h, tree_diam


def component_diameter(gp, component) -> int:
    """Exact hop-diameter of a connected component.

    The pendant trees are peeled off first (`_peel_pendant_trees`), leaving
    the 2-core with a weight h(v) per core node, the height of the trees
    hanging at v; a tree component is answered by the peel alone.  On the
    core, with E(u) = max_w d(u, w) + h(w) over core nodes w (u included),
    the diameter is the larger of the longest path inside the trees and
    max_{u != w} h(u) + d(u, w) + h(w).  A BFS sweep from s gives that
    maximum for u = s exactly, and by the triangle inequality the bounds
    max(E(s) - d, d + h(s)) <= E(u) <= E(s) + d with d = d(s, u).  A node u
    is dropped once h(u) + E_hi(u) <= diam, since no path through it can be
    longer.  Sources start at the highest-degree core node and then
    alternate between the smallest E_lo (a central node, which tightens
    every upper bound) and the largest h + E_hi (which can raise diam),
    after Takes & Kosters' BoundingDiameters (Algorithms 4, 2011).

    Measured on supercritical swg giants (p = 0.55, n = 2^13 and 2^14,
    5-10k nodes) it takes about 22 BFS sweeps per giant, where a bounding
    search on the whole unpeeled component needs about 106.  Cores whose
    eccentricities are all alike defeat the bounds: a bare ring takes one
    sweep per node.
    """
    nodes = np.array(sorted(component), dtype=np.int64)
    if len(nodes) == 1:
        return 0
    sub = _subgraph_csr(gp, nodes)
    ncomp, _ = _cc(sub, directed=False)
    if ncomp != 1:
        raise ValueError("component is not connected in the graph")
    core, h, diam = _peel_pendant_trees(sub)
    if len(core) <= 1:
        return diam
    sub = sub[core][:, core]
    h = h[core].astype(np.float64)
    e_lo = h.copy()
    e_hi = np.full(len(core), np.inf)
    alive = np.ones(len(core), dtype=bool)
    s = int(np.argmax(np.diff(sub.indptr)))
    pick_high = False
    while True:
        # the CSR is symmetric, so the directed sweep skips scipy's transpose
        d = _dijkstra(sub, directed=True, unweighted=True, indices=s)
        reach = d + h
        reach[s] = -np.inf
        far = reach.max()
        diam = max(diam, int(h[s] + far))
        ecc = max(far, h[s])
        np.maximum(e_lo, np.maximum(ecc - d, d + h[s]), out=e_lo)
        np.minimum(e_hi, ecc + d, out=e_hi)
        alive &= h + e_hi > diam
        alive[s] = False
        idx = np.flatnonzero(alive)
        if not len(idx):
            return diam
        if pick_high:
            s = int(idx[np.argmax(h[idx] + e_hi[idx])])
        else:
            s = int(idx[np.argmin(e_lo[idx])])
        pick_high = not pick_high


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------

def save_edge_list(g, path) -> None:
    """One line per edge `u v kind`, header `# swg n=<n> model=<tag>`."""
    tag = g.model_tag if isinstance(g, SmallWorldGraph) else "generic"
    with open(path, "w") as fh:
        fh.write(f"# swg n={g.n} model={tag}\n")
        for u, v, kind in g.edges():
            fh.write(f"{u} {v} {kind}\n")


def load_edge_list(path):
    """Inverse of save_edge_list; the round trip is lossless."""
    with open(path) as fh:
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
    kinds = np.array(kinds)
    if tag == "generic":
        order = np.lexsort((v, u))
        return GenericGraph(n, u[order], v[order])
    bmask = kinds == "B"
    bu, bv = u[bmask], v[bmask]
    order = np.lexsort((bv, bu))
    return SmallWorldGraph(n, bu[order], bv[order], tag)
