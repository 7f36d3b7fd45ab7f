"""Small-world graph models, bond percolation, and component statistics.

Two random graph distributions are implemented: a ring plus independent
Erdos-Renyi bridges with per-pair probability c/n, and a ring plus a uniform
random perfect matching (bridges that coincide with ring edges are dropped,
so every node has degree 2 or 3).  Percolation keeps each edge independently;
ring edges are stored implicitly and percolated via an n-bit mask.
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc
from scipy.sparse.csgraph import dijkstra as _dijkstra


# ---------------------------------------------------------------------------
# graph types
# ---------------------------------------------------------------------------

def _check_edge_arrays(n: int, u: np.ndarray, v: np.ndarray, what: str) -> None:
    if np.any(u >= v):
        raise ValueError(f"{what} arrays must satisfy u < v")
    if len(u) and (u.min() < 0 or v.max() >= n):
        raise ValueError(f"{what} endpoints must lie in [0, {n})")


class Adjacency:
    """Read-only CSR adjacency, a sequence whose item w is the sorted tuple
    of w's neighbours.

    `indptr` and `indices` hold the CSR as int64 arrays (w's neighbours are
    indices[indptr[w]:indptr[w + 1]]), which array kernels read directly.
    `lists()` gives the same CSR as a Python list and tuple, built on first
    use, so per-node loops index it without numpy scalar overhead; `adj[w]`
    reads from them.
    """

    __slots__ = ("indptr", "indices", "_lists")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        self._lists = None

    def lists(self) -> tuple:
        """(indptr, indices) as a Python list and tuple."""
        if self._lists is None:
            self._lists = (self.indptr.tolist(), tuple(self.indices.tolist()))
        return self._lists

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, w: int) -> tuple:
        indptr, indices = self._lists or self.lists()
        # indptr[n + 1] raises IndexError, which ends iteration over the nodes
        return indices[indptr[w]:indptr[w + 1]]


def _csr(n: int, u: np.ndarray, v: np.ndarray) -> Adjacency:
    """Adjacency of the undirected edges (u[k], v[k]) on nodes 0..n-1, each
    node's neighbours sorted (a multi-edge lists its neighbour twice), as
    int64 arrays.  One sort of the keys end*n + other orders the rows, so
    n*n must fit an int64."""
    if int(n) ** 2 >= 2 ** 63:
        raise ValueError(f"n = {n} is too large for a CSR adjacency")
    ends = np.concatenate([u, v]).astype(np.int64, copy=False)
    keys = np.sort(ends * n + np.concatenate([v, u]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    return Adjacency(indptr, keys % n)


@dataclass
class SmallWorldGraph:
    """Ring on n nodes plus a set of bridge edges.

    The ring is implicit: node i is adjacent to (i-1) mod n and (i+1) mod n.
    Bridges are stored as parallel arrays (bridge_u[k] < bridge_v[k]) in
    lexicographic order.  The graph is treated as immutable: the per-node
    bridge adjacency (a CSR `Adjacency`) is built on first use and cached.
    """

    n: int
    bridge_u: np.ndarray
    bridge_v: np.ndarray
    model_tag: str  # "erdos:c=<c>" or "matching"
    _adj: Optional[Adjacency] = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        _check_edge_arrays(self.n, self.bridge_u, self.bridge_v, "bridge")

    @property
    def num_bridges(self) -> int:
        return len(self.bridge_u)

    def bridge_adjacency(self) -> Adjacency:
        """Per-node sorted bridge neighbours."""
        if self._adj is None:
            self._adj = _csr(self.n, self.bridge_u, self.bridge_v)
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
    _adj: Optional[Adjacency] = field(default=None, repr=False)

    def __post_init__(self):
        _check_edge_arrays(self.n, self.edge_u, self.edge_v, "edge")

    def adjacency(self) -> Adjacency:
        """Per-node sorted neighbours, built on first use and cached."""
        if self._adj is None:
            self._adj = _csr(self.n, self.edge_u, self.edge_v)
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
    explicit edge arrays (p_local applies to every edge).  Like the base
    graphs it is treated as immutable.
    """

    base: object
    ring_active: Optional[np.ndarray]
    bridge_active: np.ndarray
    p_local: float
    p_bridge: float
    _adj: Optional[Adjacency] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.base.n

    def active_edge_arrays(self) -> tuple:
        """(u, v) arrays of all retained edges, retained ring edges first."""
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

    def retained_bridge_adjacency(self) -> Adjacency:
        """Per-node sorted retained bridge neighbours (every retained edge for
        a GenericGraph base), built on first use and cached."""
        if self._adj is None:
            if isinstance(self.base, SmallWorldGraph):
                us, vs = self.base.bridge_u, self.base.bridge_v
            else:
                us, vs = self.base.edge_u, self.base.edge_v
            self._adj = _csr(self.n, us[self.bridge_active], vs[self.bridge_active])
        return self._adj


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
    if not c >= 0:  # also refuses nan
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
        # geometric saturates at 2**63 - 1 for a tiny q, which would wrap
        # the cumsum; from pos >= -1 a gap of npairs + 1 already ends it
        gaps = np.minimum(rng.geometric(q, size=batch), npairs + 1)
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
    partner = np.empty(n, dtype=np.int64)
    partner[perm[0::2]] = perm[1::2]
    partner[perm[1::2]] = perm[0::2]
    # each pair once, from its smaller end; ascending u is already
    # lexicographic order because no node has two partners
    gap = partner - np.arange(n)
    u = np.flatnonzero((gap > 1) & (gap != n - 1))
    return SmallWorldGraph(n, u, partner[u], "matching")


def sample_regular(n: int, d: int, rng: np.random.Generator,
                   max_tries: int = 200) -> GenericGraph:
    """Random d-regular simple graph via stub matching with retry.

    Pairs up node stubs uniformly and resamples whenever the pairing produces
    a self-loop or a multi-edge; the conditional law is the uniform pairing
    model restricted to simple outcomes.
    """
    if n * d % 2 != 0:
        raise ValueError("n*d must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(max_tries):
        perm = rng.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        if np.any(a == b):
            continue
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        # one sort of the pair keys gives the edge order and puts any
        # multi-edge's copies side by side
        keys = u * n + v
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            continue
        return GenericGraph(n, u[order], v[order])
    # a pairing is simple with probability about exp(-(d^2 - 1) / 4)
    raise ValueError(f"no simple {d}-regular pairing in {max_tries} tries; "
                     "stub matching rarely succeeds for d >= 5")


# ---------------------------------------------------------------------------
# percolation
# ---------------------------------------------------------------------------

def _draw(g, rng: np.random.Generator) -> tuple:
    """The package's one per-edge retention draw: one uniform per ring edge,
    then one per bridge.  For a GenericGraph the ring part is None and the
    uniforms are one per edge."""
    if isinstance(g, SmallWorldGraph):
        return rng.random(g.n), rng.random(g.num_bridges)
    return None, rng.random(len(g.edge_u))


def _check_probabilities(p_local: float, p_bridge: float) -> None:
    if not (0 <= p_local <= 1 and 0 <= p_bridge <= 1):  # also refuses nan
        raise ValueError("probabilities must be in [0, 1]")


def _retain(g, uniforms: tuple, p_local: float, p_bridge: float) -> PercolationGraph:
    _check_probabilities(p_local, p_bridge)
    # an edge is retained at every probability above its uniform
    u_ring, u_edge = uniforms
    if u_ring is None:
        return PercolationGraph(g, None, u_edge < p_local, p_local, p_local)
    return PercolationGraph(g, u_ring < p_local, u_edge < p_bridge, p_local, p_bridge)


def percolate(g, p_local: float, p_bridge: float,
              rng: np.random.Generator) -> PercolationGraph:
    """Keep each ring edge independently w.p. p_local and each bridge w.p.
    p_bridge.  For a GenericGraph, p_local applies to every edge and
    p_bridge is ignored.  The base graph is not modified.

    This is the one-pair case of `percolate_coupled`: it consumes the same
    uniforms and returns the same masks."""
    return _retain(g, _draw(g, rng), p_local, p_bridge)


def percolate_coupled(g, p_pairs: Sequence[tuple],
                      rng: np.random.Generator) -> list:
    """Percolate once per (p_local, p_bridge) pair from one draw.

    The draw is the package's only per-edge retention draw: one uniform per
    ring edge, then one per bridge (one per edge of a GenericGraph), and an
    edge is retained at every probability above its uniform.  So the
    retained edge sets are nested whenever the pairs are ordered in both
    probabilities, and each pair alone is distributed as `percolate`."""
    uniforms = _draw(g, rng)
    return [_retain(g, uniforms, pl, pb) for pl, pb in p_pairs]


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def _as_edge_arrays(gp) -> tuple:
    if isinstance(gp, PercolationGraph):
        return gp.active_edge_arrays()
    if isinstance(gp, GenericGraph):
        return gp.edge_u, gp.edge_v
    raise TypeError(f"unsupported graph type: {type(gp)!r}")


def _ring_arcs(ring: np.ndarray) -> tuple:
    """(arc, k): arc[i] is the id of the run of retained ring edges holding
    node i, numbered 0..k-1 in order of each arc's smallest node.  Node i
    starts a new arc unless ring edge i-1 survived; when edge n-1 survived
    the last arc wraps round into arc 0."""
    arc = np.zeros(len(ring), dtype=np.int64)
    np.cumsum(~ring[:-1], out=arc[1:])
    k = int(arc[-1]) + 1
    if ring[-1] and k > 1:
        k -= 1
        arc[np.searchsorted(arc, k):] = 0
    return arc, k


def _edge_matrix(k: int, u: np.ndarray, v: np.ndarray) -> csr_matrix:
    """CSR matrix of the k-node graph with one unit entry per edge
    (u[i], v[i]) in row u[i], built directly: the row bounds are a bincount
    of u and the rows one stable argsort of it.  scipy's undirected
    routines read both directions off it."""
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=k), out=indptr[1:])
    indices = v[np.argsort(u, kind="stable")]
    return csr_matrix((np.ones(len(u)), indices, indptr), shape=(k, k))


def component_labels(gp) -> tuple:
    """(labels, sizes): labels[v] is the component id of v, sizes[k] the
    size of component k.  `connected_components`, the studies and the
    coupled SIR all read their components off these labels.

    Components are numbered in order of their smallest node, so label k's
    smallest node increases with k.  On a percolated ring-based graph each
    run of retained ring edges is first contracted to one arc node, and only
    the k-arc graph of retained bridges is labelled; arcs are numbered in
    order of their smallest node as well, so the labels are the same as on
    the uncontracted graph.
    """
    if isinstance(gp, PercolationGraph) and isinstance(gp.base, SmallWorldGraph):
        arc, k = _ring_arcs(gp.ring_active)
        u = arc[gp.base.bridge_u[gp.bridge_active]]
        v = arc[gp.base.bridge_v[gp.bridge_active]]
    else:
        arc, k = None, gp.n
        u, v = _as_edge_arrays(gp)
    # scipy numbers components in order of their smallest index
    ncomp, labels = _cc(_edge_matrix(k, u, v), directed=False)
    if arc is not None:
        labels = labels[arc]
    sizes = np.bincount(labels, minlength=ncomp)
    return labels, sizes


class Components(abc.Sequence):
    """Read-only sequence of a graph's components as node sets, largest
    first, ties broken by smallest node (see `connected_components`).

    The constructor only keeps the labels and sizes; nothing n-sized is
    built until a caller needs it.  Item 0 is label argmax(sizes), whose
    first maximum is the smallest-node one, read off the labels with one
    `np.flatnonzero`.  The labels in rank order (a stable argsort of
    -sizes) are built the first time another item is read.  The nodes
    grouped by label, ascending within each group (a stable argsort of the
    labels), and the group bounds (the cumsum of the sizes) are built the
    first time the view is iterated or sliced, and serve every later read.
    Item i builds a fresh set of the i-th largest component each time it
    is read; a slice gives a list of sets, and the view equals a list
    holding the same sets in the same order.
    """

    __slots__ = ("_labels", "_sizes", "_rank", "_members", "_bounds")

    def __init__(self, labels: np.ndarray, sizes: np.ndarray):
        self._labels = labels
        self._sizes = sizes
        self._rank = self._members = self._bounds = None

    def __len__(self) -> int:
        return len(self._sizes)

    def _ranked(self) -> np.ndarray:
        if self._rank is None:
            self._rank = np.argsort(-self._sizes, kind="stable")
        return self._rank

    def _grouped(self) -> tuple:
        if self._members is None:
            self._members = np.argsort(self._labels, kind="stable")
            self._bounds = np.concatenate([[0], np.cumsum(self._sizes)])
        return self._members, self._bounds

    def __getitem__(self, i):
        if isinstance(i, slice):
            self._grouped()
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("component index out of range")
        i %= len(self)
        k = int(np.argmax(self._sizes)) if i == 0 else self._ranked()[i]
        if self._members is None:
            return set(np.flatnonzero(self._labels == k).tolist())
        return set(self._members[self._bounds[k]:self._bounds[k + 1]].tolist())

    def __iter__(self) -> Iterator[set]:
        members, bounds = (a.tolist() for a in self._grouped())
        for k in self._ranked().tolist():
            yield set(members[bounds[k]:bounds[k + 1]])

    def __eq__(self, other) -> bool:
        if isinstance(other, (Components, list)):
            return list(self) == list(other)
        return NotImplemented


def connected_components(gp) -> Components:
    """Components of gp, sorted by size descending and then by smallest
    contained node id (label order is smallest-node order, see
    `component_labels`, so a stable sort on size gives the tie-break).

    The result is a lazy `Components` view, not a list: it has no `append`,
    `sort` or `+`.  It costs `component_labels` alone; a set is built only
    for a component that is read, so `connected_components(gp)[0]` costs one
    argmax and one pass over the labels, and builds one set (see
    `Components` for what else is built when).
    """
    return Components(*component_labels(gp))


def bfs_order(sources, neighbours) -> tuple:
    """FIFO breadth-first search from the distinct nodes `sources`; the
    package's one breadth-first search loop in Python (the neighbour
    flavour of `visits.plain_bfs` runs scipy's on a CSR instead).

    `neighbours(w)` gives the nodes adjacent to w in the order they are to
    be queued.  Returns (order, found): order lists every reached node in
    the order it left the queue, the sources first, and found[i] counts the
    nodes first reached from order[i].  The nodes at hop distance k + 1 are
    exactly those first reached from the nodes at distance k, so the level
    sizes can be read off found.
    """
    order = list(sources)
    seen = set(order)
    found = []
    for w in order:  # the list is the queue: it grows while it is walked
        before = len(order)
        for y in neighbours(w):
            if y not in seen:
                seen.add(y)
                order.append(y)
        found.append(len(order) - before)
    return order, found


def _subgraph_csr(gp, nodes: np.ndarray) -> csr_matrix:
    """Unit-weight symmetric CSR of the subgraph induced by the sorted array
    `nodes`, relabelled 0..m-1: each distinct edge once per direction, so
    parallel ring and bridge edges collapse (building from COO sums
    duplicates; the sums are reset to 1) and self-loops are dropped."""
    u, v = _as_edge_arrays(gp)
    m = len(nodes)
    remap = np.full(gp.n, -1, dtype=np.int64)
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


class _ChainCore:
    """Hop distances on a connected simple graph of minimum degree 2 (a
    peeled core), one weighted sweep over its contracted chains each.

    Branch nodes are the nodes of degree >= 3; a bare cycle has none, and
    its node 0 stands in.  Every other node lies inside a chain: a path of
    L hops between branch nodes a and b (a == b for a loop) whose inner
    nodes have degree 2, at offset t from a.  The branch graph joins a and
    b by an edge of weight L, the shortest of parallel chains; loops are
    dropped, since no shortest path runs round one.  A path to a chain node
    enters its chain at a or b, so node y at (a, b, t, L) lies at
    min(D[a] + t, D[b] + L - t) from a source whose branch distances are D.
    """

    def __init__(self, core: csr_matrix):
        m = core.shape[0]
        deg = np.diff(core.indptr)
        branch = np.flatnonzero(deg > 2)
        if not len(branch):
            branch = np.zeros(1, dtype=np.int64)
        k = len(branch)
        bid = np.full(m, -1, dtype=np.int64)
        bid[branch] = np.arange(k)
        nb_xor = np.bitwise_xor.reduceat(core.indices, core.indptr[:-1])
        # one walker leaves each branch node along each of its edges, so each
        # chain is walked from both ends, every chain in lockstep; a degree-2
        # node's next node is the XOR of its neighbours with the one it came
        # from
        rows = np.repeat(np.arange(m), deg)
        outgoing = bid[rows] >= 0
        start, first = rows[outgoing], core.indices[outgoing]
        end, last = first.copy(), start.copy()
        length = np.ones(len(start), dtype=np.int64)
        walking = np.flatnonzero(bid[first] < 0)
        prev, cur = start[walking], first[walking]
        # (walker, inner node, hops from its start) of every step taken
        steps = [(np.empty(0, dtype=np.int64),) * 3]
        hops = 1
        while len(walking):
            steps.append((walking, cur, np.full(len(cur), hops)))
            prev, cur = cur, nb_xor[cur] ^ prev
            hops += 1
            done = bid[cur] >= 0
            w = walking[done]
            end[w], last[w], length[w] = cur[done], prev[done], hops
            walking, prev, cur = walking[~done], prev[~done], cur[~done]
        # each chain keeps the walker that set out from its smaller end (on a
        # loop, towards the smaller of its first and last inner nodes), and
        # sorting by walker makes each chain's inner nodes contiguous, in
        # order of t
        walker, node, t = (np.concatenate(col) for col in zip(*steps))
        mine = (start < end) | ((start == end) & (first < last))
        keep = mine[walker]
        order = np.argsort(walker[keep], kind="stable")
        walker, node, t = walker[keep][order], node[keep][order], t[keep][order]
        # node y lies t[y] hops from branch a[y] and rest[y] from b[y]; a
        # branch node is its own a and b, at 0 hops
        self.k, self.bid, self.node = k, bid, node
        self.a, self.b = bid.copy(), bid.copy()
        self.a[node], self.b[node] = bid[start[walker]], bid[end[walker]]
        self.t, self.rest = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
        self.t[node], self.rest[node] = t, length[walker] - t
        self.pos = np.full(m, -1, dtype=np.int64)
        self.pos[node] = np.arange(len(node))
        # the branch graph from every walker's (a, b, L), less the loops and
        # all but the shortest of parallel chains (building from COO would
        # sum them), plus a source row k for sweeps from a chain node: no
        # edge leads into k, and `distances` points its two entries, the
        # last of the CSR, at the chain's ends
        a, b = bid[start], bid[end]
        edge = a != b
        lo, hi, w = np.minimum(a, b)[edge], np.maximum(a, b)[edge], length[edge]
        order = np.lexsort((w, hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        shortest = np.ones(len(lo), dtype=bool)
        shortest[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        lo, hi, w = lo[shortest], hi[shortest], w[shortest]
        self.graph = csr_matrix(
            (np.concatenate([w, w, [1, 1]]).astype(np.float64),
             (np.concatenate([lo, hi, [k, k]]), np.concatenate([hi, lo, [0, k]]))),
            shape=(k + 1, k + 1))

    def distances(self, s: int) -> np.ndarray:
        """Hop distances from node s to every node, from one `_dijkstra`
        sweep of the branch graph: from branch node s itself, or from row k
        joined to chain node s's ends a and b by edges of t and L - t."""
        source, t, rest = self.bid[s], self.t[s], self.rest[s]
        if source < 0:
            source = self.k
            if self.a[s] == self.b[s]:  # a loop: the nearer way round, then k -> k
                self.graph.indices[-2:] = self.a[s], self.k
                self.graph.data[-2:] = min(t, rest), 1
            else:
                self.graph.indices[-2:] = self.a[s], self.b[s]
                self.graph.data[-2:] = t, rest
        # the branch rows are symmetric and no edge leads into k, so the
        # directed sweep gives the distances without scipy's transpose
        dist = _dijkstra(self.graph, directed=True, indices=source)
        d = np.minimum(dist[self.a] + self.t, dist[self.b] + self.rest)
        if source == self.k:
            # along s's own chain, whose inner nodes sit at j - t + 1 .. j + L - t - 1
            j = self.pos[s]
            own = self.node[j - t + 1:j + rest]
            d[own] = np.minimum(d[own], np.abs(self.t[own] - t))
        return d


def component_diameter(gp, component) -> int:
    """Exact hop-diameter of a connected component.

    The pendant trees are peeled off first (`_peel_pendant_trees`), leaving
    the 2-core with a weight h(v) per core node, the height of the trees
    hanging at v; a tree component is answered by the peel alone.  On the
    core, with E(u) = max_w d(u, w) + h(w) over core nodes w (u included),
    the diameter is the larger of the longest path inside the trees and
    max_{u != w} h(u) + d(u, w) + h(w).  A sweep from s gives that
    maximum for u = s exactly, and by the triangle inequality the bounds
    max(E(s) - d, d + h(s)) <= E(u) <= E(s) + d with d = d(s, u).  A node u
    is dropped once h(u) + E_hi(u) <= diam, since no path through it can be
    longer.  Sources start at the highest-degree core node and then
    alternate between the smallest E_lo (a central node, which tightens
    every upper bound) and the largest h + E_hi (which can raise diam),
    after Takes & Kosters' BoundingDiameters (Algorithms 4, 2011).

    Each sweep runs on the core with its degree-2 chains contracted
    (`_ChainCore`): one weighted `_dijkstra` call over the branch nodes,
    then one pass of array arithmetic that expands it to every core node.
    The distances equal the BFS hop distances exactly, so the bounds, the
    pruning and the sources are those of a BFS sweep on the core.

    Measured on supercritical swg giants (p = 0.55, n = 2^13 and 2^14,
    5-10k nodes) it takes about 22 sweeps per giant, where a bounding
    search on the whole unpeeled component needs about 106.  On an n = 2^14
    giant's core of 3220 nodes, 605 of them branch nodes, a sweep takes
    0.08 ms, against 0.33 ms for a BFS sweep of the core (2-core Xeon VM).
    Cores whose eccentricities are all alike defeat the bounds: a bare ring
    still takes one sweep per node, each on a 1-node branch graph; on
    `sample_swg_erdos(10000, 0.0)` at p = 1 the 10000 sweeps take 2.0 s,
    against 2.5 s for BFS sweeps.
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
    chains = _ChainCore(sub)
    h = h[core].astype(np.float64)
    e_lo = h.copy()
    e_hi = np.full(len(core), np.inf)
    alive = np.ones(len(core), dtype=bool)
    s = int(np.argmax(np.diff(sub.indptr)))
    pick_high = False
    while True:
        d = chains.distances(s)
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

def _edge_lines(u: np.ndarray, v: np.ndarray, kind: str) -> str:
    pairs = np.column_stack([u, v]).ravel().tolist()
    return (f"%d %d {kind}\n" * len(u)) % tuple(pairs)


def save_edge_list(g, path) -> None:
    """One line per edge `u v kind`, header `# swg n=<n> model=<tag>`: for
    a SmallWorldGraph the n ring edges (kind R) in ring order, then the
    bridges (kind B); for a GenericGraph every edge with kind R."""
    if isinstance(g, SmallWorldGraph):
        ring = np.arange(g.n)
        ru, rv = np.minimum(ring, (ring + 1) % g.n), np.maximum(ring, (ring + 1) % g.n)
        text = (f"# swg n={g.n} model={g.model_tag}\n" + _edge_lines(ru, rv, "R")
                + _edge_lines(g.bridge_u, g.bridge_v, "B"))
    else:
        text = f"# swg n={g.n} model=generic\n" + _edge_lines(g.edge_u, g.edge_v, "R")
    with open(path, "w") as fh:
        fh.write(text)


_SPACE = b" \t\n\v\f"


def _parse_edge_lines(body: bytes) -> tuple:
    """(u, v, is_bridge) arrays from the lines `u v kind` of `body`.

    Blank lines and lines starting with `#` are skipped.  Every other line
    must hold exactly three fields separated by ASCII whitespace: two
    integers and a kind, R or B.  Fields are found with array operations on
    the bytes; once the kinds are blanked out and only signed digit runs
    remain, one `np.fromstring` call reads all the integers."""
    if b"#" in body:
        body = b"\n".join(line for line in body.split(b"\n")
                           if not line.lstrip().startswith(b"#"))
    text = body if body.endswith(b"\n") else body + b"\n"
    a = np.frombuffer(text, dtype=np.uint8)
    # +1 where a field starts, -1 on the byte after it ends (bytes <= b" "
    # separate fields; control bytes other than whitespace are refused
    # below); the text ends in a newline, so starts and ends alternate
    edge = np.diff((a > ord(" ")).view(np.int8), prepend=np.int8(0))
    bounds = np.flatnonzero(edge)
    starts, ends = bounds[0::2], bounds[1::2]
    three_fields = "every edge line must hold three fields: u v kind"
    if len(starts) % 3:
        raise ValueError(three_fields)
    # fields 3k..3k+2 must lie before the first newline after field 3k,
    # and field 3k+3 after it
    first = starts[0::3]
    newlines = np.flatnonzero(a == ord("\n"))
    line_end = newlines[np.searchsorted(newlines, first)]
    if np.any(starts[2::3] > line_end) or np.any(first[1:] < line_end[:-1]):
        raise ValueError(three_fields)
    ks, ke = starts[2::3], ends[2::3]
    kind = a[ks]
    bad = (ke - ks != 1) | ((kind != ord("R")) & (kind != ord("B")))
    if bad.any():
        names = {text[s:e].decode(errors="replace") for s, e in zip(ks[bad], ke[bad])}
        raise ValueError(f"unknown edge kind(s): {sorted(names)}")
    # blank out the kind fields; an R or B anywhere else is refused below
    digits = bytearray(text)
    np.frombuffer(digits, dtype=np.uint8)[ks] = ord(" ")
    digits = bytes(digits)
    bad_sign = False
    if b"+" in text or b"-" in text:
        # a sign must open a field and be followed by more of it
        signs = np.flatnonzero((a == ord("+")) | (a == ord("-")))
        bad_sign = np.any(edge[signs] != 1) or np.any(edge[signs + 1] != 0)
    if (digits.translate(None, b"0123456789+-" + _SPACE)
            or bad_sign or np.any(ends - starts > 18)):
        raise ValueError("edge endpoints must be integers")
    if not len(ks):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=bool)
    uv = np.fromstring(digits, dtype=np.int64, sep=" ").reshape(-1, 2)
    return uv[:, 0].copy(), uv[:, 1].copy(), kind == ord("B")


# bounds the n of an edge file, so that u * n + v fits in an int64
_MAX_NODES = 2 ** 31


def _lex_order(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """np.lexsort((v, u)) when 0 <= u, v < n, as one stable sort of u*n + v
    (linear time on the already sorted lines that save_edge_list writes);
    out-of-range edges are refused after sorting, so their order is moot."""
    return np.argsort(u * n + v, kind="stable")


def _refuse_repeats(u: np.ndarray, v: np.ndarray, what: str) -> None:
    """Raise when lexicographically sorted edge arrays hold an edge twice."""
    if np.any((np.diff(u) == 0) & (np.diff(v) == 0)):
        raise ValueError(f"{what} is listed twice")


def load_edge_list(path):
    """Inverse of save_edge_list; the round trip is lossless for every graph
    that holds no edge twice (the samplers never make one).

    Raises ValueError on a malformed file: a header without `n=` or
    `model=`, an n outside [0, 2**31], a line other than `u v kind` with
    integers u, v, an edge kind other than R or B, a node outside [0, n),
    an edge not given as u < v, a `model=matching` file in which a node has
    two bridges, a ring-based file whose R lines are not exactly the n ring
    edges, a bridge given twice, or a `model=generic` edge given twice."""
    with open(path, "rb") as fh:
        data = fh.read()
    # read as text would: UTF-8 only, with \r\n and lone \r ending lines
    if not data.isascii():
        data.decode()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head, _, body = data.partition(b"\n")
    header = head.decode().strip()
    if not header.startswith("# swg "):
        raise ValueError(f"bad header: {header!r}")
    fields = dict(part.split("=", 1) for part in header[6:].split())
    missing = [key for key in ("n", "model") if key not in fields]
    if missing:
        raise ValueError(f"header lacks {', '.join(k + '=' for k in missing)}")
    n = int(fields["n"])
    if not 0 <= n <= _MAX_NODES:
        raise ValueError(f"n must lie in [0, {_MAX_NODES}]")
    tag = fields["model"]
    u, v, is_bridge = _parse_edge_lines(body)
    if tag == "generic":
        order = _lex_order(u, v, n)
        g = GenericGraph(n, u[order], v[order])
        _refuse_repeats(g.edge_u, g.edge_v, "an edge")
        return g
    bu, bv = u[is_bridge], v[is_bridge]
    order = _lex_order(bu, bv, n)
    g = SmallWorldGraph(n, bu[order], bv[order], tag)
    if tag == "matching" and np.bincount(np.concatenate([bu, bv])).max(initial=0) > 1:
        raise ValueError("model=matching but a node has two bridges")
    # ring edge {i, i+1 mod n} is the line `i i+1 R`, or `0 n-1 R` for i = n-1
    ru, rv = u[~is_bridge], v[~is_bridge]
    wrap = (ru == 0) & (rv == n - 1)
    if (len(ru) != n or not np.all(wrap | ((ru >= 0) & (rv == ru + 1) & (rv < n)))
            or np.any(np.bincount(np.where(wrap, n - 1, ru), minlength=n) != 1)):
        raise ValueError(f"the R lines must be exactly the {n} ring edges")
    _refuse_repeats(g.bridge_u, g.bridge_v, "a bridge")
    return g
