"""Small-world graph models, bond percolation, and component statistics.

Two random graph distributions are implemented: a ring plus independent
Erdos-Renyi bridges with per-pair probability c/n, and a ring plus a uniform
random perfect matching (bridges that coincide with ring edges are dropped,
so every node has degree 2 or 3).  Percolation keeps each edge independently:
one uniform and one mask entry per edge id, ring edges first (`_EdgeIds`).
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# graph types
# ---------------------------------------------------------------------------

def _check_integer(x, what: str) -> None:
    """Refuse x unless it is a Python or numpy integer; a bool is refused."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{what} {x!r} is a {type(x).__name__}, not an integer")


def _check_edge_arrays(n: int, u: np.ndarray, v: np.ndarray, what: str) -> None:
    for ends in (u, v):
        if not isinstance(ends, np.ndarray) or ends.ndim != 1:
            raise ValueError(f"{what} arrays must be one-dimensional numpy arrays")
        if ends.dtype.kind != "i":
            raise ValueError(f"{what} arrays must have a signed integer dtype, not {ends.dtype}")
    if len(u) != len(v):
        raise ValueError(f"{what} arrays must have equal lengths, not {len(u)} and {len(v)}")
    if np.any(u >= v):
        raise ValueError(f"{what} arrays must satisfy u < v")
    if len(u) and (u.min() < 0 or v.max() >= n):
        raise ValueError(f"{what} endpoints must lie in [0, {n})")


class Adjacency:
    """Read-only CSR adjacency, a sequence whose item w is the sorted tuple
    of w's neighbours.

    `indptr` and `indices` hold the CSR as int64 arrays (w's neighbours are
    indices[indptr[w]:indptr[w + 1]]), which array kernels read directly.
    `adj[w]` reads the same row through zero-copy memoryviews of the two
    arrays, so per-node loops pay no numpy scalar overhead and no Python
    copy of the CSR is ever built.
    """

    __slots__ = ("indptr", "indices", "_indptr", "_indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        self._indptr = memoryview(indptr)
        self._indices = memoryview(indices)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, w: int) -> tuple:
        indptr = self._indptr
        # indptr[n + 1] raises IndexError, which ends iteration over the nodes
        return tuple(self._indices[indptr[w]:indptr[w + 1]])


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple:
    """Positions in a CSR's `indices` of the entries of `rows`, row by row
    (each is its row's start plus its rank in the row), and the row sizes."""
    starts = indptr.take(rows)
    sizes = indptr.take(rows + 1) - starts
    return np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes), sizes


def _csr(n: int, u: np.ndarray, v: np.ndarray, simple: bool = False) -> Adjacency:
    """Adjacency of the undirected edges (u[k], v[k]) on nodes 0..n-1, each
    node's neighbours sorted (a multi-edge lists its neighbour twice, or
    once when `simple`), as int64 arrays.  One sort of the keys
    end*n + other orders the rows, so n*n must fit an int64."""
    if int(n) ** 2 >= 2 ** 63:
        raise ValueError(f"n = {n} is too large for a CSR adjacency")
    ends = np.concatenate([u, v]).astype(np.int64, copy=False)
    keys = np.sort(ends * n + np.concatenate([v, u]))
    if simple:
        keys = keys[np.diff(keys, prepend=-1) != 0]
    # a subtraction finds the columns several times as fast as keys % n
    rows = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Adjacency(indptr, keys - rows * n)


class _EdgeIds:
    """The edge id space both graph types share, set up by each type's
    __post_init__.  Ids 0..num_ring-1 are the ring edges in ring order:
    edge i joins i and i + 1 mod n, so edge n - 1 is (0, n - 1).  The ids
    from num_ring on are the listed edges, held as the pair of arrays
    `listed` (u < v).  Edges 0..num_local-1 are of kind R and are retained
    with p_local, the rest of kind B, with p_bridge.  Graphs compare by identity."""

    @property
    def num_edges(self) -> int:
        return self.num_ring + len(self.listed[0])

    def ends(self, ids) -> tuple:
        """(u, v) arrays, u < v, of the edges with the given ids, in any
        order: a ring edge's ends by arithmetic, a listed edge's read off
        its arrays."""
        ids = np.asarray(ids, dtype=np.int64)
        r = self.num_ring
        u, v = ids.copy(), ids + 1
        wrap = ids == r - 1
        u[wrap], v[wrap] = 0, r - 1
        listed = ids >= r
        j = ids[listed] - r
        u[listed], v[listed] = self.listed[0].take(j), self.listed[1].take(j)
        return u, v

    def edges(self) -> Iterator[tuple]:
        """All edges as (u, v, kind) in id order, u < v and kind in {"R", "B"}."""
        u, v = self.ends(np.arange(self.num_edges))
        for i, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
            yield a, b, "R" if i < self.num_local else "B"


@dataclass(eq=False)
class SmallWorldGraph(_EdgeIds):
    """Ring on n nodes plus a set of bridge edges.

    The ring is implicit: node i is adjacent to (i-1) mod n and (i+1) mod n,
    and ring edge i is edge id i.  Bridges are the listed edges, stored as
    parallel arrays (bridge_u[k] < bridge_v[k], edge id n + k) in
    lexicographic order.
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
        # the ring edges are of kind R, the bridges of kind B
        self.num_ring = self.num_local = self.n
        self.listed = self.bridge_u, self.bridge_v

    @property
    def num_bridges(self) -> int:
        return len(self.bridge_u)

    def bridge_adjacency(self) -> Adjacency:
        """Per-node sorted bridge neighbours."""
        if self._adj is None:
            self._adj = _csr(self.n, self.bridge_u, self.bridge_v)
        return self._adj

    def degree(self, v: int) -> int:
        return 2 + len(self.bridge_adjacency()[v])


@dataclass(eq=False)
class GenericGraph(_EdgeIds):
    """Arbitrary undirected graph given by explicit edge arrays: it has no
    ring, and its edges, all listed and all of kind R, keep their order as
    edge ids."""

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    _adj: Optional[Adjacency] = field(default=None, repr=False)

    model_tag = "generic"

    def __post_init__(self):
        _check_edge_arrays(self.n, self.edge_u, self.edge_v, "edge")
        self.num_ring, self.num_local = 0, len(self.edge_u)
        self.listed = self.edge_u, self.edge_v

    def adjacency(self) -> Adjacency:
        """Per-node sorted neighbours, built on first use and cached."""
        if self._adj is None:
            self._adj = _csr(self.n, self.edge_u, self.edge_v)
        return self._adj

    def active_edge_arrays(self, member: Optional[np.ndarray] = None) -> tuple:
        """(u, v) arrays of every edge, or of those with both ends set in
        the n-byte mask `member`: the component functions read a
        GenericGraph as one that keeps them all."""
        if member is None:
            return self.edge_u, self.edge_v
        kept = np.flatnonzero(member.take(self.edge_u) & member.take(self.edge_v))
        return self.edge_u.take(kept), self.edge_v.take(kept)


@dataclass(eq=False)
class PercolationGraph:
    """Retained-edge subgraph of a base graph after bond percolation.

    retained[i] says whether edge id i of the base survived.  `ring_active`
    (None without a ring) and `bridge_active` are views of its ring part and
    of its listed part, so writes to them go through to it.  Like the base
    graphs it is treated as immutable and compares by identity.  `uniforms`
    holds the per-edge retention uniforms the mask was cut from (see
    `percolate_coupled`), so that the draw can be cut again at other
    probabilities; it is None for a graph built from a mask alone.  A mask
    other than a 1-D bool array with one entry per edge id raises ValueError.
    """

    base: object
    retained: np.ndarray
    p_local: float
    p_bridge: float
    uniforms: Optional[np.ndarray] = field(default=None, repr=False)
    _adj: Optional[Adjacency] = field(default=None, repr=False)

    def __post_init__(self):
        mask, m = self.retained, self.base.num_edges
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (m,)):
            raise ValueError(f"retained must be a 1-D bool array of length {m}, not a "
                             f"{type(mask).__name__} of {np.asarray(mask).dtype} {np.shape(mask)}")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def num_ring(self) -> int:
        return self.base.num_ring

    @property
    def ring_active(self) -> Optional[np.ndarray]:
        return self.retained[:self.num_ring] if self.num_ring else None

    @property
    def bridge_active(self) -> np.ndarray:
        return self.retained[self.num_ring:]

    def active_edge_arrays(self, member: Optional[np.ndarray] = None) -> tuple:
        """(u, v) arrays of all retained edges in id order, so retained ring
        edges first, or of those with both ends set in the n-byte mask
        `member`."""
        if member is None:
            return self.base.ends(np.flatnonzero(self.retained))
        # ring edge i joins i and i + 1 mod n; a listed edge is tested at
        # its first end, and the few that pass at their second
        r, (lu, lv) = self.num_ring, self.base.listed
        ring = np.flatnonzero(self.retained[:r] & member[:r] & np.roll(member, -1)[:r])
        listed = np.flatnonzero(self.bridge_active & member.take(lu))
        listed = listed.compress(member.take(lv.take(listed)))
        return self.base.ends(np.concatenate([ring, listed + r]))

    def retained_bridge_adjacency(self) -> Adjacency:
        """Per-node sorted retained neighbours along the base's listed edges
        (every retained edge of a GenericGraph base), built on first use and
        cached."""
        if self._adj is None:
            kept = np.flatnonzero(self.bridge_active)
            self._adj = _csr(self.n, *(ends.take(kept) for ends in self.base.listed))
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
    _check_integer(n, "n")
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
    _check_integer(n, "n")
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


_REGULAR_TRIES = 200  # whole pairings `sample_regular` draws before it gives up


def sample_regular(n: int, d: int, rng: np.random.Generator) -> GenericGraph:
    """Random d-regular simple graph via stub matching with retry.

    Pairs up node stubs uniformly and resamples whenever the pairing produces
    a self-loop or a multi-edge; the conditional law is the uniform pairing
    model restricted to simple outcomes.
    """
    _check_integer(n, "n")
    _check_integer(d, "d")
    if n * d % 2 != 0:
        raise ValueError("n*d must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(_REGULAR_TRIES):
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
    raise ValueError(f"no simple {d}-regular pairing in {_REGULAR_TRIES} tries; "
                     "stub matching rarely succeeds for d >= 5")


# ---------------------------------------------------------------------------
# percolation
# ---------------------------------------------------------------------------

def _draw(g, rng: np.random.Generator) -> np.ndarray:
    """The package's one per-edge retention draw: one uniform per edge id,
    so the ring edges' come first, then the bridges'."""
    return rng.random(g.num_edges)


def _check_probabilities(p_local: float, p_bridge: float) -> None:
    if not (0 <= p_local <= 1 and 0 <= p_bridge <= 1):  # also refuses nan
        raise ValueError("probabilities must be in [0, 1]")


def _cut(uniforms: np.ndarray, num_local: int, p_local: float,
         p_bridge: float) -> np.ndarray:
    """Retention mask of per-edge uniforms, edge ids along the last axis:
    an edge is retained at every probability above its uniform, p_local
    for the first num_local ids and p_bridge for the rest."""
    kept = np.empty(uniforms.shape, dtype=bool)
    np.less(uniforms[..., :num_local], p_local, out=kept[..., :num_local])
    np.less(uniforms[..., num_local:], p_bridge, out=kept[..., num_local:])
    return kept


def _retain(g, uniforms: np.ndarray, p_local: float, p_bridge: float) -> PercolationGraph:
    _check_probabilities(p_local, p_bridge)
    return PercolationGraph(g, _cut(uniforms, g.num_local, p_local, p_bridge),
                            p_local, p_bridge, uniforms)


def percolate(g, p_local: float, p_bridge: float,
              rng: np.random.Generator) -> PercolationGraph:
    """Keep each ring edge independently w.p. p_local and each bridge w.p.
    p_bridge.  For a GenericGraph, p_local applies to every edge and
    p_bridge is ignored.  The base graph is not modified.

    This is the one-pair case of `percolate_coupled`: it consumes the same
    uniforms, `rng.random(g.num_edges)`, and returns the same mask."""
    return _retain(g, _draw(g, rng), p_local, p_bridge)


def percolate_coupled(g, p_pairs: Sequence[tuple],
                      rng: np.random.Generator) -> list:
    """Percolate once per (p_local, p_bridge) pair from one draw.

    The draw is the package's only per-edge retention draw: one uniform per
    edge id, ring edges first (see `_EdgeIds`), and an edge is retained at
    every probability above its uniform.  So the retained edge sets are
    nested whenever the pairs are ordered in both probabilities, and each
    pair alone is distributed as `percolate`."""
    uniforms = _draw(g, rng)
    return [_retain(g, uniforms, pl, pb) for pl, pb in p_pairs]


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def _ring_arcs(ring: np.ndarray) -> tuple:
    """(arc, k): arc[i] is the id of the run of retained ring edges holding
    node i, numbered 0..k-1 in order of each arc's smallest node.  Node i
    starts a new arc unless ring edge i-1 survived; when edge n-1 survived
    the last arc wraps round into arc 0."""
    arc = np.zeros(len(ring), dtype=np.int64)
    # summing int64s in place is about twice as fast as summing the bools
    # into an int64 output
    arc[1:] = ~ring[:-1]
    np.cumsum(arc, out=arc)
    k = int(arc[-1]) + 1
    if ring[-1] and k > 1:
        k -= 1
        arc[np.searchsorted(arc, k):] = 0
    return arc, k


# scipy is imported where a graph is first labelled, swept or searched with
# it, so a process that does none of these never loads it

def _matrix(indptr: np.ndarray, indices: np.ndarray, data: Optional[np.ndarray] = None):
    """scipy CSR matrix of the square graph whose row w holds the entries
    indices[indptr[w]:indptr[w + 1]], each of weight 1 unless `data` gives
    the weights."""
    from scipy.sparse import csr_matrix
    k = len(indptr) - 1
    if data is None:
        data = np.ones(len(indices))
    return csr_matrix((data, indices, indptr), shape=(k, k))


def _edge_matrix(k: int, u: np.ndarray, v: np.ndarray):
    """CSR matrix of the k-node graph with one entry of weight 1 per edge
    (u[i], v[i]) in row u[i], built directly: the row bounds are a bincount
    of u and the rows one argsort of it.  scipy's undirected routines read
    both directions off it, and their components do not depend on the order
    within a row, so the sort need not be stable (on edges in random order a
    stable sort takes about five times as long)."""
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=k), out=indptr[1:])
    return _matrix(indptr, v[np.argsort(u)])


def _cc(graph, **kwargs) -> tuple:
    """scipy's `connected_components`."""
    from scipy.sparse.csgraph import connected_components
    return connected_components(graph, **kwargs)


def _dijkstra(graph, **kwargs) -> np.ndarray:
    """scipy's `dijkstra`: one call is one sweep of `component_diameter`."""
    from scipy.sparse.csgraph import dijkstra
    return dijkstra(graph, **kwargs)


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
    if gp.num_ring:
        arc, k = _ring_arcs(gp.ring_active)
        # flatnonzero and take select faster than a boolean index
        kept = np.flatnonzero(gp.bridge_active)
        u, v = (arc.take(ends.take(kept)) for ends in gp.base.listed)
    else:
        arc, k = None, gp.n
        u, v = gp.active_edge_arrays()
    # scipy numbers components in order of their smallest index
    ncomp, labels = _cc(_edge_matrix(k, u, v), directed=False)
    if arc is not None:
        labels = labels[arc]
    sizes = np.bincount(labels, minlength=ncomp)
    return labels, sizes


class Components(abc.Sequence):
    """Read-only sequence of a graph's components as node sets, largest
    first, ties broken by smallest node (see `connected_components`).

    While item 0 is the only item read, it is read off the labels: label
    argmax(sizes), whose first maximum is the smallest-node one, with one
    `np.flatnonzero`.  Any other read builds every component's node list
    once, in rank order (stable argsorts of -sizes and of the labels).  Each
    read gives a fresh set, a slice a list of sets, and the view equals a
    list holding the same sets in the same order.
    """

    __slots__ = ("_labels", "_sizes", "_lists")

    def __init__(self, labels: np.ndarray, sizes: np.ndarray):
        self._labels = labels
        self._sizes = sizes
        self._lists = None

    def __len__(self) -> int:
        return len(self._sizes)

    def __getitem__(self, i):
        if self._lists is None:
            if not isinstance(i, slice) and len(self) and operator.index(i) in (0, -len(self)):
                k = np.argmax(self._sizes)
                return set(np.flatnonzero(self._labels == k).tolist())
            members = np.argsort(self._labels, kind="stable").tolist()
            bounds = np.concatenate([[0], np.cumsum(self._sizes)]).tolist()
            self._lists = [members[bounds[k]:bounds[k + 1]]
                           for k in np.argsort(-self._sizes, kind="stable").tolist()]
        if isinstance(i, slice):
            return [set(nodes) for nodes in self._lists[i]]
        return set(self._lists[i])

    def __eq__(self, other) -> bool:
        if isinstance(other, (Components, list)):
            return list(self) == list(other)
        return NotImplemented


def connected_components(gp) -> Components:
    """Components of gp, sorted by size descending and then by smallest
    contained node id (label order is smallest-node order, see
    `component_labels`, so a stable sort on size gives the tie-break).

    The result is a `Components` view, not a list: it has no `append`,
    `sort` or `+`.  It costs `component_labels` alone until it is read;
    `connected_components(gp)[0]` costs one argmax and one pass over the
    labels, and builds one set (see `Components` for the other reads).
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


def _component_csr(gp, nodes: np.ndarray) -> Adjacency:
    """Simple-graph adjacency of the subgraph of gp induced by the sorted,
    distinct `nodes`, node i standing for nodes[i]: a bridge that doubles a
    ring edge is one edge.  An n-byte mask selects the retained edges with
    both ends in `nodes`, and one position map, written only at `nodes`,
    relabels them."""
    member = np.zeros(gp.n, dtype=bool)
    member[nodes] = True
    pos = np.empty(gp.n, dtype=np.int64)
    pos[nodes] = np.arange(len(nodes))
    u, v = gp.active_edge_arrays(member)
    return _csr(len(nodes), pos.take(u), pos.take(v), simple=True)


def _kept_rows(indptr: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Row bounds of a CSR with row bounds `indptr` cut down to the entries
    where `keep` holds."""
    c = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=c[1:])
    return c.take(indptr)


def _row_xor(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """XOR of each row's entries of a CSR, read off one running XOR (about
    twice as fast as np.bitwise_xor.reduceat)."""
    run = np.zeros(len(indices) + 1, dtype=indices.dtype)
    np.bitwise_xor.accumulate(indices, out=run[1:])
    return run.take(indptr[1:]) ^ run.take(indptr[:-1])


def _core_csr(adj: Adjacency, core: np.ndarray) -> Adjacency:
    """The subgraph of adj induced by the sorted nodes `core`, node i
    standing for core[i], cut from adj's CSR with one mask over its entries,
    so every row stays sorted."""
    m = len(adj.indptr) - 1
    alive = np.zeros(m, dtype=bool)
    alive[core] = True
    keep = np.repeat(alive, np.diff(adj.indptr)) & alive.take(adj.indices)
    indptr = _kept_rows(adj.indptr, keep).take(np.append(core, m))
    pos = np.empty(m, dtype=np.int64)
    pos[core] = np.arange(len(core))
    return Adjacency(indptr, pos.take(adj.indices.compress(keep)))


def _peel_pendant_trees(adj: Adjacency) -> tuple:
    """Strip degree-1 nodes of a connected simple graph level by level.

    Returns (core, h, tree_diam): the surviving 2-core node indices (at most
    one node when the graph is a tree), h[v] the height of the trees hanging
    at v, and the longest path lying inside the stripped trees.  Every leaf
    removed in round r has height r; the one neighbour it still has is read
    off the XOR of its remaining neighbour ids.
    """
    m = len(adj.indptr) - 1
    deg = np.diff(adj.indptr)
    nb_xor = _row_xor(adj.indptr, adj.indices)
    alive = np.ones(m, dtype=bool)
    h = np.zeros(m, dtype=np.int64)
    tree_diam = 0
    leaves = np.flatnonzero(deg == 1)
    r = 0
    while len(leaves):
        parents = nb_xor.take(leaves)
        # np.unique would cost several times as much as the sort and mask
        ranked = np.sort(parents)
        fresh = ranked[1:] != ranked[:-1]
        # two leaves on one parent join into a path of 2r+2; otherwise the
        # new branch extends the parent's tallest earlier branch (height <= r)
        repeated = not fresh.all()
        if repeated:
            tree_diam = max(tree_diam, 2 * r + 2)
        else:
            tree_diam = max(tree_diam, r + 1 + int(h.take(parents).max()))
        h[parents] = r + 1
        alive[leaves] = False
        np.subtract.at(deg, parents, 1)
        np.bitwise_xor.at(nb_xor, parents, leaves)
        # each parent left with one edge, once; a parent that was itself a
        # leaf this round is left with none
        single = deg.take(ranked) == 1
        if repeated:
            single[1:] &= fresh
        leaves = ranked.compress(single)
        r += 1
    return np.flatnonzero(alive), h, tree_diam


class _ChainCore:
    """Hop distances on a connected simple graph of minimum degree 2 (a
    peeled core), one weighted sweep over its contracted chains each.

    Branch nodes are the nodes of degree >= 3; a bare cycle has none, and
    its node 0 stands in.  Every other node lies inside a chain: a path of
    L hops between branch nodes a and b (a == b for a loop) whose inner
    nodes have degree 2, at offset t from a.  The branch graph joins a and
    b by an edge of weight L; parallel chains and loops stay in it, since a
    sweep relaxes every edge and no shortest path runs round a loop, so its
    rows are the core's branch rows with each chain entry redirected.  A path
    to a chain node enters its chain at a or b, so node y at (a, b, t, L)
    lies at min(D[a] + t, D[b] + L - t) from a source whose branch distances
    are D.

    One depth-first search finds every chain.  Row m + i of its graph leads
    to branch node i and then to row m + i + 1, a branch node's row keeps
    its edges into chains and a chain node's row its edges to chain nodes.
    The search therefore walks each chain in one go, from the end a it
    reaches first, and lists the chain's nodes together in order of t.
    """

    def __init__(self, core: Adjacency):
        indptr, indices = core.indptr, core.indices
        m = len(indptr) - 1
        deg = np.diff(indptr)
        branch = np.flatnonzero(deg > 2)
        if not len(branch):
            branch = np.zeros(1, dtype=np.int64)
        k = len(branch)
        bid = np.full(m, -1, dtype=np.int64)
        bid[branch] = np.arange(k)
        inward = bid.take(indices) < 0
        links = np.empty(2 * k, dtype=np.int64)
        links[0::2] = branch
        links[1::2] = np.minimum(np.arange(m + 1, m + k + 1), m + k - 1)
        walk_indptr = _kept_rows(indptr, inward)
        walk = _matrix(np.concatenate([walk_indptr, walk_indptr[-1] + 2 * np.arange(1, k + 1)]),
                       np.concatenate([indices.compress(inward), links]))
        from scipy.sparse.csgraph import depth_first_order
        order, pred = depth_first_order(walk, m, directed=True, return_predecessors=True)
        node = order.compress(np.concatenate([bid < 0, np.zeros(k, dtype=bool)]).take(order))
        # a chain starts where the search came from a branch node, and its
        # far end b is the neighbour of its last node other than the one
        # the search came from
        came = pred.take(node)
        starts = np.flatnonzero(bid.take(came) >= 0)
        stops = np.append(starts, len(node))[1:]
        last = node.take(stops - 1)
        a = bid.take(came.take(starts))
        row = indptr.take(last)
        b = bid.take(indices.take(row) + indices.take(row + 1) - pred.take(last))
        length = stops - starts + 1
        chain = np.repeat(np.arange(len(starts)), stops - starts)
        t = np.arange(1, len(node) + 1) - starts.take(chain)
        # node y lies offset[y] hops from ends[y] (its a) and offset[m + y]
        # from ends[m + y] (its b); a branch node is its own a and b, at 0
        # hops
        self.k, self.bid, self.node, self.node_t = k, bid, node, t
        self.ends = np.concatenate([bid, bid])
        self.ends[node], self.ends[m + node] = a.take(chain), b.take(chain)
        self.offset = np.zeros(2 * m)
        self.offset[node], self.offset[m + node] = t, length.take(chain) - t
        self.pos = np.zeros(m, dtype=np.int64)
        self.pos[node] = np.arange(len(node))
        # the branch graph keeps the core's branch rows in order: an entry
        # to a branch node is an edge of weight 1, and an entry from end r
        # into a chain an edge of weight L to its other end a + b - r (r
        # again on a loop).  Row k serves sweeps from a chain node: no edge
        # leads into k, and `distances` points its two entries, the last of
        # the CSR, at the chain's ends
        far, weight = bid.copy(), np.ones(m)
        far[node], weight[node] = (a + b).take(chain), length.take(chain)
        rows = np.repeat(bid, deg)
        entry = np.flatnonzero(rows >= 0)
        y = indices.take(entry)
        bounds = np.zeros(k + 2, dtype=np.int64)
        np.cumsum(deg.take(branch), out=bounds[1:k + 1])
        bounds[k + 1] = bounds[k] + 2
        self.graph = _matrix(bounds,
                             np.concatenate([far.take(y) - rows.take(entry) * inward.take(entry), [0, k]]),
                             np.concatenate([weight.take(y), [1, 1]]))

    def distances(self, s: int) -> np.ndarray:
        """Hop distances from node s to every node, from one `_dijkstra`
        sweep of the branch graph: from branch node s itself, or from row k
        joined to chain node s's ends a and b by edges of t and L - t (both
        to a on a loop, where the sweep keeps the shorter)."""
        m = len(self.bid)
        source = self.bid[s]
        if source < 0:
            source, t, rest = self.k, int(self.offset[s]), int(self.offset[m + s])
            self.graph.indices[-2:] = self.ends[s], self.ends[m + s]
            self.graph.data[-2:] = t, rest
        # the branch rows hold both directions of every edge and no edge
        # leads into k, so the directed sweep gives the distances without
        # scipy's transpose
        both = _dijkstra(self.graph, directed=True, indices=source, min_only=True).take(self.ends)
        both += self.offset
        d = np.minimum(both[:m], both[m:])
        if source == self.k:
            # along s's own chain, whose inner nodes sit at j - t + 1 .. j + L - t - 1
            j = self.pos[s]
            own = self.node[j - t + 1:j + rest]
            d[own] = np.minimum(d.take(own), np.abs(self.node_t[j - t + 1:j + rest] - t))
        return d


def _cycle_diameter(h: np.ndarray) -> int:
    """max over nodes u != w of h[u] + d(u, w) + h[w] on a cycle of
    L = len(h) >= 3 nodes listed in cycle order, with a fixed number of
    array operations.

    Every pair lies at forward offset 1..W = L // 2 from one of its nodes,
    and that offset is its distance.  With g[j] = h[j mod L] + j, node i's
    best partner gives h[i] - i + max(g[i+1 .. i+W]): one sliding-window
    maximum of width W over g, read off prefix and suffix maxima within
    blocks of W (van Herk; Gil & Werman).
    """
    size = len(h)
    w = size // 2
    blocks = -(-(size + w) // w)
    g = np.full(blocks * w, -np.inf)
    g[:size + w] = np.concatenate([h, h[:w]]) + np.arange(size + w)
    g = g.reshape(blocks, w)
    prefix = np.maximum.accumulate(g, axis=1).ravel()
    suffix = np.maximum.accumulate(g[:, ::-1], axis=1)[:, ::-1].ravel()
    i = np.arange(size)
    return int((h - i + np.maximum(suffix.take(i + 1), prefix.take(i + w))).max())


def component_diameter(gp, component) -> int:
    """Exact hop-diameter of a connected component, given as distinct nodes
    of gp; raises ValueError for a node that is not an integer (a bool or a
    float such as 1.5 included), a node outside [0, n), a repeated node or
    nodes that are not connected in gp.

    The pendant trees are peeled off first (`_peel_pendant_trees`), leaving
    the 2-core with a weight h(v) per core node, the height of the trees
    hanging at v; a tree component is answered by the peel alone.  On the
    core, with E(u) = max_w d(u, w) + h(w) over core nodes w (u included),
    the diameter is the larger of the longest path inside the trees and
    max_{u != w} h(u) + d(u, w) + h(w).  A core that is one bare cycle is
    answered by `_cycle_diameter` with no sweep.
    Otherwise a sweep from s gives that maximum for u = s exactly, and by
    the triangle inequality the bounds max(E(s) - d, d + h(s)) <= E(u) <=
    E(s) + d with d = d(s, u).  A node u is dropped once h(u) + E_hi(u) <=
    diam, since no path through it can be longer.  Sources start at the
    highest-degree core node and then alternate between the smallest E_lo
    (a central node, which tightens every upper bound) and the largest
    h + E_hi (which can raise diam), after Takes & Kosters'
    BoundingDiameters (Algorithms 4, 2011).

    Each sweep runs on the core with its degree-2 chains contracted
    (`_ChainCore`): one weighted `_dijkstra` call over the branch nodes,
    then one pass of array arithmetic that expands it to every core node.
    The distances equal the BFS hop distances exactly, so the bounds, the
    pruning and the sources are those of a BFS sweep on the core.

    Measured on the 60 supercritical giants of a `scaling` pass (swg,
    p = 0.55, n = 2^13 and 2^14, 5-10k nodes), it takes 1365 sweeps, about
    23 per giant, where a bounding search on the whole unpeeled component
    needs about 106.  A giant costs about 2.3 ms before its first sweep
    (0.27 ms of it the connectivity search) and about 0.15 ms a sweep,
    three quarters of which is scipy's `dijkstra` (2-core Xeon VM, timings
    vary by about a third from run to run).  On
    `sample_swg_erdos(10000, 0.0)` at p = 1, a bare ring, a call takes
    about 4 ms and no sweep.
    """
    if not isinstance(component, abc.Collection):
        component = list(component)
    kinds = ({component.dtype.type} if isinstance(component, np.ndarray)
             else set(map(type, component)))
    bad = sorted(t.__name__ for t in kinds
                 if not issubclass(t, (int, np.integer)) or issubclass(t, bool))
    if bad:
        raise ValueError(f"component nodes must be integers, not {', '.join(bad)}")
    nodes = np.sort(np.fromiter(component, dtype=np.int64))
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= gp.n):
        raise ValueError(f"component nodes must lie in [0, {gp.n})")
    if np.any(nodes[1:] == nodes[:-1]):
        raise ValueError("component lists a node twice")
    m = len(nodes)
    if m == 1:
        return 0
    from scipy.sparse.csgraph import breadth_first_order
    adj = _component_csr(gp, nodes)
    # both directions of every edge are stored, so a directed search from
    # node 0 reaches its whole component
    if not m or len(breadth_first_order(_matrix(adj.indptr, adj.indices), 0,
                                        directed=True, return_predecessors=False)) != m:
        raise ValueError("component is not connected in the graph")
    core, h, diam = _peel_pendant_trees(adj)
    if len(core) <= 1:
        return diam
    sub = _core_csr(adj, core)
    chains = _ChainCore(sub)
    h = h.take(core).astype(np.float64)
    if sub.indptr[-1] == 2 * len(core):
        # one bare cycle: stand-in node 0, then its loop's nodes in order
        return max(diam, _cycle_diameter(h.take(np.append(0, chains.node))))
    # E_lo and h + E_hi of the nodes still `alive` (in increasing order, so
    # ties go to the smallest node); a swept node's h + E_hi is -inf
    alive = np.arange(len(core))
    e_lo = h.copy()
    bound = np.full(len(core), np.inf)
    s = int(np.argmax(np.diff(sub.indptr)))
    pick_high = False
    while True:
        d = chains.distances(s)
        reach = d + h
        hs = h[s]
        reach[s] = -np.inf
        far = reach.max()
        diam = max(diam, int(hs + far))
        ecc = max(far, hs)
        d = d.take(alive)
        np.maximum(e_lo, ecc - d, out=e_lo)
        np.maximum(e_lo, d + hs, out=e_lo)
        np.minimum(bound, reach.take(alive) + ecc, out=bound)
        live = bound > diam
        alive, e_lo, bound = alive.compress(live), e_lo.compress(live), bound.compress(live)
        if not len(alive):
            return diam
        s = int(alive[bound.argmax() if pick_high else e_lo.argmin()])
        pick_high = not pick_high


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------

# rows of text formatted and written at a time, about 200 KiB of edge lines
_WRITE_ROWS = 2 ** 14


def format_rows(template: str, columns: np.ndarray) -> Iterator[str]:
    """Text of an integer array, `template` once per row, in blocks of
    _WRITE_ROWS rows, each from one `%` over a flat tuple."""
    for i in range(0, len(columns), _WRITE_ROWS):
        block = columns[i:i + _WRITE_ROWS]
        yield (template * len(block)) % tuple(block.ravel().tolist())


def save_edge_list(g, path) -> None:
    """One line per listed edge `u v kind` in id order: for a SmallWorldGraph
    the bridges (kind B) under the header `# swg n=<n> model=<tag>
    ring=implicit`, since n fixes the ring; for a GenericGraph every edge
    (kind R) under `# swg n=<n> model=generic`.  The lines are formatted and
    written a block at a time."""
    uv = np.column_stack(g.listed)
    kind, ring = ("B", " ring=implicit") if g.num_ring else ("R", "")
    with open(path, "w") as fh:
        fh.write(f"# swg n={g.n} model={g.model_tag}{ring}\n")
        fh.writelines(format_rows(f"%d %d {kind}\n", uv))


_SPACE = b" \t\n\v\f"


def _parse_edge_lines(body: bytes) -> tuple:
    """(u, v, is_bridge) arrays from the lines `u v kind` of `body`.

    Blank lines and lines starting with `#` are skipped.  Every other line
    must hold exactly three fields separated by ASCII whitespace: two
    integers and a kind, R or B.  Fields are found with array operations on
    the bytes; once the kinds are blanked out and only signed digit runs
    remain, one `np.fromstring` call reads the block's integers.  Every
    check is local to a line, so any block of whole lines can be parsed."""
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


def _refuse_repeats(u: np.ndarray, v: np.ndarray, what: str) -> None:
    """Raise when lexicographically sorted edge arrays hold an edge twice."""
    if np.any((np.diff(u) == 0) & (np.diff(v) == 0)):
        raise ValueError(f"{what} is listed twice")


# bytes read at a time by load_edge_list (then on to the next line end)
_READ_BLOCK = 2 ** 18


def _text_blocks(fh) -> Iterator[bytes]:
    """The bytes of `fh` in blocks that end at a line end, read as text would:
    UTF-8 only, with \\r\\n and lone \\r ending lines."""
    for block in iter(lambda: fh.read(_READ_BLOCK) + fh.readline(), b""):
        if not block.isascii():
            try:
                block.decode()
            except UnicodeDecodeError:  # again from the start, for the file's offsets
                end = fh.tell()
                fh.seek(0)
                fh.read(end).decode()
        yield block.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in block else block


def load_edge_list(path):
    """Inverse of save_edge_list; the round trip is lossless for every graph
    that holds no edge twice (the samplers never make one).

    Raises ValueError on a malformed file: a header field other than
    `key=value`, a header without `n=` or `model=`, an n outside
    [0, 2**31], a line other than `u v kind` with integers u, v, an edge
    kind other than R or B, a node outside [0, n), an edge not given as
    u < v, a `model=matching` file in which a node has two bridges, a
    ring-based file whose R lines are not exactly the n ring edges, an R
    line under `ring=implicit`, a `ring=` other than `implicit` or in a
    `model=generic` file, a bridge given twice, or a `model=generic` edge
    given twice.
    The file is parsed a block at a time, keeping only a ring-based file's B
    lines; of line faults in several blocks, the first block's is reported."""
    with open(path, "rb") as fh:
        blocks = _text_blocks(fh)
        head, _, body = next(blocks, b"").partition(b"\n")
        header = head.decode().strip()
        if not header.startswith("# swg "):
            raise ValueError(f"bad header: {header!r}")
        parts = header[6:].split()
        for part in parts:
            if "=" not in part:
                raise ValueError(f"header field {part!r} is not key=value")
        fields = dict(part.split("=", 1) for part in parts)
        missing = [key for key in ("n", "model") if key not in fields]
        if missing:
            raise ValueError(f"header lacks {', '.join(k + '=' for k in missing)}")
        n = int(fields["n"])
        if not 0 <= n <= _MAX_NODES:
            raise ValueError(f"n must lie in [0, {_MAX_NODES}]")
        tag, implicit = fields["model"], "ring" in fields
        if implicit and (fields["ring"] != "implicit" or tag == "generic"):
            raise ValueError(f"header field ring={fields['ring']}: "
                             "only ring=implicit, in a ring-based file")
        us, vs = [], []
        # ring edge {i, i+1 mod n} is the line `i i+1 R` (`0 n-1 R` for i = n-1)
        ring_lines, ring_seen = 0, None
        for body in chain([body], blocks):
            u, v, bridge = _parse_edge_lines(body)
            if tag != "generic" and not bridge.all():
                if implicit:
                    raise ValueError("a ring=implicit file lists no R lines")
                ru, rv, u, v = u[~bridge], v[~bridge], u[bridge], v[bridge]
                wrap = (ru == 0) & (rv == n - 1)
                ring = wrap | ((ru >= 0) & (rv == ru + 1) & (rv < n))
                ring_lines += len(ru)
                ring_seen = np.zeros(n, dtype=bool) if ring_seen is None else ring_seen
                ring_seen[np.where(wrap, n - 1, ru)[ring]] = True
            us.append(u)
            vs.append(v)
    # np.lexsort((v, u)) for 0 <= u, v < n as one stable sort, skipped on
    # sorted lines; out-of-range edges are refused after it, in any order
    u, v = np.concatenate(us), np.concatenate(vs)
    del us, vs
    keys = u * n + v
    if np.any(keys[1:] < keys[:-1]):
        order = np.argsort(keys, kind="stable")
        u, v = u[order], v[order]
    del keys
    if tag == "generic":
        g = GenericGraph(n, u, v)
        _refuse_repeats(g.edge_u, g.edge_v, "an edge")
        return g
    g = SmallWorldGraph(n, u, v, tag)
    if tag == "matching" and np.bincount(np.concatenate([u, v])).max(initial=0) > 1:
        raise ValueError("model=matching but a node has two bridges")
    # n R lines mark all n ring edges only if each is one, there once
    if not implicit and (ring_lines != n or not ring_seen.all()):
        raise ValueError(f"the R lines must be exactly the {n} ring edges")
    _refuse_repeats(g.bridge_u, g.bridge_v, "a bridge")
    return g
