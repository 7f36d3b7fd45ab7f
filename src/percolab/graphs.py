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

def _check_edge_arrays(n: int, u: np.ndarray, v: np.ndarray, what: str) -> None:
    if np.any(u >= v):
        raise ValueError(f"{what} arrays must satisfy u < v")
    if len(u) and (u.min() < 0 or v.max() >= n):
        raise ValueError(f"{what} endpoints must lie in [0, {n})")


class Adjacency:
    """Read-only CSR adjacency, a sequence whose item w is the sorted tuple
    of w's neighbours.

    `indptr` and `indices` hold the CSR as plain Python sequences (w's
    neighbours are indices[indptr[w]:indptr[w + 1]]), so per-node loops
    index them without numpy scalar overhead.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: list, indices: tuple):
        self.indptr = indptr
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, w: int) -> tuple:
        # indptr[n + 1] raises IndexError, which ends iteration over the nodes
        return self.indices[self.indptr[w]:self.indptr[w + 1]]


def _csr(n: int, u: np.ndarray, v: np.ndarray) -> Adjacency:
    """Adjacency of the undirected edges (u[k], v[k]) on nodes 0..n-1, each
    node's neighbours sorted (a multi-edge lists its neighbour twice)."""
    ends = np.concatenate([u, v])
    other = np.concatenate([v, u])
    order = np.lexsort((other, ends))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    return Adjacency(indptr.tolist(), tuple(other[order].tolist()))


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

    @property
    def max_degree(self) -> int:
        if len(self.edge_u) == 0:
            return 0
        counts = np.bincount(np.concatenate([self.edge_u, self.edge_v]), minlength=self.n)
        return int(counts.max())

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


def component_labels(gp) -> tuple:
    """(labels, sizes): labels[v] is the component id of v, sizes[k] the
    size of component k.  Fast path used by the Monte Carlo experiments.

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
        arc, k = None, _num_nodes(gp)
        u, v = _as_edge_arrays(gp)
    data = np.ones(len(u), dtype=np.int8)
    mat = csr_matrix((data, (u, v)), shape=(k, k))
    # scipy numbers components in order of their smallest index
    ncomp, labels = _cc(mat, directed=False)
    if arc is not None:
        labels = labels[arc]
    sizes = np.bincount(labels, minlength=ncomp)
    return labels, sizes


def connected_components(gp) -> list:
    """Partition of V into components, sorted by size descending and then by
    smallest contained node id (label order is smallest-node order, see
    `component_labels`, so a stable sort on size gives the tie-break)."""
    labels, sizes = component_labels(gp)
    members = np.argsort(labels, kind="stable").tolist()
    bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    return [set(members[bounds[k]:bounds[k + 1]])
            for k in np.argsort(-sizes, kind="stable").tolist()]


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
_KINDS_TO_SPACE = bytes.maketrans(b"RB", b"  ")


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
    text = body + b"\n"
    a = np.frombuffer(text, dtype=np.uint8)
    # +1 where a field starts, -1 on the byte after it ends (bytes <= b" "
    # separate fields; control bytes other than whitespace are refused below)
    edge = np.diff((a > ord(" ")).view(np.int8), prepend=np.int8(0))
    starts = np.flatnonzero(edge == 1)
    ends = np.flatnonzero(edge == -1)
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
    digits = text.translate(_KINDS_TO_SPACE)
    d = np.frombuffer(digits, dtype=np.uint8)
    signs = np.flatnonzero((d == ord("+")) | (d == ord("-")))
    if (text.count(b"R") + text.count(b"B") != len(ks)
            or digits.translate(None, b"0123456789+-" + _SPACE)
            or np.any(edge[signs] != 1) or np.any(edge[signs + 1] != 0)
            or np.any(ends - starts > 18)):
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


def load_edge_list(path):
    """Inverse of save_edge_list; the round trip is lossless.

    Raises ValueError on a malformed file: a header without `n=` or
    `model=`, an n outside [0, 2**31], a line other than `u v kind` with
    integers u, v, an edge kind other than R or B, a node outside [0, n),
    an edge not given as u < v, a `model=matching` file in which a node has
    two bridges, a ring-based file whose R lines are not exactly the n ring
    edges, or a bridge given twice."""
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
        return GenericGraph(n, u[order], v[order])
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
    if np.any((np.diff(g.bridge_u) == 0) & (np.diff(g.bridge_v) == 0)):
        raise ValueError("a bridge is listed twice")
    return g
