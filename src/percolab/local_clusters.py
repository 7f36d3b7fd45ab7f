"""Local clusters on the percolated ring and the ring occupancy.

The local cluster of v is the contiguous arc reachable from v over retained
ring edges; the L-truncated variant follows at most L retained ring edges in
each direction.  The visits ask a `RingOccupancy` whether a candidate node
is far enough along the ring from everything already touched for its
truncated cluster to be guaranteed collision-free.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from .graphs import PercolationGraph


def ring_distance(n: int, i: int, j: int) -> int:
    """Hop distance between i and j on the n-cycle: min(|i-j|, n-|i-j|)."""
    d = abs(i - j) % n
    return min(d, n - d)


def expected_truncated_size(p: float, L: int) -> float:
    """Exact expected size of an L-truncated local cluster on a long ring.

    Strictly increasing in L; tends to (1+p)/(1-p) as L grows.
    """
    if not 0 <= p < 1:
        raise ValueError("need 0 <= p < 1 (the expectation diverges at p=1)")
    if L < 1:
        raise ValueError("need L >= 1")
    return (1 + p) / (1 - p) - 2 * p ** (L + 1) / (1 - p)


def local_cluster(gp: PercolationGraph, v: int) -> set:
    """Maximal set reachable from v via retained ring edges (includes v)."""
    return truncated_local_cluster(gp, v, gp.n)


def truncated_local_cluster(gp: PercolationGraph, v: int, L: int) -> set:
    """Nodes reachable from v using at most L retained ring edges per
    direction; at most 2L+1 nodes.  v is read mod n, so v = -1 is node
    n - 1; the visit engines call this once per candidate, so it checks
    nothing."""
    n = gp.n
    ring = gp.ring_active
    out = {v % n}
    steps = min(L, n - 1)
    # rightward: edge {v+i, v+i+1} has index (v+i) mod n
    for i in range(steps):
        if not ring[(v + i) % n]:
            break
        out.add((v + i + 1) % n)
    # leftward: edge {v-i-1, v-i} has index (v-i-1) mod n
    for i in range(steps):
        if not ring[(v - i - 1) % n]:
            break
        out.add((v - i - 1) % n)
    return out


class RingOccupancy:
    """Sorted set of ring positions supporting nearest-distance queries.

    Visits issue many freeness queries against a growing set of touched
    nodes; bisection over the sorted positions answers each in O(log n).
    """

    def __init__(self, n: int, positions=()):
        self.n = n
        self.pos = sorted(set(int(p) % n for p in positions))

    def add(self, x: int) -> None:
        x = int(x) % self.n
        i = bisect_left(self.pos, x)
        if i == len(self.pos) or self.pos[i] != x:
            insort(self.pos, x)

    def min_distance(self, x: int) -> int:
        """Ring distance from x to the nearest occupied position
        (n if empty)."""
        pos = self.pos
        if not pos:
            return self.n
        x = int(x) % self.n
        i = bisect_left(pos, x)
        left = pos[i - 1] if i > 0 else pos[-1]
        right = pos[i] if i < len(pos) else pos[0]
        return min(ring_distance(self.n, x, left), ring_distance(self.n, x, right))

    def __contains__(self, x: int) -> bool:
        i = bisect_left(self.pos, int(x) % self.n)
        return i < len(self.pos) and self.pos[i] == int(x) % self.n

    def __len__(self) -> int:
        return len(self.pos)


# ---------------------------------------------------------------------------
# vectorized Monte Carlo helper
# ---------------------------------------------------------------------------

def mean_truncated_size_mc(n: int, p: float, L: int, trials: int,
                           rng: np.random.Generator) -> float:
    """Monte Carlo estimate of E[|LC^L(v)|] on an n-ring: percolate the ring
    `trials` times and average the truncated cluster size over all nodes.

    A maximal circular run of r retained edges gives its nodes capped right
    reaches r, r-1, ..., 1 (each capped at L), so it adds
    S(r) = sum_{j<=r} min(j, L) to the right sum; the left reaches over the
    same run are 1, ..., r, so the left sum is the same total.
    Raises ValueError for p outside [0, 1] (nan included) or trials < 1.
    """
    if not 0 <= p <= 1:  # also refuses nan
        raise ValueError("need 0 <= p <= 1")
    if trials < 1:
        raise ValueError("need trials >= 1")
    total = 0.0
    for _ in range(trials):
        mask = rng.random(n) < p
        if mask.all():
            m = min(L, n)
        else:
            zeros = np.flatnonzero(~mask)
            r = np.diff(zeros, append=zeros[0] + n) - 1
            capped = np.minimum(r, L)
            m = int((capped * (capped + 1) // 2 + (r - capped) * L).sum()) / n
        # m is both the right and the left mean; adding it twice (not 2 * m)
        # rounds exactly as averaging the per-node reaches does
        total += 1.0 + m + m
    return total / trials
