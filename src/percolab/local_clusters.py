"""Local clusters on the percolated ring and the ring occupancy.

The local cluster of v is the contiguous arc reachable from v over retained
ring edges; the L-truncated variant follows at most L retained ring edges in
each direction.  The visits keep every touched node in a `RingOccupancy`, a
byte mask of the ring, and ask it whether a candidate lies at least L + 1
steps from all of them, so that its truncated cluster cannot collide.
"""

from __future__ import annotations

import numpy as np

from .graphs import PercolationGraph


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
    """The touched ring positions, as a `bytearray(n)` mask that `add` and
    `add_all` mark with nodes in [0, n).  `min_distance` is exact up to the
    visit's truncation L and answers L + 1 beyond."""

    def __init__(self, n: int, positions=(), *, L: int):
        self.n = n
        self.mask = bytearray(n)
        self.add_all(np.fromiter(positions, dtype=np.int64) % n)
        # an empty mask answers min(n, L + 1): "not free" on a ring of n <= L nodes
        self.reach, self.far = min(L, n // 2), min(n, L + 1)

    def add(self, x: int) -> None:
        self.mask[x] = 1

    def add_all(self, nodes: np.ndarray) -> None:
        np.frombuffer(self.mask, dtype=np.uint8)[nodes] = 1

    def min_distance(self, x: int) -> int:
        """Ring distance from x to the nearest occupied node, by one `find`
        and one `rfind` over the window x - reach .. x + reach, capped at
        min(n, L + 1), which is also the answer on an empty mask."""
        mask, n, r = self.mask, self.n, self.reach
        x = int(x) % n
        # the window x - r .. x + r, split at the seam; x sits at offset r
        if x < r:
            w = mask[x - r:] + mask[:x + r + 1]
        elif x + r >= n:
            w = mask[x - r:] + mask[:x + r + 1 - n]
        else:
            w = mask[x - r:x + r + 1]
        right, left = w.find(1, r), w.rfind(1, 0, r)
        return min(right - r if right >= 0 else self.far, r - left if left >= 0 else self.far)


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
