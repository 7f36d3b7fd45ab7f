import numpy as np
import pytest

from percolab.graphs import percolate, sample_swg_erdos
from percolab.local_clusters import (
    RingOccupancy,
    expected_truncated_size,
    local_cluster,
    mean_truncated_size_mc,
    truncated_local_cluster,
)
from percolab.rng import Seed

from .oracles import is_free, is_free_parallel, ring_distance


def _ring_graph(n, active_edges):
    """Percolation graph of a bare n-ring with the given retained edges;
    edge i joins i and (i+1) mod n."""
    g = sample_swg_erdos(n, 0.0, Seed(0).generator())
    gp = percolate(g, 1.0, 1.0, Seed(0).generator())
    gp.ring_active[:] = False
    for e in active_edges:
        gp.ring_active[e] = True
    return gp


def test_ring_distance():
    assert ring_distance(10, 0, 3) == 3
    assert ring_distance(10, 0, 7) == 3
    assert ring_distance(10, 4, 4) == 0
    assert ring_distance(10, 0, 5) == 5


def test_truncated_cluster_hand_case():
    # retained edges 0,1,2 and 8,9 on a 10-ring: from node 1 the right arc
    # reaches 2,3 (edge 3 missing) and the left arc reaches 0,9,8
    gp = _ring_graph(10, [0, 1, 2, 8, 9])
    assert truncated_local_cluster(gp, 1, 5) == {8, 9, 0, 1, 2, 3}
    assert truncated_local_cluster(gp, 1, 2) == {9, 0, 1, 2, 3}
    assert truncated_local_cluster(gp, 1, 1) == {0, 1, 2}
    assert local_cluster(gp, 1) == {8, 9, 0, 1, 2, 3}


def test_truncated_cluster_full_ring():
    gp = _ring_graph(12, range(12))
    assert truncated_local_cluster(gp, 5, 2) == {3, 4, 5, 6, 7}
    # untruncated cluster on a fully retained ring is everything
    assert local_cluster(gp, 5) == set(range(12))


def test_truncated_cluster_isolated():
    gp = _ring_graph(10, [])
    assert truncated_local_cluster(gp, 4, 3) == {4}


def test_expected_truncated_size_limits():
    # grows toward (1+p)/(1-p) and matches direct series evaluation
    p = 0.6
    assert expected_truncated_size(p, 200) == pytest.approx((1 + p) / (1 - p))
    for L in (1, 3, 10):
        series = 1 + 2 * sum(p ** i for i in range(1, L + 1))
        assert expected_truncated_size(p, L) == pytest.approx(series)
    with pytest.raises(ValueError):
        expected_truncated_size(1.0, 5)


def test_one_sided_reach_law():
    # the one-sided reach is geometric truncated at L:
    # P(i) = p^i (1-p) for i < L and P(L) = p^L
    p, L, n = 0.4, 4, 1000
    rng = Seed(31).generator()
    trials = 40_000
    counts = np.zeros(L + 1)
    for _ in range(trials):
        mask = rng.random(n) < p
        v = 123
        reach = 0
        while reach < L and mask[(v + reach) % n]:
            reach += 1
        counts[reach] += 1
    expected = np.array([p ** i * (1 - p) for i in range(L)] + [p ** L])
    tv = 0.5 * np.abs(counts / trials - expected).sum()
    assert tv < 0.01


def _capped_run_lengths(mask, L):
    """Per-node reference: for each i, the number of consecutive True entries
    in the circular mask starting at i, capped at L."""
    n = len(mask)
    if mask.all():
        return np.full(n, min(L, n), dtype=np.int64)
    mm = np.concatenate([mask, mask[: min(L, n)]])
    zeros = np.flatnonzero(~mm)
    idx = np.searchsorted(zeros, np.arange(n))
    idx = np.minimum(idx, len(zeros) - 1)
    nxt = zeros[idx]
    nxt = np.where(nxt >= np.arange(n), nxt, n + min(L, n))
    return np.minimum(nxt - np.arange(n), L)


def test_capped_run_lengths_reference():
    rng = Seed(33).generator()
    for n, p, L in [(9, 0.6, 3), (9, 0.6, 20), (1, 1.0, 4), (30, 0.9, 7)]:
        mask = rng.random(n) < p
        expected = []
        for i in range(n):
            reach = 0
            while reach < min(L, n) and mask[(i + reach) % n]:
                reach += 1
            expected.append(reach)
        assert _capped_run_lengths(mask, L).tolist() == expected


def test_mean_truncated_size_mc_equals_per_node_sums():
    # bit-identical to averaging per-node right and left reaches, including
    # the all-retained ring and L >= n; at (999, 0.2, 4) adding 2 * m instead
    # of m + m would round differently
    trials = 40
    for n, p, L in [(1000, 0.3, 5), (999, 0.2, 4), (1000, 0.9, 10), (50, 0.95, 200),
                    (12, 1.0, 4), (12, 1.0, 30), (7, 0.5, 7), (3, 0.9, 1)]:
        rng = Seed(n).generator()
        total = 0.0
        for _ in range(trials):
            mask = rng.random(n) < p
            right = _capped_run_lengths(mask, L)
            # the left reach of v starts at edge v-1: run the reversed mask
            left = np.roll(_capped_run_lengths(mask[::-1], L)[::-1], 1)
            total += 1.0 + right.mean() + left.mean()
        assert mean_truncated_size_mc(n, p, L, trials, Seed(n).generator()) == total / trials


def test_mean_truncated_size_mc_matches_formula():
    rng = Seed(32).generator()
    for p, L in [(0.3, 5), (0.6, 10)]:
        mc = mean_truncated_size_mc(20_000, p, L, 50, rng)
        assert mc == pytest.approx(expected_truncated_size(p, L), rel=0.02)


def test_mean_truncated_size_mc_refuses_bad_arguments():
    # p = 1.5 used to give 5.0, and trials = 0 a ZeroDivisionError
    for p in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="0 <= p <= 1"):
            mean_truncated_size_mc(100, p, 4, 10, Seed(1).generator())
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials >= 1"):
            mean_truncated_size_mc(100, 0.5, 4, trials, Seed(1).generator())


def test_ring_occupancy():
    occ = RingOccupancy(20, [3, 17], L=20)
    assert occ.min_distance(3) == 0
    assert occ.min_distance(0) == 3
    assert occ.min_distance(10) == 7
    occ.add(10)
    assert occ.min_distance(9) == 1
    assert occ.min_distance(10) == 0 and occ.min_distance(11) == 1
    occ.add(10)  # idempotent
    assert occ.mask.count(1) == 3
    assert RingOccupancy(20, L=20).min_distance(5) == 20


def test_is_free():
    assert is_free(20, 10, {0, 3}, 3)
    assert not is_free(20, 5, {0, 3}, 3)
    assert is_free(20, 10, set(), 3)


def test_is_free_parallel():
    X = {10, 20}
    # far from A and 2L+1 from the other member of X
    assert is_free_parallel(40, 10, X, {0}, 3)
    assert not is_free_parallel(40, 10, X, {8}, 3)
    assert not is_free_parallel(40, 10, {10, 14}, {0}, 3)
    with pytest.raises(ValueError):
        is_free_parallel(40, 5, X, set(), 3)
