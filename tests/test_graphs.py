import itertools
from collections import Counter

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from percolab import graphs
from percolab.graphs import (
    GenericGraph,
    PercolationGraph,
    SmallWorldGraph,
    _decode_pair_indices,
    component_diameter,
    component_labels,
    connected_components,
    largest_component_size,
    load_edge_list,
    percolate,
    percolate_coupled,
    sample_regular,
    sample_swg_erdos,
    sample_swg_matching,
    save_edge_list,
)
from percolab.rng import Seed


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_pair_index_decoding_matches_lexicographic_enumeration():
    n = 13
    expected = list(itertools.combinations(range(n), 2))
    u, v = _decode_pair_indices(np.arange(len(expected)), n)
    assert list(zip(u.tolist(), v.tolist())) == expected


def test_erdos_bridge_count_concentrates():
    n, c = 20_000, 2.0
    rng = Seed(3).generator()
    counts = [sample_swg_erdos(n, c, rng).num_bridges for _ in range(20)]
    # expected (n-1)c/2 ~ c*n/2; std ~ sqrt(mean)
    mean = np.mean(counts)
    target = (n - 1) * c / 2
    assert abs(mean - target) < 5 * np.sqrt(target / 20)


def test_erdos_marginal_pair_probability():
    n, c = 30, 1.5
    rng = Seed(4).generator()
    trials = 20_000
    probes = [(0, 7), (3, 19), (11, 29)]
    hits = Counter()
    for _ in range(trials):
        g = sample_swg_erdos(n, c, rng)
        pairs = set(zip(g.bridge_u.tolist(), g.bridge_v.tolist()))
        for pr in probes:
            if pr in pairs:
                hits[pr] += 1
    q = c / n
    sigma = np.sqrt(q * (1 - q) / trials)
    for pr in probes:
        assert abs(hits[pr] / trials - q) < 4 * sigma


def test_erdos_rejects_bad_parameters():
    rng = Seed(0).generator()
    with pytest.raises(ValueError):
        sample_swg_erdos(2, 1.0, rng)
    with pytest.raises(ValueError):
        sample_swg_erdos(100, -1.0, rng)


def _all_perfect_matchings(nodes):
    if not nodes:
        yield frozenset()
        return
    first, rest = nodes[0], nodes[1:]
    for i, partner in enumerate(rest):
        pair = (min(first, partner), max(first, partner))
        for sub in _all_perfect_matchings(rest[:i] + rest[i + 1:]):
            yield sub | {pair}


def test_matching_sampler_distribution_via_enumeration():
    # oracle: enumerate the 15 perfect matchings of 6 nodes, apply the
    # drop-ring-coincident rule, and compare the induced bridge-set law
    n = 6
    ring = {(i, (i + 1) % n) for i in range(n)}
    ring = {(min(a, b), max(a, b)) for a, b in ring}
    expected = Counter()
    matchings = list(_all_perfect_matchings(list(range(n))))
    assert len(matchings) == 15
    for m in matchings:
        expected[frozenset(p for p in m if p not in ring)] += 1 / 15
    rng = Seed(21).generator()
    trials = 30_000
    observed = Counter()
    for _ in range(trials):
        g = sample_swg_matching(n, rng)
        observed[frozenset(zip(g.bridge_u.tolist(), g.bridge_v.tolist()))] += 1
    tv = 0.5 * sum(abs(expected[k] - observed[k] / trials)
                   for k in set(expected) | set(observed))
    assert tv < 0.02


def test_matching_ring_coincidence_expectation():
    # a uniform matching pairs any two fixed nodes with probability 1/(n-1),
    # so the expected number of dropped (ring-coincident) pairs is n/(n-1)
    n = 1000
    rng = Seed(6).generator()
    dropped = []
    for _ in range(300):
        g = sample_swg_matching(n, rng)
        dropped.append(n // 2 - g.num_bridges)
    assert abs(np.mean(dropped) - n / (n - 1)) < 0.25


def test_matching_degrees():
    rng = Seed(9).generator()
    g = sample_swg_matching(500, rng)
    adj = g.bridge_adjacency()
    assert all(len(a) <= 1 for a in adj)
    assert all(g.degree(v) in (2, 3) for v in range(g.n))


def test_matching_rejects_odd_n():
    with pytest.raises(ValueError):
        sample_swg_matching(7, Seed(0).generator())


def test_regular_sampler_degrees_and_simplicity():
    rng = Seed(2).generator()
    g = sample_regular(400, 3, rng)
    counts = np.bincount(np.concatenate([g.edge_u, g.edge_v]), minlength=g.n)
    assert (counts == 3).all()
    pairs = set(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    assert len(pairs) == len(g.edge_u)
    assert all(u != v for u, v in pairs)


def test_regular_rejects_odd_total_degree():
    with pytest.raises(ValueError):
        sample_regular(5, 3, Seed(0).generator())


# ---------------------------------------------------------------------------
# percolation
# ---------------------------------------------------------------------------

def test_percolate_extremes():
    rng = Seed(5).generator()
    g = sample_swg_erdos(200, 1.0, rng)
    full = percolate(g, 1.0, 1.0, rng)
    assert full.ring_active.all() and full.bridge_active.all()
    empty = percolate(g, 0.0, 0.0, rng)
    assert not empty.ring_active.any() and not empty.bridge_active.any()
    assert largest_component_size(empty) == 1


def test_percolate_split_probabilities():
    rng = Seed(5).generator()
    g = sample_swg_erdos(5000, 2.0, rng)
    gp = percolate(g, 1.0, 0.0, rng)
    assert gp.ring_active.all() and not gp.bridge_active.any()


def test_coupled_percolation_is_monotone():
    rng = Seed(10).generator()
    g = sample_swg_erdos(2000, 1.0, rng)
    ps = [(0.2, 0.2), (0.5, 0.5), (0.9, 0.9)]
    for _ in range(20):
        low, mid, high = percolate_coupled(g, ps, rng)
        assert (low.ring_active <= mid.ring_active).all()
        assert (mid.ring_active <= high.ring_active).all()
        assert (low.bridge_active <= mid.bridge_active).all()
        assert (mid.bridge_active <= high.bridge_active).all()


# ---------------------------------------------------------------------------
# components and diameter
# ---------------------------------------------------------------------------

def _flood_fill_components(gp):
    """Slow reference: python BFS over an explicit adjacency dict."""
    n = gp.n
    eu, ev = gp.active_edge_arrays()
    adj = {i: [] for i in range(n)}
    for u, v in zip(eu.tolist(), ev.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    comps.sort(key=lambda s_: (-len(s_), min(s_)))
    return comps


def test_components_match_flood_fill_oracle():
    rng = Seed(11).generator()
    for _ in range(25):
        g = sample_swg_erdos(150, 1.5, rng)
        gp = percolate(g, 0.5, 0.5, rng)
        assert connected_components(gp) == _flood_fill_components(gp)


def test_component_labels_sizes_consistent():
    rng = Seed(12).generator()
    g = sample_swg_matching(300, rng)
    gp = percolate(g, 0.6, 0.6, rng)
    labels, sizes = component_labels(gp)
    assert sizes.sum() == g.n
    assert largest_component_size(gp) == sizes.max()


def _apsp_diameter(g, component):
    """Reference: all-pairs BFS over a CSR built straight from the edge
    arrays, parallel edges and all."""
    u, v = g.active_edge_arrays() if isinstance(g, PercolationGraph) else (g.edge_u, g.edge_v)
    full = csr_matrix((np.ones(len(u)), (u, v)), shape=(g.n, g.n))
    idx = np.array(sorted(component))
    return int(dijkstra(full[idx][:, idx], directed=False, unweighted=True).max())


def _top_components(gp, k=3):
    return [c for c in connected_components(gp)[:k] if len(c) >= 2]


def test_diameter_matches_apsp_oracle():
    rng = Seed(15).generator()
    checked = 0
    for trial in range(200):
        p = float(rng.uniform(0.3, 1.0))
        kind = trial % 3
        if kind == 0:
            g = sample_swg_erdos(800, float(rng.uniform(0.5, 3.0)), rng)
        elif kind == 1:
            g = sample_swg_matching(800, rng)
        else:
            g = sample_regular(800, 3, rng)
        gp = percolate(g, p, p, rng)
        for comp in _top_components(gp):
            assert component_diameter(gp, comp) == _apsp_diameter(gp, comp)
            checked += 1
    assert checked >= 400


def test_diameter_of_trees_needs_no_sweep(monkeypatch):
    sweeps = []
    real = graphs._dijkstra

    def counted(*args, **kwargs):
        sweeps.append(kwargs.get("indices"))
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "_dijkstra", counted)
    rng = Seed(16).generator()
    # ring arcs: percolated swg without bridges
    for _ in range(20):
        g = sample_swg_erdos(500, 1.0, rng)
        gp = percolate(g, float(rng.uniform(0.8, 0.99)), 0.0, rng)
        for comp in _top_components(gp):
            assert component_diameter(gp, comp) == len(comp) - 1
    # random recursive trees: branchy, with centres that are a node or an edge
    for m in list(range(2, 12)) + [50, 300, 1000]:
        parent = np.array([int(rng.integers(i)) for i in range(1, m)], dtype=np.int64)
        child = np.arange(1, m, dtype=np.int64)
        tree = GenericGraph(m, parent, child)
        assert component_diameter(tree, range(m)) == _apsp_diameter(tree, range(m))
    assert sweeps == []


def test_diameter_of_a_pure_cycle():
    g = sample_swg_erdos(301, 0.0, Seed(17).generator())
    gp = percolate(g, 1.0, 1.0, Seed(18).generator())
    assert component_diameter(gp, range(301)) == 150


def test_diameter_of_two_nodes():
    g = GenericGraph(5, np.array([1]), np.array([3]))
    assert component_diameter(g, {1, 3}) == 1


def test_diameter_collapses_a_bridge_parallel_to_a_ring_edge():
    # path 0-1-2 on the ring with bridge {0, 1} doubling the first edge
    g = SmallWorldGraph(6, np.array([0]), np.array([1]), "matching")
    ring = np.array([True, True, False, False, False, False])
    gp = PercolationGraph(g, ring, np.array([True]), 1.0, 1.0)
    assert component_diameter(gp, {0, 1, 2}) == 2
    # the same doubled edge inside a cycle 0-1-2-3-0 with a pendant 3-4-5
    g = SmallWorldGraph(6, np.array([0, 0]), np.array([1, 3]), "erdos:c=1")
    ring = np.array([True, True, True, True, True, False])
    gp = PercolationGraph(g, ring, np.array([True, True]), 1.0, 1.0)
    comp = {0, 1, 2, 3, 4, 5}
    assert component_diameter(gp, comp) == _apsp_diameter(gp, comp) == 4


def test_diameter_with_both_ends_in_pendant_trees():
    # triangle 0-1-2; path 0-3-4-5 hangs at 0, path 1-6-7 at 1: 5..7 is 6 hops
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (1, 6), (6, 7)]
    u, v = map(np.array, zip(*edges))
    g = GenericGraph(8, u, v)
    assert component_diameter(g, range(8)) == _apsp_diameter(g, range(8)) == 6
    # square 0-1-2-3 with two 3-hop branches at node 0: the longest path
    # never enters the core
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)]
    u, v = map(np.array, zip(*edges))
    g = GenericGraph(10, u, v)
    assert component_diameter(g, range(10)) == _apsp_diameter(g, range(10)) == 6


def test_diameter_does_not_prune_on_pinned_bounds():
    # A node whose weighted eccentricity bounds meet can still end a longer
    # path than any swept so far; pruning it on E_lo == E_hi answers 7 here.
    edges = [(0, 1), (0, 2), (1, 3), (1, 9), (2, 5), (2, 8), (3, 4), (3, 7), (4, 11),
             (5, 6), (6, 11), (7, 11), (9, 10), (10, 12), (11, 13), (13, 14)]
    u, v = map(np.array, zip(*edges))
    g = GenericGraph(15, u, v)
    assert component_diameter(g, range(15)) == _apsp_diameter(g, range(15)) == 8


def test_diameter_rejects_disconnected_input():
    rng = Seed(14).generator()
    g = sample_swg_erdos(50, 1.0, rng)
    gp = percolate(g, 0.0, 0.0, rng)
    with pytest.raises(ValueError):
        component_diameter(gp, {0, 5})


def test_diameter_singleton_is_zero():
    rng = Seed(14).generator()
    g = sample_swg_erdos(50, 1.0, rng)
    gp = percolate(g, 0.0, 0.0, rng)
    assert component_diameter(gp, {3}) == 0


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------

def test_edge_list_round_trip_erdos(tmp_path):
    rng = Seed(15).generator()
    g = sample_swg_erdos(100, 1.0, rng)
    path = tmp_path / "g.edges"
    save_edge_list(g, path)
    g2 = load_edge_list(path)
    assert isinstance(g2, SmallWorldGraph)
    assert g2.n == g.n and g2.model_tag == g.model_tag
    assert np.array_equal(g2.bridge_u, g.bridge_u)
    assert np.array_equal(g2.bridge_v, g.bridge_v)


def test_edge_list_round_trip_matching(tmp_path):
    g = sample_swg_matching(60, Seed(16).generator())
    path = tmp_path / "m.edges"
    save_edge_list(g, path)
    g2 = load_edge_list(path)
    assert g2.model_tag == "matching"
    assert np.array_equal(g2.bridge_u, g.bridge_u)


def test_edge_list_round_trip_generic(tmp_path):
    g = GenericGraph(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    path = tmp_path / "p.edges"
    save_edge_list(g, path)
    g2 = load_edge_list(path)
    assert isinstance(g2, GenericGraph)
    assert np.array_equal(g2.edge_u, g.edge_u)
    assert np.array_equal(g2.edge_v, g.edge_v)
