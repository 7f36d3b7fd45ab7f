import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as scipy_components
from scipy.sparse.csgraph import dijkstra

from percolab import graphs
from percolab.graphs import (
    Components,
    GenericGraph,
    PercolationGraph,
    SmallWorldGraph,
    _decode_pair_indices,
    component_diameter,
    component_labels,
    connected_components,
    load_edge_list,
    percolate,
    percolate_coupled,
    sample_regular,
    sample_swg_erdos,
    sample_swg_matching,
    save_edge_list,
)
from percolab.rng import Seed

from .oracles import (connected_components_eager, list_adjacency, load_edge_list_lines,
                      pendant_trees)


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


def test_erdos_sampler_survives_tiny_c_and_keeps_its_draws():
    # numpy's geometric saturates at 2**63 - 1 for a tiny q; the sampler
    # caps the gaps, which must leave every bridge array as the draws give it
    for c in (1e-18, 1e-300):
        assert sample_swg_erdos(10, c, Seed(0).generator()).num_bridges == 0
    n, c = 12, 0.25
    pairs = list(itertools.combinations(range(n), 2))
    for seed in range(40):
        g = sample_swg_erdos(n, c, Seed(seed).generator())
        # one batch of 64 uncapped gaps, walked from pair -1
        pts = -1 + np.cumsum(Seed(seed).generator().geometric(c / n, size=64))
        want = [pairs[i] for i in pts[pts < len(pairs)].tolist()]
        assert list(zip(g.bridge_u.tolist(), g.bridge_v.tolist())) == want


def test_erdos_rejects_bad_parameters():
    rng = Seed(0).generator()
    with pytest.raises(ValueError):
        sample_swg_erdos(2, 1.0, rng)
    with pytest.raises(ValueError):
        sample_swg_erdos(100, -1.0, rng)
    with pytest.raises(ValueError, match="need c >= 0"):
        sample_swg_erdos(100, float("nan"), rng)


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


def _sorted_pair_matching(n, perm):
    """The matching sampler's former construction: drop ring-coincident
    pairs, then sort the rest lexicographically."""
    a, b = perm[0::2], perm[1::2]
    u = np.minimum(a, b).astype(np.int64)
    v = np.maximum(a, b).astype(np.int64)
    gap = v - u
    keep = (gap != 1) & (gap != n - 1)
    order = np.lexsort((v[keep], u[keep]))
    return u[keep][order], v[keep][order]


def test_matching_sampler_matches_sorted_pair_construction():
    for n in (4, 6, 10, 52, 1000, 20_000):
        for seed in range(5):
            g = sample_swg_matching(n, Seed(seed).generator())
            u, v = _sorted_pair_matching(n, Seed(seed).generator().permutation(n))
            assert np.array_equal(g.bridge_u, u) and np.array_equal(g.bridge_v, v)
            assert g.bridge_u.dtype == g.bridge_v.dtype == np.int64
            degree = np.bincount(np.concatenate([g.bridge_u, g.bridge_v]), minlength=n)
            assert degree.max() <= 1
            gap = g.bridge_v - g.bridge_u
            assert not np.any((gap == 1) | (gap == n - 1))


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


def test_regular_rejects_bad_degree_and_exhausted_retries():
    for d in (-2, 10):
        with pytest.raises(ValueError, match="0 <= d < n"):
            sample_regular(10, d, Seed(0).generator())
    # a simple 8-regular pairing turns up about once in 10^7 tries
    with pytest.raises(ValueError, match="no simple 8-regular pairing in 200 tries"):
        sample_regular(1000, 8, Seed(0).generator())


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
    assert component_labels(empty)[1].max() == 1


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


def test_percolate_is_the_one_pair_case_of_the_coupled_draw():
    rng = Seed(12).generator()
    graphs = [sample_swg_erdos(500, 2.0, rng), sample_swg_matching(500, rng),
              sample_regular(500, 3, rng)]
    for g in graphs:
        for seed, (pl, pb) in enumerate([(0.3, 0.7), (0.0, 1.0), (1.0, 0.5), (0.55, 0.55)]):
            a_rng, b_rng = Seed(seed).generator(), Seed(seed).generator()
            a = percolate(g, pl, pb, a_rng)
            (b,) = percolate_coupled(g, [(pl, pb)], b_rng)
            if a.ring_active is None:
                assert b.ring_active is None
            else:
                assert np.array_equal(a.ring_active, b.ring_active)
            assert np.array_equal(a.bridge_active, b.bridge_active)
            assert (a.p_local, a.p_bridge) == (b.p_local, b.p_bridge)
            assert a_rng.random() == b_rng.random()  # same uniforms consumed


def _id_graphs(rng):
    """An swg, a matching and a generic graph, for the edge id tests."""
    return [sample_swg_erdos(300, 2.0, rng), sample_swg_matching(300, rng),
            sample_regular(300, 3, rng)]


def test_percolate_is_one_draw_and_two_cuts_over_the_edge_ids():
    rng = Seed(21).generator()
    for g in _id_graphs(rng):
        a_rng, b_rng = Seed(3).generator(), Seed(3).generator()
        gp = percolate(g, 0.4, 0.7, a_rng)
        uniforms = b_rng.random(g.num_edges)
        assert a_rng.bit_generator.state == b_rng.bit_generator.state
        assert np.array_equal(gp.uniforms, uniforms)
        k = g.num_local  # the ring edges of a ring-based graph, every edge of a generic one
        want = np.concatenate([uniforms[:k] < 0.4, uniforms[k:] < 0.7])
        assert gp.retained.dtype == bool and np.array_equal(gp.retained, want)


def test_edge_ends_match_the_edge_list_in_any_id_order():
    rng = Seed(22).generator()
    for g in _id_graphs(rng) + [sample_swg_erdos(5, 0.0, rng)]:
        if g.num_ring:
            n = g.n
            want = ([(min(i, (i + 1) % n), max(i, (i + 1) % n), "R") for i in range(n)]
                    + [(u, v, "B") for u, v in zip(g.bridge_u.tolist(), g.bridge_v.tolist())])
            assert want[n - 1] == (0, n - 1, "R")  # the wrap edge
        else:
            want = [(u, v, "R") for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist())]
        assert list(g.edges()) == want and g.num_edges == len(want)
        for ids in (np.arange(g.num_edges), rng.permutation(g.num_edges),
                    rng.integers(0, g.num_edges, 50), np.array([g.num_ring - 1]),
                    np.empty(0, dtype=np.int64)):
            ids = ids[ids >= 0]
            u, v = g.ends(ids)
            assert [(a, b) for a, b in zip(u.tolist(), v.tolist())] == \
                [want[i][:2] for i in ids.tolist()]


def test_ring_and_bridge_masks_are_views_of_the_one_retained_mask():
    rng = Seed(23).generator()
    for g in _id_graphs(rng):
        gp = percolate(g, 0.5, 0.5, rng)
        assert np.array_equal(np.concatenate([gp.ring_active, gp.bridge_active])
                              if g.num_ring else gp.bridge_active, gp.retained)
        if g.num_ring:
            before = bool(gp.retained[2])
            gp.ring_active[2] = not before
            assert gp.retained[2] == (not before)
        before = bool(gp.retained[g.num_ring + 1])
        gp.bridge_active[1] = not before
        assert gp.retained[g.num_ring + 1] == (not before)
    assert percolate(g, 0.5, 0.5, rng).ring_active is None  # the generic graph


def test_graphs_compare_and_hash_by_identity():
    # numpy array fields make a field-wise == ambiguous on graphs of more
    # than one edge
    base = GenericGraph(3, np.array([0, 0, 1]), np.array([1, 1, 2]))
    makers = [lambda: SmallWorldGraph(5, np.array([0, 1]), np.array([2, 3]), "matching"),
              lambda: GenericGraph(3, np.array([0, 0, 1]), np.array([1, 1, 2])),
              lambda: PercolationGraph(base, np.array([True, False, True]), 0.5, 0.5)]
    for make in makers:
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b
        assert len({a, b, a}) == 2


def test_coupled_percolation_refuses_probabilities_outside_the_unit_interval():
    g = sample_swg_erdos(200, 1.0, Seed(13).generator())
    for bad in (1.5, -0.1, float("nan")):
        for pairs in ([(bad, 0.5)], [(0.5, 0.5), (0.5, bad)]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                percolate_coupled(g, pairs, Seed(0).generator())


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


def _component_cases():
    """Percolated swg Erdos, matching, 3-regular and a generic graph with
    isolated nodes, at p in {0, 0.3, 0.55, 1}; p = 0 ties every size, and
    the generic graph ties two triangles, then two singletons."""
    rng = Seed(21).generator()
    generic = GenericGraph(10, np.array([0, 0, 1, 3, 3, 4, 8]),
                           np.array([1, 2, 2, 4, 6, 6, 9]))
    for g in (sample_swg_erdos(300, 1.0, rng), sample_swg_matching(300, rng),
              sample_regular(300, 3, rng), generic):
        for p in (0.0, 0.3, 0.55, 1.0):
            yield percolate(g, p, p, rng)


def test_components_view_reads_like_the_eager_list():
    tied = 0
    for gp in _component_cases():
        comps = connected_components(gp)
        want = connected_components_eager(gp)
        assert isinstance(comps, Components)
        assert want == _flood_fill_components(gp)
        assert comps == want and want == comps and comps == connected_components(gp)
        assert comps != want[:-1] and comps != tuple(want)
        assert len(comps) == len(want) and list(comps) == want
        tied += any(len(a) == len(b) for a, b in zip(want, want[1:]))
        m = len(want)
        for i in range(-m, m):
            assert comps[i] == want[i]
        for sl in (slice(None), slice(1, None, 2), slice(None, None, -3),
                   slice(-4, None), slice(2, 1), slice(m + 5, None), slice(-m - 9, 2)):
            assert comps[sl] == want[sl]
        for i in (m, -m - 1):
            with pytest.raises(IndexError):
                comps[i]
        assert want[-1] in comps and want[0] | {-1} not in comps
        first = comps[0]
        first.add(-1)  # each read builds a fresh set
        assert comps[0] == want[0] and comps[0] is not comps[0]
    assert tied == 13  # all but the three sampled graphs at p = 1, each connected


def _uncontracted_labels(gp):
    """Reference: scipy's labels over every retained edge, node by node."""
    u, v = gp.active_edge_arrays()
    mat = csr_matrix((np.ones(len(u)), (u, v)), shape=(gp.n, gp.n))
    ncomp, labels = scipy_components(mat, directed=False)
    return labels, np.bincount(labels, minlength=ncomp)


def _ring_graph(n, ring_edges, bridges):
    """Percolated swg with exactly the given ring edges (edge i joins i and
    i+1 mod n) and bridges retained."""
    u = np.array([a for a, _ in bridges], dtype=np.int64)
    v = np.array([b for _, b in bridges], dtype=np.int64)
    ring = np.zeros(n, dtype=bool)
    ring[list(ring_edges)] = True
    g = SmallWorldGraph(n, u, v, "erdos:c=1")
    return PercolationGraph(g, np.concatenate([ring, np.ones(len(u), dtype=bool)]), 1.0, 1.0)


def test_component_labels_match_uncontracted_labels():
    rng = Seed(13).generator()
    cases = []
    for n in (3, 4, 5, 7, 10, 11, 64, 301):
        for p in (0.0, 0.3, 0.5, 0.9, 1.0):
            for _ in range(3):
                cases.append(percolate(sample_swg_erdos(n, 1.5, rng), p, p, rng))
                cases.append(percolate(sample_swg_erdos(n, 0.0, rng), p, p, rng))
                if n % 2 == 0:
                    cases.append(percolate(sample_swg_matching(n, rng), p, p, rng))
    cases += [
        _ring_graph(6, range(6), []),              # whole ring: one arc
        _ring_graph(6, range(6), [(1, 4)]),
        _ring_graph(6, [5], []),                   # only edge n-1: {5, 0}
        _ring_graph(6, [5], [(2, 4)]),
        _ring_graph(8, [0, 1, 4, 5, 7], [(3, 7)]),  # {7, 0, 1, 2} wraps
        _ring_graph(8, [0, 1, 5], [(1, 2), (3, 6)]),   # bridge on a ring edge
    ]
    for gp in cases:
        labels, sizes = component_labels(gp)
        expected_labels, expected_sizes = _uncontracted_labels(gp)
        assert labels.tolist() == expected_labels.tolist()
        assert sizes.tolist() == expected_sizes.tolist()
        # label k's smallest node increases with k
        _, first = np.unique(labels, return_index=True)
        assert (np.diff(first) > 0).all()


def test_component_labels_sizes_consistent():
    rng = Seed(12).generator()
    g = sample_swg_matching(300, rng)
    gp = percolate(g, 0.6, 0.6, rng)
    labels, sizes = component_labels(gp)
    assert sizes.sum() == g.n
    assert component_labels(gp)[1].max() == len(connected_components(gp)[0])


def _apsp_diameter(g, component):
    """Reference: all-pairs BFS over a CSR built straight from the edge
    arrays, parallel edges and all."""
    u, v = g.active_edge_arrays() if isinstance(g, PercolationGraph) else (g.edge_u, g.edge_v)
    full = csr_matrix((np.ones(len(u)), (u, v)), shape=(g.n, g.n))
    idx = np.array(sorted(component))
    return int(dijkstra(full[idx][:, idx], directed=False, unweighted=True).max())


def _induced_csr(g, nodes):
    """Unit-weight scipy CSR of the subgraph of g induced by `nodes`, in
    sorted order, parallel edges merged."""
    u, v = g.active_edge_arrays() if isinstance(g, PercolationGraph) else (g.edge_u, g.edge_v)
    full = csr_matrix((np.ones(2 * len(u)), (np.r_[u, v], np.r_[v, u])), shape=(g.n, g.n))
    full.data[:] = 1.0  # building from COO sums parallel edges
    idx = np.array(sorted(nodes))
    return full[idx][:, idx]


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
    gp = PercolationGraph(g, np.concatenate([ring, np.array([True])]), 1.0, 1.0)
    assert component_diameter(gp, {0, 1, 2}) == 2
    # the same doubled edge inside a cycle 0-1-2-3-0 with a pendant 3-4-5
    g = SmallWorldGraph(6, np.array([0, 0]), np.array([1, 3]), "erdos:c=1")
    ring = np.array([True, True, True, True, True, False])
    gp = PercolationGraph(g, np.concatenate([ring, np.array([True, True])]), 1.0, 1.0)
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
    for nodes in ({0, 5}, set()):
        with pytest.raises(ValueError, match="not connected"):
            component_diameter(gp, nodes)
    ring = percolate(sample_swg_erdos(10, 0.0, rng), 1.0, 1.0, rng)
    for nodes in ([-1, 0], [9, 10], [0, 1, 1]):
        with pytest.raises(ValueError, match="lie in|twice"):
            component_diameter(ring, nodes)


def test_diameter_refuses_every_node_set_that_is_not_connected():
    # each way a node set can fall apart must be refused, and every
    # connected one measured
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    cases = [
        (_edge_graph(_path(0, 1, 2, 0) + _path(3, 4, 5, 6, 3)), None),     # two cycles
        (_edge_graph(_path(0, 1, 2, 0) + [(3, 4)]), None),                 # cycle and edge
        (_edge_graph(_path(0, 1, 2, 0) + [(3, 4), (3, 5)]), None),         # cycle and star
        (_edge_graph(k4 + [(a + 4, b + 4) for a, b in k4]), None),         # two K4s
        (_edge_graph(k4 + _path(4, 5, 6, 4)), None),                       # K4 and cycle
        (_edge_graph(k4 + _path(0, 4, 5, 6, 0) + [(7, 8)]), None),
        (_edge_graph(_path(0, 1, 2, 0) + [(2, 3)] + [(4, 5), (5, 6), (4, 6)]), None),
    ]
    cases = [(g, range(g.n)) for g, _ in cases]
    rng = Seed(21).generator()
    for trial in range(90):
        n = 300
        g = (sample_swg_erdos(n, 1.0, rng), sample_swg_matching(n, rng),
             sample_regular(n, 3, rng))[trial % 3]
        gp = percolate(g, float(rng.uniform(0.4, 0.9)), float(rng.uniform(0.4, 0.9)), rng)
        comps = connected_components(gp)
        first = sorted(comps[0])
        cases += [(gp, comps[0] | comps[1]), (gp, comps[0] | {int(next(iter(comps[-1])))}),
                  (gp, set(first) - {first[int(rng.integers(len(first)))]}),
                  (gp, set(rng.choice(first, size=max(2, len(first) // 2), replace=False).tolist()))]
    refused = 0
    for g, nodes in cases:
        if scipy_components(_induced_csr(g, nodes), directed=False)[0] == 1:
            assert component_diameter(g, nodes) == _apsp_diameter(g, nodes)
        else:
            with pytest.raises(ValueError, match="not connected"):
                component_diameter(g, nodes)
            refused += 1
    assert refused >= 200


def test_diameter_singleton_is_zero():
    rng = Seed(14).generator()
    g = sample_swg_erdos(50, 1.0, rng)
    gp = percolate(g, 0.0, 0.0, rng)
    assert component_diameter(gp, {3}) == 0


def _path(*nodes):
    return list(zip(nodes, nodes[1:]))


def _edge_graph(edges):
    u, v = zip(*(sorted(e) for e in edges))
    return GenericGraph(max(v) + 1, np.array(u), np.array(v))


_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

# cores that stress the chain contraction: (edges, diameter)
_CHAIN_CASES = {
    # a 6-hop cycle hanging off branch node 0 of a K4: a loop chain
    "loop": (_K4 + _path(0, 4, 5, 6, 7, 8, 0), 4),
    # branch nodes 0 and 1 joined by an edge and by chains of 2 and 5 hops
    "parallel chains": ([(0, 1)] + _path(0, 2, 1) + _path(0, 3, 4, 5, 6, 1), 3),
    # a bare 9-cycle (no branch node) with paths of 2 and 3 nodes hanging
    # at its chain nodes 3 and 7
    "bare cycle with trees": (_path(*range(9), 0) + _path(3, 9, 10) + _path(7, 11, 12, 13), 9),
    # loops of 9 and 11 hops at nodes 0 and 1 of a K4: the diameter runs
    # from the middle of one loop to the middle of the other
    "ends inside chains": (_K4 + _path(0, *range(4, 12), 0) + _path(1, *range(12, 22), 1), 10),
    # branch nodes 0 and 1 joined by chains of 3, 4 and 5 hops
    "theta": (_path(0, 2, 3, 1) + _path(0, 4, 5, 6, 1) + _path(0, 7, 8, 9, 10, 1), 4),
}


@pytest.mark.parametrize("case", sorted(_CHAIN_CASES))
def test_diameter_on_contracted_chains(case):
    edges, want = _CHAIN_CASES[case]
    g = _edge_graph(edges)
    assert component_diameter(g, range(g.n)) == _apsp_diameter(g, range(g.n)) == want


def _giant_cases():
    """The hand-built chain cases and the largest components of percolated
    swg, matching and 3-regular graphs, each a unit-weight scipy CSR sliced
    out of the whole graph's."""
    rng = Seed(19).generator()
    cases = [_edge_graph(edges) for edges, _ in _CHAIN_CASES.values()]
    for _ in range(4):
        for g in (sample_swg_erdos(400, 1.0, rng), sample_swg_matching(400, rng),
                  sample_regular(400, 3, rng)):
            cases.append(percolate(g, 0.6, 0.6, rng))
    for gp in cases:
        yield _induced_csr(gp, connected_components(gp)[0])


def _core_cases():
    """Peeled cores of the `_giant_cases` graphs."""
    for sub in _giant_cases():
        core, _, _ = graphs._peel_pendant_trees(sub)
        if len(core) > 1:
            yield sub[core][:, core]


def test_peel_matches_searches_from_the_roots():
    rng = Seed(22).generator()
    cases = list(_giant_cases())
    # paths, stars and random recursive trees, centred on a node or an edge
    for m in [2, 3, 4, 5, 8, 9] + rng.integers(6, 80, 14).tolist():
        for parent in (np.arange(m - 1), np.zeros(m - 1, dtype=np.int64),
                       np.array([int(rng.integers(i)) for i in range(1, m)], dtype=np.int64)):
            cases.append(GenericGraph(m, parent, np.arange(1, m)).adjacency())
    trees = 0
    for adj in cases:
        nbrs = [list(adj.indices[adj.indptr[w]:adj.indptr[w + 1]]) for w in range(len(adj.indptr) - 1)]
        core, h, tree_diam = graphs._peel_pendant_trees(adj)
        assert (core.tolist(), h.tolist(), tree_diam) == pendant_trees(nbrs)
        trees += len(core) <= 1
    assert trees >= 60


def test_contracted_sweeps_give_bfs_distances():
    cores = 0
    for core in _core_cases():
        chains = graphs._ChainCore(core)
        bfs = dijkstra(core, directed=False, unweighted=True)
        for s in range(core.shape[0]):
            assert chains.distances(s).tolist() == bfs[s].tolist()
        cores += 1
    assert cores >= 15


def _ring_with_trees(size, extra, rng):
    """A cycle on nodes 0..size-1 with `extra` more nodes hung on it in
    random trees."""
    return _edge_graph(_path(*range(size), 0) +
                       [(int(rng.integers(size + i)), size + i) for i in range(extra)])


def test_bare_cycle_core_takes_no_sweep(monkeypatch):
    sweeps = []
    real = graphs._dijkstra

    def counted(*args, **kwargs):
        sweeps.append(kwargs.get("indices"))
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "_dijkstra", counted)
    rng = Seed(20).generator()
    for size in (3, 4, 5, 8, 13, 40):
        for extra in (0, 1, 2, 6, 30):
            g = _ring_with_trees(size, extra, rng)
            assert component_diameter(g, range(g.n)) == _apsp_diameter(g, range(g.n))
    ring = percolate(sample_swg_erdos(10_000, 0.0, rng), 1.0, 1.0, rng)
    assert component_diameter(ring, range(10_000)) == 5000
    assert sweeps == []


# (model, seed, p, giant diameter, sweeps) of n = 4000 giants, recorded with
# BFS sweeps on the uncontracted core; the contracted sweeps must take the
# same sources, so the counts match
_PINNED_SWEEPS = [
    ("swg", 1, 0.55, 66, 7), ("swg", 1, 0.7, 38, 18), ("swg", 2, 0.55, 46, 26),
    ("swg", 2, 0.7, 38, 26), ("swg", 3, 0.55, 51, 20), ("swg", 3, 0.7, 34, 47),
    ("matching", 1, 0.55, 115, 3), ("matching", 1, 0.7, 51, 33),
    ("matching", 2, 0.55, 106, 9), ("matching", 2, 0.7, 49, 39),
    ("matching", 3, 0.55, 119, 5), ("matching", 3, 0.7, 47, 42),
]


def test_diameter_sweep_counts_are_pinned(monkeypatch):
    sweeps = []
    real = graphs._dijkstra

    def counted(*args, **kwargs):
        sweeps.append(kwargs.get("indices"))
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "_dijkstra", counted)
    got = []
    for model, seed, p, _, _ in _PINNED_SWEEPS:
        rng = Seed(seed).generator()
        g = sample_swg_erdos(4000, 1.0, rng) if model == "swg" else sample_swg_matching(4000, rng)
        gp = percolate(g, p, p, rng)
        sweeps.clear()
        diam = component_diameter(gp, connected_components(gp)[0])
        got.append((model, seed, p, diam, len(sweeps)))
    assert got == _PINNED_SWEEPS


def test_components_view_reads_the_largest_under_ties():
    # sizes 2, 2, 1, 2, 1 in smallest-node order: three components tie
    g = GenericGraph(8, np.array([0, 2, 5]), np.array([1, 3, 6]))
    comps = connected_components(g)
    assert comps[0] == {0, 1} and comps[-len(comps)] == {0, 1}
    assert comps[-1] == {7} and comps[1] == {2, 3} and comps[2] == {5, 6}
    for gp in _component_cases():
        want = connected_components_eager(gp)
        assert connected_components(gp) == want
        comps = connected_components(gp)
        assert comps[0] == want[0] and comps[-len(want)] == want[0]
        assert comps == want


def test_components_view_reads_item_0_without_building_the_lists():
    # scaling's subcritical leg reads only item 0 of each graph's view
    for gp in _component_cases():
        comps = connected_components(gp)
        want = connected_components_eager(gp)
        assert comps[0] == comps[-len(comps)] == want[0]
        assert comps._lists is None
        assert comps[1:] == want[1:] and comps._lists is not None
        assert comps[0] == want[0]


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


def test_graphs_reject_nodes_out_of_range():
    with pytest.raises(ValueError, match="u < v"):
        SmallWorldGraph(5, np.array([3]), np.array([1]), "erdos:c=1")
    with pytest.raises(ValueError, match=r"\[0, 5\)"):
        SmallWorldGraph(5, np.array([-1]), np.array([2]), "erdos:c=1")
    with pytest.raises(ValueError, match=r"\[0, 5\)"):
        SmallWorldGraph(5, np.array([2]), np.array([9]), "erdos:c=1")
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        GenericGraph(4, np.array([0, 1]), np.array([1, 4]))
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        GenericGraph(4, np.array([-2]), np.array([1]))


@pytest.mark.parametrize("u, v, message", [
    (np.array([0, 1, 2]), np.array([4]), "equal lengths, not 3 and 1"),
    (np.array([0, 1]), np.array([2, 3, 4]), "equal lengths, not 2 and 3"),
    (np.array([[0, 1]]), np.array([[2, 3]]), "one-dimensional"),
    (np.array([0]), np.array([[2]]), "one-dimensional"),
    ([0, 1], [2, 3], "numpy arrays"),
    (np.array([0.5]), np.array([2.0]), "signed integer dtype, not float64"),
    (np.array([0]), np.array([True]), "signed integer dtype, not bool"),
    (np.array([0], dtype=np.uint64), np.array([2]), "signed integer dtype, not uint64"),
])
def test_graphs_reject_malformed_edge_arrays(u, v, message):
    # broadcasting would let these through the u < v and range checks
    with pytest.raises(ValueError, match=message):
        GenericGraph(5, u, v)
    with pytest.raises(ValueError, match=message):
        SmallWorldGraph(5, u, v, "erdos:c=1")


def _write_edges(tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text)
    return path


def test_edge_list_rejects_malformed_files(tmp_path):
    ring5 = "".join(f"{min(i, (i + 1) % 5)} {max(i, (i + 1) % 5)} R\n" for i in range(5))
    bad = {
        "unknown edge kind": "# swg n=5 model=erdos:c=1\n" + ring5 + "0 2 X\n",
        r"\[0, 5\)": "# swg n=5 model=erdos:c=1\n" + ring5 + "2 9 B\n",
        "two bridges": "# swg n=6 model=matching\n0 2 B\n0 3 B\n",
        r"\[0, 3\)": "# swg n=3 model=generic\n0 1 R\n1 3 R\n",
        "an edge is listed twice": "# swg n=3 model=generic\n0 1 R\n1 2 R\n0 1 R\n",
    }
    for message, text in bad.items():
        with pytest.raises(ValueError, match=message):
            load_edge_list(_write_edges(tmp_path, text))


def test_edge_list_round_trip_generic(tmp_path):
    g = GenericGraph(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    path = tmp_path / "p.edges"
    save_edge_list(g, path)
    g2 = load_edge_list(path)
    assert isinstance(g2, GenericGraph)
    assert np.array_equal(g2.edge_u, g.edge_u)
    assert np.array_equal(g2.edge_v, g.edge_v)


# the ring-edge lines of a 5-node ring-based edge file
_RING5 = "".join(f"{min(i, (i + 1) % 5)} {max(i, (i + 1) % 5)} R\n" for i in range(5))


def test_edge_list_rejects_incomplete_headers(tmp_path):
    bad = {
        "lacks n=": "# swg model=erdos:c=1\n" + _RING5,
        "lacks model=": "# swg n=5\n" + _RING5,
        "lacks n=, model=": "# swg c=1\n",
        "field 'junk' is not key=value": "# swg n=5 model=erdos:c=1 junk\n" + _RING5,
    }
    for message, text in bad.items():
        with pytest.raises(ValueError, match=message):
            load_edge_list(_write_edges(tmp_path, text))


def test_edge_list_checks_ring_lines_and_duplicate_bridges(tmp_path):
    ring5 = _RING5.splitlines(keepends=True)
    head = "# swg n=5 model=erdos:c=1\n"
    ring_bad = {
        "only one ring edge": "0 3 R\n",
        "a missing ring edge": "".join(ring5[1:]),
        "a repeated ring edge": "".join(ring5) + ring5[2],
        "a chord as R": "".join(ring5[:-1]) + "0 2 R\n",
        "no R lines": "0 2 B\n",
    }
    for text in ring_bad.values():
        with pytest.raises(ValueError, match="exactly the 5 ring edges"):
            load_edge_list(_write_edges(tmp_path, head + text))
    with pytest.raises(ValueError, match="listed twice"):
        load_edge_list(_write_edges(tmp_path, head + "".join(ring5) + "0 2 B\n1 3 B\n0 2 B\n"))
    # any line order, blank and comment lines, CRLF endings and a bridge
    # parallel to a ring edge all load
    text = head + "# comment\n\n1 3 B\r\n" + "".join(reversed(ring5)) + "  0\t1 B \n"
    g = load_edge_list(_write_edges(tmp_path, text))
    assert g.bridge_u.tolist() == [0, 1] and g.bridge_v.tolist() == [1, 3]


@pytest.mark.parametrize("lines", [
    b"0 2\nB\n", b"0\n2 B\n", b"0 2 B 1 3 B\n",                 # not one edge per line
    b"0 - B\n", b"- 2 B\n- 3 B\n", b"0 +-2 B\n", b"0 2- B\n", b"0 1+1 B\n",  # stray signs
    b"0R 2 B\n", b"0 2R B\n", b"0 1.5 B\n", b"0 0x2 B\n", b"0 2\x01 B\n",
    b"# \xff\n",                                                   # not UTF-8
])
def test_edge_list_refuses_lines_the_line_parser_refuses(tmp_path, lines):
    path = tmp_path / "g.edges"
    path.write_bytes(b"# swg n=5 model=erdos:c=1\n" + _RING5.encode() + lines)
    with pytest.raises(ValueError):
        load_edge_list_lines(path)
    with pytest.raises(ValueError):
        load_edge_list(path)


def _same_graph(a, b):
    assert type(a) is type(b) and a.n == b.n
    if isinstance(a, SmallWorldGraph):
        assert a.model_tag == b.model_tag
        pairs = [(a.bridge_u, b.bridge_u), (a.bridge_v, b.bridge_v)]
    else:
        pairs = [(a.edge_u, b.edge_u), (a.edge_v, b.edge_v)]
    for x, y in pairs:
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)


@st.composite
def _graphs(draw):
    kind = draw(st.sampled_from(["erdos", "matching", "generic"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "erdos":
        c = draw(st.just(0.0) | st.floats(0.0, 1e-12) | st.floats(0.01, 3.0))
        return sample_swg_erdos(draw(st.integers(3, 40)), c, rng)
    if kind == "matching":
        return sample_swg_matching(2 * draw(st.integers(2, 20)), rng)
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=60))
    u = np.array([min(p) for p in pairs], dtype=np.int64)
    v = np.array([max(p) for p in pairs], dtype=np.int64)
    order = np.lexsort((v, u))
    return GenericGraph(n, u[order], v[order])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=_graphs())
def test_loader_matches_line_parser_on_saved_files(tmp_path, g):
    path = tmp_path / "g.edges"
    save_edge_list(g, path)
    edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist())) if isinstance(g, GenericGraph) else []
    if len(set(edges)) < len(edges):  # a multi-edge file is refused
        with pytest.raises(ValueError, match="listed twice"):
            load_edge_list(path)
        return
    got = load_edge_list(path)
    _same_graph(got, load_edge_list_lines(path))
    _same_graph(got, g)


_NUMBERS = ["0", "1", "2", "3", "4", "5", "-1", "+2", "007"]
_FIELDS = _NUMBERS + ["12", "1.5", "0x1", "-", "1_0", "99999999999999999999",
                      "R", "B", "X", "r", "RB", "#", "é", "\x01"]
_SEPARATORS = [" ", " ", " ", "\t", "  ", "\x0c", "\x1c", "\xa0"]
_HEADERS = ["# swg n=5 model=erdos:c=1", "# swg n=6 model=matching", "# swg n=5 model=generic",
            "# swg n=3 model=generic", "# swg model=generic", "# swg n=5", "# swg n=x model=generic",
            "# swg n=5 model", "swg n=5 model=generic", "", "# swg  n=4   model=generic  "]


@st.composite
def _edge_files(draw):
    """Mostly well-formed edge files with a few faults mixed in."""
    header = draw(st.sampled_from(_HEADERS))
    lines = []
    if draw(st.booleans()) and "model=generic" not in header and "n=" in header:
        n = int(header.split("n=")[1].split()[0])
        lines += [f"{min(i, (i + 1) % n)} {max(i, (i + 1) % n)} R" for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["edge", "edge", "edge", "fields", "blank", "comment"]))
        if shape == "edge":
            fields = [draw(st.sampled_from(_NUMBERS)), draw(st.sampled_from(_NUMBERS)),
                      draw(st.sampled_from(["B", "R", "B", "X"]))]
        elif shape == "fields":
            fields = draw(st.lists(st.sampled_from(_FIELDS), max_size=5))
        else:
            fields = [] if shape == "blank" else ["# note é"]
        sep = draw(st.sampled_from(_SEPARATORS))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(lead + sep.join(fields))
    lines = draw(st.permutations(lines))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from([b""] * 9 + [b"\xff"]))
    return (newline.join([header] + list(lines)) + newline).encode() + tail


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_edge_files())
def test_loader_refuses_every_file_the_line_parser_refuses(tmp_path, data):
    path = tmp_path / "f.edges"
    path.write_bytes(data)
    try:
        want = load_edge_list_lines(path)
    except Exception:
        with pytest.raises(ValueError):
            load_edge_list(path)
        return
    try:
        got = load_edge_list(path)
    except ValueError:
        return  # R lines, duplicates and the like: checks the line parser lacks
    _same_graph(got, want)


_ERDOS5 = b"# swg n=5 model=erdos:c=1\n"

# one fault each (first the refusals, then files that load), so that every
# block size must give the same outcome as one block
_BLOCK_CASES = [
    *(_ERDOS5 + _RING5.encode() + lines for lines in (
        b"0 2\nB\n", b"0\n2 B\n", b"0 2 B 1 3 B\n", b"0 2 B extra\n",   # three fields
        b"0 2 X\n", b"0 2 BB\n", b"0 2 r\n",                               # kinds
        b"0 - B\n", b"- 2 B\n- 3 B\n", b"0 +-2 B\n", b"0 2- B\n", b"0 1+1 B\n",  # signs
        b"0 1234567890123456789 B\n", b"0 1.5 B\n", b"0 0x2 B\n", b"0 2\x01 B\n",
        b"# \xff\n", b"0 2 B # \xc3\n",                                    # not UTF-8
        b"2 9 B\n", b"2 1 B\n", b"0 2 B\n1 3 B\n0 2 B\n",                    # range, order, repeat
        b"0 2 R\n", b"1 2 R\n")),                                          # ring lines
    _ERDOS5 + b"0 3 R\n",
    _ERDOS5 + "".join(_RING5.splitlines(keepends=True)[1:]).encode(),
    _ERDOS5 + b"0 2 B\n",
    b"# swg n=6 model=matching\n0 2 B\n0 3 B\n",
    b"# swg n=3 model=generic\n0 1 R\n1 3 R\n",
    b"# swg n=3 model=generic\n0 1 R\n1 2 R\n0 1 R\n",
    b"# swg n=5\n" + _RING5.encode(),
    # these load: comments, blank lines, CR LF, lone CR, any order and the
    # wrap line `0 4 R` in the middle
    _ERDOS5 + b"# comment\n\n1 3 B\r\n" + "".join(reversed(_RING5.splitlines(True))).encode()
    + b"  0\t1 B \n",
    _ERDOS5.replace(b"\n", b"\r\n") + _RING5.replace("\n", "\r\n").encode() + b"0 2 B",
    _ERDOS5.replace(b"\n", b"\r") + _RING5.replace("\n", "\r").encode() + b"1 3 B\r",
    b"# swg n=4 model=generic\n\n# x\n0 3 R\n2 3 R\n\n0 1 R\n",
    b"# swg n=4 model=generic",
]


def _outcome(path):
    try:
        g = load_edge_list(path)
    except ValueError as exc:
        return type(exc), str(exc)
    arrays = (g.bridge_u, g.bridge_v) if isinstance(g, SmallWorldGraph) else (g.edge_u, g.edge_v)
    return type(g), g.n, getattr(g, "model_tag", None), *(a.tolist() for a in arrays)


def test_loader_gives_the_same_outcome_at_every_block_size(tmp_path, monkeypatch):
    path = tmp_path / "g.edges"
    refused = 0
    for data in _BLOCK_CASES:
        path.write_bytes(data)
        want = _outcome(path)
        refused += isinstance(want[1], str)
        for block in (1, 2, 3, 7, 16):
            monkeypatch.setattr(graphs, "_READ_BLOCK", block)
            assert _outcome(path) == want, (data, block)
        monkeypatch.undo()
    assert refused == len(_BLOCK_CASES) - 5


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=_graphs(), block=st.integers(1, 64))
def test_saved_files_load_alike_at_every_block_size(tmp_path, monkeypatch, g, block):
    path = tmp_path / "g.edges"
    save_edge_list(g, path)
    want = _outcome(path)
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_READ_BLOCK", block)
        assert _outcome(path) == want


@pytest.mark.parametrize("rows", ["0", "1", "c-1", "c", "c+1"])
def test_writers_give_the_same_bytes_at_every_block_edge(tmp_path, monkeypatch, rows):
    c = 4
    k = {"0": 0, "1": 1, "c-1": c - 1, "c": c, "c+1": c + 1}[rows]
    edges = np.array([(i, i + 2) for i in range(k)], dtype=np.int64).reshape(-1, 2)
    want = "".join(f"{u},{v},R\n" for u, v in edges.tolist())
    monkeypatch.setattr(graphs, "_WRITE_ROWS", c)
    assert "".join(graphs.format_rows("%d,%d,R\n", edges)) == want
    assert len(list(graphs.format_rows("%d,%d,R\n", edges))) == -(-k // c)
    n = max(k, 3)  # ring rows: the n = k ring lines cross block edges too
    for g in (SmallWorldGraph(n + 2, edges[:, 0], edges[:, 1], "erdos:c=1"),
              SmallWorldGraph(n, edges[:0, 0], edges[:0, 1], "erdos:c=1"),
              GenericGraph(k + 2, edges[:, 0], edges[:, 1])):
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        with monkeypatch.context() as patch:
            patch.setattr(graphs, "_WRITE_ROWS", 10 ** 6)
            save_edge_list(g, tmp_path / "one.edges")
        assert path.read_bytes() == (tmp_path / "one.edges").read_bytes()
        _same_graph(load_edge_list(path), g)


def test_loader_memory_grows_with_the_graph_not_its_text(tmp_path):
    import tracemalloc

    path = tmp_path / "big.edges"
    save_edge_list(sample_swg_erdos(200_000, 1.0, Seed(19).generator()), path)
    tracemalloc.start()
    try:
        load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: about 10x the file's bytes reading it whole, 1.5x in blocks
    assert peak < 4 * path.stat().st_size


def test_adjacency_views_equal_sorted_neighbour_lists():
    rng = Seed(17).generator()
    erdos = sample_swg_erdos(300, 2.0, rng)
    matching = sample_swg_matching(300, rng)
    regular = sample_regular(300, 3, rng)
    # a multi-edge lists its neighbour twice
    multi = GenericGraph(4, np.array([0, 0, 1, 2]), np.array([3, 3, 2, 3]))
    for g in (erdos, matching):
        want = list_adjacency(g.n, g.bridge_u, g.bridge_v)
        adj = g.bridge_adjacency()
        assert [list(a) for a in adj] == want and len(adj) == g.n
        assert all(adj[w] == tuple(want[w]) for w in range(g.n))
        assert g.bridge_adjacency() is adj  # cached
        assert all(g.degree(w) == 2 + len(want[w]) for w in range(g.n))
        gp = percolate(g, 0.5, 0.6, rng)
        keep = gp.bridge_active
        want = list_adjacency(g.n, g.bridge_u[keep], g.bridge_v[keep])
        assert [list(a) for a in gp.retained_bridge_adjacency()] == want
        assert gp.retained_bridge_adjacency() is gp.retained_bridge_adjacency()
    for g in (regular, multi):
        want = list_adjacency(g.n, g.edge_u, g.edge_v)
        assert [list(a) for a in g.adjacency()] == want
        gp = percolate(g, 0.5, 0.5, rng)
        keep = gp.bridge_active
        want = list_adjacency(g.n, g.edge_u[keep], g.edge_v[keep])
        assert [list(a) for a in gp.retained_bridge_adjacency()] == want
    assert multi.adjacency()[3] == (0, 0, 2)
    assert isinstance(erdos.bridge_adjacency()[0], tuple)  # read-only


def test_adjacency_reads_rows_through_views_of_its_int64_arrays():
    g = sample_swg_erdos(300, 2.0, Seed(18).generator())
    small = GenericGraph(4, np.array([0, 1], dtype=np.int32), np.array([3, 2], dtype=np.int32))
    for adj, want in ((g.bridge_adjacency(), list_adjacency(g.n, g.bridge_u, g.bridge_v)),
                      (small.adjacency(), [[3], [2], [1], [0]])):
        assert adj.indptr.dtype == adj.indices.dtype == np.int64
        rows = [adj.indices[adj.indptr[w]:adj.indptr[w + 1]].tolist() for w in range(len(adj))]
        assert rows == want
        assert [adj[w] for w in range(len(adj))] == [tuple(row) for row in want]
        # no Python copy of the CSR: besides the arrays, only views of them
        assert not hasattr(adj, "__dict__") and not hasattr(adj, "lists")
        for name in type(adj).__slots__:
            value = getattr(adj, name)
            if isinstance(value, memoryview):
                value = value.obj
            assert value is adj.indptr or value is adj.indices
    # rows are ordered by one sort of int64 keys end*n + other
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError, match="too large for a CSR"):
        graphs._csr(3_037_000_500, empty, empty)
