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

from .oracles import list_adjacency, load_edge_list_lines


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
    return PercolationGraph(g, ring, np.ones(len(u), dtype=bool), 1.0, 1.0)


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
        c = draw(st.just(0.0) | st.floats(0.01, 3.0))
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
