import re

import numpy as np
import pytest

from percolab.graphs import (
    GenericGraph,
    PercolationGraph,
    SmallWorldGraph,
    connected_components,
    percolate,
    sample_regular,
    sample_swg_erdos,
    sample_swg_matching,
)
from percolab.local_clusters import RingOccupancy
from percolab.rng import Seed
from percolab.visits import (
    ITERATION_CAP,
    QUEUE_EMPTY,
    REACHED_LINEAR_SIZE,
    REACHED_QUEUE_THRESHOLD,
    VisitConfig,
    VisitTrace,
    _free_subset,
    _ParallelEngine,
    parallel_l_visit,
    plain_bfs,
    search_giant_erdos,
    search_giant_matching,
    sequential_l_visit,
    sequential_l_visit_matching,
    union_l_visit,
)

from .oracles import is_free, is_free_parallel, list_adjacency, plain_bfs_neighbor, ring_distance


def _hand_graph(n, bridges, retained_bridges=None, ring_off=(), tag="erdos:c=1"):
    """Explicit SWG + percolation graph for hand traces."""
    bridges = sorted((min(u, v), max(u, v)) for u, v in bridges)
    bu = np.array([u for u, _ in bridges], dtype=np.int64)
    bv = np.array([v for _, v in bridges], dtype=np.int64)
    g = SmallWorldGraph(n, bu, bv, tag)
    ring = np.ones(n, dtype=bool)
    ring[list(ring_off)] = False
    if retained_bridges is None:
        bmask = np.ones(len(bridges), dtype=bool)
    else:
        bmask = np.array([tuple(b) in {tuple(x) for x in retained_bridges}
                          for b in bridges])
    return g, PercolationGraph(g, np.concatenate([ring, bmask]), 1.0, 1.0)


# ---------------------------------------------------------------------------
# hand traces
# ---------------------------------------------------------------------------

def test_sequential_hand_trace():
    g, gp = _hand_graph(12, [(0, 6)])
    cfg = VisitConfig(L=2)
    t = sequential_l_visit(g, gp, {0}, set(), cfg)
    # step 1: node 0 retires, bridge target 6 is free, cluster {4..8} enqueued
    assert t.rounds[0] == (5, 1, 0)
    # afterwards nothing new: 6's bridge target 0 is occupied
    assert t.rounds[-1] == (0, 6, 0)
    assert t.final_r == {0, 4, 5, 6, 7, 8}
    assert t.final_q == set() and t.final_d == set()
    assert t.terminated_reason == QUEUE_EMPTY


def test_check_disjoint_raises_on_overlap():
    VisitTrace([], {1, 2}, {3}, {4}, QUEUE_EMPTY).check_disjoint()
    for q, r, d in (({1, 2}, {2}, set()), ({1}, set(), {1}), (set(), {5}, {5})):
        with pytest.raises(RuntimeError, match="overlap"):
            VisitTrace([], q, r, d, QUEUE_EMPTY).check_disjoint()


def test_sequential_respects_dead_bridge():
    g, gp = _hand_graph(12, [(0, 6)], retained_bridges=[])
    t = sequential_l_visit(g, gp, {0}, set(), VisitConfig(L=2))
    assert t.final_r == {0}


def test_sequential_blocked_by_deleted_set():
    # D0 occupies the ring near the bridge target, so 6 is not free
    g, gp = _hand_graph(12, [(0, 6)])
    t = sequential_l_visit(g, gp, {0}, {7}, VisitConfig(L=2))
    assert t.final_r == {0}
    assert t.final_d == {7}


def test_parallel_hand_trace():
    g, gp = _hand_graph(12, [(0, 6)])
    t = parallel_l_visit(g, gp, {0}, set(), VisitConfig(L=2))
    assert t.rounds == [(5, 1, 0), (0, 6, 0)]
    assert t.final_r == {0, 4, 5, 6, 7, 8}
    assert t.terminated_reason == QUEUE_EMPTY


def test_parallel_pairwise_freeness():
    # two bridge targets 2L+1-close to each other: neither may expand
    g, gp = _hand_graph(40, [(0, 15), (1, 18)])
    t = parallel_l_visit(g, gp, {0, 1}, set(), VisitConfig(L=2))
    assert t.rounds[0] == (0, 2, 0)
    assert t.final_r == {0, 1}


def test_sequential_iteration_cap():
    g, gp = _hand_graph(12, [(0, 6)])
    t = sequential_l_visit(g, gp, {0}, set(), VisitConfig(L=2), cap=1)
    assert t.terminated_reason == ITERATION_CAP
    assert len(t.rounds) == 1


def test_visit_config_validation():
    with pytest.raises(ValueError):
        VisitConfig(L=0)
    with pytest.raises(ValueError):
        VisitConfig(beta=-1)
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="visit parameters"):
            VisitConfig(beta=value)
        with pytest.raises(ValueError, match="visit parameters"):
            VisitConfig(beta_prime=value)
    with pytest.raises(ValueError):
        sequential_l_visit(*_hand_graph(12, []), set(), set(), VisitConfig())
    with pytest.raises(ValueError):
        sequential_l_visit(*_hand_graph(12, []), {1}, {1}, VisitConfig())


@pytest.mark.parametrize("visit", [
    lambda g, gp, s: sequential_l_visit(g, gp, {s}, set(), VisitConfig(L=2)),
    lambda g, gp, s: parallel_l_visit(g, gp, {s}, set(), VisitConfig(L=2)),
    lambda g, gp, s: union_l_visit(g, gp, {s}, VisitConfig(L=2)),
    lambda g, gp, s: plain_bfs(gp, s),
    lambda g, gp, s: plain_bfs(gp, s, flavor="cluster"),
])
@pytest.mark.parametrize("source", [-1, 12, 99])
def test_visits_reject_a_source_outside_the_graph(visit, source):
    g, gp = _hand_graph(12, [(0, 6)])
    with pytest.raises(ValueError, match=r"outside \[0, 12\)"):
        visit(g, gp, source)


def test_visits_reject_deleted_nodes_outside_the_graph():
    g, gp = _hand_graph(12, [(0, 6)])
    with pytest.raises(ValueError, match="outside"):
        sequential_l_visit(g, gp, {0}, {-5}, VisitConfig(L=2))
    m, mp = _hand_graph(12, [(0, 6), (1, 7), (2, 8), (3, 9), (4, 10), (5, 11)],
                        tag="matching")
    with pytest.raises(ValueError, match="outside"):
        sequential_l_visit_matching(m, mp, {12}, set(), VisitConfig(L=2))


def test_freeness_matches_the_all_pairs_predicates():
    # the ring occupancy and the sorted-neighbour scan of _free_subset
    # against the definitions checked pair by pair.  A visit's occupancy
    # always holds its initiators; an empty one reports distance n, which
    # reads "not free" on a ring of n <= L nodes, where the vacuous
    # definition says free
    rng = np.random.default_rng(20210331)
    for _ in range(500):
        n = int(rng.integers(2, 60))
        L = int(rng.integers(1, 6))
        occupied = rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)), replace=False)
        X = sorted(rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)), replace=False).tolist())
        occ = RingOccupancy(n, occupied.tolist(), L=n)
        free = _free_subset(n, X, occ, L)
        assert free == [x for x in X if is_free_parallel(n, x, set(X), occupied.tolist(), L)]
        for x in range(n):
            assert (occ.min_distance(x) >= L + 1) == is_free(n, x, occupied.tolist(), L)


def test_capped_min_distance_matches_the_exact_distance_up_to_L():
    # built with L, the answer is the exact distance when it is at most L
    # and L + 1 beyond; an empty mask answers min(n, L + 1), which keeps
    # the uncapped answer n's freeness for every n
    rng = np.random.default_rng(7919)
    for _ in range(400):
        n = int(rng.integers(2, 61))
        L = int(rng.integers(1, 7))
        occupied = rng.choice(n, size=int(rng.integers(0, min(n, 6) + 1)), replace=False).tolist()
        capped = RingOccupancy(n, occupied, L=L)
        exact = RingOccupancy(n, occupied, L=n)
        for x in range(n):
            d = min((ring_distance(n, x, y) for y in occupied), default=n)
            assert exact.min_distance(x) == d
            assert capped.min_distance(x) == min(d, L + 1)


def _cluster_walk(ring, x, L):
    """Truncated cluster of x, walking the ring one edge at a time each way
    (edge i joins i and i + 1)."""
    n = len(ring)
    out = {x}
    for step in (1, -1):
        y = x
        for _ in range(min(L, n - 1)):
            if not ring[y if step == 1 else (y - 1) % n]:
                break
            y = (y + step) % n
            out.add(y)
    return out


def _check_parallel_round(g, gp, Q, D, L):
    """One `_ParallelEngine.step` against the all-pairs freeness predicate
    and the cluster walk: the next queue, R and the occupancy."""
    n = g.n
    bu, bv = g.bridge_u[gp.bridge_active], g.bridge_v[gp.bridge_active]
    adj = list_adjacency(n, bu, bv)
    X = {x for w in Q for x in adj[w]}
    occupied = Q | D
    want = set()
    for x in X:
        if is_free_parallel(n, x, X, occupied, L):
            want |= _cluster_walk(gp.ring_active, x, L)
    eng = _ParallelEngine(g, gp, Q, D, VisitConfig(L=L))
    eng.step()
    assert eng.in_q == want and all(type(y) is int for y in eng.in_q)
    assert eng.r == Q and eng.d == D
    assert [x for x in range(n) if eng.occ.mask[x]] == sorted(occupied | want)
    return want


@pytest.mark.parametrize("n, bridges, ring_off, Q, L, want", [
    # Q has no retained bridge: X is empty
    (12, [(3, 9)], (), {0}, 2, set()),
    # one candidate, its cluster cut short by a missing ring edge
    (12, [(0, 6)], (7,), {0}, 2, {4, 5, 6, 7}),
    # two candidates 2L+1 apart either side of the 0/n-1 seam, their
    # clusters crossing it
    (40, [(20, 38), (22, 5)], (), {20, 22}, 3, {35, 36, 37, 38, 39, 0, 1, 2, 3, 4, 5, 6, 7, 8}),
    # the same pair 2L apart: neither is free
    (40, [(20, 38), (22, 4)], (), {20, 22}, 3, set()),
    # n <= 2L+1: every node lies within L of Q
    (7, [(0, 3)], (), {0}, 3, set()),
])
def test_parallel_round_matches_the_oracles_on_hand_cases(n, bridges, ring_off, Q, L, want):
    g, gp = _hand_graph(n, bridges, ring_off=ring_off)
    assert _check_parallel_round(g, gp, Q, set(), L) == want


def test_parallel_round_matches_the_oracles_on_random_graphs():
    rng = Seed(2718).generator()
    for _ in range(300):
        n = int(rng.integers(3, 80))
        g = sample_swg_erdos(n, float(rng.uniform(0.5, 3)), rng)
        gp = percolate(g, float(rng.random()), float(rng.random()), rng)
        nodes = rng.permutation(n).tolist()
        q = int(rng.integers(1, min(n, 8) + 1))
        Q, D = set(nodes[:q]), set(nodes[q:q + int(rng.integers(0, 4))])
        _check_parallel_round(g, gp, Q, D, int(rng.integers(1, 6)))


@pytest.mark.parametrize("visit", [
    lambda g, gp, v: union_l_visit(g, gp, {v}, VisitConfig(L=2)),
    lambda g, gp, v: parallel_l_visit(g, gp, {v}, set(), VisitConfig(L=2)),
    lambda g, gp, v: sequential_l_visit(g, gp, {0}, {v}, VisitConfig(L=2)),
    lambda g, gp, v: plain_bfs(gp, v),
])
@pytest.mark.parametrize("node", [1.0, 2.0, True, np.float64(3.0), np.bool_(True)])
def test_visits_refuse_non_integer_nodes(visit, node):
    # at the parent a float raised a memoryview TypeError or ran, and True
    # ran as node 1
    g, gp = _hand_graph(12, [(0, 6)])
    with pytest.raises(ValueError, match=re.escape(f"node {node!r} is a {type(node).__name__},")):
        visit(g, gp, node)


def test_visits_accept_numpy_integer_nodes():
    g, gp = _hand_graph(12, [(0, 6)])
    for v in (np.int64(0), np.int32(0), np.uint8(0)):
        assert parallel_l_visit(g, gp, {v}, set(), VisitConfig(L=2)).final_r == {0, 4, 5, 6, 7, 8}
        assert plain_bfs(gp, v).final_r == set(range(12))


# ---------------------------------------------------------------------------
# matching engine: the four dispatch cases
# ---------------------------------------------------------------------------

def test_matching_case_free_retained():
    g, gp = _hand_graph(12, [(0, 6), (1, 4)], retained_bridges=[(0, 6)],
                        tag="matching")
    t = sequential_l_visit_matching(g, gp, {0}, set(), VisitConfig(L=2))
    # 6 retires with 0 (free+retained); 1 is non-free and untouched -> D
    assert t.rounds[0] == (4, 2, 0)
    assert t.final_r == {0, 4, 5, 6, 7, 8}
    assert t.final_d == {1}
    assert t.terminated_reason == QUEUE_EMPTY


def test_matching_case_free_dead_bridge():
    g, gp = _hand_graph(12, [(0, 6)], retained_bridges=[], tag="matching")
    t = sequential_l_visit_matching(g, gp, {0}, set(), VisitConfig(L=2))
    assert t.final_r == {0}
    assert t.final_d == {6}


def test_matching_case_nonfree_in_queue():
    # 8 is already queued when its partner 5 is processed: it must move
    # straight to R without expansion
    g, gp = _hand_graph(12, [(0, 6), (5, 8)], tag="matching")
    t = sequential_l_visit_matching(g, gp, {0}, set(), VisitConfig(L=2))
    assert t.final_r == {0, 4, 5, 6, 7, 8}
    assert t.final_d == set()
    # the queue never re-grew after the first expansion
    assert max(q for q, _, _ in t.rounds) == 4


def test_matching_deleted_set_includes_neighborhood():
    g, gp = _hand_graph(12, [(5, 9)], tag="matching")
    t = sequential_l_visit_matching(g, gp, {0}, {5}, VisitConfig(L=2))
    # D starts as {5} plus its ring and bridge neighbors
    assert {5, 4, 6, 9} <= t.final_d


def test_matching_visit_rejects_erdos_graph():
    g, gp = _hand_graph(12, [(0, 6)])
    with pytest.raises(ValueError):
        sequential_l_visit_matching(g, gp, {0}, set(), VisitConfig())


# ---------------------------------------------------------------------------
# union visit and giant search
# ---------------------------------------------------------------------------

def _component_of(gp, v):
    for comp in connected_components(gp):
        if v in comp:
            return comp
    raise AssertionError


def test_union_visit_switches_phase_when_queue_grows():
    rng = Seed(40).generator()
    g = sample_swg_erdos(2000, 1.0, rng)
    gp = percolate(g, 0.6, 0.6, rng)
    t = union_l_visit(g, gp, {0}, VisitConfig())
    if t.phase_switch_round is not None:
        assert t.rounds[t.phase_switch_round - 1][0] >= VisitConfig().queue_threshold(g.n)
    visited = t.final_q | t.final_r
    assert visited <= _component_of(gp, 0)


def test_union_visit_small_component_stays_sequential():
    g, gp = _hand_graph(12, [(0, 6)])
    t = union_l_visit(g, gp, {0}, VisitConfig(L=2))
    assert t.phase_switch_round is None
    assert t.terminated_reason == QUEUE_EMPTY


def test_search_giant_supercritical():
    rng = Seed(41).generator()
    g = sample_swg_erdos(5000, 1.0, rng)
    gp = percolate(g, 0.6, 0.6, rng)
    t = search_giant_erdos(g, gp, VisitConfig())
    assert t.terminated_reason in (REACHED_LINEAR_SIZE, QUEUE_EMPTY)
    assert t.visited_size + len(t.final_d) >= g.n // VisitConfig().k
    assert t.attempts is not None and t.attempts >= 1
    # everything reached by the successful attempt lies in one component
    visited = t.final_q | t.final_r
    if visited:
        assert visited <= _component_of(gp, min(visited))


def test_search_giant_subcritical_gives_up():
    rng = Seed(42).generator()
    g = sample_swg_erdos(5000, 1.0, rng)
    gp = percolate(g, 0.2, 0.2, rng)
    t = search_giant_erdos(g, gp, VisitConfig())
    assert t.terminated_reason == ITERATION_CAP


def test_search_giant_matching_both_regimes():
    rng = Seed(43).generator()
    g = sample_swg_matching(5000, rng)
    sup = percolate(g, 0.65, 0.65, rng)
    t = search_giant_matching(g, sup, VisitConfig())
    assert t.terminated_reason == REACHED_LINEAR_SIZE
    sub = percolate(g, 0.35, 0.35, rng)
    t2 = search_giant_matching(g, sub, VisitConfig())
    assert t2.terminated_reason == ITERATION_CAP


# ---------------------------------------------------------------------------
# plain BFS
# ---------------------------------------------------------------------------

def test_plain_bfs_flavors_agree_with_components():
    rng = Seed(44).generator()
    for _ in range(20):
        g = sample_swg_erdos(200, 1.0, rng)
        gp = percolate(g, 0.5, 0.5, rng)
        s = int(rng.integers(200))
        comp = _component_of(gp, s)
        a = plain_bfs(gp, s, flavor="neighbor")
        b = plain_bfs(gp, s, flavor="cluster")
        assert a.final_r == comp
        assert (b.final_r | b.final_q) == comp and not b.final_q
    with pytest.raises(ValueError):
        plain_bfs(gp, 0, flavor="depth")


def test_neighbor_bfs_matches_the_per_node_oracle_row_for_row():
    rng = Seed(46).generator()
    n = 50_000
    cases = []
    for g in (sample_swg_erdos(n, 1.0, rng), sample_swg_matching(n, rng)):
        for p in (1.0, 0.55, 0.3):
            gp = percolate(g, p, p, rng)
            cases += [(gp, 0), (gp, int(rng.integers(n)))]
    # bridges on ring edges, one on the wrap-around edge, list that neighbour
    # twice; so does a multi-edge of a generic graph
    _, gp = _hand_graph(12, [(3, 4), (0, 11), (2, 7), (5, 9)], ring_off=(4, 8))
    cases += [(gp, s) for s in range(12)]
    multi = GenericGraph(5, np.array([0, 0, 1, 2]), np.array([3, 3, 2, 3]))
    cases += [(percolate(multi, 1.0, 1.0, rng), s) for s in range(5)]
    cases.append((percolate(sample_regular(300, 3, rng), 0.6, 0.6, rng), 7))
    for gp, s in cases:
        want = plain_bfs_neighbor(gp, s)
        got = plain_bfs(gp, s)
        assert got.rounds == want.rounds
        assert got.final_r == want.final_r and not got.final_q and not got.final_d


def test_visit_sets_always_disjoint():
    rng = Seed(45).generator()
    for _ in range(30):
        n = int(rng.integers(50, 300))
        g = sample_swg_erdos(n, 1.0, rng)
        gp = percolate(g, float(rng.random()), float(rng.random()), rng)
        s = int(rng.integers(n))
        for t in (sequential_l_visit(g, gp, {s}, set(), VisitConfig(L=3)),
                  parallel_l_visit(g, gp, {s}, set(), VisitConfig(L=3)),
                  union_l_visit(g, gp, {s}, VisitConfig(L=3))):
            t.check_disjoint()
            assert (t.final_q | t.final_r) <= _component_of(gp, s)


# ---------------------------------------------------------------------------
# pinned traces
# ---------------------------------------------------------------------------

# sha256 prefixes of every trace of each algorithm over _pinned_cases(),
# recorded before the visits shared one engine loop; a change of any round,
# final set, reason, switch round or attempt count changes the digest
PINNED_TRACE_DIGESTS = {
    "sequential": "31a2c965a75cd12a",
    "parallel": "e8775fd3051b5317",
    "union": "0ec783edf782b932",
    "search": "49823a6dfb104ff5",
    "bfs": "a0cf83f05a478211",
    "bfs-cluster": "c4523bf573ffe792",
    "matching": "2649b8aacc741efa",
    "matching-search": "8463c4de72d794bf",
}


def _pinned_cases():
    """Seeded swg and matching graphs, a source and a nonempty D0 each,
    sized so that unions and both searches switch phase in some cases."""
    rng = Seed(2024).generator()
    for n, p in [(40, 0.5), (200, 0.55), (200, 0.8), (1500, 0.6), (3000, 0.65),
                 (3000, 0.3), (3000, 0.8)]:
        for g in (sample_swg_erdos(n, 1.0, rng), sample_swg_matching(n, rng)):
            gp = percolate(g, p, p, rng)
            s = int(rng.integers(n))
            d0 = {int(x) for x in rng.choice(n, 3, replace=False)} - {s}
            yield g, gp, s, d0


def test_visit_traces_match_pinned_digests():
    import hashlib

    cfg = VisitConfig(L=3)
    digests: dict = {}
    for g, gp, s, d0 in _pinned_cases():
        runs = {"sequential": lambda: sequential_l_visit(g, gp, {s}, d0, cfg),
                "parallel": lambda: parallel_l_visit(g, gp, {s}, d0, cfg),
                "union": lambda: union_l_visit(g, gp, {s}, cfg),
                "search": lambda: search_giant_erdos(g, gp, cfg),
                "bfs": lambda: plain_bfs(gp, s),
                "bfs-cluster": lambda: plain_bfs(gp, s, flavor="cluster")}
        if g.model_tag == "matching":
            runs["matching"] = lambda: sequential_l_visit_matching(g, gp, {s}, d0, cfg)
            runs["matching-search"] = lambda: search_giant_matching(g, gp, cfg)
        for name, run in runs.items():
            t = run()
            key = (t.rounds, sorted(t.final_q), sorted(t.final_r), sorted(t.final_d),
                   t.terminated_reason, t.phase_switch_round, t.attempts)
            digests.setdefault(name, hashlib.sha256()).update(repr(key).encode())
    assert {k: h.hexdigest()[:16] for k, h in digests.items()} == PINNED_TRACE_DIGESTS
