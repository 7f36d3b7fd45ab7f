import numpy as np
import pytest

from percolab.graphs import (
    PercolationGraph,
    SmallWorldGraph,
    connected_components,
    percolate,
    sample_swg_erdos,
    sample_swg_matching,
)
from percolab.rng import Seed
from percolab.visits import (
    ITERATION_CAP,
    QUEUE_EMPTY,
    REACHED_LINEAR_SIZE,
    REACHED_QUEUE_THRESHOLD,
    VisitConfig,
    VisitTrace,
    parallel_l_visit,
    plain_bfs,
    search_giant_erdos,
    search_giant_matching,
    sequential_l_visit,
    sequential_l_visit_matching,
    union_l_visit,
)


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
    return g, PercolationGraph(g, ring, bmask, 1.0, 1.0)


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
    with pytest.raises(ValueError):
        sequential_l_visit(*_hand_graph(12, []), set(), set(), VisitConfig())
    with pytest.raises(ValueError):
        sequential_l_visit(*_hand_graph(12, []), {1}, {1}, VisitConfig())


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
