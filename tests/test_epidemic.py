from collections import Counter

import numpy as np
import pytest

from percolab.epidemic import (
    EpidemicConfig,
    _simulate,
    exact_final_size_law,
    fixture_graph,
    percolation_reachability_law,
    run_ic_k_attempts,
    run_rf,
    run_rf_coupled,
    run_seir,
    total_variation,
)
from percolab.graphs import (
    GenericGraph,
    sample_regular,
    sample_swg_erdos,
    sample_swg_matching,
)
from percolab.rng import Seed, derive

from .oracles import simulate_sets


def _path(k):
    return GenericGraph(k + 1, np.arange(k), np.arange(1, k + 1))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        EpidemicConfig(p=1.2)
    with pytest.raises(ValueError):
        EpidemicConfig(p=0.5, k_attempts=0)
    with pytest.raises(ValueError):
        EpidemicConfig()
    with pytest.raises(ValueError):
        EpidemicConfig(p=0.5, incubation=("weibull", 2))


def test_split_probabilities_choose_by_edge_kind():
    cfg = EpidemicConfig(p_local=0.2, p_bridge=0.9)
    assert cfg.edge_prob(0, 1, "R") == 0.2
    assert cfg.edge_prob(0, 5, "B") == 0.9


def test_edge_map_wins():
    cfg = EpidemicConfig(p_map={(0, 1): 0.7})
    assert cfg.edge_prob(1, 0, "R") == 0.7


# ---------------------------------------------------------------------------
# single-shot process
# ---------------------------------------------------------------------------

def test_rf_p_zero():
    g = fixture_graph()
    t = run_rf(g, {0}, EpidemicConfig(p=0.0), Seed(1).generator())
    assert t.final_recovered == {0}
    assert t.stop_time == 1


def test_rf_p_one_floods_component():
    g = fixture_graph()
    t = run_rf(g, {0}, EpidemicConfig(p=1.0), Seed(1).generator())
    assert t.final_recovered == {0, 1, 2, 3, 4}
    # stop time is the source eccentricity within its component plus one
    assert t.stop_time == 3


def test_rf_requires_initial_infections():
    with pytest.raises(ValueError):
        run_rf(fixture_graph(), set(), EpidemicConfig(p=0.5), Seed(0).generator())


def test_partition_invariant_and_monotone_counts():
    g = fixture_graph()
    rng = Seed(2).generator()
    for _ in range(200):
        t = run_rf(g, {0}, EpidemicConfig(p=0.5), rng)
        for s, e, i, r in t.counts:
            assert s + e + i + r == g.n
        rs = [r for _, _, _, r in t.counts]
        assert rs == sorted(rs)
        assert t.counts[-1][2] == 0


def test_rf_final_size_matches_enumeration_oracle():
    g = fixture_graph()
    cfg = EpidemicConfig(p=0.5)
    rng = Seed(3).generator()
    law = Counter(run_rf(g, {0}, cfg, rng).final_size for _ in range(30_000))
    exact = exact_final_size_law(g, {0}, cfg)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    assert total_variation(law, exact) < 0.015


def test_oracle_refuses_large_graphs():
    rng = Seed(0).generator()
    g = sample_swg_erdos(100, 1.0, rng)
    with pytest.raises(ValueError):
        exact_final_size_law(g, {0}, EpidemicConfig(p=0.5))


# ---------------------------------------------------------------------------
# k attempts
# ---------------------------------------------------------------------------

def test_k_equals_one_trace_is_identical_to_single_shot():
    g = fixture_graph()
    for seed in range(30):
        a = run_rf(g, {0}, EpidemicConfig(p=0.4), Seed(seed).generator())
        b = run_ic_k_attempts(g, {0}, EpidemicConfig(p=0.4, k_attempts=1),
                              Seed(seed).generator())
        assert a.counts == b.counts
        assert a.final_recovered == b.final_recovered


def test_k_attempts_reduces_to_boosted_single_shot():
    g = fixture_graph()
    k, p = 3, 0.2
    p_hat = 1 - (1 - p) ** k
    rng = Seed(4).generator()
    multi = Counter(run_ic_k_attempts(g, {0}, EpidemicConfig(p=p, k_attempts=k),
                                      rng).final_size for _ in range(30_000))
    exact = exact_final_size_law(g, {0}, EpidemicConfig(p=p_hat))
    assert total_variation(multi, exact) < 0.015


def test_k_attempts_p_one_same_as_single():
    g = fixture_graph()
    t = run_ic_k_attempts(g, {0}, EpidemicConfig(p=1.0, k_attempts=5),
                          Seed(5).generator())
    assert t.final_recovered == {0, 1, 2, 3, 4}


# ---------------------------------------------------------------------------
# incubation
# ---------------------------------------------------------------------------

def test_seir_zero_incubation_identical_to_single_shot():
    g = fixture_graph()
    for seed in range(20):
        a = run_rf(g, {0}, EpidemicConfig(p=0.5), Seed(seed).generator())
        b = run_seir(g, {0}, EpidemicConfig(p=0.5, incubation=("fixed", 0)),
                     Seed(seed).generator())
        assert a.counts == b.counts


def test_seir_path_hand_trace():
    # 3-edge path, certain transmission, 2-step incubation: each hop costs
    # 1 transmission step + 2 incubation steps; the last node turns
    # infectious at t=9 and the process stops one step later
    t = run_seir(_path(3), {0}, EpidemicConfig(p=1.0, incubation=("fixed", 2)),
                 Seed(6).generator())
    assert t.final_recovered == {0, 1, 2, 3}
    assert t.last_infectious_time == 9
    assert t.stop_time == 10


def test_seir_final_size_invariant_to_incubation():
    g = fixture_graph()
    cfg = EpidemicConfig(p=0.5, incubation=("geometric", 1 / 3))
    rng = Seed(7).generator()
    law = Counter(run_seir(g, {0}, cfg, rng).final_size for _ in range(30_000))
    exact = exact_final_size_law(g, {0}, EpidemicConfig(p=0.5))
    assert total_variation(law, exact) < 0.015


def test_seir_incubation_stream_does_not_disturb_edge_coins():
    # geometric(1) incubation is always zero, but still draws from the
    # spawned stream; the edge randomness must be untouched, so the whole
    # trace replays the plain run exactly
    g = fixture_graph()
    for seed in range(30):
        a = run_rf(g, {0}, EpidemicConfig(p=0.5), Seed(seed).generator())
        b = run_seir(g, {0}, EpidemicConfig(p=0.5, incubation=("geometric", 1.0)),
                     Seed(seed).generator())
        assert a.counts == b.counts
        assert a.final_recovered == b.final_recovered


# ---------------------------------------------------------------------------
# coupling and equivalence
# ---------------------------------------------------------------------------

def test_coupled_runs_are_monotone_in_p():
    g = fixture_graph()
    rng = Seed(8).generator()
    for _ in range(300):
        low, mid, high = run_rf_coupled(g, {0}, [0.2, 0.5, 0.8], rng)
        assert low <= mid <= high


def test_reachability_law_trivial_probabilities():
    g = fixture_graph()
    sizes, layers = percolation_reachability_law(g, {0}, 1.0, 1.0, 10,
                                                 Seed(9).generator())
    assert sizes == Counter({5: 10})
    assert layers == Counter({(1, 3, 1): 10})
    sizes0, layers0 = percolation_reachability_law(g, {0}, 0.0, 0.0, 10,
                                                   Seed(9).generator())
    assert sizes0 == Counter({1: 10})
    assert layers0 == Counter({(1,): 10})


def test_per_step_equivalence_with_percolation_layers():
    # the law of |I_t| under the epidemic equals the law of the t-th
    # BFS layer size of the percolated graph, for every t
    g = fixture_graph()
    p, trials = 0.5, 30_000
    rng = Seed(10).generator()
    per_t_epi = [Counter() for _ in range(6)]
    for _ in range(trials):
        sizes = run_rf(g, {0}, EpidemicConfig(p=p), rng).infectious_sizes()
        for t in range(6):
            per_t_epi[t][sizes[t] if t < len(sizes) else 0] += 1
    _, layer_law = percolation_reachability_law(g, {0}, p, p, trials,
                                                derive(Seed(10), 1).generator())
    for t in range(6):
        perc_t = Counter()
        for layers, cnt in layer_law.items():
            perc_t[layers[t] if t < len(layers) else 0] += cnt
        assert total_variation(per_t_epi[t], perc_t) < 0.015


def test_recovered_set_within_percolation_component():
    # epidemic on a ring+bridges graph stays inside the component of the
    # sources under the implicit percolation; checked via coupling with p=1
    rng = Seed(11).generator()
    g = sample_swg_erdos(300, 1.0, rng)
    t = run_rf(g, {5}, EpidemicConfig(p=0.7), rng)
    assert {5} <= t.final_recovered
    assert t.stop_time <= g.n


# ---------------------------------------------------------------------------
# the simulator against the set-based oracle
# ---------------------------------------------------------------------------

def test_traces_are_bit_identical_to_the_set_based_simulator():
    rng = Seed(21).generator()
    graphs = [sample_swg_erdos(80, 2.5, rng), sample_swg_matching(80, rng), sample_regular(80, 3, rng),
              fixture_graph(), GenericGraph(4, np.array([0, 0, 1]), np.array([1, 1, 3]))]
    for g in graphs:
        p_map = {(u, v): float(x) for (u, v, _), x in zip(g.edges(), rng.random(200))}
        configs = [
            EpidemicConfig(p=0.45),                                   # rf
            EpidemicConfig(p=0.3, k_attempts=3),                      # ic, k = 3
            EpidemicConfig(p=0.5, incubation=("fixed", 2)),           # seir
            EpidemicConfig(p=0.5, incubation=("geometric", 0.4)),
            EpidemicConfig(p_local=0.5, p_bridge=0.9),
            EpidemicConfig(p_map=p_map, k_attempts=2),
        ]
        for cfg in configs:
            for seed in range(8):
                i0 = {seed % g.n, (7 * seed + 3) % g.n}
                a_rng, b_rng = Seed(seed).generator(), Seed(seed).generator()
                a = _simulate(g, i0, cfg, a_rng)
                b = simulate_sets(g, i0, cfg, b_rng)
                assert a.counts == b.counts
                assert a.final_recovered == b.final_recovered
                assert a.stop_time == b.stop_time and not a.truncated and not b.truncated
                assert a_rng.random() == b_rng.random()  # same coins consumed


def test_step_cap_is_recorded_as_truncation():
    path = _path(4)
    t = run_rf(path, {0}, EpidemicConfig(p=1.0), Seed(9).generator(), max_steps=1)
    assert t.truncated and t.stop_time == 1
    assert t.counts == [(4, 0, 1, 0), (3, 0, 1, 1)]
    assert t.final_recovered == {0, 1}  # the still-infectious node is counted as reached
    # a node still in E at the cap is reached as well
    cfg = EpidemicConfig(p=1.0, incubation=("fixed", 3))
    t = run_seir(path, {0}, cfg, Seed(9).generator(), max_steps=1)
    assert t.truncated and t.counts[-1] == (3, 1, 0, 1) and t.final_recovered == {0, 1}
    full = run_rf(path, {0}, EpidemicConfig(p=1.0), Seed(9).generator())
    assert not full.truncated and full.final_recovered == set(range(5))
