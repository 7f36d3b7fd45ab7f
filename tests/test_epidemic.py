from collections import Counter

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from percolab import epidemic
from percolab.epidemic import (
    EpidemicConfig,
    _keys_fit_int64,
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
    SmallWorldGraph,
    percolate,
    sample_regular,
    sample_swg_erdos,
    sample_swg_matching,
)
from percolab.rng import Seed, derive

from .oracles import reachability_law_per_trial, simulate_sets


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
    for incubation in (("fixed", -2), ("fixed", 1.5), ("fixed", "2"), ("geometric", 0.0),
                       ("geometric", -0.5), ("geometric", 1.5), ("geometric", float("nan"))):
        with pytest.raises(ValueError, match=f"{incubation[0]} incubation needs"):
            EpidemicConfig(p=0.5, incubation=incubation)


def test_config_refuses_a_bridge_probability_without_a_ring_probability():
    with pytest.raises(ValueError, match="p_bridge needs p_local"):
        EpidemicConfig(p_bridge=0.3)


def test_split_probabilities_choose_by_edge_kind():
    cfg = EpidemicConfig(p_local=0.2, p_bridge=0.9)
    assert cfg.edge_prob(0, 1, "R") == 0.2
    assert cfg.edge_prob(0, 5, "B") == 0.9


def test_config_refuses_more_than_one_way_to_set_probabilities():
    for kwargs in ({"p": 0.5, "p_local": 0.0, "p_bridge": 0.0},
                   {"p": 0.5, "p_bridge": 0.2},
                   {"p_local": 0.5, "p_map": {(0, 1): 0.5}},
                   {"p": 0.5, "p_map": {(0, 1): 0.5}}):
        with pytest.raises(ValueError, match="only one of"):
            EpidemicConfig(**kwargs)


def test_config_refuses_edge_map_values_outside_unit_interval():
    for val in (7.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"p_map\(0, 1\) out of \[0,1\]"):
            EpidemicConfig(p_map={(0, 1): val})


def test_edge_map_missing_an_edge_names_it():
    g = fixture_graph()
    p_map = {(u, v): 0.5 for u, v, _ in g.edges() if (u, v) != (0, 3)}
    with pytest.raises(ValueError, match=r"no probability for edge \(0, 3\)"):
        run_rf(g, {0}, EpidemicConfig(p_map=p_map), Seed(0).generator())


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


def test_seir_refuses_a_config_without_incubation():
    with pytest.raises(ValueError, match="incubation"):
        run_seir(fixture_graph(), {0}, EpidemicConfig(p=0.5), Seed(0).generator())


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


def test_coupled_run_matches_enumeration_with_a_bridge_on_a_ring_edge():
    # the bridge {0, 1} duplicates a ring edge; each copy has its own coin
    g = SmallWorldGraph(4, np.array([0]), np.array([1]), "erdos:c=1")
    cfg = EpidemicConfig(p=0.5)
    rng = Seed(12).generator()
    law = Counter(len(run_rf_coupled(g, {0}, [0.5], rng)[0]) for _ in range(40_000))
    assert total_variation(law, exact_final_size_law(g, {0}, cfg)) <= 0.01


def test_coupled_run_refuses_initial_nodes_out_of_range():
    for i0 in ({6}, {-1}, {0, 6}):
        with pytest.raises(ValueError, match="out of range"):
            run_rf_coupled(fixture_graph(), i0, [0.5], Seed(0).generator())


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


def test_reachability_law_refuses_initial_nodes_out_of_range():
    # -1 would name node n - 1 of the trial, or of the block's previous one
    for i0, match in (({-1}, "out of range"), ({6}, "out of range"),
                      ({0, 6}, "out of range"), (set(), "nonempty")):
        with pytest.raises(ValueError, match=match):
            percolation_reachability_law(fixture_graph(), i0, 0.5, 0.5, 10,
                                         Seed(0).generator())


def _reach_cases():
    rng = Seed(41).generator()
    # a bridge on ring edge {0, 1} and one on the wrap-around edge {0, 5}
    doubled = SmallWorldGraph(6, np.array([0, 0, 2]), np.array([1, 5, 4]), "erdos:c=1")
    multi = GenericGraph(5, np.array([0, 0, 1, 2, 2, 3]), np.array([1, 1, 2, 3, 4, 4]))
    sparse = GenericGraph(40, np.array([0, 1, 5, 20]), np.array([1, 2, 30, 21]))
    graphs = {"swg": sample_swg_erdos(400, 1.5, rng), "matching": sample_swg_matching(400, rng),
              "regular": sample_regular(300, 3, rng), "generic-multi": multi,
              "generic-sparse": sparse, "doubled-bridge": doubled, "fixture": fixture_graph()}
    for name, g in graphs.items():
        i0 = {0, g.n // 2} if g.n > 6 else {0}
        for pl, pb in ((0.0, 0.0), (1.0, 1.0), (0.55, 0.55), (0.6, 0.3)):
            yield pytest.param(g, i0, pl, pb, id=f"{name}-{pl}-{pb}")


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("g, i0, p_local, p_bridge", _reach_cases())
def test_reachability_law_matches_the_per_trial_oracle(monkeypatch, g, i0, p_local,
                                                       p_bridge, block):
    """Equal laws, in the same key order, and the same generator state
    afterwards, whatever the block size (None: one block for all trials)."""
    trials = 23
    width = g.n + g.num_bridges if isinstance(g, SmallWorldGraph) else max(g.n, len(g.edge_u))
    cap = 10 ** 9 if block is None else block * width + width - 1
    monkeypatch.setattr(epidemic, "_BLOCK_SIZE", cap)
    got_rng, want_rng = Seed(43).generator(), Seed(43).generator()
    got = percolation_reachability_law(g, i0, p_local, p_bridge, trials, got_rng)
    want = reachability_law_per_trial(g, i0, p_local, p_bridge, trials, want_rng)
    assert got == want
    assert [list(law.items()) for law in got] == [list(law.items()) for law in want]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_reachability_layers_match_scipy_hop_distances():
    rng = Seed(31).generator()
    for trial in range(40):
        n = 2 * int(rng.integers(3, 200))
        g = sample_swg_erdos(n, 1.5, rng) if trial % 2 else sample_regular(n, 3, rng)
        p = float(rng.uniform(0.2, 0.9))
        i0 = {int(x) for x in rng.choice(n, int(rng.integers(1, 4)), replace=False)}
        seed = derive(Seed(31), trial)
        _, layer_law = percolation_reachability_law(g, i0, p, p, 1, seed.generator())
        # the same percolation, layered by scipy's unweighted hop distances
        u, v = percolate(g, p, p, seed.generator()).active_edge_arrays()
        adj = csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
        hops = shortest_path(adj, directed=False, unweighted=True,
                             indices=sorted(i0)).min(axis=0)
        want = tuple(np.bincount(hops[np.isfinite(hops)].astype(int)).tolist())
        assert layer_law == Counter({want: 1})


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


def _count_array_steps(monkeypatch, crossover=None) -> list:
    """Set the array step's crossover (if given) and count its calls."""
    if crossover is not None:
        monkeypatch.setattr(epidemic, "_ARRAY_STEP_MIN", crossover)
    calls = []
    array_cases = epidemic._array_cases

    def counted(*args):
        calls.append(len(args[0]))
        return array_cases(*args)

    monkeypatch.setattr(epidemic, "_array_cases", counted)
    return calls


def test_array_step_traces_are_bit_identical_to_the_set_based_simulator(monkeypatch):
    # every step of a config without p_map takes the array step
    calls = _count_array_steps(monkeypatch, crossover=1)
    test_traces_are_bit_identical_to_the_set_based_simulator()
    assert min(calls) == 1


@pytest.mark.parametrize("seed", [20210331, 7919])
def test_both_steps_match_the_set_based_simulator_on_larger_graphs(monkeypatch, seed):
    calls = _count_array_steps(monkeypatch)
    rng = Seed(seed).generator()
    n = 20_000
    sources = [i * n // 16 for i in range(16)]
    configs = [EpidemicConfig(p=0.55),
               EpidemicConfig(p=0.55, incubation=("geometric", 0.5)),
               EpidemicConfig(p=0.3, k_attempts=3)]
    for g in (sample_swg_erdos(n, 1.0, rng), sample_swg_matching(n, rng)):
        for cfg in configs:
            a_rng, b_rng = Seed(seed).generator(), Seed(seed).generator()
            a = _simulate(g, sources, cfg, a_rng)
            b = simulate_sets(g, sources, cfg, b_rng)
            assert a.counts == b.counts and a.final_recovered == b.final_recovered
            assert a.stop_time == b.stop_time
            assert a_rng.random() == b_rng.random()
            assert 0 < len(calls) < a.stop_time  # both steps ran
            calls.clear()


def test_array_keys_are_refused_where_they_overflow_int64(monkeypatch):
    # keys are below 4n^2, so 4n^2 <= 2^63 is the bound; 1518500249 is the
    # largest n within it
    assert _keys_fit_int64(1518500249) and not _keys_fit_int64(1518500250)
    assert _keys_fit_int64(2) and not _keys_fit_int64(2 ** 31)
    # a p_map config, or a graph too large for the keys, runs only the
    # per-node step
    calls = _count_array_steps(monkeypatch, crossover=1)
    g = sample_swg_erdos(200, 2.0, Seed(3).generator())
    p_map = {(u, v): 0.6 for u, v, _ in g.edges()}
    for cfg in (EpidemicConfig(p_map=p_map), EpidemicConfig(p=0.6)):
        if cfg.p_map is None:
            monkeypatch.setattr(epidemic, "_keys_fit_int64", lambda n: False)
        a_rng, b_rng = Seed(5).generator(), Seed(5).generator()
        a = _simulate(g, {0, 100}, cfg, a_rng)
        b = simulate_sets(g, {0, 100}, cfg, b_rng)
        assert a.counts == b.counts and a.final_recovered == b.final_recovered
        assert len(a.counts) > 3 and not calls


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
