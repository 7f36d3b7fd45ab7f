import math

import numpy as np
import pytest

from percolab import analysis
from percolab.analysis import (
    AMBIGUOUS,
    SUB,
    SUPER,
    ModelSpec,
    classify_largest,
    critical_p_bounded_degree,
    critical_p_matching,
    critical_p_swg,
    critical_r0,
    estimate_threshold,
    nonhomogeneous_criterion,
    probe_point,
    scaling_study,
    survival_from_single_source,
)
from percolab.rng import Seed, derive

from .oracles import coupled_crossings_by_level, fresh_probe_point, fresh_threshold_bisection


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_swg_threshold_closed_form():
    assert critical_p_swg(1.0) == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    for c in (0.3, 0.7, 1.0, 2.5, 10.0):
        p = critical_p_swg(c)
        assert abs(p * c * (1 + p) / (1 - p) - 1.0) < 1e-12


def test_swg_threshold_below_one_over_c_plus_one():
    for c in np.linspace(0.05, 8.0, 50):
        assert critical_p_swg(float(c)) < 1 / (c + 1)


def test_swg_threshold_monotone_and_limits():
    grid = np.linspace(0.01, 50, 300)
    vals = [critical_p_swg(float(c)) for c in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert critical_p_swg(1e-6) > 0.99
    assert critical_p_swg(1e6) < 1e-3
    with pytest.raises(ValueError):
        critical_p_swg(0.0)


def test_matching_threshold():
    p = critical_p_matching()
    assert p == 0.5
    assert abs(p * ((1 + p) / (1 - p) - 1) - 1.0) < 1e-12


def test_bounded_degree_threshold():
    assert critical_p_bounded_degree(3) == 0.5
    assert critical_p_bounded_degree(2) == 1.0
    assert critical_p_bounded_degree(11) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        critical_p_bounded_degree(1)


def test_nonhomogeneous_criterion():
    assert nonhomogeneous_criterion(0.0, 0.0, 1.0) == -1.0
    assert nonhomogeneous_criterion(0.5, 1 / 3, 1.0) == pytest.approx(0.0, abs=1e-12)
    # equal probabilities reduce to the one-parameter threshold equation
    for c in (0.5, 1.0, 2.0, 4.0):
        p = critical_p_swg(c)
        assert nonhomogeneous_criterion(p, p, c) == pytest.approx(0.0, abs=1e-12)


def test_critical_r0():
    assert critical_r0("cycle") == 2.0
    assert critical_r0("matching") == 1.5
    assert critical_r0("swg", 1.0) == pytest.approx(3 * (math.sqrt(2) - 1))
    with pytest.raises(ValueError):
        critical_r0("tree")


# ---------------------------------------------------------------------------
# classifier and Monte Carlo machinery
# ---------------------------------------------------------------------------

def test_classifier_regions():
    n = 100_000
    assert classify_largest(0.5 * n, n) == SUPER
    assert classify_largest(10.0, n) == SUB
    assert classify_largest(1000.0, n) == AMBIGUOUS
    # a grid level needs a majority of 30 trials, 16, either way
    assert probe_point(0.5, 16, 0, 30).classification == SUPER
    assert probe_point(0.5, 0, 16, 30).classification == SUB
    assert probe_point(0.5, 15, 15, 30).classification == AMBIGUOUS
    assert probe_point(0.5, 3, 0, 5).classification == SUPER


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("lattice")
    with pytest.raises(ValueError):
        ModelSpec("matching").validate_n(1001)
    ModelSpec("matching").validate_n(1000)


def test_probe_point_extremes():
    spec = ModelSpec("swg", c=1.0)
    high = fresh_probe_point(spec, 2000, 0.95, 5, Seed(1))
    assert high.classification == SUPER
    low = fresh_probe_point(spec, 2000, 0.05, 5, Seed(2))
    assert low.classification == SUB


class _InlinePool:
    """Stand-in for ProcessPoolExecutor that records max_workers and runs
    the calls in this process."""

    requested: list = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_pool_asks_for_no_more_workers_than_calls(monkeypatch):
    spec = ModelSpec("swg", c=1.0)
    serial = fresh_probe_point(spec, 2000, 0.5, 3, Seed(4))
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "requested", [])
    assert fresh_probe_point(spec, 2000, 0.5, 3, Seed(4), jobs=64) == serial
    fresh_probe_point(spec, 2000, 0.5, 5, Seed(4), jobs=2)
    assert _InlinePool.requested == [3, 2]


def test_cycle_model_largest_component_law():
    # on a percolated ring the largest component is the longest retained
    # run + 1; medians should sit near ln n / ln(1/p)
    spec = ModelSpec("cycle")
    res = fresh_probe_point(spec, 100_000, 0.5, 20, Seed(3))
    assert res.classification == SUB
    assert 10 < res.median_largest < 30  # ln(1e5)/ln 2 ~ 16.6


def test_estimate_threshold_validation():
    spec = ModelSpec("swg")
    with pytest.raises(ValueError):
        estimate_threshold(spec, 100, 5, 0.05, Seed(0))
    with pytest.raises(ValueError):
        estimate_threshold(spec, 5000, 5, 0.001, Seed(0))
    # the bracket starts as [0, 1]: a tolerance of 1 or more ran no probe
    for tol in (1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="below 1"):
            estimate_threshold(spec, 5000, 5, tol, Seed(0))


def test_estimate_threshold_small_scale():
    spec = ModelSpec("swg", c=1.0)
    est = estimate_threshold(spec, 20_000, 10, 0.05, Seed(7))
    assert est.p_low < est.p_high
    assert est.width <= 0.05
    # loose sanity: the bracket sits in the right neighborhood even at
    # this small n (finite-size bias pulls it slightly left of 0.414)
    assert 0.3 < est.midpoint < 0.5
    assert est.probes  # probe history exposed


def test_estimate_threshold_deterministic():
    spec = ModelSpec("matching")
    a = estimate_threshold(spec, 10_000, 8, 0.05, Seed(11))
    b = estimate_threshold(spec, 10_000, 8, 0.05, Seed(11))
    assert (a.p_low, a.p_high) == (b.p_low, b.p_high)
    assert a.probes == b.probes


_MODELS = [ModelSpec("swg", c=1.0), ModelSpec("matching"), ModelSpec("cycle"),
           ModelSpec("nonhom", c=1.0, p1=0.5), ModelSpec("regular", d=3)]


@pytest.mark.parametrize("spec", _MODELS, ids=[spec.name for spec in _MODELS])
def test_coupled_crossings_match_labelling_every_level(spec):
    # theta * n lies above 8 ln n at n = 4000 and below it at n = 1500,
    # where a giant also counts as no small component
    for n, depth in ((4000, 6), (4000, 3), (1500, 5)):
        for i in range(4):
            seed = derive(Seed(31), i)
            assert analysis._trial_crossings(spec, n, depth, seed) == \
                coupled_crossings_by_level(spec, n, depth, seed)


def test_estimate_threshold_does_not_depend_on_jobs(monkeypatch):
    spec = ModelSpec("swg", c=1.0)
    serial = estimate_threshold(spec, 5000, 5, 0.05, Seed(21))
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "requested", [])
    assert estimate_threshold(spec, 5000, 5, 0.05, Seed(21), jobs=2) == serial
    assert _InlinePool.requested == [2]


def test_coupled_bracket_agrees_with_the_fresh_sample_bisection():
    for spec, seed in ((ModelSpec("swg", c=1.0), Seed(22)), (ModelSpec("matching"), Seed(23))):
        est = estimate_threshold(spec, 20_000, 10, 0.05, seed)
        lo, hi, _ = fresh_threshold_bisection(spec, 20_000, 10, 0.05, seed)
        assert abs(est.midpoint - 0.5 * (lo + hi)) <= 0.05


def test_scaling_study_shapes_and_order():
    spec = ModelSpec("swg", c=1.0)
    rows = scaling_study(spec, 0.55, [1024, 2048], 5, Seed(12))
    assert [r.n for r in rows] == [1024, 2048]
    for r in rows:
        assert 0 < r.median_giant_fraction <= 1
        assert r.median_giant_diameter is not None
        assert not r.diameter_skipped
    with pytest.raises(ValueError):
        scaling_study(spec, 0.5, [2048, 1024], 5, Seed(12))


def test_scaling_study_diameter_cap_flag():
    spec = ModelSpec("swg", c=1.0)
    rows = scaling_study(spec, 0.9, [2048], 3, Seed(13), size_cap=100)
    assert rows[0].diameter_skipped
    assert rows[0].median_giant_diameter is None


def test_scaling_study_measures_one_node_components():
    # at p = 0 every component is one node, of diameter 0 and under the cap
    rows = scaling_study(ModelSpec("swg", c=1.0), 0.0, [64, 128], 3, Seed(14))
    assert [(r.median_max_component, r.median_giant_diameter, r.diameter_skipped)
            for r in rows] == [(1.0, 0.0, False)] * 2


def test_scaling_study_refuses_a_bad_size_before_any_trial(monkeypatch):
    calls = []
    real = analysis._scaling_trial

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(analysis, "_scaling_trial", counted)
    with pytest.raises(ValueError, match="even n"):
        scaling_study(ModelSpec("matching"), 0.5, [64, 65], 2, Seed(15))
    assert calls == []


def test_zero_trials_are_refused():
    spec = ModelSpec("swg", c=1.0)
    for call in (lambda: fresh_probe_point(spec, 2000, 0.5, 0, Seed(1)),
                 lambda: estimate_threshold(spec, 5000, 0, 0.05, Seed(1)),
                 lambda: scaling_study(spec, 0.3, [64], 0, Seed(1)),
                 lambda: survival_from_single_source(spec, 0.5, 2000, 0, Seed(1))):
        with pytest.raises(ValueError, match="trials"):
            call()


def test_survival_from_single_source_extremes():
    spec = ModelSpec("swg", c=1.0)
    assert survival_from_single_source(spec, 1.0, 2000, 10, Seed(14)) == 1.0
    assert survival_from_single_source(spec, 0.0, 2000, 10, Seed(15)) == 0.0


def test_survival_from_single_source_refuses_k_below_one():
    spec = ModelSpec("swg", c=1.0)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1"):
            survival_from_single_source(spec, 0.1, 2000, 4, Seed(17), k=k)


def test_survival_from_single_source_supercritical():
    spec = ModelSpec("swg", c=1.0)
    frac = survival_from_single_source(spec, 0.55, 5000, 60, Seed(16))
    assert 0.1 < frac < 0.95


# ---------------------------------------------------------------------------
# pinned study results: every study draws its graph and its percolation from
# the trial's seed in one fixed order, so a refactor must reproduce these
# numbers exactly
# ---------------------------------------------------------------------------

_PINNED_STUDIES = [
    # model, survival p, fresh-sample probe medians at p = 0.3 and 0.7,
    # scaling (median size, median diameter) at n = 1024 and 2048, survival,
    # threshold bracket at n = 2000 with (giant, small) trials per probe
    (ModelSpec("swg", c=1.0), 0.45, (20.0, 892.0),
     ((719.0, 38.0), (1464.0, 41.0)), 0.25,
     (0.3125, 0.34375, ((5, 0), (0, 5), (5, 0), (1, 4), (3, 2)))),
    (ModelSpec("matching"), 0.55, (15.0, 948.0),
     ((714.0, 54.0), (1471.0, 77.0)), 0.625,
     (0.40625, 0.4375, ((5, 0), (0, 5), (2, 3), (5, 0), (2, 3)))),
    (ModelSpec("cycle"), 0.995, (8.0, 17.0),
     ((15.0, 14.0), (14.0, 13.0)), 0.9375,
     (0.84375, 0.875, ((0, 5), (0, 5), (4, 1), (0, 5), (0, 5)))),
    (ModelSpec("nonhom", c=1.0, p1=0.5), 0.4, (48.0, 669.0),
     ((626.0, 37.0), (1146.0, 54.0)), 0.3125,
     (0.1875, 0.21875, ((5, 0), (4, 1), (2, 3), (2, 3), (4, 1)))),
    (ModelSpec("regular", d=3), 0.55, (15.0, 943.0),
     ((772.0, 62.0), (1522.0, 68.0)), 0.6875,
     (0.375, 0.40625, ((5, 0), (0, 5), (0, 5), (5, 0), (3, 2)))),
]


@pytest.mark.parametrize("index", range(len(_PINNED_STUDIES)),
                         ids=[spec.name for spec, *_ in _PINNED_STUDIES])
def test_study_results_are_pinned(index):
    spec, surv_p, medians, scaling, survival, threshold = _PINNED_STUDIES[index]
    seed = Seed(7919 + index)
    probes = [fresh_probe_point(spec, 1024, p, 5, seed) for p in (0.3, 0.7)]
    assert tuple(r.median_largest for r in probes) == medians
    rows = scaling_study(spec, 0.6, [1024, 2048], 3, seed)
    assert tuple((r.median_max_component, r.median_giant_diameter)
                 for r in rows) == scaling
    assert not any(r.diameter_skipped for r in rows)
    assert survival_from_single_source(spec, surv_p, 1024, 16, seed) == survival
    est = estimate_threshold(spec, 2000, 5, 0.05, seed)
    assert (est.p_low, est.p_high,
            tuple((r.giant_trials, r.small_trials) for r in est.probes)) == threshold
