import math

import numpy as np
import pytest

from percolab.branching import (
    Binomial,
    CompoundZeta,
    Empirical,
    GeometricCutoff,
    SurvivalEstimate,
    extinction_probability,
    run_gw,
    survival_probability,
)
from percolab.rng import Seed

from .oracles import compound_zeta_per_arc, gw_upper_population, survivors_masked


# ---------------------------------------------------------------------------
# offspring laws
# ---------------------------------------------------------------------------

def test_mean_offspring_binomial_trivial():
    assert Binomial(10, 0.0).mean() == 0.0
    assert Binomial(10, 0.3).mean() == pytest.approx(3.0)


def test_compound_mean_is_one_at_threshold():
    # pc(1+p)/(1-p) = 1 exactly at the critical root for c=1
    p = math.sqrt(2) - 1
    law = CompoundZeta(10_000, p, 1.0)
    assert law.mean() == pytest.approx(1.0, abs=1e-12)


def test_geometric_cutoff_mean_closed_form():
    # sum_{i<L} i p^i (1-p) + L p^L telescopes to p(1-p^L)/(1-p)
    for p, L in [(0.5, 60), (0.3, 5), (0.8, 12)]:
        law = GeometricCutoff(p, L)
        assert law.mean() == pytest.approx(p * (1 - p ** L) / (1 - p), abs=1e-12)
    # with the cutoff far out this is the plain geometric mean p/(1-p)
    assert GeometricCutoff(0.5, 200).mean() == pytest.approx(1.0)


def test_pmfs_are_normalized_and_pgf_at_one():
    laws = [Binomial(5, 0.3), GeometricCutoff(0.4, 6),
            CompoundZeta(100, 0.3, 1.0), Empirical(((0, 0.25), (3, 0.75)))]
    for law in laws:
        assert law.pgf(1.0) == pytest.approx(1.0, abs=1e-9)
        # pgf slope at 1 approximates the mean
        h = 1e-6
        slope = (law.pgf(1.0) - law.pgf(1.0 - h)) / h
        assert slope == pytest.approx(law.mean(), rel=1e-3)


def test_empirical_validation():
    with pytest.raises(ValueError):
        Empirical(((0, 0.5), (1, 0.4)))
    with pytest.raises(ValueError):
        Empirical(((0, 1.5), (1, -0.5)))
    with pytest.raises(ValueError):
        Empirical(((-1, 1.0),))


def test_compound_zeta_validation():
    with pytest.raises(ValueError):
        CompoundZeta(10, 1.0, 1.0)
    with pytest.raises(ValueError):
        CompoundZeta(2, 0.9, 4.0)  # pc/n > 1
    # with p = 0 an infinite c would make theta = 0 * inf = nan
    for p, c in ((0.3, float("nan")), (0.0, float("inf")), (0.3, 0.0)):
        with pytest.raises(ValueError, match="finite c > 0"):
            CompoundZeta(100, p, c)


def test_geometric_cutoff_sampler_matches_pmf():
    law = GeometricCutoff(0.6, 5)
    rng = Seed(50).generator()
    draws = law.sample_many(rng, 50_000)
    counts = np.bincount(draws, minlength=6) / len(draws)
    tv = 0.5 * np.abs(counts - law.pmf()).sum()
    assert tv < 0.01


def test_compound_bulk_and_scalar_samplers_agree_in_law():
    law = CompoundZeta(200, 0.4, 1.5)
    rng = Seed(51).generator()
    bulk = law.sample_many(rng, 40_000)
    scalar = np.array([compound_zeta_per_arc(law, rng) for _ in range(40_000)])
    hi = max(bulk.max(), scalar.max()) + 1
    pb = np.bincount(bulk, minlength=hi) / len(bulk)
    ps = np.bincount(scalar, minlength=hi) / len(scalar)
    assert 0.5 * np.abs(pb - ps).sum() < 0.015
    assert abs(bulk.mean() - law.mean()) < 0.02


# ---------------------------------------------------------------------------
# process recursion
# ---------------------------------------------------------------------------

def test_constant_zero_offspring():
    law = Empirical(((0, 1.0),))
    proc = run_gw(law, 4, 100, Seed(0).generator())
    assert proc.trajectory == [4, 3, 2, 1, 0]
    assert proc.extinction_time == 4
    assert proc.total_population == 0


def test_constant_one_offspring_never_dies():
    law = Empirical(((1, 1.0),))
    proc = run_gw(law, 2, 500, Seed(0).generator())
    assert proc.extinction_time is None
    assert set(proc.trajectory) == {2}


def test_replay_identity():
    rng = Seed(52).generator()
    for _ in range(50):
        proc = run_gw(Binomial(3, 0.4), 1, 200, rng)
        assert proc.replay_check()
        assert proc.total_population == sum(proc.offspring)
        if proc.extinction_time is not None:
            assert proc.trajectory[proc.extinction_time] == 0
            assert all(b > 0 for b in proc.trajectory[:proc.extinction_time])


def test_run_gw_validation():
    with pytest.raises(ValueError):
        run_gw(Binomial(2, 0.5), 0, 10, Seed(0).generator())
    with pytest.raises(ValueError):
        run_gw(Binomial(2, 0.5), 1, 0, Seed(0).generator())


# ---------------------------------------------------------------------------
# extinction oracle vs simulation
# ---------------------------------------------------------------------------

def test_extinction_probability_oracle_known_value():
    # Binomial(2, 0.75): pgf fixed point solves (1-p+ps)^2 = s -> q = 1/9
    q = extinction_probability(Binomial(2, 0.75))
    assert q == pytest.approx(1 / 9, abs=1e-9)
    # subcritical law is certain to die out
    assert extinction_probability(Binomial(2, 0.4)) == pytest.approx(1.0, abs=1e-6)


def test_extinction_is_exactly_certain_at_criticality():
    # mean 1: the iteration from 0 would stop about 2e-6 short of 1
    for law in (Binomial(2, 0.5), Binomial(3, 1 / 3)):
        assert law.mean() == 1 and extinction_probability(law) == 1.0
    # the point mass at 1 never dies out
    assert extinction_probability(Binomial(1, 1.0)) == 0.0
    # a supercritical law lands on the closed-form root of (0.6 + 0.4 s)^3 = s
    root = (-5.5 + math.sqrt(43.75)) / 2
    assert extinction_probability(Binomial(3, 0.4)) == pytest.approx(root, rel=0, abs=1e-15)


def test_survival_matches_fixed_point_oracle():
    law = Binomial(3, 0.4)  # mean 1.2
    trials = 10_000
    est = survival_probability(law, 1, 400, trials, Seed(53).generator())
    target = 1.0 - extinction_probability(law)
    sigma = math.sqrt(target * (1 - target) / trials)
    assert abs(est.fraction - target) < 3 * sigma
    assert est.low < target < est.high


def test_survival_validation():
    law = Binomial(3, 0.4)
    for b0, horizon, match in ((0, 10, "b0"), (-1, 10, "b0"), (1, -1, "horizon")):
        with pytest.raises(ValueError, match=match):
            survival_probability(law, b0, horizon, 10, Seed(0).generator())
    # horizon 0 is the initial population itself: every trial survives
    assert survival_probability(law, 1, 0, 10, Seed(0).generator()).fraction == 1.0


@pytest.mark.parametrize("law, b0, horizon", [
    (Binomial(3, 0.4), 1, 300), (Binomial(2, 0.4), 3, 300), (Binomial(3, 0.4), 2, 0),
    (GeometricCutoff(0.6, 4), 2, 200), (CompoundZeta(50, 0.3, 2.0), 1, 200),
    (Empirical(((0, 0.35), (1, 0.15), (3, 0.5))), 4, 150),
])
def test_survival_matches_the_masked_oracle(law, b0, horizon):
    """The compacted walks get the same draws as the masked loop: equal
    survivors and the same generator state afterwards."""
    trials = 3000
    got_rng, want_rng = Seed(56).generator(), Seed(56).generator()
    est = survival_probability(law, b0, horizon, trials, got_rng)
    survivors = survivors_masked(law, b0, horizon, trials, want_rng)
    assert est.fraction * trials == pytest.approx(survivors, abs=1e-6)
    assert survivors < trials or horizon == 0  # some walk died and was dropped
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_subcritical_survival_vanishes():
    law = Binomial(2, 0.4)  # mean 0.8
    est = survival_probability(law, 1, 1000, 10_000, Seed(54).generator())
    assert est.fraction <= 0.01


def test_survival_with_larger_initial_population():
    law = Binomial(3, 0.4)
    q = extinction_probability(law)
    trials = 10_000
    est = survival_probability(law, 5, 400, trials, Seed(55).generator())
    target = 1.0 - q ** 5
    sigma = math.sqrt(target * (1 - target) / trials)
    assert abs(est.fraction - target) < 4 * sigma


def test_conditional_linear_growth():
    # conditioned on survival, B_t / t settles near E[W] - 1
    law = Binomial(3, 0.4)
    horizon = 1000
    rng = Seed(56).generator()
    finals = []
    for _ in range(400):
        proc = run_gw(law, 1, horizon, rng)
        if proc.extinction_time is None:
            finals.append(proc.trajectory[-1] / horizon)
    assert len(finals) > 50
    assert np.median(finals) == pytest.approx(law.mean() - 1, rel=0.2)


# ---------------------------------------------------------------------------
# dominating compound law
# ---------------------------------------------------------------------------

def test_gw_upper_population_trivial():
    assert gw_upper_population(100, 0.0, 1.0, 10, Seed(0).generator()) == 0
    assert gw_upper_population(100, 0.5, 1.0, 0, Seed(0).generator()) == 0


def test_gw_upper_population_wald_mean():
    n, p, c, t = 10_000, 0.3, 1.0, 50
    rng = Seed(57).generator()
    total = sum(gw_upper_population(n, p, c, t, rng) for _ in range(2000))
    per_step = total / (2000 * t)
    assert per_step == pytest.approx(p * c * (1 + p) / (1 - p), rel=0.01)


def _neg_binom_rhs(y, x, p):
    # P(Bin(2y+x, 1-p) < 2y) by direct summation
    m = 2 * y + x
    return sum(math.comb(m, k) * (1 - p) ** k * p ** (m - k)
               for k in range(2 * y))


def _sum_geometric_tail(y, x, p):
    # P(sum of 2y geometric(p) variables > x) via exact convolution DP
    dist = {0: 1.0}
    for _ in range(2 * y):
        nxt = {}
        for total, prob in dist.items():
            for i in range(x - total + 1):
                nxt[total + i] = nxt.get(total + i, 0.0) + prob * p ** i * (1 - p)
        dist = nxt
    return 1.0 - sum(dist.values())


def test_negative_binomial_identity():
    y, x, p = 3, 5, 0.4
    assert _sum_geometric_tail(y, x, p) == pytest.approx(
        _neg_binom_rhs(y, x, p), abs=1e-10)


def test_partial_sum_tail_decays():
    # P(sum_{i<=t} W_i >= (1+2*delta)*mean*t) shrinks as t grows
    law = CompoundZeta(1000, 0.3, 1.0)
    delta, rng = 0.2, Seed(58).generator()
    tail = {}
    for t in (10, 40, 160):
        sums = law.sample_many(rng, 4000 * t).reshape(4000, t).sum(axis=1)
        tail[t] = float((sums >= (1 + 2 * delta) * law.mean() * t).mean())
    assert tail[160] <= tail[40] <= tail[10] + 0.01
    assert tail[160] < 0.05


@pytest.mark.parametrize("law", [Binomial(3, 0.5), GeometricCutoff(0.7, 4),
                                 CompoundZeta(200, 0.5, 2.0),
                                 Empirical(((0, 0.3), (2, 0.7)))],
                         ids=lambda law: type(law).__name__)
def test_run_gw_replays_with_every_law(law):
    rng = Seed(57).generator()
    for _ in range(20):
        proc = run_gw(law, 2, 100, rng)
        assert proc.replay_check()
        assert proc.total_population == sum(proc.offspring)
        assert all(isinstance(w, int) and w >= 0 for w in proc.offspring)
        assert len(proc.trajectory) == len(proc.offspring) + 1
