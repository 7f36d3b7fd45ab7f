"""Closed-form critical thresholds and the Monte Carlo experiments that
bracket them at finite n.

The closed forms are exact.  On the Monte Carlo side a largest component
is a giant when it holds at least theta = GIANT_FRACTION_THETA of the n
nodes, and small when it stays below beta * ln n with beta =
MAX_COMP_LOG_BETA.  The threshold bracket runs coupled trials, one sample
and one per-edge draw each, and calls a probe probability supercritical
when a majority of the trials hold a giant there and subcritical when a
majority hold only small components.  Both constants are finite-size
engineering choices and are recorded in every result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .graphs import (
    GenericGraph,
    PercolationGraph,
    component_diameter,
    component_labels,
    connected_components,
    percolate,
    sample_regular,
    sample_swg_erdos,
    sample_swg_matching,
)

# finite-size classifier constants (see "Design notes" in the README)
GIANT_FRACTION_THETA = 0.02
MAX_COMP_LOG_BETA = 8.0
DIAMETER_SIZE_CAP = 100_000


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def critical_p_swg(c: float) -> float:
    """Critical bond-percolation probability for the ring + G(n, c/n)
    bridge model: the positive root of p*c*(1+p)/(1-p) = 1."""
    if c <= 0:
        raise ValueError("need c > 0")
    return (math.sqrt(c * c + 6 * c + 1) - c - 1) / (2 * c)


def critical_p_matching() -> float:
    """Critical probability for the ring + perfect-matching bridge model;
    the root of p*((1+p)/(1-p) - 1) = 1."""
    return 0.5


def critical_p_bounded_degree(d: int) -> float:
    """Subcritical boundary 1/(d-1) for graphs of maximum degree d."""
    if d < 2:
        raise ValueError("need d >= 2")
    return 1.0 / (d - 1)


def nonhomogeneous_criterion(p1: float, p2: float, c: float) -> float:
    """p1 + c*p1*p2 + c*p2 - 1; positive iff (p1, p2) is supercritical for
    the two-probability percolation (p1 on ring edges, p2 on bridges)."""
    if not (0 <= p1 <= 1 and 0 <= p2 <= 1):
        raise ValueError("probabilities out of range")
    if c <= 0:
        raise ValueError("need c > 0")
    return p1 + c * p1 * p2 + c * p2 - 1.0


def critical_r0(model: str, c: float = 1.0) -> float:
    """Critical basic reproduction number (mean percolated degree at p_c)."""
    tag = model.lower()
    if tag == "cycle":
        return 2.0
    if tag == "matching":
        return 1.5
    if tag == "swg":
        return (2.0 + c) * critical_p_swg(c)
    raise ValueError(f"unknown model: {model}")


# ---------------------------------------------------------------------------
# Monte Carlo models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """A samplable graph model plus the meaning of the probe probability.

    name in {"swg", "matching", "cycle", "nonhom", "regular"}; "cycle" is
    the swg model at c = 0 (the bare ring, no draws).  For "nonhom" the
    probe controls the bridge probability while the ring probability is
    held at p1; all other models percolate every edge at the probe value.
    """

    name: str
    c: float = 1.0
    p1: float = 0.5
    d: int = 3

    def __post_init__(self):
        if self.name not in ("swg", "matching", "cycle", "nonhom", "regular"):
            raise ValueError(f"unknown model: {self.name}")

    def validate_n(self, n: int) -> None:
        if self.name in ("matching",) and n % 2 != 0:
            raise ValueError("matching model requires even n")
        if self.name == "regular" and (n * self.d) % 2 != 0:
            raise ValueError("regular model requires even n*d")

    def sample(self, n: int, rng: np.random.Generator):
        if self.name in ("swg", "nonhom", "cycle"):
            return sample_swg_erdos(n, 0.0 if self.name == "cycle" else self.c, rng)
        if self.name == "matching":
            return sample_swg_matching(n, rng)
        return sample_regular(n, self.d, rng)

    def percolated(self, n: int, p: float, seed: rngmod.Seed) -> tuple:
        """(gp, rng): a graph sampled from the seed's stream and percolated
        at probe value p, and the stream for the trial's further draws."""
        rng = seed.generator()
        g = self.sample(n, rng)
        p_local = self.p1 if self.name == "nonhom" else p
        return percolate(g, p_local, p, rng), rng


def ProcessPoolExecutor(max_workers: int):
    """A `concurrent.futures.ProcessPoolExecutor`, imported on first use so
    that a serial run never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _pool_map(fn, args, jobs: int) -> list:
    if jobs <= 1 or len(args) <= 1:
        return [fn(*a) for a in args]
    # a fork pool starts all its workers at the first submit, so ask for
    # no more than there are calls
    with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
        return list(pool.map(fn, *zip(*args)))


def default_jobs() -> int:
    env = os.environ.get("PERCOLAB_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# threshold bracketing
# ---------------------------------------------------------------------------

SUB = "subcritical"
SUPER = "supercritical"
AMBIGUOUS = "ambiguous"


def classify_largest(largest: float, n: int) -> str:
    """Supercritical when a largest component of `largest` nodes is a giant
    (at least theta * n), else subcritical when it is small (at most
    beta * ln n), else ambiguous."""
    if largest >= GIANT_FRACTION_THETA * n:
        return SUPER
    if largest <= MAX_COMP_LOG_BETA * math.log(n):
        return SUB
    return AMBIGUOUS


@dataclass
class ProbeResult:
    p: float
    giant_trials: int
    small_trials: int
    classification: str


@dataclass
class ThresholdEstimate:
    p_low: float
    p_high: float
    statistic: str
    trials_per_point: int
    n: int
    probes: list
    flagged: bool
    notes: str = ""

    @property
    def width(self) -> float:
        return self.p_high - self.p_low

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.p_low + self.p_high)


def probe_point(p: float, giant_trials: int, small_trials: int,
                trials: int) -> ProbeResult:
    """Classify grid probability p from how many of the `trials` trials hold
    a giant there and how many only small components: supercritical when
    the giant ones are a majority (at least trials // 2 + 1), subcritical
    when the small ones are, and ambiguous otherwise."""
    majority = trials // 2 + 1
    if giant_trials >= majority:
        kind = SUPER
    elif small_trials >= majority:
        kind = SUB
    else:
        kind = AMBIGUOUS
    return ProbeResult(p, giant_trials, small_trials, kind)


class _Contracted:
    """A trial's graph at a grid level m that holds no giant: each component
    at m is one node, weighted by its size, and the edges whose levels lie
    above m and below the lowest level known to hold a giant join them,
    u < v, sorted by level."""

    def __init__(self, weight: np.ndarray, u: np.ndarray, v: np.ndarray,
                 level: np.ndarray):
        # edges inside one component join nothing; dropping them keeps the
        # levels sorted
        keep = np.flatnonzero(u != v)
        u, v = u.take(keep), v.take(keep)
        self.u, self.v = np.minimum(u, v), np.maximum(u, v)
        self.level = level.take(keep)
        self.weight = weight
        self.heaviest = int(weight.max())

    def largest(self, m: int) -> tuple:
        """(size, grouping): the largest component size at level m, and what
        `contract` needs to contract there.  Only the nodes that edges up to
        m touch are labelled; every other component keeps its weight, and
        none is heavier than the heaviest node."""
        cut = int(np.searchsorted(self.level, m, side="right"))
        if not cut:
            none = np.empty(0, dtype=np.int64)
            return self.heaviest, (none, none, none, cut)
        u, v = self.u[:cut], self.v[:cut]
        k = len(self.weight)
        hit = np.zeros(k, dtype=bool)
        hit[u] = True
        hit[v] = True
        touched = np.flatnonzero(hit)
        pos = np.empty(k, dtype=np.int64)
        pos[touched] = np.arange(len(touched))
        labels, _ = component_labels(GenericGraph(len(touched), pos.take(u), pos.take(v)))
        merged = np.bincount(labels, weights=self.weight.take(touched)).astype(np.int64)
        return max(self.heaviest, int(merged.max())), (touched, labels, merged, cut)

    def contract(self, m: int, top: int, grouping: tuple) -> "_Contracted":
        """The graph at level m, below a giant at level top, from the
        grouping `largest(m)` returned."""
        touched, labels, merged, cut = grouping
        k = len(self.weight)
        rest = np.ones(k, dtype=bool)
        rest[touched] = False
        rest = np.flatnonzero(rest)
        node = np.empty(k, dtype=np.int64)
        node[touched] = labels
        node[rest] = len(merged) + np.arange(len(rest))
        end = int(np.searchsorted(self.level, top))
        return _Contracted(np.concatenate([merged, self.weight.take(rest)]),
                           node.take(self.u[cut:end]), node.take(self.v[cut:end]),
                           self.level[cut:end])


class _CoupledTrial:
    """One threshold trial at grid level 0: its graph and its one draw, cut
    at the levels of the 2^depth grid.

    An edge with retention uniform u has level floor(u * 2^depth) + 1, so it
    is retained at level m (probability m / 2^depth) exactly when
    u < m / 2^depth, and the retained edge sets grow with m.  A nonhom ring
    stays as drawn at p1: its retained edges get level 0 and the others a
    level above the grid.  Labels at a level come from `component_labels`
    on the percolated graph there.
    """

    def __init__(self, gp, depth: int, fixed_ring: bool):
        self.base, self.scale = gp.base, 1 << depth
        # u * 2^depth is exact, so its integer part is the floor
        self.level = (gp.uniforms * self.scale).astype(np.int16)
        self.level += 1
        # a fixed ring keeps its own probability
        self.p_local = gp.p_local if fixed_ring else None
        if fixed_ring:
            local = self.base.num_local
            self.level[:local] = np.where(gp.retained[:local], 0, self.scale + 1)

    def largest(self, m: int) -> tuple:
        """(size, grouping) at level m, as `_Contracted.largest`."""
        p = m / self.scale
        gp = PercolationGraph(self.base, self.level <= m,
                              p if self.p_local is None else self.p_local, p)
        labels, sizes = component_labels(gp)
        return int(sizes.max()), (labels, sizes)

    def contract(self, m: int, top: int, grouping: tuple) -> _Contracted:
        labels, sizes = grouping
        e = np.flatnonzero((self.level > m) & (self.level < top))
        u, v = (labels.take(ends) for ends in self.base.ends(e))
        level = self.level.take(e)
        order = np.argsort(level, kind="stable")
        return _Contracted(sizes, u.take(order), v.take(order), level.take(order))


def _trial_crossings(model: ModelSpec, n: int, depth: int,
                     seed: rngmod.Seed) -> tuple:
    """(g, s) for one trial on the 2^depth grid: g the lowest level in
    1..2^depth - 1 whose largest component is a giant (2^depth if none),
    s the highest whose largest component is small (0 if none).

    The trial is one sample percolated at probability 1/2 from the seed's
    stream; every other level cuts the same draw, so the largest component
    grows with the level and each crossing is found by bisection.  The
    giant crossing is bisected first; each answer also bounds s, and one
    that holds no giant contracts the graph there, keeping only the edges
    between it and the lowest giant level so far.  The small crossing is
    then bisected from the contraction at the highest small level seen.
    """
    gp, _ = model.percolated(n, 0.5, seed)
    stage = _CoupledTrial(gp, depth, model.name == "nonhom")
    del gp  # the levels replace its uniforms
    lo, hi = 0, 1 << depth
    s_stage, s_lo, s_hi = stage, lo, hi
    while hi - lo > 1:
        m = (lo + hi) // 2
        size, grouping = stage.largest(m)
        kind = classify_largest(size, n)
        if kind == SUPER:
            hi = m
            s_hi = min(s_hi, m)
            continue
        stage, lo = stage.contract(m, hi, grouping), m
        if kind == SUB:
            s_stage, s_lo = stage, m
        else:
            s_hi = min(s_hi, m)
    giant = hi
    stage, lo, hi = s_stage, s_lo, s_hi
    while hi - lo > 1:
        m = (lo + hi) // 2
        size, grouping = stage.largest(m)
        if classify_largest(size, n) == SUB:
            stage, lo = stage.contract(m, hi, grouping), m
        else:
            hi = m
    return giant, lo


def estimate_threshold(model: ModelSpec, n: int, trials_per_point: int,
                       bracket_tolerance: float, seed: rngmod.Seed,
                       jobs: int = 1) -> ThresholdEstimate:
    """Bisection bracket of the critical probe probability, from coupled
    trials on the dyadic grid that the tolerance implies.

    The grid has 2^D levels, D the number of halvings of [0, 1] that bring
    the bracket within the tolerance.  Trial i samples one graph from
    stream derive(seed, i) and draws one uniform per edge; an edge is
    retained at every level above its uniform, so each trial's largest
    component grows with the level, and the trial records two crossings
    (`_trial_crossings`): the lowest level holding a giant and the highest
    holding only small components.  `jobs` workers take whole trials, so the
    result does not depend on it.  The bisection then reads each level's
    classification off the crossings (`probe_point`); p=0 and p=1 are
    taken as subcritical/supercritical anchors without simulation.  An
    ambiguous level (no majority of giant or of small trials, the
    finite-size window around p_c) is treated as "no giant observed" so the
    bracket keeps shrinking, but the result is flagged.
    """
    if n < 1000:
        raise ValueError("need n >= 1000 for a meaningful classification")
    if bracket_tolerance < 0.005:
        raise ValueError("bracket tolerance below resolution floor (0.005)")
    if not bracket_tolerance < 1:  # also refuses nan
        raise ValueError("bracket tolerance must be below 1, the width of the "
                         "starting bracket [0, 1]")
    if trials_per_point < 1:
        raise ValueError("need trials >= 1")
    model.validate_n(n)
    depth = 1
    while 0.5 ** depth > bracket_tolerance:
        depth += 1
    args = [(model, n, depth, rngmod.derive(seed, i)) for i in range(trials_per_point)]
    giant, small = np.array(_pool_map(_trial_crossings, args, jobs)).T
    scale = 1 << depth
    lo, hi = 0, scale
    probes: list = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        res = probe_point(mid / scale, int(np.sum(giant <= mid)),
                          int(np.sum(small >= mid)), trials_per_point)
        probes.append(res)
        if res.classification == SUPER:
            hi = mid
        else:
            lo = mid
    stat = (f"TrialMajority(GiantFraction(theta={GIANT_FRACTION_THETA})/"
            f"MaxCompOverLogN(beta={MAX_COMP_LOG_BETA}), coupled grid 2^-{depth})")
    ambig = sorted(r.p for r in probes if r.classification == AMBIGUOUS)
    notes = ""
    if ambig:
        notes = ("ambiguous classifications at p in "
                 f"{ambig}; finite-size window around p_c")
    return ThresholdEstimate(lo / scale, hi / scale, stat, trials_per_point, n,
                             probes, bool(ambig), notes)


# ---------------------------------------------------------------------------
# scaling and survival studies
# ---------------------------------------------------------------------------

@dataclass
class ScalingRow:
    n: int
    median_max_component: float
    median_giant_fraction: float
    median_giant_diameter: Optional[float]
    diameter_skipped: bool


def _scaling_trial(model: ModelSpec, n: int, p: float,
                   seed: rngmod.Seed, size_cap: int) -> tuple:
    gp, _ = model.percolated(n, p, seed)
    giant = connected_components(gp)[0]
    if len(giant) > size_cap:
        return len(giant), None
    return len(giant), component_diameter(gp, giant)


def scaling_study(model: ModelSpec, p: float, n_list, trials: int,
                  seed: rngmod.Seed, jobs: int = 1,
                  size_cap: int = DIAMETER_SIZE_CAP) -> list:
    """Per-n medians of the largest component size, fraction, and exact
    diameter.  Diameter is skipped (flagged) when a component exceeds
    size_cap nodes.  Every n is validated before the first trial runs."""
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be ascending")
    if trials < 1:
        raise ValueError("need trials >= 1")
    for n in n_list:
        model.validate_n(n)
    rows = []
    for block, n in enumerate(n_list):
        sub = rngmod.derive(seed, block)
        args = [(model, n, p, rngmod.derive(sub, i), size_cap)
                for i in range(trials)]
        results = _pool_map(_scaling_trial, args, jobs)
        sizes = [s for s, _ in results]
        diams = [d for _, d in results if d is not None]
        skipped = len(diams) < len(results)
        rows.append(ScalingRow(
            n,
            float(np.median(sizes)),
            float(np.median(sizes)) / n,
            float(np.median(diams)) if diams else None,
            skipped,
        ))
    return rows


def _survival_trial(model: ModelSpec, n: int, p: float,
                    seed: rngmod.Seed, k: int) -> bool:
    gp, rng = model.percolated(n, p, seed)
    s = int(rng.integers(n))
    labels, sizes = component_labels(gp)
    return bool(sizes[labels[s]] >= n // k)


def survival_from_single_source(model: ModelSpec, p: float, n: int,
                                trials: int, seed: rngmod.Seed,
                                jobs: int = 1, k: int = 20) -> float:
    """Fraction of trials in which a uniform random source lands in a
    component of at least n/k nodes, for k >= 1."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    if k < 1:
        raise ValueError("need k >= 1")
    model.validate_n(n)
    args = [(model, n, p, rngmod.derive(seed, i), k) for i in range(trials)]
    hits = _pool_map(_survival_trial, args, jobs)
    return sum(hits) / trials
