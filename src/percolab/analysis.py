"""Closed-form critical thresholds and the Monte Carlo experiments that
bracket them at finite n.

The closed forms are exact; the Monte Carlo side classifies a probe
probability as supercritical when the median largest-component fraction
reaches theta = GIANT_FRACTION_THETA, and subcritical when the median largest
component stays below beta * ln n with beta = MAX_COMP_LOG_BETA.  Both
constants are finite-size engineering choices and are recorded in every
result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .graphs import (
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


def _largest_component_size(model: ModelSpec, n: int, p: float,
                            seed: rngmod.Seed) -> int:
    gp, _ = model.percolated(n, p, seed)
    _, sizes = component_labels(gp)
    return int(sizes.max())


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


@dataclass
class ProbeResult:
    p: float
    median_largest: float
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


def classify_median(median_largest: float, n: int) -> str:
    if median_largest >= GIANT_FRACTION_THETA * n:
        return SUPER
    if median_largest <= MAX_COMP_LOG_BETA * math.log(n):
        return SUB
    return AMBIGUOUS


def probe_point(model: ModelSpec, n: int, p: float, trials: int,
                seed: rngmod.Seed, jobs: int = 1) -> ProbeResult:
    """Classify one probe probability from `trials` independent samples."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    args = [(model, n, p, rngmod.derive(seed, i)) for i in range(trials)]
    sizes = _pool_map(_largest_component_size, args, jobs)
    med = float(np.median(sizes))
    return ProbeResult(p, med, classify_median(med, n))


def estimate_threshold(model: ModelSpec, n: int, trials_per_point: int,
                       bracket_tolerance: float, seed: rngmod.Seed,
                       jobs: int = 1) -> ThresholdEstimate:
    """Bisection bracket of the critical probe probability.

    p=0 and p=1 are taken as subcritical/supercritical anchors without
    simulation.  An ambiguous probe (median between beta*ln n and theta*n,
    the finite-size window around p_c) is treated as "no giant observed"
    so the bracket keeps shrinking, but the result is flagged.
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
    lo, hi = 0.0, 1.0
    probes: list = []
    flagged = False
    probe_idx = 0
    while hi - lo > bracket_tolerance:
        mid = 0.5 * (lo + hi)
        res = probe_point(model, n, mid, trials_per_point,
                         rngmod.derive(seed, 1000 + probe_idx), jobs)
        probe_idx += 1
        probes.append(res)
        if res.classification == SUPER:
            hi = mid
        else:
            if res.classification == AMBIGUOUS:
                flagged = True
            lo = mid
    stat = (f"GiantFraction(theta={GIANT_FRACTION_THETA})/"
            f"MaxCompOverLogN(beta={MAX_COMP_LOG_BETA})")
    notes = ""
    if flagged:
        ambig = [r.p for r in probes if r.classification == AMBIGUOUS]
        notes = ("ambiguous classifications at p in "
                 f"{sorted(ambig)}; finite-size window around p_c")
    return ThresholdEstimate(lo, hi, stat, trials_per_point, n, probes,
                             flagged, notes)


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
    if len(giant) > size_cap or len(giant) < 2:
        return len(giant), None
    return len(giant), component_diameter(gp, giant)


def scaling_study(model: ModelSpec, p: float, n_list, trials: int,
                  seed: rngmod.Seed, jobs: int = 1,
                  size_cap: int = DIAMETER_SIZE_CAP) -> list:
    """Per-n medians of the largest component size, fraction, and exact
    diameter.  Diameter is skipped (flagged) when a component exceeds
    size_cap nodes."""
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be ascending")
    if trials < 1:
        raise ValueError("need trials >= 1")
    rows = []
    for block, n in enumerate(n_list):
        model.validate_n(n)
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
    component of at least n/k nodes."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    model.validate_n(n)
    args = [(model, n, p, rngmod.derive(seed, i), k) for i in range(trials)]
    hits = _pool_map(_survival_trial, args, jobs)
    return sum(hits) / trials
