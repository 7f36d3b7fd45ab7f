"""Galton-Watson branching processes with the offspring laws that dominate
the visit-queue evolution.

The population recursion is B_t = B_{t-1} + W_t - 1 with i.i.d. offspring
W_t; extinction time sigma = min{t : B_t = 0}.  The compound law draws
Y ~ Bin(n, pc/n) bridge children and, for each, two geometric arcs of
retained ring edges, so a single W sample has mean pc(1+p)/(1-p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


# ---------------------------------------------------------------------------
# offspring laws
# ---------------------------------------------------------------------------

class OffspringLaw:
    """Base class: a nonnegative-integer-valued offspring distribution.

    A law declares `mean`, `pgf` and one sampler, `sample_many`; `run_gw`
    draws its single offspring through it as well.
    """

    def mean(self) -> float:
        raise NotImplementedError

    def pgf(self, s: float) -> float:
        """Probability generating function E[s^W] for s in [0, 1]."""
        raise NotImplementedError

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` i.i.d. draws as an int64 array."""
        raise NotImplementedError


@dataclass(frozen=True)
class Binomial(OffspringLaw):
    n: int
    p: float

    def __post_init__(self):
        if self.n < 0 or not 0.0 <= self.p <= 1.0:
            raise ValueError("need n >= 0 and p in [0,1]")

    def mean(self) -> float:
        return self.n * self.p

    def pgf(self, s: float) -> float:
        return (1 - self.p + self.p * s) ** self.n

    def sample_many(self, rng, size) -> np.ndarray:
        return rng.binomial(self.n, self.p, size=size).astype(np.int64)


@dataclass(frozen=True)
class GeometricCutoff(OffspringLaw):
    """Number of successes before the first failure, truncated at L:
    P(i) = p^i (1-p) for i < L, and P(L) = p^L.

    This is the law of the one-sided truncated cluster reach |RN^L|.
    """

    p: float
    L: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0 or self.L < 1:
            raise ValueError("need p in [0,1] and L >= 1")

    def pmf(self) -> np.ndarray:
        p, L = self.p, self.L
        out = np.array([p ** i * (1 - p) for i in range(L)] + [p ** L])
        return out

    def mean(self) -> float:
        pm = self.pmf()
        return float(np.dot(np.arange(self.L + 1), pm))

    def pgf(self, s: float) -> float:
        return float(np.dot(s ** np.arange(self.L + 1), self.pmf()))

    def sample_many(self, rng, size) -> np.ndarray:
        # inverse CDF on the explicit pmf
        cdf = np.cumsum(self.pmf())
        u = rng.random(size)
        return np.searchsorted(cdf, u, side="right").astype(np.int64)


@dataclass(frozen=True)
class CompoundZeta(OffspringLaw):
    """W = Y + sum_{j=1}^{2Y} L_j with Y ~ Bin(n, pc/n) and L_j i.i.d.
    geometric (successes before first failure, success probability p)."""

    n: int
    p: float
    c: float

    def __post_init__(self):
        if self.n < 1 or not 0 < self.c < math.inf:
            raise ValueError("need n >= 1 and finite c > 0")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p out of range")
        if self.p >= 1.0:
            raise ValueError("mean diverges at p=1")
        if self.p * self.c / self.n > 1:
            raise ValueError("pc/n must be a probability")

    @property
    def theta(self) -> float:
        return self.p * self.c / self.n

    def mean(self) -> float:
        # E[W] = E[Y](1 + 2 E[L]) with E[L] = p/(1-p)
        return self.p * self.c * (1 + self.p) / (1 - self.p)

    def pgf(self, s: float) -> float:
        # E[s^L] = (1-p)/(1-ps); each Y-child contributes s * E[s^L]^2
        if s == 1.0:
            return 1.0
        g_l = (1 - self.p) / (1 - self.p * s)
        return (1 - self.theta + self.theta * s * g_l ** 2) ** self.n

    def sample_many(self, rng, size) -> np.ndarray:
        # the 2y arcs, each a count of successes before the first failure,
        # sum to NegBin(2y, 1-p); tests/oracles.py draws them one by one
        ys = rng.binomial(self.n, self.theta, size=size)
        out = ys.astype(np.int64)
        pos = ys > 0
        if self.p > 0 and pos.any():
            out[pos] += rng.negative_binomial(2 * ys[pos], 1 - self.p)
        return out


@dataclass(frozen=True)
class Empirical(OffspringLaw):
    """Explicit finite pmf over nonnegative integers."""

    pmf: tuple  # of (value, probability)

    def __post_init__(self):
        total = sum(q for _, q in self.pmf)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {total}, not 1")
        if any(q < 0 or q > 1 for _, q in self.pmf):
            raise ValueError("probabilities out of range")
        if any(v < 0 or v != int(v) for v, _ in self.pmf):
            raise ValueError("support must be nonnegative integers")

    def mean(self) -> float:
        return float(sum(v * q for v, q in self.pmf))

    def pgf(self, s: float) -> float:
        return float(sum(q * s ** v for v, q in self.pmf))

    def sample_many(self, rng, size) -> np.ndarray:
        vals = np.array([v for v, _ in self.pmf], dtype=np.int64)
        probs = np.array([q for _, q in self.pmf])
        probs = probs / probs.sum()
        return rng.choice(vals, size=size, p=probs)


# ---------------------------------------------------------------------------
# process simulation
# ---------------------------------------------------------------------------

@dataclass
class GWProcess:
    law: OffspringLaw
    trajectory: list           # B_0, B_1, ..., (length <= max_steps + 1)
    offspring: list            # W_1, W_2, ... actually drawn
    extinction_time: Optional[int]
    total_population: int

    def replay_check(self) -> bool:
        """Verify B_t = B_{t-1} + W_t - 1 holds at every recorded step."""
        b = self.trajectory
        for t, w in enumerate(self.offspring, start=1):
            if b[t] != b[t - 1] + w - 1:
                return False
        return True


def run_gw(law: OffspringLaw, b0: int, max_steps: int,
           rng: np.random.Generator) -> GWProcess:
    """Simulate B_t = B_{t-1} + W_t - 1 from B_0 = b0 for up to max_steps
    steps or until extinction, whichever comes first."""
    if b0 < 1:
        raise ValueError("need b0 >= 1")
    if max_steps < 1:
        raise ValueError("need max_steps >= 1")
    b = b0
    trajectory = [b0]
    offspring = []
    total = 0
    ext = None
    for t in range(1, max_steps + 1):
        w = int(law.sample_many(rng, 1)[0])
        offspring.append(w)
        total += w
        b = b + w - 1
        trajectory.append(b)
        if b == 0:
            ext = t
            break
    return GWProcess(law, trajectory, offspring, ext, total)


def extinction_probability(law: OffspringLaw, tol: float = 1e-12,
                           max_iter: int = 10_000_000) -> float:
    """Smallest fixed point of the pgf in [0, 1], by iteration from 0.

    Analytic oracle for survival-frequency tests: independent of any
    simulation path.
    """
    s = 0.0
    for _ in range(max_iter):
        nxt = law.pgf(s)
        if abs(nxt - s) < tol:
            return nxt
        s = nxt
    return s


@dataclass
class SurvivalEstimate:
    fraction: float
    low: float
    high: float
    trials: int


def _wilson(successes: int, trials: int, z: float = 1.96):
    if trials == 0:
        return 0.0, 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return phat, max(0.0, center - half), min(1.0, center + half)


def survival_probability(law: OffspringLaw, b0: int, horizon: int,
                         trials: int, rng: np.random.Generator) -> SurvivalEstimate:
    """Fraction of runs with B_horizon > 0, with a 95% Wilson interval.

    Vectorized: the populations of the live walks, kept in trial order,
    advance together one step per loop iteration on one offspring draw for
    each, and a walk that dies is dropped on the step it dies.
    """
    if b0 < 1:
        raise ValueError("need b0 >= 1")
    if horizon < 0:
        raise ValueError("need horizon >= 0")
    if trials < 1:
        raise ValueError("need trials >= 1")
    live = np.full(trials, b0, dtype=np.int64)
    for _ in range(horizon):
        if not len(live):
            break
        live += law.sample_many(rng, len(live)) - 1
        if live.min() == 0:  # offspring counts are >= 0, so B_t >= 0
            live = live[live > 0]
    frac, lo, hi = _wilson(len(live), trials)
    return SurvivalEstimate(frac, lo, hi, trials)
