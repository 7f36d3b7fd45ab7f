"""The benchmark's workloads: what one pass runs and how its outputs are
checked against independent oracles.

Every workload is closed-loop (one caller, one operation at a time, one
process) and drives the public entry point `percolab.cli.main` at
`--jobs 1`.  Sizes come in two sets: "full" for measurement and "smoke"
for a quick end-to-end exercise of every operation, check and span.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Op:
    """One timed operation: a CLI invocation or a library call."""

    label: str                       # unique within a pass
    metric: str                      # per-command metric the time adds to
    argv: list = field(default_factory=list)
    out: Optional[str] = None        # path of the data CSV the command writes
    ok_codes: tuple = (0,)
    fn: Optional[Callable] = None    # library call; returns a number


def read_rows(path: str) -> list:
    """Data rows of a percolab CSV: header and `#` comment lines dropped."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]


def read_manifest(path: str) -> dict:
    with open(path + ".manifest.json") as fh:
        return json.load(fh)


def critical_p_swg(c: float) -> float:
    """Positive root of p c (1+p)/(1-p) = 1 (ring + G(n, c/n) bridges)."""
    return (math.sqrt(c * c + 6 * c + 1) - c - 1) / (2 * c)


def expected_truncated_size(p: float, L: int) -> float:
    """E|LC^L(v)| on a long ring: 1 + 2 sum_{k=1..L} p^k."""
    return 1 + 2 * sum(p ** k for k in range(1, L + 1))


def binomial_survival(n: int, p: float) -> float:
    """1 - q for q the smallest fixed point of s -> (1 - p + p s)^n."""
    q = 0.0
    for _ in range(100_000):
        nxt = (1 - p + p * q) ** n
        if abs(nxt - q) < 1e-15:
            break
        q = nxt
    return 1.0 - q


class Workload:
    name = ""
    sizes: dict = {}
    # expected spans and counters of the traced run (setup and pass)
    spans: tuple = ()

    def __init__(self, work: str, seed: int, smoke: bool):
        self.work = work
        self.seed = seed
        self.size = self.sizes["smoke" if smoke else "full"]

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def cli(self, label, metric, argv, out, ok_codes=(0,)) -> Op:
        out = self.path(out)
        return Op(label, metric, argv + ["--seed", str(self.seed), "--out", out], out, ok_codes)

    def setup_ops(self) -> list:
        """Commands that make the input files; timed as part of setup_s."""
        return []

    def prepare(self, percolab) -> None:
        """Untimed oracle work after set-up."""

    def ops(self, percolab) -> list:
        raise NotImplementedError

    def check(self, values: dict, check) -> None:
        """Check the outputs of one pass; `check(name, ok, detail)`."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class Threshold(Workload):
    """The paper's headline experiment: both threshold brackets at n = 2e5
    plus the vectorized truncated-cluster Monte Carlo.  No visit, epidemic,
    diameter or edge-file I/O runs."""

    name = "threshold"
    sizes = {
        "full": dict(n=200_000, trials=30, tol=0.02, mc_n=100_000, mc_L=10, mc_trials=50),
        "smoke": dict(n=20_000, trials=5, tol=0.1, mc_n=20_000, mc_L=10, mc_trials=5),
    }
    spans = ("cli.threshold", "analysis.threshold", "analysis.probe", "graphs.sample",
             "graphs.percolate", "graphs.labels", "local_clusters.mc", "rng.streams")
    _models = (("swg", ["--c", "1"]), ("matching", []))
    _mc_ps = (0.3, 0.7)

    def ops(self, percolab) -> list:
        z = self.size
        out = []
        for model, extra in self._models:
            out.append(self.cli(
                f"threshold-{model}", "cmd.threshold_s",
                ["threshold", "--model", model, *extra, "--n", str(z["n"]),
                 "--trials", str(z["trials"]), "--tol", str(z["tol"]), "--jobs", "1"],
                f"threshold-{model}.csv", ok_codes=(0, 3)))
        lc = percolab.local_clusters
        for stream, p in enumerate(self._mc_ps, start=1):
            rng_seed = percolab.rng.Seed(self.seed, stream)
            # looked up at call time, so the traced run sees its wrapper
            out.append(Op(f"truncated-mc-{p}", "lib.truncated_mc_s", fn=(
                lambda p=p, s=rng_seed: lc.mean_truncated_size_mc(
                    z["mc_n"], p, z["mc_L"], z["mc_trials"], s.generator()))))
        return out

    def check(self, values, check):
        z = self.size
        targets = {"swg": critical_p_swg(1.0), "matching": 0.5}
        for model, _ in self._models:
            m = read_manifest(self.path(f"threshold-{model}.csv"))
            lo, hi = m["p_low"], m["p_high"]
            check(f"threshold-{model}.bracket",
                  hi - lo <= 2 * z["tol"] and lo <= targets[model] <= hi,
                  f"[{lo:.4f}, {hi:.4f}] vs p_c {targets[model]:.4f}")
        for p in self._mc_ps:
            want = expected_truncated_size(p, z["mc_L"])
            got = float(values[f"truncated-mc-{p}"])
            check(f"truncated-mc-{p}.rel_error", abs(got - want) / want <= 0.01,
                  f"{got:.5f} vs exact {want:.5f}")


class Scaling(Workload):
    """`percolab scaling` above and below p_c.  The supercritical leg is
    dominated by exact giant diameters, the subcritical leg by building one
    Python set per component, so the two legs respond to different levers.
    The supercritical leg uses many mid-sized graphs rather than a few large
    ones: the number of BFS sweeps per giant varies by about 30% between
    graphs, and averaging over 60 giants keeps the leg's time steady across
    seeds."""

    name = "scaling"
    sizes = {
        "full": dict(super_n="8192,16384", super_trials=30, sub_n="16384,65536", sub_trials=50),
        "smoke": dict(super_n="1024,4096", super_trials=4, sub_n="1024,4096", sub_trials=4),
    }
    spans = ("cli.scaling", "analysis.scaling", "graphs.sample", "graphs.percolate",
             "graphs.components", "graphs.labels", "graphs.diameter", "graphs.sweep",
             "rng.streams")
    _legs = (("super", 0.55), ("sub", 0.3))

    def ops(self, percolab) -> list:
        z = self.size
        return [self.cli(f"scaling-{leg}", "cmd.scaling_s",
                         ["scaling", "--model", "swg", "--p", str(p),
                          "--n-list", z[f"{leg}_n"], "--trials", str(z[f"{leg}_trials"]),
                          "--jobs", "1"], f"scaling-{leg}.csv")
                for leg, p in self._legs]

    def check(self, values, check):
        sup = [(int(r[0]), float(r[1]), float(r[2]), r[3]) for r in
               read_rows(self.path("scaling-super.csv"))]
        check("scaling-super.giant_fraction", all(f >= 0.05 for _, _, f, _ in sup),
              str([f for _, _, f, _ in sup]))
        has_diam = all(d != "" for *_, d in sup)
        check("scaling-super.diameter_present", has_diam, str([d for *_, d in sup]))
        if has_diam:
            ratio = [float(d) / math.log(n) for n, _, _, d in sup]
            check("scaling-super.diameter_log_ratio", ratio[-1] <= 2 * ratio[0],
                  f"diameter/ln n {ratio}")
        sub = [(int(r[0]), float(r[1])) for r in read_rows(self.path("scaling-sub.csv"))]
        ratio = [m / math.log(n) for n, m in sub]
        check("scaling-sub.max_component_log_ratio", ratio[-1] <= 2 * ratio[0],
              f"max component/ln n {ratio}")


class Explore(Workload):
    """Per-node Python paths on two n = 2e5 edge files, none of which
    `threshold` runs: edge-file loading, list adjacency builders, the visit
    engines with their ring occupancy queries, and the epidemic simulator.
    Every command re-reads its edge file; measured, loading and the
    epidemic simulator take most of a pass."""

    name = "explore"
    sizes = {
        "full": dict(n=200_000, eq_trials=20_000, gw_trials=10_000, sources=16),
        "smoke": dict(n=20_000, eq_trials=2_000, gw_trials=2_000, sources=4),
    }
    spans = ("cli.generate", "graphs.save", "graphs.sample",
             "cli.visit", "cli.epidemic", "cli.percolate", "cli.equivalence", "cli.gw",
             "graphs.load", "graphs.percolate", "graphs.adjacency",
             "local_clusters.truncated", "local_clusters.free_queries",
             "visits.search", "visits.union", "visits.bfs",
             "epidemic.simulate", "epidemic.reach_law", "epidemic.exact",
             "branching.survival", "branching.extinction", "branching.offspring_draws",
             "branching.pgf_calls", "rng.streams")
    _p = 0.55
    _p_sub = 0.3
    _eq_p = 0.5
    _gw = (3, 0.4)

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed, smoke)
        self.fixture = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "fixtures", "six.edges")
        self.oracle: dict = {}

    def setup_ops(self):
        n = str(self.size["n"])
        return [self.cli("generate-swg", "setup", ["generate", "--model", "swg", "--n", n,
                                                   "--c", "1"], "swg.edges"),
                self.cli("generate-matching", "setup", ["generate", "--model", "matching",
                                                        "--n", n], "matching.edges")]

    def prepare(self, percolab):
        """Component sizes of the percolated edge files on the commands'
        own seed, by the labels pass (an independent route from the visit
        engines); the visit source is the smallest node of the largest
        component, so union and bfs start inside the giant."""
        graphs = percolab.graphs
        for graph, p in (("swg", self._p), ("swg", self._p_sub), ("matching", self._p)):
            g = graphs.load_edge_list(self.path(f"{graph}.edges"))
            gp = graphs.percolate(g, p, p, percolab.rng.Seed(self.seed).generator())
            labels, sizes = graphs.component_labels(gp)
            giant = int(sizes.argmax())
            self.oracle[(graph, p)] = int(sizes[giant])
            if (graph, p) == ("swg", self._p):
                self.source = int((labels == giant).nonzero()[0].min())
                self.retained_edges = len(gp.active_edge_arrays()[0])

    def ops(self, percolab):
        z = self.size
        swg, matching = self.path("swg.edges"), self.path("matching.edges")
        p, ps = str(self._p), str(self._p_sub)
        src = ["--source", str(self.source)]

        def visit(label, graph, alg, pl, extra=()):
            return self.cli(label, "cmd.visit_s", ["visit", "--graph", graph, "--algorithm", alg,
                                                  "--p-local", pl, *extra], f"{label}.csv")

        # several initiators, so the epidemic cannot die out at the start
        sources = []
        for i in range(z["sources"]):
            sources += ["--source", str(i * z["n"] // z["sources"])]
        return [
            visit("visit-search", swg, "search", p),
            visit("visit-search-sub", swg, "search", ps),
            visit("visit-union", swg, "union", p, src),
            visit("visit-bfs", swg, "bfs", p, src),
            visit("visit-matching-search", matching, "matching-search", p),
            self.cli("epidemic-rf", "cmd.epidemic_s",
                     ["epidemic", "--graph", swg, "--process", "rf", "--p", p, *sources],
                     "epidemic-rf.csv"),
            self.cli("epidemic-seir", "cmd.epidemic_s",
                     ["epidemic", "--graph", swg, "--process", "seir", "--p", p,
                      "--incubation", "geometric:0.5", *sources], "epidemic-seir.csv"),
            self.cli("percolate", "cmd.percolate_s",
                     ["percolate", "--graph", swg, "--p-local", p], "percolate.csv"),
            self.cli("equivalence", "cmd.equivalence_s",
                     ["equivalence", "--graph", self.fixture, "--p", str(self._eq_p),
                      "--trials", str(z["eq_trials"])], "equivalence.csv"),
            self.cli("gw", "cmd.gw_s",
                     ["gw", "--law", "binomial:%d:%g" % self._gw,
                      "--trials", str(z["gw_trials"])], "gw.csv"),
        ]

    def check(self, values, check):
        z = self.size
        runs = {"visit-search": ("swg", self._p), "visit-search-sub": ("swg", self._p_sub),
                "visit-union": ("swg", self._p), "visit-bfs": ("swg", self._p),
                "visit-matching-search": ("matching", self._p)}
        reasons = {"visit-search": "ReachedLinearSize", "visit-search-sub": "IterationCap"}
        for label, key in runs.items():
            m = read_manifest(self.path(f"{label}.csv"))
            seen = m["final_q"] + m["final_r"]
            check(f"{label}.within_largest", seen <= self.oracle[key],
                  f"q+r {seen} vs largest component {self.oracle[key]}")
            if label in reasons:
                check(f"{label}.terminated", m["terminated"] == reasons[label],
                      f"{m['terminated']} (want {reasons[label]})")
            if label == "visit-bfs":
                want = self.oracle[("swg", self._p)]
                check("visit-bfs.component_size", m["final_r"] == want and m["final_q"] == 0,
                      f"r {m['final_r']} vs source component {want}")
        n = z["n"]
        for label in ("epidemic-rf", "epidemic-seir"):
            rows = [[int(x) for x in r] for r in read_rows(self.path(f"{label}.csv"))]
            check(f"{label}.partition", all(s + e + i + r == n for _, s, e, i, r in rows),
                  f"{len(rows)} rows")
            last = rows[-1]
            check(f"{label}.extinct", last[2] == 0 and last[3] == 0, f"last row {last}")
        rows = read_rows(self.path("percolate.csv"))
        check("percolate.retained_edges", len(rows) == self.retained_edges,
              f"{len(rows)} rows vs {self.retained_edges} retained edges")
        limit = 0.01 * math.sqrt(1e5 / z["eq_trials"])
        for name, tv in read_rows(self.path("equivalence.csv")):
            check(f"equivalence.{name}", float(tv) <= limit, f"TV {tv} vs {limit:.4f}")
        (row,) = read_rows(self.path("gw.csv"))
        est, trials = float(row[1]), int(row[0])
        want = binomial_survival(*self._gw)
        sigma = math.sqrt(want * (1 - want) / trials)
        check("gw.survival", abs(est - want) <= 3 * sigma,
              f"{est:.4f} vs oracle {want:.4f} (3 sigma {3 * sigma:.4f})")


WORKLOADS = {w.name: w for w in (Threshold, Scaling, Explore)}
