"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files: `Tracer.install`
replaces every binding of a percolab public function (including names other
modules imported directly, such as `analysis.component_labels`) with a
wrapper that opens a span around the call, and `uninstall` puts the
originals back.  Nothing is added inside the package itself.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict


# a RingOccupancy.min_distance answer of at least L + 1 marks a free node;
# the workloads run the visits at the CLI's default truncation L = 10
FREE_DISTANCE = 11


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []
        self.roots: list = []    # (op label, index of the op's span)

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, result, args, kwargs)
            return result
        return wrapper

    def _count_wrapper(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self, result, args, kwargs)
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target listed in TARGETS and METHOD_TARGETS."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "percolab" or k.startswith("percolab.")]
        for mod_name, attr, span, after in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = (self._span_wrapper(span, original, after) if span
                       else self._count_wrapper(original, after))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        for mod_name, cls_name, attr, span, after in METHOD_TARGETS:
            cls = getattr(sys.modules[mod_name], cls_name)
            if attr not in vars(cls):
                continue
            original = vars(cls)[attr]
            wrapper = (self._span_wrapper(span, original, after) if span
                       else self._count_wrapper(original, after))
            self._patch(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- queries -----------------------------------------------------------

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def under(self, root: str) -> list:
        """Per span: whether it is a root-named span or lies beneath one."""
        inside = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            inside[i] = s[0] == root or (s[3] >= 0 and inside[s[3]])
        return inside

    def layer_self(self, layer: str, root: str = None) -> float:
        """Self time of the spans of one layer, optionally only beneath
        spans named root."""
        own = self.self_times()
        inside = self.under(root) if root else [True] * len(self.spans)
        prefix = layer + "."
        return sum(t for s, t, ok in zip(self.spans, own, inside)
                   if ok and s[0].startswith(prefix))

    def fired(self) -> set:
        return {s[0] for s in self.spans} | {k for k, v in self.counts.items() if v}

    def layer_shares(self, total: float) -> dict:
        """Share of `total` seconds spent as self time in each layer."""
        by_layer: dict = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            by_layer[s[0].split(".", 1)[0]] += t
        return {k: round(v / total, 4) for k, v in sorted(by_layer.items())}

    def op_shares(self) -> dict:
        """Per op label: the share of the op's span time that each span name
        (e.g. graphs.diameter) spends as self time."""
        own = self.self_times()
        root_of = [-1] * len(self.spans)
        for label, idx in self.roots:
            root_of[idx] = idx
        for i, s in enumerate(self.spans):
            if root_of[i] < 0 and s[3] >= 0:
                root_of[i] = root_of[s[3]]
        label_of = dict((idx, label) for label, idx in self.roots)
        layers: dict = defaultdict(lambda: defaultdict(float))
        totals: dict = defaultdict(float)
        for idx, label in label_of.items():
            totals[label] += self.spans[idx][2] - self.spans[idx][1]
        for i, (s, t) in enumerate(zip(self.spans, own)):
            if root_of[i] >= 0:
                layers[label_of[root_of[i]]][s[0]] += t
        return {label: {k: round(v / totals[label], 4) for k, v in sorted(by.items())}
                for label, by in layers.items()}


# ---------------------------------------------------------------------------
# what gets wrapped, and the counters read from each call
# ---------------------------------------------------------------------------

def _count(key):
    def after(tracer, result, args, kwargs):
        tracer.counts[key] += 1
    return after


def _file_bytes(key, path_index):
    def after(tracer, result, args, kwargs):
        tracer.counts[key] += os.path.getsize(args[path_index])
    return after


def _after_visit(tracer, trace, args, kwargs):
    tracer.counts["visits.rounds"] += len(trace.rounds)
    tracer.counts["visits.attempts"] += trace.attempts or 0
    tracer.counts["visits.visited"] += trace.visited_size


def _after_simulate(tracer, trace, args, kwargs):
    tracer.counts["epidemic.steps"] += len(trace.counts) - 1
    tracer.counts["epidemic.infectious_node_steps"] += sum(c[2] for c in trace.counts)


def _after_min_distance(tracer, dist, args, kwargs):
    tracer.counts["local_clusters.free_queries"] += 1
    if dist >= FREE_DISTANCE:
        tracer.counts["local_clusters.free_answers"] += 1


def _after_mc(tracer, result, args, kwargs):
    trials = kwargs["trials"] if "trials" in kwargs else args[3]
    tracer.counts["local_clusters.mc.trials"] += trials


def _after_threshold(tracer, est, args, kwargs):
    tracer.counts["analysis.trials"] += len(est.probes) * est.trials_per_point
    tracer.counts["analysis.ambiguous_probes"] += sum(
        r.classification == "ambiguous" for r in est.probes)


def _after_scaling(tracer, rows, args, kwargs):
    trials = kwargs["trials"] if "trials" in kwargs else args[3]
    tracer.counts["analysis.trials"] += len(rows) * trials


def _after_sample_many(tracer, result, args, kwargs):
    tracer.counts["branching.offspring_draws"] += len(result)


# (module, function, span name or None for a counter only, after-hook)
TARGETS = [
    ("percolab.rng", "derive", None, _count("rng.streams")),
    ("percolab.graphs", "sample_swg_erdos", "graphs.sample", None),
    ("percolab.graphs", "sample_swg_matching", "graphs.sample", None),
    ("percolab.graphs", "sample_regular", "graphs.sample", None),
    ("percolab.graphs", "percolate", "graphs.percolate", None),
    ("percolab.graphs", "percolate_coupled", "graphs.percolate", None),
    ("percolab.graphs", "component_labels", "graphs.labels", None),
    ("percolab.graphs", "connected_components", "graphs.components", None),
    ("percolab.graphs", "component_diameter", "graphs.diameter", None),
    # one BFS sweep of the exact diameter, at the scipy csgraph boundary
    ("percolab.graphs", "_dijkstra", "graphs.sweep", None),
    ("percolab.graphs", "load_edge_list", "graphs.load", _file_bytes("graphs.load.bytes", 0)),
    ("percolab.graphs", "save_edge_list", "graphs.save", _file_bytes("graphs.save.bytes", 1)),
    ("percolab.local_clusters", "truncated_local_cluster", "local_clusters.truncated", None),
    ("percolab.local_clusters", "mean_truncated_size_mc", "local_clusters.mc", _after_mc),
    ("percolab.visits", "search_giant_erdos", "visits.search", _after_visit),
    ("percolab.visits", "search_giant_matching", "visits.search", _after_visit),
    ("percolab.visits", "union_l_visit", "visits.union", _after_visit),
    ("percolab.visits", "plain_bfs", "visits.bfs", _after_visit),
    ("percolab.epidemic", "_simulate", "epidemic.simulate", _after_simulate),
    ("percolab.epidemic", "percolation_reachability_law", "epidemic.reach_law", None),
    ("percolab.epidemic", "exact_final_size_law", "epidemic.exact", None),
    ("percolab.branching", "survival_probability", "branching.survival", None),
    ("percolab.branching", "extinction_probability", "branching.extinction", None),
    ("percolab.analysis", "estimate_threshold", "analysis.threshold", _after_threshold),
    ("percolab.analysis", "probe_point", "analysis.probe", None),
    ("percolab.analysis", "scaling_study", "analysis.scaling", _after_scaling),
]

_LAWS = ("Binomial", "GeometricCutoff", "CompoundZeta", "Empirical")

# (module, class, method, span name or None, after-hook)
METHOD_TARGETS = [
    ("percolab.graphs", "SmallWorldGraph", "bridge_adjacency", "graphs.adjacency", None),
    ("percolab.graphs", "GenericGraph", "adjacency", "graphs.adjacency", None),
    ("percolab.graphs", "PercolationGraph", "retained_bridge_adjacency", "graphs.adjacency", None),
    ("percolab.local_clusters", "RingOccupancy", "min_distance", None, _after_min_distance),
] + [
    ("percolab.branching", law, "sample_many", None, _after_sample_many) for law in _LAWS
] + [
    ("percolab.branching", law, "pgf", None, _count("branching.pgf_calls")) for law in _LAWS
]
