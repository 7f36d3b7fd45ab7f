"""percolab benchmark harness.

    python3 perfbench/run.py --workload {threshold,scaling,explore}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; the package is imported from `src/` of the checkout
this file sits in.  One run sets up (import plus input files, several
times; `setup_s` is the median), then repeats timed passes of the workload
with the same seed until `--seconds` have passed and at least two passes
ran.  The first pass's outputs are checked against oracles; every later
pass must reproduce its data files byte for byte.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` passes alternate untraced and traced, and it carries the
per-layer metrics of the traced passes, the per-command times of the
untraced ones and the tracing overhead.  The line before it is a JSON
report: environment, per-op times, every check, and the layer shares.
`--smoke` swaps in tiny sizes; it exercises every op, check and span.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# keep `git describe` (ours and the CLI's) from searching above the checkout
os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import spans
from workloads import WORKLOADS

DEFAULT_SEED = 20210331
SETUP_REPS = 3

CMD_METRICS = ("cmd.threshold_s", "lib.truncated_mc_s", "cmd.scaling_s", "cmd.visit_s",
               "cmd.epidemic_s", "cmd.percolate_s", "cmd.equivalence_s", "cmd.gw_s")


def import_percolab():
    init = os.path.join(SRC, "percolab", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no percolab sources at {init}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("percolab")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.dirname(init):
        sys.exit(f"perfbench: imported percolab from {pkg.__file__}, not {SRC}")
    importlib.import_module("percolab.cli")  # loads every module
    return pkg


def time_import() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child in 50 ms steps
    subprocess.run([sys.executable, "-c", "import percolab.cli"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - t0


def environment() -> dict:
    from importlib.metadata import version
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        build = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        build = "unknown"
    return {
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "scipy", "click")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_describe": build,
        "loadavg_1m_start": os.getloadavg()[0],
        **{var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS")},
    }


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs ops, times them and counts every op and check."""

    def __init__(self, percolab):
        self.cli = percolab.cli.main
        self.attempted = 0
        self.failed = 0
        self.checks: list = []
        self.errors: list = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def run(self, op, tracer=None):
        """(seconds, value); value is None when the op failed."""
        self.attempted += 1
        err = io.StringIO()
        value = None
        t0 = time.perf_counter()
        idx = None
        if tracer is not None and op.argv:
            idx = tracer.open(f"cli.{op.argv[0]}")
            tracer.roots.append((op.label, idx))
        try:
            if op.fn is not None:
                value = repr(float(op.fn()))
                code = 0
            else:
                with contextlib.redirect_stderr(err):
                    try:
                        self.cli.main(args=op.argv, prog_name="percolab")
                        code = 0
                    except SystemExit as exc:
                        code = 0 if exc.code is None else exc.code
        except Exception:
            code = "exception"
            err.write(traceback.format_exc())
        finally:
            if idx is not None:
                tracer.close(idx)
        seconds = time.perf_counter() - t0
        if code not in op.ok_codes:
            self.failed += 1
            self.errors.append({"op": op.label, "exit": code, "stderr": err.getvalue()[-2000:]})
            return seconds, None
        if op.out is not None:
            value = file_digest(op.out)
            if tracer is not None:
                tracer.counts["cli.bytes_written"] += (
                    os.path.getsize(op.out) + os.path.getsize(op.out + ".manifest.json"))
        return seconds, value


def percentile_tail(values: list) -> tuple:
    """(q, value): the highest of the usual percentiles with at least ten
    samples beyond it, or the median when there are too few samples."""
    ordered = sorted(values)
    for q in (0.999, 0.99, 0.95, 0.9, 0.75):
        if len(ordered) * (1 - q) >= 10:
            return q, ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return 0.5, statistics.median(ordered) if ordered else 0.0


def per_layer(tr, setup_tr, traced: int, overhead: float, cmd_times: dict,
              tails: dict) -> dict:
    """Per-layer metrics, per traced pass; graphs.save comes from set-up."""
    def total(name):
        return sum(tr.durations(name)) / traced

    def calls(name):
        return len(tr.durations(name)) / traced

    def count(key):
        return tr.counts[key] / traced

    def p50(name, scale):
        d = tr.durations(name)
        return statistics.median(d) * scale if d else 0.0

    def tail(name, scale, key):
        q, v = percentile_tail(tr.durations(name))
        tails[key] = q
        return v * scale

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"rng.streams": (count("rng.streams"), "count")}
    m["graphs.sample.s"] = (total("graphs.sample"), "s")
    m["graphs.sample.calls"] = (calls("graphs.sample"), "count")
    m["graphs.sample.p50_ms"] = (p50("graphs.sample", 1e3), "ms")
    m["graphs.sample.tail_ms"] = (tail("graphs.sample", 1e3, "graphs.sample.tail_ms"), "ms")
    m["graphs.percolate.s"] = (total("graphs.percolate"), "s")
    m["graphs.labels.s"] = (total("graphs.labels"), "s")
    m["graphs.labels.p50_ms"] = (p50("graphs.labels", 1e3), "ms")
    m["graphs.labels.tail_ms"] = (tail("graphs.labels", 1e3, "graphs.labels.tail_ms"), "ms")
    own = tr.self_times()
    m["graphs.components.self_s"] = (sum(t for s, t in zip(tr.spans, own)
                                         if s[0] == "graphs.components") / traced, "s")
    m["graphs.diameter.s"] = (total("graphs.diameter"), "s")
    m["graphs.diameter.calls"] = (calls("graphs.diameter"), "count")
    m["graphs.diameter.sweeps"] = (calls("graphs.sweep"), "count")
    m["graphs.diameter.sweep_ms"] = (p50("graphs.sweep", 1e3), "ms")
    m["graphs.diameter.sweep_tail_ms"] = (tail("graphs.sweep", 1e3,
                                               "graphs.diameter.sweep_tail_ms"), "ms")
    m["graphs.load.s"] = (total("graphs.load"), "s")
    m["graphs.load.bytes"] = (count("graphs.load.bytes"), "bytes")
    m["graphs.save.s"] = (sum(setup_tr.durations("graphs.save")), "s")
    m["graphs.save.bytes"] = (setup_tr.counts["graphs.save.bytes"], "bytes")
    m["graphs.adjacency.s"] = (total("graphs.adjacency"), "s")
    m["graphs.adjacency.calls"] = (calls("graphs.adjacency"), "count")
    m["local_clusters.truncated.calls"] = (calls("local_clusters.truncated"), "count")
    m["local_clusters.truncated.s"] = (total("local_clusters.truncated"), "s")
    queries = count("local_clusters.free_queries")
    m["local_clusters.free_queries"] = (queries, "count")
    m["local_clusters.free_ratio"] = (ratio(count("local_clusters.free_answers"), queries),
                                      "ratio")
    m["local_clusters.mc.s"] = (total("local_clusters.mc"), "s")
    m["local_clusters.mc.trials"] = (count("local_clusters.mc.trials"), "count")
    visit_s = 0.0
    for alg in ("search", "union", "bfs"):
        m[f"visits.{alg}.s"] = (total(f"visits.{alg}"), "s")
        visit_s += m[f"visits.{alg}.s"][0]
    for key in ("rounds", "attempts", "visited"):
        m[f"visits.{key}"] = (count(f"visits.{key}"), "count")
    m["visits.visited_per_s"] = (ratio(count("visits.visited"), visit_s), "1/s")
    sim_s = total("epidemic.simulate")
    m["epidemic.simulate.s"] = (sim_s, "s")
    m["epidemic.simulate.calls"] = (calls("epidemic.simulate"), "count")
    m["epidemic.steps"] = (count("epidemic.steps"), "count")
    node_steps = count("epidemic.infectious_node_steps")
    m["epidemic.infectious_node_steps"] = (node_steps, "count")
    m["epidemic.node_steps_per_s"] = (ratio(node_steps, sim_s), "1/s")
    m["epidemic.reach_law.s"] = (total("epidemic.reach_law"), "s")
    m["epidemic.exact.s"] = (total("epidemic.exact"), "s")
    m["branching.survival.s"] = (total("branching.survival"), "s")
    m["branching.offspring_draws"] = (count("branching.offspring_draws"), "count")
    m["branching.extinction.s"] = (total("branching.extinction"), "s")
    m["branching.pgf_calls"] = (count("branching.pgf_calls"), "count")
    m["analysis.threshold.self_s"] = (tr.layer_self("analysis", "analysis.threshold") / traced,
                                      "s")
    m["analysis.probes"] = (calls("analysis.probe"), "count")
    m["analysis.trials"] = (count("analysis.trials"), "count")
    m["analysis.ambiguous_probes"] = (count("analysis.ambiguous_probes"), "count")
    m["analysis.probe.p50_s"] = (p50("analysis.probe", 1.0), "s")
    m["analysis.probe.tail_s"] = (tail("analysis.probe", 1.0, "analysis.probe.tail_s"), "s")
    m["analysis.scaling.self_s"] = (tr.layer_self("analysis", "analysis.scaling") / traced, "s")
    m["cli.self_s"] = (tr.layer_self("cli") / traced, "s")
    m["cli.bytes_written"] = (count("cli.bytes_written"), "bytes")
    for name in CMD_METRICS:
        m[name] = (cmd_times[name], "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def run_pass(runner, ops, tracer) -> tuple:
    """One pass: ({op label: seconds}, {op label: value})."""
    times, values = {}, {}
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            times[op.label], values[op.label] = runner.run(op, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times, values


def median_times(ops, passes, metric=None) -> float:
    """Sum over ops (of one metric) of each op's median time across passes;
    per-op medians keep a burst of machine noise out of the total."""
    return sum(statistics.median(p["ops"][op.label] for p in passes)
               for op in ops if metric is None or op.metric == metric)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed; 7919 is held out for confirming claims")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every op and check")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must be an unsigned 64-bit integer")

    percolab = import_percolab()
    env = environment()
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.smoke)
        runner = Runner(percolab)
        setup_tracer = spans.Tracer()
        tracer = spans.Tracer()

        setup_times = []
        for rep in range(SETUP_REPS):
            traced = args.trace and rep == SETUP_REPS - 1
            t_import = time_import()
            times, _ = run_pass(runner, workload.setup_ops(),
                                setup_tracer if traced else None)
            setup_times.append(t_import + sum(times.values()))
        workload.prepare(percolab)
        ops = workload.ops(percolab)

        # passes alternate untraced and traced under --trace 1; at least two
        # run, and another starts only if it should end within --seconds
        passes = []
        first_values = None
        measured = 0.0
        while len(passes) < 2 or measured * (1 + 1 / len(passes)) <= args.seconds:
            traced = bool(args.trace and len(passes) % 2 == 1)
            times, values = run_pass(runner, ops, tracer if traced else None)
            passes.append({"traced": traced, "wall_s": sum(times.values()), "ops": times})
            measured += passes[-1]["wall_s"]
            if first_values is None:
                first_values = values
                if all(v is not None for v in values.values()):
                    try:
                        workload.check(values, runner.check)
                    except Exception:
                        runner.check("oracle_checks", False, traceback.format_exc()[-2000:])
                else:
                    runner.check("outputs_present", False, "an op failed; oracles skipped")
            else:
                for label, value in values.items():
                    runner.check(f"{label}.deterministic",
                                 value is not None and value == first_values[label])

        untraced = [p for p in passes if not p["traced"]]
        report = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                  "trace": args.trace, "env": env, "setup_s": setup_times,
                  "passes": passes}
        if args.trace:
            fired = tracer.fired() | setup_tracer.fired()
            missing = [s for s in workload.spans if s not in fired]
            runner.check("span_coverage", not missing, f"missing {missing}")
            traced_passes = [p for p in passes if p["traced"]]
            cmd_times = {name: median_times(ops, untraced, name) for name in CMD_METRICS}
            tails = {}
            overhead = median_times(ops, traced_passes) - median_times(ops, untraced)
            metrics = per_layer(tracer, setup_tracer, len(traced_passes), overhead,
                                cmd_times, tails)
            report["tail_quantiles"] = tails
            report["layer_shares"] = tracer.layer_shares(
                sum(p["wall_s"] for p in traced_passes))
            report["op_span_shares"] = tracer.op_shares()
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (median_times(ops, passes), "s"),
                "peak_rss_mb": (rss_kb / 1024, "MB"),
            }
        report["checks"] = runner.checks
        report["errors"] = runner.errors
        report["env"]["loadavg_1m_end"] = os.getloadavg()[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
