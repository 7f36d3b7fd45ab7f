"""Command-line experiment runner.

Every subcommand writes its data as CSV (header row first, trailing
`# seed=<..>` comment) plus a JSON manifest sufficient to re-run the
experiment bit-identically.  Progress goes to stderr; data only to files.

Exit codes: 0 success, 2 parameter error (JSON diagnostics on stderr),
3 scientifically-ambiguous result (e.g. a flagged threshold bracket).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import click
import numpy as np

from . import analysis, branching, epidemic, graphs, visits
from .rng import Seed, derive, entropy_seed


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _fail(message: str, code: int = 2):
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")
    sys.exit(code)


def _resolve_seed(seed) -> Seed:
    if seed is None:
        s = entropy_seed()
        click.echo(f"no seed given; using {s.master}", err=True)
        return s
    try:
        return Seed(int(seed))
    except ValueError as exc:
        _fail(f"--seed: {exc}")


def _resolve_jobs(jobs) -> int:
    if jobs is not None:
        return max(1, int(jobs))
    try:
        return analysis.default_jobs()
    except ValueError as exc:
        _fail(f"PERCOLAB_JOBS: {exc}")


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_csv(path: str, header: str, rows, seed: Seed) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(f"{row}\n")
        fh.write(f"# seed={seed.master}\n")
    click.echo(f"wrote {path}", err=True)


def _write_manifest(out: str, command: str, params: dict, seed: Seed,
                    started: float, extra: dict = None) -> None:
    manifest = {
        "command": command,
        "params": {k: v for k, v in params.items() if v is not None},
        "seed": seed.master,
        "build": _git_describe(),
        "wall_time_s": round(time.time() - started, 3),
    }
    if extra:
        manifest.update(extra)
    path = out + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {path}", err=True)


def _load_config(ctx: click.Context, config_path, params: dict) -> dict:
    """JSON config merged under explicitly-given flags (flags win)."""
    if not config_path:
        return params
    with open(config_path) as fh:
        cfg = json.load(fh)
    from click.core import ParameterSource
    merged = dict(params)
    for key, value in cfg.items():
        key = key.replace("-", "_")
        if key not in merged:
            raise click.UsageError(f"unknown config key: {key}")
        if ctx.get_parameter_source(key) == ParameterSource.DEFAULT:
            merged[key] = value
    return merged


def _load_graph(path: str):
    try:
        return graphs.load_edge_list(path)
    except ValueError as exc:
        _fail(f"{path}: {exc}")


def _percolate(g, p: dict, seed: Seed) -> graphs.PercolationGraph:
    """Percolate with --p-local and --p-bridge (which defaults to --p-local)."""
    pb = p["p_bridge"] if p["p_bridge"] is not None else p["p_local"]
    try:
        return graphs.percolate(g, p["p_local"], pb, seed.generator())
    except ValueError as exc:
        _fail(str(exc))


def _model_spec(model: str, c: float, p1: float, d: int) -> analysis.ModelSpec:
    return analysis.ModelSpec(name=model, c=c, p1=p1, d=d)


_config_option = click.option("--config", type=click.Path(exists=True),
                              default=None, help="JSON config file; explicit flags win.")
_seed_option = click.option("--seed", type=int, default=None,
                            help="64-bit master seed (random if omitted).")
_jobs_option = click.option("--jobs", type=int, default=None,
                            help="Parallel workers (env PERCOLAB_JOBS, then CPU count).")


@click.group()
def main():
    """Percolation, small-world graph, and epidemic experiments."""


# ---------------------------------------------------------------------------
# graph commands
# ---------------------------------------------------------------------------

@main.command()
@click.option("--model", type=click.Choice(["swg", "matching", "cycle", "regular"]),
              required=True)
@click.option("--n", type=int, required=True)
@click.option("--c", type=float, default=1.0, help="Bridge density for swg.")
@click.option("--d", type=int, default=3, help="Degree for the regular model.")
@click.option("--out", type=click.Path(), default="graph.edges")
@_seed_option
@_config_option
@click.pass_context
def generate(ctx, config, **params):
    """Sample a graph and write it as an edge list."""
    p = _load_config(ctx, config, params)
    started = time.time()
    seed = _resolve_seed(p["seed"])
    try:
        spec = _model_spec(p["model"], p["c"], 0.5, p["d"])
        spec.validate_n(p["n"])
        g = spec.sample(p["n"], seed.generator())
    except ValueError as exc:
        _fail(str(exc))
    graphs.save_edge_list(g, p["out"])
    click.echo(f"wrote {p['out']}", err=True)
    _write_manifest(p["out"], "generate", p, seed, started)


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--p-local", type=float, required=True)
@click.option("--p-bridge", type=float, default=None,
              help="Bridge retention (defaults to --p-local).")
@click.option("--out", type=click.Path(), default="percolated.csv")
@_seed_option
@_config_option
@click.pass_context
def percolate(ctx, config, **params):
    """Percolate a graph and write the retained edges."""
    p = _load_config(ctx, config, params)
    started = time.time()
    seed = _resolve_seed(p["seed"])
    g = _load_graph(p["graph_path"])
    gp = _percolate(g, p, seed)
    eu, ev = gp.active_edge_arrays()
    # retained ring edges come first; every edge of a GenericGraph is kind R
    n_ring = len(eu) if gp.ring_active is None else int(np.count_nonzero(gp.ring_active))
    kinds = ["R"] * n_ring + ["B"] * (len(eu) - n_ring)
    rows = [f"{u},{v},{k}" for u, v, k in zip(eu.tolist(), ev.tolist(), kinds)]
    _write_csv(p["out"], "u,v,kind", rows, seed)
    _write_manifest(p["out"], "percolate", p, seed, started)


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--p-local", type=float, default=1.0)
@click.option("--p-bridge", type=float, default=None)
@click.option("--out", type=click.Path(), default="components.csv")
@_seed_option
@_config_option
@click.pass_context
def components(ctx, config, **params):
    """Percolate and report the connected-component sizes."""
    p = _load_config(ctx, config, params)
    started = time.time()
    seed = _resolve_seed(p["seed"])
    g = _load_graph(p["graph_path"])
    gp = _percolate(g, p, seed)
    comps = graphs.connected_components(gp)
    rows = [f"{i},{len(comp)},{min(comp)}" for i, comp in enumerate(comps)]
    _write_csv(p["out"], "component,size,min_node", rows, seed)
    _write_manifest(p["out"], "components", p, seed, started,
                    {"num_components": len(comps),
                     "largest": len(comps[0]) if comps else 0})


# ---------------------------------------------------------------------------
# visit command
# ---------------------------------------------------------------------------

_ALGORITHMS = ["sequential", "parallel", "union", "search",
               "matching-sequential", "matching-search", "bfs"]


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--algorithm", type=click.Choice(_ALGORITHMS), required=True)
@click.option("--p-local", type=float, required=True)
@click.option("--p-bridge", type=float, default=None)
@click.option("--source", type=int, default=0, help="Initiator node.")
@click.option("--truncation", "-L", "truncation", type=int, default=10)
@click.option("--density-k", type=int, default=20)
@click.option("--beta", type=float, default=5.0)
@click.option("--beta-prime", type=float, default=25.0)
@click.option("--out", type=click.Path(), default="visit.csv")
@_seed_option
@_config_option
@click.pass_context
def visit(ctx, config, **params):
    """Percolate and run one of the exploration algorithms."""
    p = _load_config(ctx, config, params)
    started = time.time()
    seed = _resolve_seed(p["seed"])
    g = _load_graph(p["graph_path"])
    if not isinstance(g, graphs.SmallWorldGraph):
        _fail("visit algorithms require a ring-based graph")
    gp = _percolate(g, p, seed)
    cfg = visits.VisitConfig(L=p["truncation"], k=p["density_k"],
                             beta=p["beta"], beta_prime=p["beta_prime"])
    s = p["source"]
    try:
        alg = p["algorithm"]
        if alg == "sequential":
            trace = visits.sequential_l_visit(g, gp, {s}, set(), cfg)
        elif alg == "parallel":
            trace = visits.parallel_l_visit(g, gp, {s}, set(), cfg)
        elif alg == "union":
            trace = visits.union_l_visit(g, gp, {s}, cfg)
        elif alg == "search":
            trace = visits.search_giant_erdos(g, gp, cfg)
        elif alg == "matching-sequential":
            trace = visits.sequential_l_visit_matching(g, gp, {s}, set(), cfg)
        elif alg == "matching-search":
            trace = visits.search_giant_matching(g, gp, cfg)
        else:
            trace = visits.plain_bfs(gp, s)
    except ValueError as exc:
        _fail(str(exc))
    rows = [f"{i},{q},{r},{d}" for i, (q, r, d) in enumerate(trace.rounds)]
    _write_csv(p["out"], "round,q_size,r_size,d_size", rows, seed)
    _write_manifest(p["out"], "visit", p, seed, started, {
        "terminated": trace.terminated_reason,
        "final_q": len(trace.final_q),
        "final_r": len(trace.final_r),
        "final_d": len(trace.final_d),
        "phase_switch_round": trace.phase_switch_round,
        "attempts": trace.attempts,
    })


# ---------------------------------------------------------------------------
# epidemic command
# ---------------------------------------------------------------------------

def _parse_incubation(text):
    if text is None:
        return None
    kind, _, value = text.partition(":")
    if kind == "fixed":
        return ("fixed", int(value))
    if kind == "geometric":
        return ("geometric", float(value))
    raise click.UsageError(f"bad incubation spec: {text}")


@main.command("epidemic")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--process", type=click.Choice(["rf", "ic", "seir"]), default="rf")
@click.option("--p", type=float, required=True)
@click.option("--k-attempts", type=int, default=1)
@click.option("--incubation", type=str, default=None,
              help="fixed:<h> or geometric:<q>.")
@click.option("--source", type=int, multiple=True, default=(0,))
@click.option("--out", type=click.Path(), default="epidemic.csv")
@_seed_option
@_config_option
@click.pass_context
def epidemic_cmd(ctx, config, **params):
    """Run one epidemic realization and write its trace."""
    p = _load_config(ctx, config, params)
    started = time.time()
    seed = _resolve_seed(p["seed"])
    g = _load_graph(p["graph_path"])
    try:
        cfg = epidemic.EpidemicConfig(
            p=p["p"], k_attempts=p["k_attempts"],
            incubation=_parse_incubation(p["incubation"]))
        i0 = set(p["source"])
        rng = seed.generator()
        if p["process"] == "rf":
            trace = epidemic.run_rf(g, i0, cfg, rng)
        elif p["process"] == "ic":
            trace = epidemic.run_ic_k_attempts(g, i0, cfg, rng)
        else:
            if cfg.incubation is None:
                raise ValueError("seir requires --incubation")
            trace = epidemic.run_seir(g, i0, cfg, rng)
    except ValueError as exc:
        _fail(str(exc))
    rows = trace.to_csv_rows()
    _write_csv(p["out"], rows[0], rows[1:], seed)
    p_serial = dict(p, source=list(p["source"]))
    _write_manifest(p["out"], "epidemic", p_serial, seed, started, {
        "final_size": trace.final_size,
        "stop_time": trace.stop_time,
        "truncated": trace.truncated,
    })


# ---------------------------------------------------------------------------
# branching command
# ---------------------------------------------------------------------------

def _parse_law(text: str) -> branching.OffspringLaw:
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "binomial":
            return branching.Binomial(int(parts[1]), float(parts[2]))
        if kind == "geomcut":
            return branching.GeometricCutoff(float(parts[1]), int(parts[2]))
        if kind == "compound":
            return branching.CompoundZeta(int(parts[1]), float(parts[2]),
                                          float(parts[3]))
    except (IndexError, ValueError) as exc:
        raise click.UsageError(f"bad law spec {text!r}: {exc}")
    raise click.UsageError(f"unknown law: {kind}")


@main.command()
@click.option("--law", type=str, required=True,
              help="binomial:<n>:<p>, geomcut:<p>:<L>, or compound:<n>:<p>:<c>.")
@click.option("--b0", type=int, default=1)
@click.option("--horizon", type=int, default=1000)
@click.option("--trials", type=int, default=10000)
@click.option("--out", type=click.Path(), default="gw.csv")
@_seed_option
@_config_option
@click.pass_context
def gw(ctx, config, **params):
    """Estimate branching-process survival and compare to the pgf oracle."""
    p = _load_config(ctx, config, params)
    started = time.time()
    seed = _resolve_seed(p["seed"])
    law = _parse_law(p["law"])
    est = branching.survival_probability(law, p["b0"], p["horizon"],
                                         p["trials"], seed.generator())
    q_ext = branching.extinction_probability(law)
    survival_oracle = 1.0 - q_ext ** p["b0"]
    row = (f"{est.trials},{est.fraction:.6f},{est.low:.6f},{est.high:.6f},"
           f"{law.mean():.6f},{survival_oracle:.6f}")
    _write_csv(p["out"],
               "trials,survival,wilson_low,wilson_high,mean_offspring,oracle_survival",
               [row], seed)
    _write_manifest(p["out"], "gw", p, seed, started)


# ---------------------------------------------------------------------------
# threshold / scaling / survival studies
# ---------------------------------------------------------------------------

@main.command()
@click.option("--model", type=click.Choice(["swg", "matching", "cycle", "nonhom", "regular"]),
              required=True)
@click.option("--n", type=int, required=True)
@click.option("--c", type=float, default=1.0)
@click.option("--p1", type=float, default=0.5, help="Ring probability for nonhom.")
@click.option("--d", type=int, default=3)
@click.option("--trials", type=int, default=30)
@click.option("--tol", type=float, default=0.02)
@click.option("--out", type=click.Path(), default="threshold.csv")
@_seed_option
@_jobs_option
@_config_option
@click.pass_context
def threshold(ctx, config, **params):
    """Bracket the critical probability by bisection."""
    p = _load_config(ctx, config, params)
    started = time.time()
    seed = _resolve_seed(p["seed"])
    jobs = _resolve_jobs(p["jobs"])
    try:
        spec = _model_spec(p["model"], p["c"], p["p1"], p["d"])
        est = analysis.estimate_threshold(spec, p["n"], p["trials"], p["tol"],
                                          seed, jobs=jobs)
    except ValueError as exc:
        _fail(str(exc))
    rows = [f"{r.p:.6f},{r.median_largest:.1f},{r.classification}"
            for r in est.probes]
    _write_csv(p["out"], "p,median_largest,classification", rows, seed)
    _write_manifest(p["out"], "threshold", p, seed, started, {
        "p_low": est.p_low,
        "p_high": est.p_high,
        "statistic": est.statistic,
        "flagged": est.flagged,
        "notes": est.notes,
    })
    if est.flagged:
        click.echo("ambiguous classification inside bracket", err=True)
        sys.exit(3)


@main.command()
@click.option("--model", type=click.Choice(["swg", "matching", "cycle", "nonhom", "regular"]),
              required=True)
@click.option("--p", type=float, required=True)
@click.option("--n-list", type=str, required=True, help="Comma-separated sizes.")
@click.option("--c", type=float, default=1.0)
@click.option("--p1", type=float, default=0.5)
@click.option("--d", type=int, default=3)
@click.option("--trials", type=int, default=50)
@click.option("--out", type=click.Path(), default="scaling.csv")
@_seed_option
@_jobs_option
@_config_option
@click.pass_context
def scaling(ctx, config, **params):
    """Median component size / fraction / diameter across graph sizes."""
    p = _load_config(ctx, config, params)
    started = time.time()
    seed = _resolve_seed(p["seed"])
    jobs = _resolve_jobs(p["jobs"])
    try:
        n_list = [int(x) for x in p["n_list"].split(",")]
        spec = _model_spec(p["model"], p["c"], p["p1"], p["d"])
        rows = analysis.scaling_study(spec, p["p"], n_list, p["trials"],
                                      seed, jobs=jobs)
    except ValueError as exc:
        _fail(str(exc))
    out_rows = []
    for r in rows:
        diam = "" if r.median_giant_diameter is None else f"{r.median_giant_diameter:.1f}"
        out_rows.append(f"{r.n},{r.median_max_component:.1f},"
                        f"{r.median_giant_fraction:.6f},{diam},"
                        f"{int(r.diameter_skipped)}")
    _write_csv(p["out"],
               "n,median_max_component,median_giant_fraction,median_giant_diameter,diameter_skipped",
               out_rows, seed)
    _write_manifest(p["out"], "scaling", p, seed, started)


# ---------------------------------------------------------------------------
# equivalence harness
# ---------------------------------------------------------------------------

@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--p", type=float, required=True)
@click.option("--trials", type=int, default=100000)
@click.option("--source", type=int, multiple=True, default=(0,))
@click.option("--out", type=click.Path(), default="equivalence.csv")
@_seed_option
@_config_option
@click.pass_context
def equivalence(ctx, config, **params):
    """Compare the epidemic final-size law with percolation reachability."""
    p = _load_config(ctx, config, params)
    started = time.time()
    seed = _resolve_seed(p["seed"])
    g = _load_graph(p["graph_path"])
    i0 = set(p["source"])
    cfg = epidemic.EpidemicConfig(p=p["p"])
    try:
        rf_law = {}
        rng = derive(seed, 0).generator()
        for _ in range(p["trials"]):
            trace = epidemic.run_rf(g, i0, cfg, rng)
            rf_law[trace.final_size] = rf_law.get(trace.final_size, 0) + 1
        size_law, _ = epidemic.percolation_reachability_law(
            g, i0, p["p"], p["p"], p["trials"], derive(seed, 1).generator())
        rows = []
        tv_sim = epidemic.total_variation(rf_law, size_law)
        rows.append(f"epidemic_vs_percolation,{tv_sim:.6f}")
        exact = None
        if len(list(g.edges())) <= 22:
            exact = epidemic.exact_final_size_law(g, i0, cfg)
            rows.append(f"epidemic_vs_exact,{epidemic.total_variation(rf_law, exact):.6f}")
            rows.append(f"percolation_vs_exact,{epidemic.total_variation(size_law, exact):.6f}")
    except ValueError as exc:
        _fail(str(exc))
    _write_csv(p["out"], "comparison,tv_distance", rows, seed)
    p_serial = dict(p, source=list(p["source"]))
    _write_manifest(p["out"], "equivalence", p_serial, seed, started,
                    {"exact_oracle": exact is not None})


if __name__ == "__main__":
    main()
