"""Command-line experiment runner.

Every subcommand writes its data as CSV (header row first, trailing
`# seed=<..>` comment) plus a JSON manifest sufficient to re-run the
experiment bit-identically.  Progress goes to stderr; data only to files.

One scaffold, `_command(out_default, jobs=False)`, runs every subcommand.
It adds the shared options `--out`, `--seed`, `--jobs` (threshold and
scaling only) and `--config`; merges the config under the explicit flags,
starts the clock and resolves the seed; then calls `body(p, seed)`, which
returns `(header, body, extra)`, body being the CSV text below the header
with every line ending in a newline.  It writes the header and body as the
CSV (unless header is None: `generate` writes its own edge file) and then
the manifest, which gains the keys of `extra`.  A body reports a bad
parameter by raising ValueError, which the scaffold catches in one place.

Exit codes: 0 success; 2 parameter error, click's usage errors included,
with exactly one JSON object on stderr; 3 scientifically-ambiguous result
(`extra["flagged"]`, e.g. a flagged threshold bracket), after both files
are written.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from itertools import chain

import click
import numpy as np
from click.core import ParameterSource

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


@functools.cache
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


def _write(path: str, chunks) -> None:
    """Write the text chunks to path; an OSError is a parameter error."""
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}")
    click.echo(f"wrote {path}", err=True)


def _write_csv(path: str, header: str, body: str, seed: Seed) -> None:
    _write(path, [header + "\n", body, f"# seed={seed.master}\n"])


def _lines(rows) -> str:
    """CSV text of the rows, one line each."""
    return "".join(f"{row}\n" for row in rows)


def _table(template: str, columns: np.ndarray) -> str:
    """CSV text of an integer array, one line per row, from one `%` over a
    flat tuple (as `graphs._edge_lines` formats edge lines); template holds
    one line's format."""
    return (template * len(columns)) % tuple(columns.ravel().tolist())


def _write_manifest(out: str, command: str, params: dict, seed: Seed,
                    started: float, extra: dict = None) -> None:
    manifest = {
        "command": command,
        "params": {k: v for k, v in params.items() if v is not None},
        "seed": seed.master,
        "build": _git_describe(),
        "wall_time_s": round(time.time() - started, 3),
    }
    manifest.update(extra or {})
    _write(out + ".manifest.json", [json.dumps(manifest, indent=2, sort_keys=True), "\n"])


def _flag_text(param: click.Parameter, value):
    """A JSON config value as the text its flag would carry (a list of texts
    for a repeatable flag), so click converts and checks it as it would on
    the command line: a float or a bool is not an integer, a list not a
    number."""
    if value is None:
        return None
    if param.multiple:
        return [str(x) for x in (value if isinstance(value, list) else [value])]
    return str(value)


def _load_config(ctx: click.Context, config_path, params: dict) -> dict:
    """JSON config merged under explicitly-given flags (flags win), each
    value converted by its option's type."""
    if not config_path:
        return params
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        _fail(f"--config {config_path}: {exc}")
    if not isinstance(cfg, dict):
        _fail(f"--config {config_path}: not a JSON object")
    options = {param.name: param for param in ctx.command.params}
    merged = dict(params)
    for key, value in cfg.items():
        key = key.replace("-", "_")
        if key not in merged:
            _fail(f"unknown config key: {key}")
        if ctx.get_parameter_source(key) == ParameterSource.DEFAULT:
            param = options[key]
            try:
                merged[key] = param.type_cast_value(ctx, _flag_text(param, value))
            except click.BadParameter as exc:
                _fail(f"--config {key}: {exc.format_message()}")
    return merged


def _load_graph(path: str):
    try:
        return graphs.load_edge_list(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _percolate(g, p: dict, seed: Seed) -> graphs.PercolationGraph:
    """Percolate with --p-local and --p-bridge (which defaults to --p-local)."""
    pb = p["p_bridge"] if p["p_bridge"] is not None else p["p_local"]
    return graphs.percolate(g, p["p_local"], pb, seed.generator())


def _command(out_default: str, jobs: bool = False):
    """Decorator that turns `body(p, seed) -> (header, body, extra)` into a
    subcommand callback; the module docstring states the contract."""
    shared = [click.option("--out", type=click.Path(), default=out_default),
              click.option("--seed", type=int, default=None,
                           help="64-bit master seed (random if omitted).")]
    if jobs:
        shared.append(click.option("--jobs", type=int, default=None,
                                   help="Parallel workers (env PERCOLAB_JOBS, then CPU count)."))
    shared.append(click.option("--config", type=click.Path(exists=True), default=None,
                               help="JSON config file; explicit flags win."))

    def decorate(body):
        @functools.wraps(body)
        @click.pass_context
        def command(ctx, config, **params):
            p = _load_config(ctx, config, params)
            started = time.time()
            seed = _resolve_seed(p["seed"])
            try:
                header, text, extra = body(p, seed)
            except ValueError as exc:
                _fail(str(exc))
            if header is not None:
                _write_csv(p["out"], header, text, seed)
            _write_manifest(p["out"], ctx.command.name, p, seed, started, extra)
            if extra and extra.get("flagged"):
                click.echo("ambiguous classification inside bracket", err=True)
                sys.exit(3)

        # click lists options top decorator first, and these decorate
        # before the body's own: applied in reverse, they are listed last
        for option in reversed(shared):
            command = option(command)
        return command
    return decorate


class _Group(click.Group):
    """The command group, whose usage errors keep the exit-2 contract: an
    unknown subcommand, option or choice, a flag text of the wrong type and
    a missing required option or subcommand exit 2 with one JSON object,
    not click's usage text; `--help` still prints the help and exits 0.
    The group parses its own flags in `make_context`, and each
    subcommand's in `invoke`."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            _fail(exc.format_message())

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(exc.format_message())


# without a subcommand the group fails with "Missing command." rather than
# printing its help, which a usage error would turn into the JSON message
@click.group(cls=_Group, no_args_is_help=False)
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
@_command("graph.edges")
def generate(p, seed):
    """Sample a graph and write it as an edge list."""
    spec = analysis.ModelSpec(name=p["model"], c=p["c"], p1=0.5, d=p["d"])
    spec.validate_n(p["n"])
    g = spec.sample(p["n"], seed.generator())
    try:
        graphs.save_edge_list(g, p["out"])
    except OSError as exc:
        _fail(f"cannot write {p['out']}: {exc.strerror or exc}")
    click.echo(f"wrote {p['out']}", err=True)
    return None, "", None


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--p-local", type=float, required=True)
@click.option("--p-bridge", type=float, default=None,
              help="Bridge retention (defaults to --p-local).")
@_command("percolated.csv")
def percolate(p, seed):
    """Percolate a graph and write the retained edges."""
    gp = _percolate(_load_graph(p["graph_path"]), p, seed)
    eu, ev = gp.active_edge_arrays()
    # retained ring edges come first; every edge of a GenericGraph is kind R
    n_ring = len(eu) if gp.ring_active is None else int(np.count_nonzero(gp.ring_active))
    uv = np.column_stack([eu, ev])
    return "u,v,kind", _table("%d,%d,R\n", uv[:n_ring]) + _table("%d,%d,B\n", uv[n_ring:]), None


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--p-local", type=float, default=1.0)
@click.option("--p-bridge", type=float, default=None)
@_command("components.csv")
def components(p, seed):
    """Percolate and report the connected-component sizes."""
    labels, sizes = graphs.component_labels(_percolate(_load_graph(p["graph_path"]), p, seed))
    # labels are numbered by smallest node, so label k's smallest node is
    # where the running maximum of the labels first reaches k
    min_node = np.flatnonzero(np.diff(np.maximum.accumulate(labels), prepend=-1))
    rank = np.argsort(-sizes, kind="stable")
    rows = np.column_stack([np.arange(len(sizes)), sizes[rank], min_node[rank]])
    return "component,size,min_node", _table("%d,%d,%d\n", rows), {
        "num_components": len(sizes), "largest": int(sizes.max(initial=0))}


# ---------------------------------------------------------------------------
# visit command
# ---------------------------------------------------------------------------

# each entry is (g, gp, source, cfg) -> VisitTrace; the visits are looked up
# on the module at call time, so a wrapper installed on `visits` is seen
_VISITS = {
    "sequential": lambda g, gp, s, cfg: visits.sequential_l_visit(g, gp, {s}, set(), cfg),
    "parallel": lambda g, gp, s, cfg: visits.parallel_l_visit(g, gp, {s}, set(), cfg),
    "union": lambda g, gp, s, cfg: visits.union_l_visit(g, gp, {s}, cfg),
    "search": lambda g, gp, s, cfg: visits.search_giant_erdos(g, gp, cfg),
    "matching-sequential":
        lambda g, gp, s, cfg: visits.sequential_l_visit_matching(g, gp, {s}, set(), cfg),
    "matching-search": lambda g, gp, s, cfg: visits.search_giant_matching(g, gp, cfg),
    "bfs": lambda g, gp, s, cfg: visits.plain_bfs(gp, s),
}


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--algorithm", type=click.Choice(list(_VISITS)), required=True)
@click.option("--p-local", type=float, required=True)
@click.option("--p-bridge", type=float, default=None)
@click.option("--source", type=int, default=None,
              help="Initiator node (default 0); the searches take none.")
@click.option("--truncation", "-L", "truncation", type=int, default=10)
@click.option("--density-k", type=int, default=20)
@click.option("--beta", type=float, default=5.0)
@click.option("--beta-prime", type=float, default=25.0)
@_command("visit.csv")
def visit(p, seed):
    """Percolate and run one of the exploration algorithms."""
    if p["source"] is not None and p["algorithm"] in ("search", "matching-search"):
        raise ValueError(f"--algorithm {p['algorithm']} starts from the smallest "
                         "node outside D and takes no --source")
    if p["source"] is None:
        p["source"] = 0  # the manifest records the default, as it always has
    g = _load_graph(p["graph_path"])
    if not isinstance(g, graphs.SmallWorldGraph):
        raise ValueError("visit algorithms require a ring-based graph")
    gp = _percolate(g, p, seed)
    cfg = visits.VisitConfig(L=p["truncation"], k=p["density_k"],
                             beta=p["beta"], beta_prime=p["beta_prime"])
    trace = _VISITS[p["algorithm"]](g, gp, p["source"], cfg)
    k = len(trace.rounds)
    rounds = np.fromiter(chain.from_iterable(trace.rounds), dtype=np.int64, count=3 * k)
    rows = np.column_stack([np.arange(k), rounds.reshape(k, 3)])
    return "round,q_size,r_size,d_size", _table("%d,%d,%d,%d\n", rows), {
        "terminated": trace.terminated_reason,
        "final_q": len(trace.final_q),
        "final_r": len(trace.final_r),
        "final_d": len(trace.final_d),
        "phase_switch_round": trace.phase_switch_round,
        "attempts": trace.attempts,
    }


# ---------------------------------------------------------------------------
# epidemic command
# ---------------------------------------------------------------------------

def _parse_incubation(text):
    if text is None:
        return None
    kind, _, value = text.partition(":")
    parse = {"fixed": int, "geometric": float}.get(kind)
    if parse is not None:
        try:
            return (kind, parse(value))
        except ValueError:
            pass
    raise ValueError(f"bad incubation spec {text!r}: want fixed:<h> or geometric:<q>")


_PROCESSES = {"rf": epidemic.run_rf, "ic": epidemic.run_ic_k_attempts,
              "seir": epidemic.run_seir}


@main.command("epidemic")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--process", type=click.Choice(list(_PROCESSES)), default="rf")
@click.option("--p", type=float, required=True)
@click.option("--k-attempts", type=int, default=1)
@click.option("--incubation", type=str, default=None,
              help="fixed:<h> or geometric:<q>.")
@click.option("--source", type=int, multiple=True, default=(0,))
@_command("epidemic.csv")
def epidemic_cmd(p, seed):
    """Run one epidemic realization and write its trace."""
    g = _load_graph(p["graph_path"])
    cfg = epidemic.EpidemicConfig(p=p["p"], k_attempts=p["k_attempts"],
                                  incubation=_parse_incubation(p["incubation"]))
    trace = _PROCESSES[p["process"]](g, set(p["source"]), cfg, seed.generator())
    rows = trace.to_csv_rows()
    return rows[0], _lines(rows[1:]), {
        "final_size": trace.final_size,
        "stop_time": trace.stop_time,
        "truncated": trace.truncated,
    }


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
        raise ValueError(f"bad law spec {text!r}: {exc}") from None
    raise ValueError(f"unknown law: {kind}")


@main.command()
@click.option("--law", type=str, required=True,
              help="binomial:<n>:<p>, geomcut:<p>:<L>, or compound:<n>:<p>:<c>.")
@click.option("--b0", type=int, default=1)
@click.option("--horizon", type=int, default=1000)
@click.option("--trials", type=int, default=10000)
@_command("gw.csv")
def gw(p, seed):
    """Estimate branching-process survival and compare to the pgf oracle."""
    law = _parse_law(p["law"])
    est = branching.survival_probability(law, p["b0"], p["horizon"],
                                         p["trials"], seed.generator())
    survival_oracle = 1.0 - branching.extinction_probability(law) ** p["b0"]
    row = (f"{est.trials},{est.fraction:.6f},{est.low:.6f},{est.high:.6f},"
           f"{law.mean():.6f},{survival_oracle:.6f}")
    return ("trials,survival,wilson_low,wilson_high,mean_offspring,oracle_survival",
            row + "\n", None)


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
@_command("threshold.csv", jobs=True)
def threshold(p, seed):
    """Bracket the critical probability by bisection."""
    jobs = _resolve_jobs(p["jobs"])
    spec = analysis.ModelSpec(name=p["model"], c=p["c"], p1=p["p1"], d=p["d"])
    est = analysis.estimate_threshold(spec, p["n"], p["trials"], p["tol"],
                                      seed, jobs=jobs)
    rows = [f"{r.p:.6f},{r.median_largest:.1f},{r.classification}"
            for r in est.probes]
    return "p,median_largest,classification", _lines(rows), {
        "p_low": est.p_low,
        "p_high": est.p_high,
        "statistic": est.statistic,
        "flagged": est.flagged,
        "notes": est.notes,
    }


@main.command()
@click.option("--model", type=click.Choice(["swg", "matching", "cycle", "nonhom", "regular"]),
              required=True)
@click.option("--p", type=float, required=True)
@click.option("--n-list", type=str, required=True, help="Comma-separated sizes.")
@click.option("--c", type=float, default=1.0)
@click.option("--p1", type=float, default=0.5)
@click.option("--d", type=int, default=3)
@click.option("--trials", type=int, default=50)
@_command("scaling.csv", jobs=True)
def scaling(p, seed):
    """Median component size / fraction / diameter across graph sizes."""
    jobs = _resolve_jobs(p["jobs"])
    n_list = [int(x) for x in p["n_list"].split(",")]
    spec = analysis.ModelSpec(name=p["model"], c=p["c"], p1=p["p1"], d=p["d"])
    rows = []
    for r in analysis.scaling_study(spec, p["p"], n_list, p["trials"], seed, jobs=jobs):
        diam = "" if r.median_giant_diameter is None else f"{r.median_giant_diameter:.1f}"
        rows.append(f"{r.n},{r.median_max_component:.1f},"
                    f"{r.median_giant_fraction:.6f},{diam},"
                    f"{int(r.diameter_skipped)}")
    return ("n,median_max_component,median_giant_fraction,median_giant_diameter,"
            "diameter_skipped", _lines(rows), None)


# ---------------------------------------------------------------------------
# equivalence harness
# ---------------------------------------------------------------------------

@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--p", type=float, required=True)
@click.option("--trials", type=int, default=100000)
@click.option("--source", type=int, multiple=True, default=(0,))
@_command("equivalence.csv")
def equivalence(p, seed):
    """Compare the epidemic final-size law with percolation reachability."""
    g = _load_graph(p["graph_path"])
    i0 = set(p["source"])
    cfg = epidemic.EpidemicConfig(p=p["p"])
    rf_law = {}
    rng = derive(seed, 0).generator()
    for _ in range(p["trials"]):
        trace = epidemic.run_rf(g, i0, cfg, rng)
        rf_law[trace.final_size] = rf_law.get(trace.final_size, 0) + 1
    size_law, _ = epidemic.percolation_reachability_law(
        g, i0, p["p"], p["p"], p["trials"], derive(seed, 1).generator())
    rows = [f"epidemic_vs_percolation,{epidemic.total_variation(rf_law, size_law):.6f}"]
    exact = None
    if len(list(g.edges())) <= 22:
        exact = epidemic.exact_final_size_law(g, i0, cfg)
        rows.append(f"epidemic_vs_exact,{epidemic.total_variation(rf_law, exact):.6f}")
        rows.append(f"percolation_vs_exact,{epidemic.total_variation(size_law, exact):.6f}")
    return "comparison,tv_distance", _lines(rows), {"exact_oracle": exact is not None}


if __name__ == "__main__":
    main()
