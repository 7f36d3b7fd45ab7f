"""Fuzz of the CLI contract over all nine subcommands.

Hypothesis draws a flag set for one subcommand, at sizes small enough for
100 runs of each in a few seconds (n <= 2000, at most 3 trials, tolerance
at least 0.1), and may move some flags into a `--config` file.  Up to two
of its options, its seed or its config file are spoiled: out of range, not
finite, malformed, a config key no option takes or a value of the wrong
type.  Every run must end one of two ways:

- exit 0, or 3 for a flagged threshold bracket, and a rerun with the same
  seed writes a byte-identical data file;
- exit 2 with exactly one JSON object among the lines on stderr.

In the first test, flag texts on the command line are always of their
option's type, and the required options are always on the command line.
The second test then spoils one of those: a flag text of the wrong type, a
value outside an option's choices, or a missing required option.  Click
refuses such a call before the subcommand runs, and it too must exit 2
with exactly one JSON object.
"""

import json
import math
import os

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from percolab.cli import main
from percolab.graphs import sample_swg_erdos, sample_swg_matching, save_edge_list
from percolab.rng import Seed

_FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

_SPECIAL = [math.nan, math.inf, -math.inf]


def _choice(*values):
    return st.sampled_from(values)


def _floats(lo, hi):
    """Out-of-range and non-finite floats."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(_SPECIAL))


# Each option maps its config key to (good, bad): a strategy for values the
# command accepts and one for values it may refuse.  An example spoils at
# most two of its options, so the refusals do not hide the runs that go deep.
_PROB = (st.floats(0, 1), _floats(-0.25, 1.25))
_GRAPH = (_choice("swg", "matching", "six", "ring8"), _choice("garbage"))
# the fuzz graphs have 300, 300, 6 and 8 nodes
_SOURCE = (st.integers(0, 5), _choice(-2, -1, 6, 7, 8, 299, 300, 310))
_SOURCES = tuple(st.lists(s, min_size=1, max_size=3) for s in _SOURCE)
_TRIALS = (st.integers(1, 3), st.integers(-1, 0))
_C = (st.floats(0, 5), _floats(-1, 0))
_D = (st.integers(0, 6), st.integers(-2, -1))
_MODELS = _choice("swg", "matching", "cycle", "nonhom", "regular")


def _join(strategy):
    return st.lists(strategy, min_size=1, max_size=2).map(
        lambda ns: ",".join(map(str, sorted(ns))))


_N_LIST = (_join(st.integers(3, 2000)),
           st.one_of(_join(st.integers(-2, 2)).map(lambda t: ",".join(t.split(",")[::-1])),
                     _choice("", "a,b", "64,,128", "1e3")))
_LAW = (st.one_of(st.builds("binomial:{}:{}".format, st.integers(0, 5), _PROB[0]),
                  st.builds("geomcut:{}:{}".format, _PROB[0], st.integers(1, 10)),
                  st.builds("compound:{}:{}:{}".format, st.integers(1, 2000),
                            st.floats(0, 0.99), st.floats(0.01, 5))),
        st.one_of(st.builds("binomial:{}:{}".format, st.integers(-1, 5), _PROB[1]),
                  st.builds("geomcut:{}:{}".format, _PROB[1], st.integers(-1, 0)),
                  st.builds("compound:{}:{}:{}".format, st.integers(-1, 0), _PROB[1],
                            _floats(-1, 5)),
                  _choice("zipf:2", "binomial:3", "binomial:x:0.5", "")))
_INCUBATION = (st.one_of(st.builds("fixed:{}".format, st.integers(0, 4)),
                         st.builds("geometric:{}".format, st.floats(0.01, 1))),
               st.one_of(st.builds("fixed:{}".format, st.integers(-2, -1)),
                         st.builds("geometric:{}".format, _floats(-1, 0)),
                         _choice("uniform:2", "fixed:x", "fixed:1.5", "fixed", "")))


def _any(strategy):
    return (strategy, strategy)


# name -> (required options, optional options).  --out, --seed and --config
# are added for every command.
_COMMANDS = {
    "generate": ({"model": _any(_choice("swg", "matching", "cycle", "regular")),
                  "n": (st.integers(3, 2000), st.integers(-2, 2))},
                 {"c": _C, "d": _D}),
    "percolate": ({"graph_path": _GRAPH, "p_local": _PROB},
                  {"p_bridge": _PROB}),
    "components": ({"graph_path": _GRAPH},
                   {"p_local": _PROB, "p_bridge": _PROB}),
    "visit": ({"graph_path": _GRAPH,
               "algorithm": _any(_choice("sequential", "parallel", "union", "search",
                                         "matching-sequential", "matching-search", "bfs")),
               "p_local": _PROB},
              {"p_bridge": _PROB, "source": _SOURCE,
               "truncation": (st.integers(1, 12), st.integers(-1, 0)),
               "density_k": (st.integers(1, 40), st.integers(-1, 0)),
               "beta": (st.floats(0.01, 10), _floats(-1, 0)),
               "beta_prime": (st.floats(0.01, 50), _floats(-1, 0))}),
    "epidemic": ({"graph_path": _GRAPH, "p": _PROB},
                 {"process": _any(_choice("rf", "ic", "seir")),
                  "k_attempts": (st.integers(1, 4), st.integers(-1, 0)),
                  "incubation": _INCUBATION, "source": _SOURCES}),
    "gw": ({"law": _LAW},
           {"b0": (st.integers(1, 4), st.integers(-1, 0)),
            "horizon": (st.integers(0, 50), st.integers(-2, -1)),
            "trials": (st.integers(1, 200), st.integers(-1, 0))}),
    "threshold": ({"model": _any(_MODELS),
                   "n": (st.integers(1000, 2000), st.integers(-1, 999)),
                   "trials": _TRIALS,
                   "tol": (st.floats(0.1, 0.99),
                           _choice(0.0, -0.1, 0.001, 1.0, 1.5, math.nan, math.inf))},
                  {"c": _C, "p1": _PROB, "d": _D, "jobs": _any(st.integers(-1, 1))}),
    "scaling": ({"model": _any(_MODELS), "p": _PROB, "n_list": _N_LIST, "trials": _TRIALS},
                {"c": _C, "p1": _PROB, "d": _D, "jobs": _any(st.integers(-1, 1))}),
    "equivalence": ({"graph_path": _GRAPH, "p": _PROB,
                     "trials": (st.integers(1, 30), st.integers(-1, 0))},
                    {"source": _SOURCES}),
}

# flag spelling of the config keys that differ from --<key with dashes>
_FLAGS = {"graph_path": "--graph", "truncation": "-L"}

# a config entry that no option accepts, or a value of the wrong type
_BAD_ENTRIES = _choice(("turbo", True), ("trials", 2.5), ("seed", "x"),
                       ("source", [1.5]), ("p", [0.5]))


@st.composite
def _invocations(draw, command):
    """(params for the command line, params for the config file or None,
    raw config text or None, seed or None) of one command."""
    required, optional = _COMMANDS[command]
    spoiled = draw(st.lists(_choice(*required, *optional, "seed", "config"),
                            max_size=draw(_choice(0, 0, 1, 1, 2)), unique=True))

    def value(key, options):
        return draw(options[key][key in spoiled])

    flags = {key: value(key, required) for key in required}
    config = {}
    for key in optional:
        where = draw(_choice("omit", "flag", "config"))
        if where != "omit" or key in spoiled:
            (config if where == "config" else flags)[key] = value(key, optional)
    seed = draw(_choice(-1, 2**64) if "seed" in spoiled
                else st.one_of(st.none(), st.integers(0, 2**20)))
    if seed is not None and draw(st.booleans()):
        config["seed"] = seed
        seed = None
    raw = None
    if "config" in spoiled:
        bad = draw(st.one_of(_BAD_ENTRIES, _choice("[1, 2]", "{trials: 3", "", "null")))
        if isinstance(bad, str):
            raw = bad
        else:
            config[bad[0]] = bad[1]
    if not config and raw is None:
        config = None
    return flags, config, raw, seed


# texts that no integer or float option takes
_NOT_A_NUMBER = _choice("x", "", "1.2.3", "1e", "0x1f")


@st.composite
def _usage_errors(draw, command):
    """(flags, config, raw config, None) of one command, with one flag text
    of the wrong type or outside its choices, or one option that click
    requires left out."""
    required, _ = _COMMANDS[command]
    flags, config, raw, seed = draw(_invocations(command))
    if seed is not None:
        flags["seed"] = seed
    params = {param.name: param for param in main.commands[command].params}
    numbers = sorted(key for key in set(flags) | {"seed"}
                     if params[key].type.name in ("integer", "float"))
    choices = sorted(key for key, param in params.items()
                     if isinstance(param.type, click.Choice))
    kind = draw(_choice("type", "missing", *(["choice"] if choices else [])))
    if kind == "type":
        flags[draw(st.sampled_from(numbers))] = draw(_NOT_A_NUMBER)
    elif kind == "choice":
        flags[draw(st.sampled_from(choices))] = draw(_choice("bogus", "SWG", ""))
    else:
        del flags[draw(st.sampled_from(sorted(k for k in required if params[k].required)))]
    return flags, config, raw, None


def _flag_args(flags: dict) -> list:
    args = []
    for key, value in flags.items():
        flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
        for item in value if isinstance(value, list) else [value]:
            args += [flag, str(item)]
    return args


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz-graphs")
    rng = Seed(20210331).generator()
    paths = {"six": os.path.join(_FIXTURES, "six.edges"),
             "ring8": os.path.join(_FIXTURES, "ring8.edges"),
             "swg": str(base / "swg.edges"),
             "matching": str(base / "matching.edges"),
             "garbage": str(base / "garbage.edges")}
    save_edge_list(sample_swg_erdos(300, 1.0, rng), paths["swg"])
    save_edge_list(sample_swg_matching(300, rng), paths["matching"])
    with open(paths["garbage"], "w") as fh:
        fh.write("not an edge list\n")
    return paths


def _run(runner, command, args, out):
    res = runner.invoke(main, [command] + args + ["--out", out])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    assert res.exit_code in (0, 2, 3), res.output
    return res


def _json_objects(stderr: str) -> list:
    objects = []
    for line in stderr.splitlines():
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            objects.append(value)
    return objects


def _command_args(tmp_path, graph_files, invocation) -> list:
    flags, config, raw, seed = invocation
    if "graph_path" in flags:
        flags = dict(flags, graph_path=graph_files[flags["graph_path"]])
    args = _flag_args(flags)
    if seed is not None:
        args += ["--seed", str(seed)]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(raw if raw is not None else json.dumps(config))
        args += ["--config", str(cfg)]
    return args


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_every_run_succeeds_reproducibly_or_exits_2_with_one_json_object(
        tmp_path, graph_files, command, data):
    args = _command_args(tmp_path, graph_files, data.draw(_invocations(command)))
    runner = CliRunner(env={"PERCOLAB_JOBS": "1"})
    first, second = str(tmp_path / "a.out"), str(tmp_path / "b.out")
    for path in (first, second, first + ".manifest.json", second + ".manifest.json"):
        if os.path.exists(path):
            os.remove(path)
    res = _run(runner, command, args, first)
    if res.exit_code == 2:
        assert len(_json_objects(res.stderr)) == 1, res.stderr
        return
    with open(first + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert (res.exit_code == 3) == bool(manifest.get("flagged"))
    rerun = _run(runner, command, args + ["--seed", str(manifest["seed"])], second)
    assert rerun.exit_code == res.exit_code
    with open(first, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_click_usage_errors_exit_2_with_one_json_object(tmp_path, graph_files, command, data):
    args = _command_args(tmp_path, graph_files, data.draw(_usage_errors(command)))
    out = str(tmp_path / "a.out")
    if os.path.exists(out):
        os.remove(out)
    res = _run(CliRunner(env={"PERCOLAB_JOBS": "1"}), command, args, out)
    assert res.exit_code == 2, res.output
    assert len(_json_objects(res.stderr)) == 1, res.stderr
    assert not os.path.exists(out)
