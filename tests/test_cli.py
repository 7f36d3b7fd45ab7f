import json
import os

import pytest
from click.testing import CliRunner

from percolab.cli import main
from percolab.graphs import load_edge_list, percolate
from percolab.rng import Seed
from percolab.visits import plain_bfs

from .oracles import connected_components_eager


@pytest.fixture
def runner():
    return CliRunner()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "six.edges")
RING = os.path.join(os.path.dirname(__file__), "..", "fixtures", "ring8.edges")


def test_generate_writes_loadable_graph(runner, tmp_path):
    out = tmp_path / "g.edges"
    res = runner.invoke(main, ["generate", "--model", "swg", "--n", "500",
                               "--seed", "7", "--out", str(out)])
    assert res.exit_code == 0, res.output
    g = load_edge_list(out)
    assert g.n == 500
    manifest = json.loads(_read(str(out) + ".manifest.json"))
    assert manifest["seed"] == 7
    assert manifest["command"] == "generate"


def test_generate_tiny_c_writes_a_bare_ring(runner, tmp_path):
    out = tmp_path / "g.edges"
    res = runner.invoke(main, ["generate", "--model", "swg", "--n", "10", "--c", "1e-18",
                               "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert load_edge_list(out).num_bridges == 0


def test_generate_rejects_odd_matching(runner, tmp_path):
    res = runner.invoke(main, ["generate", "--model", "matching", "--n", "501",
                               "--seed", "1", "--out", str(tmp_path / "m.edges")])
    assert res.exit_code == 2


def test_unknown_flag_exits_2(runner):
    res = runner.invoke(main, ["generate", "--model", "swg", "--n", "10",
                               "--frobnicate", "3"])
    assert res.exit_code == 2


def _json_error(res):
    return json.loads(res.stderr.strip().splitlines()[-1])["error"]


def test_negative_seed_exits_2_with_json_error(runner, tmp_path):
    res = runner.invoke(main, ["generate", "--model", "swg", "--n", "10",
                               "--seed", "-1", "--out", str(tmp_path / "g.edges")])
    assert res.exit_code == 2
    assert "--seed" in _json_error(res)
    assert not (tmp_path / "g.edges").exists()


def test_bad_jobs_env_exits_2_with_json_error(runner, tmp_path):
    res = runner.invoke(main, ["scaling", "--model", "swg", "--p", "0.3",
                               "--n-list", "64", "--trials", "2", "--seed", "1",
                               "--out", str(tmp_path / "sc.csv")],
                        env={"PERCOLAB_JOBS": "abc"})
    assert res.exit_code == 2
    assert "PERCOLAB_JOBS" in _json_error(res)


@pytest.fixture(scope="module")
def swg_fixture(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "swg.edges"
    res = CliRunner().invoke(main, ["generate", "--model", "swg", "--n", "300",
                                    "--c", "1", "--seed", "99", "--out", str(path)])
    assert res.exit_code == 0
    return str(path)


def test_components_bad_probability_exits_2_with_json_error(runner, tmp_path, swg_fixture):
    res = runner.invoke(main, ["components", "--graph", swg_fixture, "--p-local", "1.5",
                               "--seed", "1", "--out", str(tmp_path / "cc.csv")])
    assert res.exit_code == 2
    assert "probabilities" in _json_error(res)


def test_edge_file_node_out_of_range_exits_2_with_json_error(runner, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("# swg n=5 model=erdos:c=1\n0 1 R\n1 2 R\n2 3 R\n3 4 R\n0 4 R\n2 9 B\n")
    res = runner.invoke(main, ["components", "--graph", str(path), "--p-local", "0.5",
                               "--seed", "1", "--out", str(tmp_path / "cc.csv")])
    assert res.exit_code == 2
    assert "[0, 5)" in _json_error(res)


@pytest.mark.parametrize("header", ["# swg model=erdos:c=1", "# swg n=5"])
def test_edge_file_header_without_n_or_model_exits_2_with_json_error(runner, tmp_path, header):
    path = tmp_path / "bad.edges"
    path.write_text(header + "\n0 1 R\n1 2 R\n2 3 R\n3 4 R\n0 4 R\n")
    res = runner.invoke(main, ["components", "--graph", str(path), "--p-local", "1",
                               "--seed", "1", "--out", str(tmp_path / "cc.csv")])
    assert res.exit_code == 2
    assert "header lacks" in _json_error(res)


def test_percolate_labels_a_ring_edge_and_its_parallel_bridge(runner, tmp_path):
    path = tmp_path / "par.edges"
    path.write_text("# swg n=5 model=erdos:c=1\n0 1 R\n1 2 R\n2 3 R\n3 4 R\n0 4 R\n"
                    "1 2 B\n1 3 B\n")
    out = tmp_path / "pc.csv"
    res = runner.invoke(main, ["percolate", "--graph", str(path), "--p-local", "1",
                               "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0
    rows = _read(out).decode().splitlines()[1:-1]
    assert rows == ["0,1,R", "1,2,R", "2,3,R", "3,4,R", "0,4,R", "1,2,B", "1,3,B"]


def test_epidemic_manifest_reports_truncation(runner, tmp_path):
    out = tmp_path / "ep.csv"
    res = runner.invoke(main, ["epidemic", "--graph", FIXTURE, "--p", "0.5",
                               "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(_read(str(out) + ".manifest.json"))["truncated"] is False


def test_determinism_byte_identical_outputs(runner, tmp_path, swg_fixture):
    args = ["visit", "--graph", swg_fixture, "--algorithm", "union",
            "--p-local", "0.5", "--seed", "42"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    assert _read(out1) == _read(out2)
    # manifests agree except for the wall-time field
    m1 = json.loads(_read(str(out1) + ".manifest.json"))
    m2 = json.loads(_read(str(out2) + ".manifest.json"))
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    m1["params"].pop("out"), m2["params"].pop("out")
    assert m1 == m2


def test_csv_has_header_and_seed_comment(runner, tmp_path):
    out = tmp_path / "e.csv"
    res = runner.invoke(main, ["epidemic", "--graph", FIXTURE, "--p", "0.5",
                               "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0
    lines = _read(out).decode().strip().splitlines()
    assert lines[0] == "t,s,e,i,r"
    assert lines[-1] == "# seed=3"


def test_missing_seed_uses_entropy(runner, tmp_path):
    out = tmp_path / "e.csv"
    res = runner.invoke(main, ["epidemic", "--graph", FIXTURE, "--p", "0.5",
                               "--out", str(out)])
    assert res.exit_code == 0
    manifest = json.loads(_read(str(out) + ".manifest.json"))
    assert isinstance(manifest["seed"], int)


def test_config_file_merged_under_flags(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.5, "seed": 9}))
    out = tmp_path / "e.csv"
    # seed comes from the config, p is overridden on the command line
    res = runner.invoke(main, ["epidemic", "--graph", FIXTURE, "--p", "0.0",
                               "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    manifest = json.loads(_read(str(out) + ".manifest.json"))
    assert manifest["seed"] == 9
    assert manifest["params"]["p"] == 0.0
    assert manifest["final_size"] == 1  # p=0 run


def test_config_rejects_unknown_key(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"turbo": True}))
    res = runner.invoke(main, ["epidemic", "--graph", FIXTURE, "--p", "0.5",
                               "--config", str(cfg)])
    assert res.exit_code == 2


def test_equivalence_report(runner, tmp_path):
    out = tmp_path / "eq.csv"
    res = runner.invoke(main, ["equivalence", "--graph", FIXTURE, "--p", "0.5",
                               "--trials", "4000", "--seed", "5",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = _read(out).decode().strip().splitlines()
    assert lines[0] == "comparison,tv_distance"
    tvs = {row.split(",")[0]: float(row.split(",")[1])
           for row in lines[1:] if not row.startswith("#")}
    assert set(tvs) == {"epidemic_vs_percolation", "epidemic_vs_exact",
                        "percolation_vs_exact"}
    assert all(v < 0.05 for v in tvs.values())


def test_gw_command(runner, tmp_path):
    out = tmp_path / "gw.csv"
    res = runner.invoke(main, ["gw", "--law", "binomial:3:0.4",
                               "--trials", "3000", "--horizon", "200",
                               "--seed", "2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    header, row, _ = _read(out).decode().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["survival"]) - float(cols["oracle_survival"])) < 0.05


@pytest.mark.parametrize("args", [
    ["threshold", "--model", "matching", "--n", "5000", "--jobs", "1"],
    ["scaling", "--model", "swg", "--p", "0.3", "--n-list", "64", "--jobs", "1"],
    ["gw", "--law", "binomial:3:0.4"],
])
def test_zero_trials_exit_2_with_one_json_object(runner, tmp_path, args):
    out = tmp_path / "o.csv"
    res = runner.invoke(main, args + ["--trials", "0", "--seed", "1", "--out", str(out)])
    assert res.exit_code == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "trials" in json.loads(lines[0])["error"]
    assert not out.exists()


def test_gw_rejects_bad_law(runner):
    res = runner.invoke(main, ["gw", "--law", "zipf:2"])
    assert res.exit_code == 2


_SCALING = ["scaling", "--model", "swg", "--p", "0.3", "--n-list", "64", "--jobs", "1"]
_SEEDED_SCALING = _SCALING + ["--trials", "2", "--seed", "1"]


@pytest.mark.parametrize("config, args, message", [
    ("{trials: 3", _SEEDED_SCALING, "--config"),
    ("[1, 2]", _SEEDED_SCALING, "JSON object"),
    ('{"turbo": true}', _SEEDED_SCALING, "unknown config key"),
    ('{"seed": "x"}', _SCALING + ["--trials", "2"], "--config seed"),
    ('{"trials": 2.5}', _SCALING + ["--seed", "1"], "--config trials"),
    (None, ["threshold", "--model", "swg", "--n", "5000", "--trials", "2", "--tol", "1.5",
            "--seed", "1", "--jobs", "1"], "tolerance"),
    (None, ["gw", "--law", "foo", "--seed", "1"], "unknown law"),
    (None, ["gw", "--law", "binomial:3", "--seed", "1"], "bad law spec"),
    (None, ["epidemic", "--graph", FIXTURE, "--p", "0.5", "--process", "seir",
            "--incubation", "uniform:2", "--seed", "1"], "incubation"),
    (None, ["epidemic", "--graph", FIXTURE, "--p", "0.5", "--process", "seir",
            "--incubation", "fixed:x", "--seed", "1"], "incubation"),
    (None, ["epidemic", "--graph", FIXTURE, "--p", "0.5", "--process", "seir",
            "--incubation", "fixed:-2", "--seed", "1"], "integer h >= 0"),
    (None, ["epidemic", "--graph", FIXTURE, "--p", "0.5", "--process", "seir",
            "--incubation", "geometric:0", "--seed", "1"], "0 < q <= 1"),
    (None, ["visit", "--graph", RING, "--algorithm", "bfs", "--p-local", "0.5",
            "-L", "0", "--seed", "1"], "visit parameters"),
    (None, ["visit", "--graph", RING, "--algorithm", "bfs", "--p-local", "0.5",
            "--source", "999", "--seed", "1"], "outside [0, 8)"),
    (None, ["visit", "--graph", RING, "--algorithm", "union", "--p-local", "0.6",
            "--source", "-5", "--seed", "1"], "outside [0, 8)"),
    (None, ["equivalence", "--graph", FIXTURE, "--p", "1.5", "--seed", "1"], "p out of [0,1]"),
    (None, ["gw", "--law", "binomial:3:0.4", "--b0", "-1", "--seed", "1"], "b0"),
    (None, ["gw", "--law", "binomial:3:0.4", "--horizon", "-1", "--seed", "1"], "horizon"),
    # click's own usage errors
    (None, ["visit", "--graph", RING, "--algorithm", "bfs", "--p-local", "x",
            "--seed", "1"], "'x' is not a valid float"),
    (None, ["visit", "--graph", RING, "--algorithm", "dfs", "--p-local", "0.5",
            "--seed", "1"], "'dfs' is not one of"),
    (None, ["visit", "--algorithm", "bfs", "--p-local", "0.5", "--seed", "1"],
     "Missing option '--graph'"),
    (None, ["visit", "--graph", RING, "--algorithm", "bfs", "--p-local", "0.5",
            "--frobnicate", "3", "--seed", "1"], "No such option"),
    (None, ["percolate-all", "--seed", "1"], "No such command"),
    # the searches start from the smallest node outside D and take no source
    (None, ["visit", "--graph", RING, "--algorithm", "search", "--p-local", "0.5",
            "--source", "999", "--seed", "1"], "takes no --source"),
    ('{"source": 0}', ["visit", "--graph", RING, "--algorithm", "matching-search",
                       "--p-local", "0.5", "--seed", "1"], "takes no --source"),
])
def test_parameter_errors_exit_2_with_one_json_object(runner, tmp_path, config, args, message):
    out = tmp_path / "o.csv"
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        args = args + ["--config", str(tmp_path / "cfg.json")]
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and message in json.loads(lines[0])["error"]
    assert not out.exists()


def test_help_prints_usage_and_exits_0(runner):
    for args in (["--help"], ["visit", "--help"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0 and res.output.startswith("Usage:"), res.output


def test_searches_run_without_a_source_and_record_the_default(runner, tmp_path):
    out = tmp_path / "v.csv"
    res = runner.invoke(main, ["visit", "--graph", RING, "--algorithm", "search",
                               "--p-local", "0.5", "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads(_read(str(out) + ".manifest.json"))["params"]["source"] == 0


@pytest.mark.parametrize("args", [
    _SEEDED_SCALING,
    ["generate", "--model", "swg", "--n", "50", "--seed", "1"],
])
def test_unwritable_out_exits_2_with_one_json_object(runner, tmp_path, args):
    res = runner.invoke(main, args + ["--out", str(tmp_path / "missing" / "o.csv")])
    assert res.exit_code == 2, res.output
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "cannot write" in json.loads(lines[0])["error"]


def test_unwritable_manifest_exits_2_with_json_error(runner, tmp_path):
    (tmp_path / "o.csv.manifest.json").mkdir()
    res = runner.invoke(main, _SEEDED_SCALING + ["--out", str(tmp_path / "o.csv")])
    assert res.exit_code == 2, res.output
    assert "o.csv.manifest.json" in _json_error(res)


def test_threshold_command_small(runner, tmp_path):
    out = tmp_path / "th.csv"
    res = runner.invoke(main, ["threshold", "--model", "matching",
                               "--n", "5000", "--trials", "6", "--tol", "0.1",
                               "--seed", "4", "--jobs", "1", "--out", str(out)])
    assert res.exit_code in (0, 3), res.output
    manifest = json.loads(_read(str(out) + ".manifest.json"))
    assert manifest["p_low"] < manifest["p_high"]
    if manifest["flagged"]:
        assert res.exit_code == 3


def test_scaling_command_small(runner, tmp_path):
    out = tmp_path / "sc.csv"
    res = runner.invoke(main, ["scaling", "--model", "swg", "--p", "0.3",
                               "--n-list", "1024,2048", "--trials", "4",
                               "--seed", "6", "--jobs", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = _read(out).decode().strip().splitlines()
    assert len(lines) == 4  # header + 2 rows + seed comment


def test_percolate_and_components_commands(runner, tmp_path):
    g = tmp_path / "g.edges"
    runner.invoke(main, ["generate", "--model", "swg", "--n", "200",
                         "--seed", "1", "--out", str(g)])
    out = tmp_path / "pc.csv"
    res = runner.invoke(main, ["percolate", "--graph", str(g),
                               "--p-local", "0.5", "--seed", "2",
                               "--out", str(out)])
    assert res.exit_code == 0
    assert _read(out).decode().splitlines()[0] == "u,v,kind"
    out2 = tmp_path / "cc.csv"
    res = runner.invoke(main, ["components", "--graph", str(g),
                               "--p-local", "0.5", "--seed", "2",
                               "--out", str(out2)])
    assert res.exit_code == 0
    manifest = json.loads(_read(str(out2) + ".manifest.json"))
    assert manifest["largest"] >= 1


def test_components_rows_list_the_component_sets(runner, tmp_path):
    g = tmp_path / "g.edges"
    runner.invoke(main, ["generate", "--model", "swg", "--n", "2000",
                         "--seed", "1", "--out", str(g)])
    for p in ("0.3", "0.55", "1"):
        out = tmp_path / "cc.csv"
        res = runner.invoke(main, ["components", "--graph", str(g), "--p-local", p,
                                   "--seed", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        gp = percolate(load_edge_list(g), float(p), float(p), Seed(2).generator())
        want = connected_components_eager(gp)
        rows = [f"{i},{len(c)},{min(c)}" for i, c in enumerate(want)]
        assert _read(out).decode().splitlines()[1:-1] == rows
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        assert (manifest["num_components"], manifest["largest"]) == (len(want), len(want[0]))


def test_percolate_and_visit_rows_hold_the_edges_and_the_rounds(runner, swg_fixture, tmp_path):
    out = tmp_path / "rows.csv"
    for graph, p in ((swg_fixture, "0.55"), (FIXTURE, "0.5"), (FIXTURE, "0")):
        res = runner.invoke(main, ["percolate", "--graph", graph, "--p-local", p,
                                   "--seed", "3", "--out", str(out)])
        assert res.exit_code == 0, res.output
        gp = percolate(load_edge_list(graph), float(p), float(p), Seed(3).generator())
        eu, ev = gp.active_edge_arrays()
        n_ring = len(eu) if gp.ring_active is None else int(gp.ring_active.sum())
        want = [f"{u},{v},{'R' if i < n_ring else 'B'}"
                for i, (u, v) in enumerate(zip(eu.tolist(), ev.tolist()))]
        assert _read(out).decode().splitlines()[1:-1] == want
    for p in ("0.55", "0"):
        res = runner.invoke(main, ["visit", "--graph", swg_fixture, "--algorithm", "bfs",
                                   "--p-local", p, "--source", "7", "--seed", "4",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        gp = percolate(load_edge_list(swg_fixture), float(p), float(p), Seed(4).generator())
        want = [f"{i},{q},{r},{d}" for i, (q, r, d) in enumerate(plain_bfs(gp, 7).rounds)]
        assert _read(out).decode().splitlines()[1:-1] == want
