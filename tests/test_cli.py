import json
import os

import pytest
from click.testing import CliRunner

from percolab.cli import main
from percolab.graphs import load_edge_list


@pytest.fixture
def runner():
    return CliRunner()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "six.edges")


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


def test_gw_rejects_bad_law(runner):
    res = runner.invoke(main, ["gw", "--law", "zipf:2"])
    assert res.exit_code == 2


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
