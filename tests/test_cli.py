import json

import pytest
from click.testing import CliRunner

from carnot.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_algebra_dims_free23(runner):
    result = runner.invoke(main, ["algebra", "dims", "--group", "free:2,3"])
    assert result.exit_code == 0
    assert json.loads(result.output) == [2, 1, 2]


def test_algebra_new_and_check_round_trip(runner, tmp_path):
    out = tmp_path / "spec.json"
    result = runner.invoke(main, ["algebra", "new", "--m", "2", "--r", "2",
                                  "--out", str(out)])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["layer_dims"] == [2, 1]
    result = runner.invoke(main, ["algebra", "check", "--group", str(out)])
    assert result.exit_code == 0


def test_algebra_check_rejects_broken_table(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "table",
        "layer_dims": [2, 1],
        "brackets": [],
    }))
    result = runner.invoke(main, ["algebra", "check", "--group", str(bad)])
    assert result.exit_code == 1


def test_group_gauge_example(runner):
    result = runner.invoke(main, ["group", "gauge", "--group", "heisenberg",
                                  "--point", "1,0,0"])
    assert result.exit_code == 0
    assert json.loads(result.output) == 1.0


def test_group_mul_exact(runner):
    result = runner.invoke(main, ["group", "mul", "--group", "heisenberg",
                                  "--p", "1,2,3", "--q", "5,-1,2"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["exact"] == ["6", "1", "-1/2"]


def test_group_inv_and_dilate(runner):
    result = runner.invoke(main, ["group", "inv", "--group", "heisenberg",
                                  "--point", "1,0,0"])
    assert json.loads(result.output)["coords"] == [-1.0, 0.0, 0.0]
    result = runner.invoke(main, ["group", "dilate", "--group", "heisenberg",
                                  "--s", "2", "--point", "1,1,1"])
    assert json.loads(result.output)["coords"] == [2.0, 2.0, 4.0]


def test_group_ballvol_deterministic(runner):
    args = ["group", "ballvol", "--group", "heisenberg", "--radius", "1",
            "--samples", "20000", "--seed", "3"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


def test_fields_show(runner):
    result = runner.invoke(main, ["fields", "show", "--group", "heisenberg",
                                  "--label", "1,1"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["label"] == [1, 1]
    assert "[2, 1]" in data["coefficients"]


def test_fields_residual_zero(runner):
    result = runner.invoke(main, ["fields", "residual", "--group", "heisenberg",
                                  "--u", "p11"])
    assert result.exit_code == 0
    assert json.loads(result.output)["is_zero"] is True


def test_fields_residual_constant_source(runner):
    result = runner.invoke(main, ["fields", "residual", "--group", "heisenberg",
                                  "--u", "0", "--f", "1"])
    data = json.loads(result.output)
    assert data["is_zero"] is False
    assert data["residual"][0] == [{"mono": [], "num": -1, "den": 1}]


def test_rewrite_trace_schema(runner, tmp_path):
    out = tmp_path / "trace.json"
    result = runner.invoke(main, ["rewrite", "trace", "--step", "4",
                                  "--profile", "1,1,1", "--json", str(out)])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["initial"] == [0, 1, 1, 1]
    assert data["steps"]
    for step in data["steps"]:
        assert set(step) == {"rule", "in_profile", "out_profiles", "W_in", "W_out"}
        assert step["W_out"] < step["W_in"]


def test_rewrite_trace_profile_length_checked(runner):
    result = runner.invoke(main, ["rewrite", "trace", "--step", "3",
                                  "--profile", "1,1,1"])
    assert result.exit_code == 2


def test_rewrite_obstruction(runner):
    result = runner.invoke(main, ["rewrite", "obstruction"])
    data = json.loads(result.output)
    assert data["obstructed_directions"] == [[2, 1]]


def test_rewrite_sweep(runner):
    result = runner.invoke(main, ["rewrite", "sweep", "--step", "3",
                                  "--max-total", "3"])
    assert result.exit_code == 0
    assert json.loads(result.output)["classification_failures"] == 0


def test_solve_writes_csv(runner, tmp_path):
    out = tmp_path / "u.csv"
    result = runner.invoke(main, ["solve", "--group", "heisenberg", "--n", "8",
                                  "--bc", "poly:p11", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p_1_1,p_2_1,p_1_2,u1"
    assert len(lines) == 8 ** 3 + 1


def test_verify_decay_runs(runner):
    result = runner.invoke(main, ["verify", "decay", "--n", "16",
                                  "--radii", "0.5,1"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert "fitted_exponent" in data and data["Q"] == 4


def test_verify_peetre_and_hormander(runner):
    result = runner.invoke(main, ["verify", "peetre", "--n", "13"])
    assert result.exit_code == 0
    assert json.loads(result.output)["ok"] is True
    result = runner.invoke(main, ["verify", "hormander", "--n", "13"])
    assert result.exit_code == 0
    assert json.loads(result.output)["stable"] is True


def test_verify_hormander_zero_ratio_exits_1(runner, monkeypatch):
    monkeypatch.setattr("carnot.numerics.hormander_ratio", lambda u, d: 0.0)
    result = runner.invoke(main, ["verify", "hormander", "--n", "9"])
    assert result.exit_code == 1
    data = json.loads(result.stdout)
    assert data["ratio"] == 0.0 and data["stable"] is False


def test_unknown_subcommand_exits_2(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


def test_suite_small_all_pass_and_deterministic(runner, tmp_path):
    args = ["suite", "--n", "16", "--triples", "20", "--samples", "20000",
            "--sweep-total", "3", "--seed", "99"]
    first = runner.invoke(main, args + ["--json", str(tmp_path / "a.json")])
    assert first.exit_code == 0, first.output
    second = runner.invoke(main, args + ["--json", str(tmp_path / "b.json")])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    report = json.loads((tmp_path / "a.json").read_text())
    assert len(report["checks"]) == 11


def test_env_seed_override(runner, monkeypatch):
    monkeypatch.setenv("CARNOT_SEED", "777")
    args = ["group", "ballvol", "--samples", "10000", "--seed", "1"]
    with_env = runner.invoke(main, args)
    monkeypatch.delenv("CARNOT_SEED")
    explicit = runner.invoke(main, ["group", "ballvol", "--samples", "10000",
                                    "--seed", "777"])
    assert with_env.output == explicit.output


def test_fields_residual_json_input(runner, tmp_path):
    poly_json = [[{"mono": [[[1, 1], 1]], "num": 1, "den": 1}]]
    path = tmp_path / "u.json"
    path.write_text(json.dumps(poly_json))
    result = runner.invoke(main, ["fields", "residual", "--group", "heisenberg",
                                  "--u", f"@{path}"])
    assert result.exit_code == 0
    assert json.loads(result.output)["is_zero"] is True


def test_verify_caccioppoli_supbound_estimate(runner):
    for sub in (["verify", "caccioppoli", "--n", "12", "--radius", "0.45"],
                ["verify", "supbound", "--n", "12"],
                ["verify", "estimate", "--n", "12"]):
        result = runner.invoke(main, sub)
        assert result.exit_code == 0, (sub, result.output)
        assert json.loads(result.output)["stable"] is True


def test_suite_text_format(runner):
    result = runner.invoke(main, ["suite", "--n", "16", "--triples", "10",
                                  "--samples", "10000", "--sweep-total", "3",
                                  "--format", "text"])
    assert result.exit_code == 0
    assert "all_pass: True" in result.output
    assert result.output.count("PASS") == 11


def test_fields_residual_with_flux_data(runner):
    # divergence of the flux (a, b) is 2
    result = runner.invoke(main, ["fields", "residual", "--group", "heisenberg",
                                  "--u", "0", "--fi", "p11;p21"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["is_zero"] is False
    assert data["residual"][0] == [{"mono": [], "num": 2, "den": 1}]


def test_verify_decay_below_the_exponent_gate_exits_1(runner):
    # constant data: the excess is solver noise and decays far slower than
    # tau**(Q+2)
    result = runner.invoke(main, ["verify", "decay", "--n", "12", "--bc", "poly:1",
                                  "--radii", "0.5,1"])
    assert result.exit_code == 1
    data = json.loads(result.stdout)
    assert data["threshold"] == pytest.approx(5.7)
    assert data["fitted_exponent"] < data["threshold"]
    assert data["stable"] is False


def test_verify_constant_not_positive_exits_1(runner):
    # zero boundary data: the solution vanishes and the constant 0 bounds
    # nothing
    result = runner.invoke(main, ["verify", "caccioppoli", "--n", "12",
                                  "--bc", "0"])
    assert result.exit_code == 1
    data = json.loads(result.stdout)
    assert data["empirical_constant"] == 0.0 and data["stable"] is False


@pytest.mark.parametrize("args,message", [
    (["verify", "estimate", "--n", "12", "--radius", "0.95"], "stencil leaves"),
    (["verify", "decay", "--n", "12", "--radii", "0.01,1"], "no grid nodes"),
    (["group", "mul", "--p", "1,2", "--q", "1,2,3"], "needs 3 coordinates"),
    (["verify", "caccioppoli", "--n", "12", "--radius", "0.05"], "no grid nodes"),
    (["verify", "estimate", "--n", "12", "--radius", "0.05"], "no grid nodes"),
    (["verify", "supbound", "--n", "12", "--radius", "0.05"], "no grid nodes"),
])
def test_domain_errors_exit_2_with_one_line(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0]
    assert "Traceback" not in result.output


def test_suite_rejects_group_option(runner):
    result = runner.invoke(main, ["suite", "--group", "engel"])
    assert result.exit_code == 2
    assert "No such option" in result.stderr
