import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import carnot
from carnot import numerics, suite
from carnot.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _run_python(*args, timeout=60, **env):
    """``python *args`` in a fresh process that imports this package."""
    src = str(Path(carnot.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


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
    data = json.loads(result.stdout)
    assert data["ok"] is False and "span rank 0" in data["violations"][0]


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


def test_suite_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # criteria 9 and 10 solve with 22^3 unknowns, longer than the vectors
    # OpenBLAS splits across threads in a dot product
    args = ["suite", "--n", "16", "--triples", "20", "--samples", "20000",
            "--sweep-total", "3", "--seed", "99"]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        done = _run_python("-m", "carnot.cli", *args, "--json", str(out), timeout=300,
                           OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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
                                  "--samples", "20000", "--sweep-total", "3",
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
    (["rewrite", "trace", "--step", "5", "--profile", "1,1,0,0"], "no admissible case"),
    (["algebra", "new", "--m", "6", "--r", "6"], "exceeds cap"),
    (["suite", "--triples", "0"], "assoc_triples must be positive"),
    (["suite", "--sweep-total", "0"], "sweep_total must be positive"),
    (["suite", "--samples", "-5"], "mc_samples must be positive"),
    (["suite", "--n", "1"], "n must exceed 8"),
    (["suite", "--n", "8"], "n must exceed 8"),
    (["suite", "--seed", "-1"], "seed must be non-negative"),
    (["solve", "--n", "8", "--bc", "p31"], "polynomial variables (1, 3) not among"),
    (["verify", "caccioppoli", "--n", "8", "--bc", "p13"], "variables (3, 1) not among"),
    (["fields", "residual", "--u", "p31"], "polynomial variables (1, 3) not among"),
    (["solve", "--n", "8", "--bc", '{"mono": [], "num": 1}'], "a list of terms"),
    (["solve", "--n", "8", "--bc", '[{"num": 1}]'], "malformed polynomial term"),
    (["fields", "show", "--label", "9,9"], "(9, 9) is not a basis label"),
    (["verify", "peetre", "--n", "5", "--direction", "9,9"], "not a coordinate axis"),
    (["verify", "peetre", "--n", "5", "--direction", "1"], "not a coordinate axis"),
    (["verify", "hormander", "--n", "5", "--direction", "3,1"], "not a coordinate axis"),
    (["solve", "--n", "8", "--half-width", "0"], "half widths must be finite and"),
    (["solve", "--n", "8", "--half-width", "-1"], "finite and positive, got [-1.0,"),
    (["solve", "--n", "8", "--half-width", "nan"], "finite and positive, got [nan,"),
    (["solve", "--n", "8", "--bc", "[]"], "no polynomial given"),
    (["solve", "--n", "8", "--bc", "p11", "--f", "[]"], "no polynomial given"),
    (["solve", "--n", "8", "--bc", "p11", "--f", "p11;p21"], "f has 2 components; need 1"),
    (["verify", "decay", "--n", "12", "--radii", "1"], "two distinct radii, got [1.0]"),
    (["verify", "decay", "--n", "12", "--radii", "1,1"], "two distinct radii"),
    # an empty sweep domain would certify nothing
    (["rewrite", "sweep", "--step", "1"], "the step must be at least 2, got 1"),
    (["rewrite", "sweep", "--step", "0"], "the step must be at least 2, got 0"),
    (["rewrite", "sweep", "--step", "-3"], "the step must be at least 2, got -3"),
    (["rewrite", "sweep", "--step", "3", "--max-total", "0"],
     "the total must be at least 1, got 0"),
    (["rewrite", "sweep", "--step", "3", "--max-total", "-2"],
     "the total must be at least 1, got -2"),
    (["rewrite", "trace", "--step", "1", "--profile", ""],
     "the step must be at least 2, got 1"),
    # the second-order stencils leave the box inside this ball
    (["verify", "supbound", "--n", "9", "--radius", "0.9"], "stencil leaves"),
    # 4,457,399 profiles: refused before the domain is enumerated
    (["rewrite", "sweep", "--step", "12", "--max-total", "14"],
     "has 4,457,399 profiles, about 1.212e+09 bytes, over the 2.684e+08-byte limit"),
    # zero denominators, in an expression, a point and a dilation factor
    (["fields", "residual", "--u", "1/0"], "'1/0' has a zero denominator"),
    (["group", "mul", "--p", "1/0,0,0", "--q", "0,0,0"], "'1/0' has a zero denominator"),
    (["group", "dilate", "--point", "1,0,0", "--s", "1/0"],
     "'1/0' has a zero denominator"),
    # exact coordinates past the float range of the report
    (["group", "mul", "--p", "1e400,0,0", "--q", "0,0,0"],
     "coordinate (1, 1), of size about 10**400, is beyond the float range"),
    (["group", "dilate", "--point", "1,0,0", "--s", "1e400"],
     "coordinate (1, 1), of size about 10**400, is beyond the float range"),
    (["group", "inv", "--point", "1e400,0,0"],
     "coordinate (1, 1), of size about 10**400, is beyond the float range"),
    (["group", "gauge", "--point", "1e400,0,0"],
     "the gauge norm, about 2**1328.75, is beyond the float range"),
    (["group", "dist", "--p", "1e400,0,0", "--q", "0,0,0"],
     "the gauge norm, about 2**1328.75, is beyond the float range"),
    # JSON booleans and zero denominators are not integers of a term
    (["fields", "residual", "--u", '[{"num": true, "mono": [[[1, 1], 1]]}]'],
     "num must be an integer, got True"),
    (["fields", "residual", "--u", '[{"num": 1, "mono": [[[1, 1], true]]}]'],
     "exponent must be an integer, got True"),
    (["fields", "residual", "--u", '[{"num": 1, "mono": [[[1, 1], 1.0]]}]'],
     "exponent must be an integer, got 1.0"),
    (["fields", "residual", "--u", '[{"num": 1, "mono": [[[true, 1], 1]]}]'],
     "label index must be an integer, got True"),
    (["fields", "residual", "--u", '[{"num": 1, "den": 0, "mono": []}]'],
     "den must be nonzero, got 0"),
    # a label with the wrong number of parts
    (["fields", "show", "--label", "1,1,1"], "--label takes a basis label k,i, got '1,1,1'"),
    # paths that cannot be opened, for reading and for writing
    (["algebra", "check", "--group", "/missing.json"],
     "No such file or directory: '/missing.json'"),
    (["verify", "decay", "--group", "/missing.json"],
     "No such file or directory: '/missing.json'"),
    (["fields", "residual", "--u", "@/missing.json"],
     "No such file or directory: '/missing.json'"),
    (["solve", "--n", "5", "--bc", "p11", "--out", "/missing/dir/u.csv"],
     "No such file or directory: '/missing/dir/u.csv'"),
    (["rewrite", "trace", "--step", "3", "--profile", "1,0", "--json", "/missing/dir/t.json"],
     "No such file or directory: '/missing/dir/t.json'"),
    # radii that are not finite and positive, named as given
    (["group", "ballvol", "--radius", "nan"], "a ball radius must be finite and positive, got nan"),
    (["group", "ballvol", "--radius", "inf"], "a ball radius must be finite and positive, got inf"),
    (["verify", "caccioppoli", "--n", "12", "--radius", "-1"],
     "a ball radius must be finite and positive, got -1.0"),
    (["verify", "decay", "--n", "12", "--radii", "0.25,nan,1"],
     "a ball radius must be finite and positive, got nan"),
    # click's own usage errors: a missing option, a bad value, an unknown
    # command or main-level option
    (["group", "mul"], "Missing option '--p'"),
    (["solve", "--n", "x"], "Invalid value for '--n': 'x' is not a valid integer"),
    (["suite", "--format", "xml"], "Invalid value for '--format': 'xml' is not one of"),
    (["frobnicate"], "No such command 'frobnicate'"),
    (["--bogus"], "No such option '--bogus'"),
    # counts that do not fit the step or the group
    (["rewrite", "trace", "--step", "3", "--profile", "1"],
     "--profile needs 2 counts for layers 2..3, got 1"),
    (["fields", "residual", "--u", "p11", "--fi", "p11"],
     "--fi needs 2 flux polynomials, one per horizontal slot; got 1"),
    (["fields", "residual", "--u", "p11;p21", "--fi", "p11;p21"],
     "--fi takes flux data for one component; --u has 2"),
    # a direction that is not a pair of integers, named by its option
    (["verify", "hormander", "--n", "5", "--direction", "a,1"],
     "--direction takes a basis label k,i, got 'a,1'"),
    # radii whose sampling box leaves the normal floats
    (["group", "ballvol", "--radius", "1e200"], "the radius 1e+200 puts the sampling box"),
    (["group", "ballvol", "--radius", "1e80"], "the radius 1e+80 puts the sampling box"),
    (["group", "ballvol", "--radius", "1e-80"], "the radius 1e-80 puts the sampling box"),
    (["group", "ballvol", "--radius", "1e-120"], "the radius 1e-120 puts the sampling box"),
    # two numbers in a row
    (["fields", "residual", "--u", "2 3"], "a number directly after a number at position 2"),
    # comma lists: an empty entry, an entry that does not read or a bracket
    # is refused, named by its option, never read as a shorter list
    (["group", "gauge", "--point", "1,,0,0"],
     "--point takes comma-separated coordinates, got '1,,0,0': entry 2 is empty"),
    (["group", "mul", "--p", "1,2,,3", "--q", "0,0,0"],
     "--p takes comma-separated coordinates, got '1,2,,3': entry 3 is empty"),
    (["group", "mul", "--p", "[1,2],3", "--q", "0,0,0"],
     "--p takes comma-separated coordinates, got '[1,2],3': Invalid literal for Fraction"),
    (["group", "inv", "--point", "1/0,0,0"],
     "--point takes comma-separated coordinates, got '1/0,0,0': '1/0' has a zero denominator"),
    (["rewrite", "trace", "--step", "3", "--profile", "a,1"],
     "--profile takes comma-separated layer counts, got 'a,1': invalid literal for int()"),
    (["verify", "decay", "--radii", "0.5,x"],
     "--radii takes comma-separated radii, got '0.5,x': could not convert string to float"),
    (["verify", "decay", "--radii", "0.5,"],
     "--radii takes comma-separated radii, got '0.5,': entry 2 is empty"),
    (["verify", "hormander", "--direction", "1"],
     "--direction takes a basis label k,i, got '1': not a coordinate axis, which has 2 entries"),
    # a grid with no node inside the bump's support
    (["verify", "peetre", "--n", "2"], "no grid nodes inside the bump's support at --n 2"),
    (["verify", "hormander", "--n", "2"], "no grid nodes inside the bump's support at --n 2"),
    # a group name that is neither a builtin nor a readable file
    (["solve", "--group", "heisenburg"],
     "--group takes a group name or spec file, got 'heisenburg': [Errno 2] No such file or "
     "directory: 'heisenburg', and not a builtin group (heisenberg, engel, free:m,r, "
     "abelian:n)"),
    (["group", "gauge", "--group", "free:2,", "--point", "0"],
     "No such file or directory: 'free:2,', and not a builtin group"),
    # empty polynomial text, whole or one component of a list
    (["solve", "--f", "p11;"], "--f takes polynomials, got 'p11;': component 2 is empty"),
    (["solve", "--bc", ""], "--bc takes polynomials, got '': the text is empty"),
    (["fields", "residual", "--u", "poly:"], "got 'poly:': the text is empty"),
    (["fields", "residual", "--u", "p11; ;p21"], "component 2 is empty"),
    # fractional orders outside (0, 1], named by their option, and a --beta
    # above --alpha, outside the premise of the sandwich
    (["verify", "peetre", "--alpha", "0"],
     "--alpha takes a fractional order, got 0.0: a fractional order must lie in (0, 1]"),
    (["verify", "peetre", "--beta", "1.5"],
     "--beta takes a fractional order, got 1.5: a fractional order must lie in (0, 1]"),
    (["verify", "peetre", "--beta", "nan"], "--beta takes a fractional order, got nan"),
    (["verify", "peetre", "--alpha", "0.5", "--beta", "0.9"],
     "--beta 0.9 exceeds --alpha 0.5: the sandwich needs --beta at most --alpha"),
    # radii whose square or fourth power, the scale of a check's derivative
    # terms, underflows or overflows
    (["verify", "caccioppoli", "--n", "9", "--radius", "1e-300"],
     "--radius takes a ball radius, got 1e-300: the radius 1e-300 makes r**2 = 0.000e+00, "
     "not a normal float"),
    (["verify", "caccioppoli", "--n", "9", "--radius", "1e-160"],
     "the radius 1e-160 makes r**2 = 1.000e-320, not a normal float"),
    (["verify", "caccioppoli", "--n", "9", "--radius", "1e200"],
     "the radius 1e+200 makes r**2 = inf, not a normal float"),
    (["verify", "supbound", "--n", "9", "--radius", "1e-300"],
     "the radius 1e-300 makes r**4 = 0.000e+00, not a normal float"),
    (["verify", "supbound", "--n", "9", "--radius", "1e-80"],
     "the radius 1e-80 makes r**4 = 1.000e-320, not a normal float"),
    # half widths whose cell volume or weak form leaves the float range
    (["solve", "--group", "engel", "--n", "5", "--half-width", "1e60"],
     "the stiffness matrix or the loads leave the float range at half widths "
     "[1e+60, 1e+60, 1e+60, 1e+60]"),
    (["solve", "--group", "heisenberg", "--n", "9", "--half-width", "1e100"],
     "the stiffness matrix or the loads leave the float range at half widths [1e+100"),
    (["solve", "--group", "heisenberg", "--half-width", "1e160"],
     "half widths [1e+160, 1e+160, 1e+160] give the cell volume inf on the 32x32x32 grid"),
    (["solve", "--group", "engel", "--n", "5", "--half-width", "1e200"],
     "half widths [1e+200, 1e+200, 1e+200, 1e+200] give the cell volume inf"),
    (["solve", "--half-width", "1e-200"],
     "half widths [1e-200, 1e-200, 1e-200] give the cell volume 0.000e+00 on the 32x32x32 "
     "grid, not a normal float"),
    (["solve", "--n", "5", "--bc", "p11^4", "--half-width", "1e90"],
     "the boundary data leaves the float range on the grid at half widths "
     "[1e+90, 1e+90, 1e+90]"),
    (["solve", "--n", "5", "--f", "p11^4", "--half-width", "1e90"],
     "f leaves the float range on the grid at half widths [1e+90, 1e+90, 1e+90]"),
])
def test_domain_errors_exit_2_with_one_line(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0]
    assert "Traceback" not in result.output


@pytest.mark.parametrize("spec,message", [
    ({"kind": "free", "m": 2.9, "r": 2}, "m must be an integer, got 2.9"),
    ({"kind": "free", "m": True, "r": 2}, "m must be an integer, got True"),
    ({"kind": "free", "m": 2, "r": False}, "r must be an integer, got False"),
    ({"kind": "table", "layer_dims": [2, 1], "brackets": [
        {"a": [1, 1], "b": [1, 2], "out": [{"basis": [2, 1], "num": 1, "den": 0}]}]},
     "den must be nonzero, got 0"),
    ({"kind": "table", "layer_dims": [2, 1], "brackets": [
        {"a": [1, 1], "b": [1, 2], "out": [{"basis": [2, 1], "num": True}]}]},
     "num must be an integer, got True"),
    ({"kind": "table", "layer_dims": [True, 1], "brackets": []},
     "a layer dimension must be an integer, got True"),
    ({"kind": "table", "layer_dims": [2, 1], "brackets": [
        {"a": [True, 1], "b": [1, 2], "out": [{"basis": [2, 1], "num": 1}]}]},
     "label index must be an integer, got True"),
    ({"kind": "table"}, "malformed group spec: KeyError('layer_dims')"),
    ({"kind": "free", "r": 2}, "malformed group spec: KeyError('m')"),
    ([2, 1], "malformed group spec: AttributeError"),
])
def test_spec_file_with_a_non_integer_exits_2(runner, tmp_path, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["algebra", "check", "--group", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0]


def test_solve_over_the_byte_limit_exits_2_with_one_line(runner, monkeypatch):
    monkeypatch.setattr(numerics, "GRID_BYTE_LIMIT", 1 << 20)
    result = runner.invoke(main, ["solve", "--n", "20"])
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and "to assemble the stiffness matrix" in lines[0]


@pytest.mark.parametrize("args", [[], ["verify"]])
def test_a_bare_group_prints_its_help(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output.startswith("Usage: ") and "Commands:" in result.output


def test_default_suite_json_keeps_its_bytes(tmp_path):
    # any change to these bytes comes with a version bump and a new digest
    out = tmp_path / "report.json"
    done = _run_python("-m", "carnot", "suite", "--json", str(out), timeout=300,
                       OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a6b14760312b92716c25436e4986fd8ad9b1f6d5642aed118bf97d1fee413c7e")


def test_package_runs_as_a_module():
    done = _run_python("-m", "carnot", "--help")
    assert done.returncode == 0, done.stderr
    assert "Usage: python -m carnot" in done.stdout
    assert "suite" in done.stdout


def _scipy_modules(names):
    return sorted(m for m in names if m == "scipy" or m.startswith("scipy."))


def test_imports_load_no_scipy_until_the_first_solve():
    # scipy builds and factors the solver's sparse matrices and nothing else
    script = """
import json, sys
import carnot, carnot.cli, carnot.suite, carnot.regularity, carnot.numerics
print(json.dumps(sorted(sys.modules)))
from carnot.catalog import heisenberg
from carnot.fields import SystemCoefficients
from carnot.poly import PolyFunction
spec = heisenberg()
carnot.numerics.assemble_and_solve(spec, SystemCoefficients.identity(1, spec.m),
                                   [PolyFunction.variable((1, 1))], n=6)
print(json.dumps(sorted(sys.modules)))
"""
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    imported, solved = (json.loads(line) for line in done.stdout.splitlines())
    assert _scipy_modules(imported) == []
    # the solve needs scipy's sparse matrices but none of its linear algebra
    assert "scipy.sparse" in solved
    assert "scipy.sparse.linalg" not in solved and "scipy.linalg" not in solved


def _imported_names(path):
    """Every module an import statement of the file names, with each name
    a ``from`` import takes appended to its module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_scipy_linear_algebra():
    package = Path(carnot.__file__).resolve().parent
    imports = {(path.name, name) for path in package.glob("*.py")
               for name in _imported_names(path)}
    assert ("numerics.py", "scipy.sparse") in imports
    assert [(file, name) for file, name in sorted(imports)
            if re.match(r"scipy(\.sparse)?\.linalg\b", name)] == []


def test_exact_cli_command_loads_no_scipy():
    # -X importtime logs every module the process imports, to stderr
    done = _run_python("-X", "importtime", "-m", "carnot", "rewrite", "sweep",
                       "--step", "3", "--max-total", "4")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "classification_failures": 0, "max_total": 4, "max_trace": 7,
        "profiles": 14, "r": 3, "w_violations": 0,
    }
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "carnot.cli" in imported
    assert _scipy_modules(imported) == []


def test_rewrite_sweep_counts_unclassified_profiles_and_exits_1(runner):
    # step 5 leaves the certificate's case table: a report, not a crash
    result = runner.invoke(main, ["rewrite", "sweep", "--step", "5",
                                  "--max-total", "4"])
    assert result.exit_code == 1
    data = json.loads(result.stdout)
    assert data["profiles"] == 69 and data["classification_failures"] == 25
    assert data["w_violations"] == 0


def test_package_and_report_versions_agree(monkeypatch):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)
    monkeypatch.setattr(suite, "ALL_CHECKS", ())
    assert declared.group(1) == carnot.__version__ == suite.run_suite()["version"]


def test_suite_rejects_group_option(runner):
    result = runner.invoke(main, ["suite", "--group", "engel"])
    assert result.exit_code == 2
    assert "No such option" in result.stderr


def test_suite_and_verify_decay_share_one_threshold(runner):
    # criterion 10 of the default suite and `verify decay` gate on one bound
    result = runner.invoke(main, ["verify", "decay", "--group", "heisenberg",
                                  "--n", "16", "--radii", "0.5,1"])
    cli_threshold = json.loads(result.stdout)["threshold"]
    suite_threshold = suite.check_excess_decay(suite.RunConfig())["threshold"]
    assert cli_threshold == suite_threshold
    assert suite_threshold == pytest.approx(5.7)


def test_run_config_rejects_non_positive_soundness_cases():
    # the one count the suite command has no option for
    with pytest.raises(ValueError, match="soundness_cases must be positive"):
        suite.RunConfig(soundness_cases=0)


def test_ball_volume_gate_fails_on_too_few_samples():
    # one sample lands in both balls or in neither: the ratio can be exactly
    # 2^Q, but the intervals are as wide as the box
    rep = suite.check_ball_volume(suite.RunConfig(mc_samples=1))
    assert rep["pass"] is False
    for est in rep["estimates"].values():
        assert est["ci"][1] - est["ci"][0] == pytest.approx(6.0 * est["box_volume"])


def test_a_check_that_raises_keeps_its_criterion_id_and_name(monkeypatch):
    # the solver fails inside criterion 9; the other checks are stubbed
    def broken(*args, **kwargs):
        raise RuntimeError("solver down")

    monkeypatch.setattr(suite.numerics, "assemble_and_solve", broken)
    monkeypatch.setattr(suite, "ALL_CHECKS", [
        (name, check if name == "caccioppoli_stability" else lambda config: {"pass": True})
        for name, check in suite.ALL_CHECKS
    ])
    entries = suite.run_suite()["checks"]
    assert [(e["id"], e["name"]) for e in entries] == [
        (1, "exact_algebra"), (2, "exact_group"), (3, "ball_volume_scaling"),
        (4, "vector_fields"), (5, "rewrite_soundness"), (6, "rewrite_termination"),
        (7, "naive_order_obstruction"), (8, "solver_convergence"),
        (9, "caccioppoli_stability"), (10, "excess_decay"), (11, "determinism"),
    ]
    assert entries[8] == {"id": 9, "name": "caccioppoli_stability", "pass": False,
                          "error": "RuntimeError: solver down"}


def test_ball_volume_without_small_ball_hits_fails_without_error(monkeypatch):
    # at one sample some seeds put no point in the unit ball: the ratio is
    # undefined and the gate fails with its numbers, not with an exception
    monkeypatch.setattr(suite, "ALL_CHECKS",
                        [("ball_volume_scaling", suite.check_ball_volume)])
    undefined = 0
    for seed in range(10):
        (rep,) = suite.run_suite(suite.RunConfig(mc_samples=1, seed=seed))["checks"]
        assert "error" not in rep and rep["pass"] is False
        if rep["estimates"]["R=1"]["estimate"] == 0.0:
            assert rep["ratio"] is None
            undefined += 1
    assert undefined > 0


def _work_not_expected(*args, **kwargs):
    pytest.fail("the command started its work before it checked its output path")


@pytest.mark.parametrize("args,work", [
    (["suite", "--json"], "carnot.cli.run_suite"),
    (["solve", "--n", "5", "--out"], "carnot.numerics.assemble_and_solve"),
    (["rewrite", "trace", "--step", "3", "--profile", "1,0", "--json"],
     "carnot.rewrite.reduce_to_base"),
    (["algebra", "new", "--m", "2", "--r", "2", "--out"],
     "carnot.algebra.build_free_nilpotent"),
])
@pytest.mark.parametrize("where", ["missing directory", "directory", "unwritable file"])
def test_an_output_path_is_refused_before_the_work(runner, monkeypatch, tmp_path,
                                                    args, work, where):
    monkeypatch.setattr(work, _work_not_expected)
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    real_access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: real_access(path, mode) and not (
        path == str(kept) and mode & os.W_OK))
    path, message = {
        "missing directory": (tmp_path / "missing" / "out.json", "No such file or directory"),
        "directory": (tmp_path, "Is a directory"),
        "unwritable file": (kept, "Permission denied"),
    }[where]
    result = runner.invoke(main, args + [str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0] and str(path) in lines[0]
    assert kept.read_text() == "kept\n"


@pytest.mark.parametrize("args,work", [
    (["verify", "decay", "--radii", "0.5,x"], "carnot.numerics.assemble_and_solve"),
    (["solve", "--f", "p11;"], "carnot.numerics.assemble_and_solve"),
    (["rewrite", "trace", "--step", "3", "--profile", "1,"], "carnot.rewrite.reduce_to_base"),
    (["verify", "decay", "--n", "48", "--tau", "2"], "carnot.numerics.assemble_and_solve"),
    (["verify", "decay", "--n", "48", "--radii", "1"], "carnot.numerics.assemble_and_solve"),
    (["verify", "caccioppoli", "--n", "48", "--radius", "-1"],
     "carnot.numerics.assemble_and_solve"),
    (["verify", "supbound", "--n", "48", "--radius", "nan"], "carnot.numerics.assemble_and_solve"),
    (["verify", "estimate", "--n", "48", "--radius", "inf"], "carnot.numerics.assemble_and_solve"),
    (["verify", "decay", "--n", "48", "--radii", "0.25,nan,1"],
     "carnot.numerics.assemble_and_solve"),
    (["group", "ballvol", "--radius", "nan"], "carnot.group.ball_volume_estimate"),
    (["verify", "peetre", "--n", "300", "--alpha", "0"], "carnot.cli._bump_field"),
    (["verify", "peetre", "--n", "300", "--alpha", "0.5", "--beta", "0.9"],
     "carnot.cli._bump_field"),
    (["verify", "caccioppoli", "--n", "48", "--radius", "1e-300"],
     "carnot.numerics.assemble_and_solve"),
    (["verify", "supbound", "--n", "48", "--radius", "1e-80"],
     "carnot.numerics.assemble_and_solve"),
    (["solve", "--group", "engel", "--n", "5", "--half-width", "1e60"], "carnot.numerics.VCycle"),
    (["solve", "--n", "48", "--half-width", "1e-200"], "carnot.numerics._weak_form"),
])
def test_an_option_value_is_read_before_the_work(runner, monkeypatch, args, work):
    monkeypatch.setattr(work, _work_not_expected)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1


def test_an_existing_output_file_keeps_its_bytes_when_the_work_fails(runner, tmp_path):
    out = tmp_path / "u.csv"
    out.write_text("kept\n")
    result = runner.invoke(main, ["solve", "--n", "5", "--bc", "p31", "--out", str(out)])
    assert result.exit_code == 2
    assert "polynomial variables (1, 3) not among" in result.stderr
    assert out.read_text() == "kept\n"


def test_suite_text_format_with_a_json_path_is_a_usage_error(runner, monkeypatch, tmp_path):
    monkeypatch.setattr("carnot.cli.run_suite", _work_not_expected)
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["suite", "--format", "text", "--json", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and "--format text" in lines[0] and "--json" in lines[0]
    assert not out.exists()


def test_fields_residual_reads_a_leading_minus_outside_the_power(runner):
    # -p11^2 is -(p11^2), whose sub-Laplacian is -2
    result = runner.invoke(main, ["fields", "residual", "--group", "heisenberg",
                                  "--u", "-p11^2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["residual"][0] == [{"mono": [], "num": -2, "den": 1}]
