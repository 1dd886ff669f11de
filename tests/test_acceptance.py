"""Acceptance gate: the suite's own checks at the full-strength preset
``suite.ACCEPTANCE``, one printed pass/fail line per criterion.  Run with
``pytest tests/test_acceptance.py -v -s``.

Each test asserts its own literal bound on the raw numbers a check returns,
beside the check's ``pass`` flag, and keeps the oracles that do not come from
the suite: the necklace layer counts, the degree-3 reproduction and the
per-direction obstruction verdicts.
"""

import json
import math
import time

from click.testing import CliRunner

from carnot import suite
from carnot.catalog import heisenberg
from carnot.cli import main as cli_main
from carnot.fields import SystemCoefficients, system_residual
from carnot.numerics import GridField, assemble_and_solve, l2_norm_sq
from carnot.poly import PolyFunction


def run(check):
    start = time.monotonic()
    rep = check(suite.ACCEPTANCE)
    return rep, time.monotonic() - start


def report(criterion, rep, ok, detail=""):
    ok = ok and rep["pass"]
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# independent layer-dimension oracle (necklace counts)
def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def witt_dims(m, r):
    return [
        sum(_mobius(d) * m ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
        for k in range(1, r + 1)
    ]


def test_criterion_1_exact_algebra():
    rep, elapsed = run(suite.check_exact_algebra)
    free = {name: g for name, g in rep["groups"].items() if name.startswith("free:")}
    ok = len(free) == 5 and all(g["violations"] == 0 for g in rep["groups"].values())
    for name, g in free.items():
        m, r = map(int, name[len("free:"):].split(","))
        ok &= g["layer_dims"] == witt_dims(m, r)
    report(1, rep, ok and elapsed < 10.0,
           f"{len(free)} free groups validated exactly in {elapsed:.2f}s (< 10 s)")


def test_criterion_2_exact_group():
    rep, elapsed = run(suite.check_group_exactness)
    ok = rep["triples"] >= 1000 and len(rep["groups"]) == 5
    ok &= all(all(flags.values()) for flags in rep["groups"].values())
    report(2, rep, ok and elapsed < 60.0,
           f"{rep['triples']} exact associativity triples per group "
           f"in {elapsed:.1f}s (< 60 s)")


def test_criterion_3_ball_volume_ratio():
    rep, elapsed = run(suite.check_ball_volume)
    expected = 2 ** rep["Q"]
    ok = abs(rep["ratio"] - expected) <= 0.03 * expected and rep["samples"] >= 10**6
    report(3, rep, ok and elapsed < 30.0,
           f"|B(2R)|/|B(R)| = {rep['ratio']:.3f} ({expected} +/- 3%) from "
           f"{rep['samples']} samples in {elapsed:.1f}s (< 30 s)")


def test_criterion_4_vector_fields():
    rep, _ = run(suite.check_fields)
    ok = len(rep["checks"]) == 4 and all(rep["checks"].values())
    report(4, rep, ok, "operator brackets match structure constants; "
                       "coordinate residuals vanish exactly")


def test_criterion_5_rewrite_soundness():
    rep, _ = run(suite.check_rewrite_soundness)
    ok = rep["cases"] >= 200 and rep["failures"] == 0
    ok &= rep["nontrivial_cases"] >= rep["cases"] / 2
    report(5, rep, ok, f"{rep['cases']} randomized exact identities, "
                       f"{rep['failures']} failures, {rep['nontrivial_cases']} nontrivial")


def test_criterion_6_rewrite_termination():
    rep, elapsed = run(suite.check_rewrite_termination)
    sweeps = rep["sweeps"].values()
    ok = rep["max_total"] >= 6 and len(sweeps) == 3
    ok &= all(s["classification_failures"] == 0 and s["w_violations"] == 0 for s in sweeps)
    report(6, rep, ok and elapsed < 120.0,
           f"{sum(s['profiles'] for s in sweeps)} profiles reduced (longest trace "
           f"{max(s['max_trace'] for s in sweeps)}), 0 classification failures "
           f"in {elapsed:.1f}s (< 120 s)")


def test_criterion_7_obstruction_replay():
    rep, _ = run(suite.check_obstruction)
    cases = rep["report"]["cases"]
    verdicts = {tuple(c["direction"]): c["obstruction"] for c in cases}
    ok = verdicts == {(2, 1): True, (3, 1): False, (4, 1): False}
    report(7, rep, ok, "circular term only along layer 2: "
                       f"{rep['report']['obstructed_directions']}")


def test_criterion_8_solver_convergence():
    rep, elapsed = run(suite.check_solver)
    # low-degree manufactured solutions are reproduced to solver precision
    heis = heisenberg()
    u3 = (
        PolyFunction.variable((1, 1)) * PolyFunction.variable((1, 2))
        * PolyFunction.variable((2, 1))
        + PolyFunction.variable((1, 1)) ** 3
    )
    ident = SystemCoefficients.identity(1, heis.m)
    sol = assemble_and_solve(heis, ident, [u3], f=system_residual(heis, ident, [u3]),
                             n=16)
    exact = GridField.from_polys(sol.grid, [u3])
    error = math.sqrt(l2_norm_sq(GridField(sol.grid, sol.values - exact.values)))
    ok = rep["order"] >= 1.8 and rep["sizes"] == [16, 32, 64]
    ok &= error <= 1e-9
    report(8, rep, ok and elapsed < 120.0,
           f"measured order {rep['order']:.2f} (>= 1.8) on n={rep['sizes']}; "
           f"degree-3 reproduced to {error:.1e}; "
           f"{elapsed:.1f}s (< 120 s)")


def test_criterion_9_caccioppoli_stability():
    rep, _ = run(suite.check_caccioppoli)
    constants = rep["constants"]
    ok = rep["sizes"] == [16, 32, 64] and min(constants) > 0
    ok &= rep["spread"] <= 2.0
    report(9, rep, ok, "empirical constants "
           + ", ".join(f"{c:.4f}" for c in constants)
           + f" on n={rep['sizes']} (spread {rep['spread']:.2f} <= 2)")


def test_criterion_10_excess_decay():
    rep, _ = run(suite.check_excess_decay)
    ok = rep["n"] >= 64 and rep["fitted_exponent"] >= rep["Q"] + 2 - 0.3
    report(10, rep, ok, f"fitted exponent {rep['fitted_exponent']:.2f} >= "
                        f"{rep['Q'] + 2 - 0.3} at n={rep['n']}")


def test_criterion_11_suite_determinism(tmp_path):
    rep, _ = run(suite.check_determinism)
    runner = CliRunner()
    args = ["suite", "--n", "24", "--triples", "50", "--samples", "50000",
            "--sweep-total", "4", "--seed", "12345"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    first = runner.invoke(cli_main, args + ["--json", str(out_a)])
    second = runner.invoke(cli_main, args + ["--json", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    all_pass = first.exit_code == 0 and second.exit_code == 0
    payload = json.loads(out_a.read_text())
    ok = identical and all_pass and len(payload["checks"]) == 11
    ok &= rep["replayed_equal"] and rep["sampler_equal"]
    report(11, rep, ok, f"two suite runs byte-identical={identical}, "
                        f"all checks pass={all_pass}")
