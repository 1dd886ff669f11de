"""Command-line entry point wiring all modules.

Exit codes: 0 success, 1 failed check, 2 usage or domain error (one line
on stderr, no traceback).  Numeric output is deterministic for a fixed
seed; the ``CARNOT_SEED`` environment variable overrides any seed option.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

import click

from . import algebra, group, numerics, regularity, rewrite
from .catalog import resolve_group
from .expressions import parse_poly, poly_from_json, poly_to_json
from .fields import (
    SystemCoefficients,
    commutator_check,
    left_invariant_field,
    system_residual,
)
from .suite import RunConfig, run_suite


def _seed(value):
    env = os.environ.get("CARNOT_SEED")
    return int(env) if env else int(value)


def _emit(data, out=None):
    text = json.dumps(data, sort_keys=True, indent=2, default=str) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


def _sig6(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_text(report):
    # text reports round to 6 significant digits; JSON keeps full precision
    lines = []
    for entry in report["checks"]:
        status = "PASS" if entry.get("pass") else "FAIL"
        detail = ", ".join(
            f"{k}={_sig6(v)}"
            for k, v in sorted(entry.items())
            if k not in ("id", "name", "pass") and isinstance(v, (int, float, str))
        )
        lines.append(f"[{entry['id']:>2}] {status} {entry['name']}  {detail}")
    lines.append("all_pass: " + str(report["all_pass"]))
    return "\n".join(lines) + "\n"


def _parse_point(spec, text):
    parts = [p.strip() for p in text.replace("[", "").replace("]", "").split(",")]
    values = [Fraction(p) for p in parts if p]
    return group.Point.from_sequence(spec, values)


def _point_json(point):
    exact = all(not isinstance(v, float) for v in point.coords.values())
    out = {"coords": [float(v) for v in point.sequence()]}
    if exact:
        out["exact"] = [str(Fraction(v)) for v in point.sequence()]
    return out


def _parse_polys(text):
    """Accept an expression, a JSON exponent-coefficient list, or @file."""
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return [poly_from_json(t) for t in json.load(fh)]
    if text.startswith("[") or text.startswith("{"):
        data = json.loads(text)
        if data and isinstance(data[0], dict):
            data = [data]
        return [poly_from_json(t) for t in data]
    return [parse_poly(piece) for piece in text.split(";")]


group_option = click.option("--group", "group_name", default="heisenberg",
                            show_default=True,
                            help="builtin name (heisenberg|engel|free:m,r|abelian:n) or spec JSON path")


class DomainError(click.ClickException):
    """Input a command cannot work with; shown as one line, exit code 2."""

    exit_code = 2


class _Commands(click.Group):
    def invoke(self, ctx):
        # a numerics domain error (a stencil leaving the box, a ball with no
        # grid nodes) or a malformed value is the caller's input, not a crash
        try:
            return super().invoke(ctx)
        except (numerics.NumericsError, ValueError) as exc:
            raise DomainError(str(exc)) from None


@click.group(cls=_Commands)
def main():
    """Exact Carnot-group computation and desk-scale estimate checks."""


# ---------------------------------------------------------------- algebra

@main.group("algebra")
def algebra_group():
    """Construct and validate stratified algebras."""


@algebra_group.command("new")
@click.option("--m", type=int, required=True, help="generator count")
@click.option("--r", type=int, required=True, help="step")
@click.option("--out", type=click.Path(), default=None)
def algebra_new(m, r, out):
    spec = algebra.build_free_nilpotent(m, r)
    _emit(algebra.spec_to_json(spec), out)


@algebra_group.command("check")
@group_option
def algebra_check(group_name):
    spec = resolve_group(group_name)
    problems = algebra.validate_spec(spec)
    strat = algebra.verify_stratification(spec)
    report = {
        "group": spec.name or group_name,
        "layer_dims": list(spec.layer_dims),
        "violations": [str(p) for p in problems],
        "stratification": strat,
        "ok": not problems and strat["ok"],
    }
    _emit(report)
    if not report["ok"]:
        sys.exit(1)


@algebra_group.command("dims")
@group_option
def algebra_dims(group_name):
    spec = resolve_group(group_name)
    click.echo(json.dumps(list(spec.layer_dims)))


# ---------------------------------------------------------------- group

@main.group("group")
def group_group():
    """Exact group operations in exponential coordinates."""


@group_group.command("mul")
@group_option
@click.option("--p", "p_text", required=True)
@click.option("--q", "q_text", required=True)
def group_mul(group_name, p_text, q_text):
    spec = resolve_group(group_name)
    p = _parse_point(spec, p_text)
    q = _parse_point(spec, q_text)
    _emit(_point_json(group.bch_product(p, q)))


@group_group.command("inv")
@group_option
@click.option("--point", "point_text", required=True)
def group_inv(group_name, point_text):
    spec = resolve_group(group_name)
    _emit(_point_json(group.inverse(_parse_point(spec, point_text))))


@group_group.command("dilate")
@group_option
@click.option("--s", "factor", required=True)
@click.option("--point", "point_text", required=True)
def group_dilate(group_name, factor, point_text):
    spec = resolve_group(group_name)
    p = _parse_point(spec, point_text)
    _emit(_point_json(group.dilate(Fraction(factor), p)))


@group_group.command("gauge")
@group_option
@click.option("--point", "point_text", required=True)
def group_gauge(group_name, point_text):
    spec = resolve_group(group_name)
    click.echo(json.dumps(group.gauge_norm(_parse_point(spec, point_text))))


@group_group.command("dist")
@group_option
@click.option("--p", "p_text", required=True)
@click.option("--q", "q_text", required=True)
def group_dist(group_name, p_text, q_text):
    spec = resolve_group(group_name)
    p = _parse_point(spec, p_text)
    q = _parse_point(spec, q_text)
    click.echo(json.dumps(group.gauge_distance(p, q)))


@group_group.command("ballvol")
@group_option
@click.option("--radius", type=float, default=1.0, show_default=True)
@click.option("--samples", type=int, default=200_000, show_default=True)
@click.option("--seed", type=int, default=12345, show_default=True)
def group_ballvol(group_name, radius, samples, seed):
    spec = resolve_group(group_name)
    _emit(group.ball_volume_estimate(spec, radius, samples, seed=_seed(seed)))


# ---------------------------------------------------------------- fields

@main.group("fields")
def fields_group():
    """Left-invariant vector fields and the system residual."""


@fields_group.command("show")
@group_option
@click.option("--label", required=True, help="basis label k,i")
def fields_show(group_name, label):
    spec = resolve_group(group_name)
    k, i = (int(x) for x in label.split(","))
    op = left_invariant_field(spec, (k, i))
    _emit(
        {
            "label": [k, i],
            "display": repr(op),
            "coefficients": {
                str(list(lab)): poly_to_json(poly) for lab, poly in sorted(op.coeffs.items())
            },
        }
    )


@fields_group.command("residual")
@group_option
@click.option("--u", "u_text", required=True,
              help="solution polynomial(s): expression, JSON, or @file")
@click.option("--f", "f_text", default=None)
@click.option("--fi", "fi_text", default=None,
              help="semicolon-separated flux data, one per horizontal slot")
def fields_residual(group_name, u_text, f_text, fi_text):
    spec = resolve_group(group_name)
    u = _parse_polys(u_text)
    ident = SystemCoefficients.identity(len(u), spec.m)
    f = _parse_polys(f_text) if f_text else None
    f_i = None
    if fi_text:
        if len(u) != 1:
            raise click.UsageError("flux data input supports one component")
        per_slot = _parse_polys(fi_text)
        if len(per_slot) != spec.m:
            raise click.UsageError(f"need {spec.m} flux polynomials")
        f_i = [[p] for p in per_slot]
    res = system_residual(spec, ident, u, f_i=f_i, f=f)
    _emit(
        {
            "residual": [poly_to_json(p) for p in res],
            "is_zero": all(p.is_zero() for p in res),
        }
    )


@fields_group.command("commutators")
@group_option
def fields_commutators(group_name):
    spec = resolve_group(group_name)
    rep = commutator_check(spec)
    _emit(rep)
    if not rep["ok"]:
        sys.exit(1)


# ---------------------------------------------------------------- rewrite

@main.group("rewrite")
def rewrite_group():
    """Derivative-word rewriting and its termination certificates."""


@rewrite_group.command("trace")
@click.option("--step", "step_r", type=int, required=True)
@click.option("--profile", "profile_text", required=True,
              help="comma counts for layers 2..r")
@click.option("--json", "out", type=click.Path(), default=None)
def rewrite_trace(step_r, profile_text, out):
    counts = [int(x) for x in profile_text.split(",")]
    if len(counts) != step_r - 1:
        raise click.UsageError(f"need {step_r - 1} counts for layers 2..{step_r}")
    profile = rewrite.LayerProfile(step_r, [0] + counts)
    trace = rewrite.reduce_to_base(profile)
    _emit(trace.to_json(), out)


@rewrite_group.command("obstruction")
def rewrite_obstruction():
    _emit(rewrite.naive_order_obstruction())


@rewrite_group.command("sweep")
@click.option("--step", "step_r", type=int, required=True)
@click.option("--max-total", type=int, default=6, show_default=True)
def rewrite_sweep(step_r, max_total):
    rep = rewrite.termination_sweep(step_r, max_total)
    _emit(rep)
    if rep["classification_failures"] or rep["w_violations"]:
        sys.exit(1)


# ---------------------------------------------------------------- solve

@main.command("solve")
@group_option
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--bc", "bc_text", default="poly:p11", show_default=True)
@click.option("--f", "f_text", default=None)
@click.option("--half-width", type=float, default=1.0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="CSV output path")
def solve_cmd(group_name, n, bc_text, f_text, half_width, out):
    """Solve the weak form with Dirichlet data on the box faces."""
    spec = resolve_group(group_name)
    bc = _parse_polys(bc_text)
    f = _parse_polys(f_text) if f_text else None
    ident = SystemCoefficients.identity(len(bc), spec.m)
    sol = numerics.assemble_and_solve(
        spec, ident, bc, f=f, n=n, half_widths=half_width
    )
    if out:
        _write_csv(sol, out)
        click.echo(f"wrote {out}")
    _emit({"solve_report": sol.solve_report})


def _write_csv(field, path):
    import numpy as np

    grid = field.grid
    nodes = grid.node_arrays()
    cols = [nodes[lab].ravel() for lab in grid.axes]
    cols += [field.values[..., a].ravel() for a in range(field.n_components)]
    header = ",".join(
        [f"p_{lab[1]}_{lab[0]}" for lab in grid.axes]
        + [f"u{a+1}" for a in range(field.n_components)]
    )
    data = np.column_stack(cols)
    np.savetxt(path, data, delimiter=",", header=header, comments="")


# ---------------------------------------------------------------- verify

@main.group("verify")
def verify_group():
    """Desk-scale estimate checks; exit 1 when a check fails."""


def _solve_for_check(group_name, n, bc_text):
    spec = resolve_group(group_name)
    bc = _parse_polys(bc_text)
    ident = SystemCoefficients.identity(len(bc), spec.m)
    return spec, numerics.assemble_and_solve(spec, ident, bc, n=n)


def _emit_verdict(rep, constant):
    """Emit the report; exit 1 unless the constant is finite and positive."""
    rep["stable"] = math.isfinite(constant) and constant > 0
    _emit(rep)
    if not rep["stable"]:
        sys.exit(1)


@verify_group.command("caccioppoli")
@group_option
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--bc", "bc_text", default="poly:p11*p21", show_default=True)
@click.option("--radius", type=float, default=0.45, show_default=True)
def verify_caccioppoli(group_name, n, bc_text, radius):
    _, sol = _solve_for_check(group_name, n, bc_text)
    rep = numerics.caccioppoli_check(sol, radius=radius)
    _emit_verdict(rep, rep["empirical_constant"])


@verify_group.command("peetre")
@group_option
@click.option("--n", type=int, default=17, show_default=True)
@click.option("--direction", default="1,1", show_default=True)
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--beta", type=float, default=0.5, show_default=True)
def verify_peetre(group_name, n, direction, alpha, beta):
    spec = resolve_group(group_name)
    u = _bump_field(spec, n)
    d = tuple(int(x) for x in direction.split(","))
    high = numerics.peetre_seminorm(u, numerics.SeminormParams(d, alpha))
    low = numerics.peetre_seminorm(u, numerics.SeminormParams(d, beta))
    rep = {
        "direction": list(d),
        "alpha": alpha,
        "beta": beta,
        "seminorm_alpha": high,
        "seminorm_beta": low,
        "sandwich_constant": low / high if high > 0 else 0.0,
        "ok": low <= high or high == 0.0,
    }
    _emit(rep)
    if not rep["ok"]:
        sys.exit(1)


@verify_group.command("hormander")
@group_option
@click.option("--n", type=int, default=17, show_default=True)
@click.option("--direction", default="2,1", show_default=True)
def verify_hormander(group_name, n, direction):
    spec = resolve_group(group_name)
    u = _bump_field(spec, n)
    d = tuple(int(x) for x in direction.split(","))
    ratio = numerics.hormander_ratio(u, d)
    _emit_verdict({"direction": list(d), "ratio": ratio}, ratio)


def _bump_field(spec, n, support=0.8):
    import numpy as np

    grid = numerics.Grid(spec, n, 1.0)
    bump = np.ones(grid.shape)
    for lab, arr in grid.node_arrays().items():
        bump = bump * np.clip(1.0 - (arr / support) ** 2, 0.0, None) ** 2
    return numerics.GridField(grid, bump)


@verify_group.command("decay")
@group_option
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--bc", "bc_text", default="poly:p11", show_default=True)
@click.option("--tau", type=float, default=0.5, show_default=True)
@click.option("--radii", default="0.25,0.5,1", show_default=True)
def verify_decay(group_name, n, bc_text, tau, radii):
    spec, sol = _solve_for_check(group_name, n, bc_text)
    center = [0.0] * len(spec.basis)
    radii_list = [float(x) for x in radii.split(",")]
    rep = regularity.excess_decay_check(sol, center, tau, max(radii_list),
                                        radii=radii_list)
    rep["resolutions"] = [n]
    # the acceptance gate on the decay exponent
    rep["threshold"] = rep["Q"] + 2 - 0.3
    rep["stable"] = rep["fitted_exponent"] >= rep["threshold"]
    _emit(rep)
    if not rep["stable"]:
        sys.exit(1)


@verify_group.command("supbound")
@group_option
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--bc", "bc_text", default="poly:p11*p21", show_default=True)
@click.option("--radius", type=float, default=0.4, show_default=True)
def verify_supbound(group_name, n, bc_text, radius):
    spec, sol = _solve_for_check(group_name, n, bc_text)
    center = [0.0] * len(spec.basis)
    rep = regularity.sup_estimate_check(sol, center, radius)
    _emit_verdict(rep, rep["ratio"])


@verify_group.command("estimate")
@group_option
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--bc", "bc_text", default="poly:p12", show_default=True)
@click.option("--radius", type=float, default=0.4, show_default=True)
def verify_estimate(group_name, n, bc_text, radius):
    spec, sol = _solve_for_check(group_name, n, bc_text)
    rep = regularity.higher_order_estimate_check(sol, radius=radius)
    _emit_verdict(rep, rep["empirical_constant"])


# ---------------------------------------------------------------- suite

@main.command("suite")
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--seed", type=int, default=12345, show_default=True)
@click.option("--triples", type=int, default=200, show_default=True)
@click.option("--samples", type=int, default=200_000, show_default=True)
@click.option("--sweep-total", type=int, default=5, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
@click.option("--json", "out", type=click.Path(), default=None)
def suite_cmd(n, seed, triples, samples, sweep_total, fmt, out):
    """Aggregated verification report over every module."""
    config = RunConfig(
        n=n,
        seed=_seed(seed),
        assoc_triples=triples,
        mc_samples=samples,
        sweep_total=sweep_total,
    )
    report = run_suite(config)
    if fmt == "text" and not out:
        click.echo(_render_text(report), nl=False)
    else:
        _emit(report, out)
    if not report["all_pass"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
