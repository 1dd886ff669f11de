"""Command-line entry point wiring all modules.

Exit codes: 0 success, 1 failed check (``_report``), 2 usage or domain
error (one line on stderr, no traceback; ``_Commands``).  Numeric output is
deterministic for a fixed seed.
"""

from __future__ import annotations

import errno
import json
import math
import os
import sys

import click
from click.exceptions import NoArgsIsHelpError

from . import algebra, group, numerics, regularity, rewrite
from .catalog import resolve_group
from .expressions import parse_poly, parse_rational, poly_from_json, poly_to_json
from .fields import (
    SystemCoefficients,
    commutator_check,
    left_invariant_field,
    system_residual,
)
from .suite import RunConfig, decay_threshold, run_suite


def _report(data, passed=True, out=None, render=None):
    """Write the report, as sorted JSON or through ``render``, to ``out`` or
    to stdout; exit 1 when its verdict ``passed`` is false."""
    text = render(data) if render else json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)
    if not passed:
        sys.exit(1)


def _writable(ctx, param, path):
    """Option callback: refuse an output path that cannot be written before
    any work is done; an existing file keeps its bytes."""
    if path is not None:
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(folder):
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if not os.access(path if os.path.exists(path) else folder, os.W_OK):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)
    return path


def _option(read, what):
    """Option callback factory: ``read`` the given text before any work (a
    missing value stays ``None``); a refusal is one ``ValueError`` that names
    the option, what it takes and the text, and keeps the reader's reason."""
    def callback(ctx, param, text):
        try:
            return None if text is None else read(text)
        except (algebra.AlgebraError, ValueError, OSError) as exc:
            raise ValueError(f"{param.opts[0]} takes {what}, got {text!r}: {exc}") from None
    return callback


def _comma_list(convert, count=None):
    """A reader of comma lists, each entry trimmed and read by ``convert``; the
    empty text is the empty list, and an empty entry or a length other than
    ``count`` (given only for basis labels, the coordinate axes) is refused."""
    def read(text):
        entries = [entry.strip() for entry in text.split(",")] if text.strip() else []
        if "" in entries:
            raise ValueError(f"entry {entries.index('') + 1} is empty")
        if count is not None and len(entries) != count:
            raise ValueError(f"not a coordinate axis, which has {count} entries")
        return tuple(convert(entry) for entry in entries)
    return read


_LABEL = _option(_comma_list(int, count=2), "a basis label k,i")
_POINT = _option(_comma_list(parse_rational), "comma-separated coordinates")
_RADIUS = _option(group.ball_radius, "a ball radius")
# radii whose square or fourth power scales a check's derivative terms
_RADIUS_SQUARED = _option(lambda r: numerics.scaling_radius(r, 2), "a ball radius")
_RADIUS_FOURTH = _option(lambda r: numerics.scaling_radius(r, 4), "a ball radius")
_ORDER = _option(numerics.fractional_order, "a fractional order")


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


def _point_json(point):
    coords = []
    for lab, v in zip(point.spec.basis, point.sequence()):
        try:
            coords.append(float(v))
        except OverflowError:
            size = math.log10(abs(v.numerator)) - math.log10(v.denominator)
            raise ValueError(f"coordinate {lab}, of size about 10**{size:.6g}, is "
                             "beyond the float range") from None
    return {"coords": coords, "exact": [str(v) for v in point.sequence()]}


def _parse_polys(text):
    """Accept an expression, a JSON exponent-coefficient list, or @file."""
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            data = json.load(fh)
    elif text.startswith(("[", "{")):
        data = json.loads(text)
    else:
        pieces = text.split(";")
        empty = [k for k, piece in enumerate(pieces, 1) if not piece.strip()]
        if empty and len(pieces) > 1:
            raise ValueError(f"component {empty[0]} is empty")
        return [parse_poly(piece) for piece in pieces]
    if not isinstance(data, list):
        raise ValueError("JSON polynomial input is a list of terms or of term lists")
    if not data:
        raise ValueError("no polynomial given: the JSON list is empty")
    if isinstance(data[0], dict):
        data = [data]
    return [poly_from_json(t) for t in data]


_POLYS = _option(_parse_polys, "polynomials")
_GROUP_HELP = "builtin name (heisenberg|engel|free:m,r|abelian:n) or spec JSON path"
group_option = click.option("--group", "spec", default="heisenberg", show_default=True,
                            callback=_option(resolve_group, "a group name or spec file"),
                            help=_GROUP_HELP)


class _Commands(click.Group):
    """The top-level group, where every refusal becomes one line and exit 2:
    a domain error (a stencil leaving the box, a ball with no grid nodes, a
    profile the certificate cannot classify), a malformed value, a path that
    cannot be opened or a click usage error, shown without the usage block.
    A bare group still prints its help."""

    def make_context(self, *args, **kwargs):
        return self._refusing(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return self._refusing(super().invoke, ctx)

    @staticmethod
    def _refusing(step, *args, **kwargs):
        try:
            return step(*args, **kwargs)
        except NoArgsIsHelpError:
            raise
        except click.UsageError as exc:
            raise click.UsageError(exc.format_message()) from None
        except (numerics.NumericsError, rewrite.RewriteError,
                algebra.AlgebraError, ValueError, OSError) as exc:
            raise click.UsageError(str(exc)) from None


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
@click.option("--out", type=click.Path(), default=None, callback=_writable)
def algebra_new(m, r, out):
    spec = algebra.build_free_nilpotent(m, r)
    _report(algebra.spec_to_json(spec), out=out)


@algebra_group.command("check")
@click.option("--group", "group_name", default="heisenberg", show_default=True,
              help=_GROUP_HELP)
def algebra_check(group_name):
    try:
        spec = resolve_group(group_name)
    except algebra.AlgebraError as exc:
        # a table that cannot be built fails the check on its first violation
        _report({"group": group_name, "violations": [str(exc)], "ok": False}, False)
    problems = algebra.validate_spec(spec)
    strat = algebra.verify_stratification(spec)
    ok = not problems and strat["ok"]
    _report({
        "group": spec.name or group_name,
        "layer_dims": list(spec.layer_dims),
        "violations": [str(p) for p in problems],
        "stratification": strat,
        "ok": ok,
    }, ok)


@algebra_group.command("dims")
@group_option
def algebra_dims(spec):
    click.echo(json.dumps(list(spec.layer_dims)))


# ---------------------------------------------------------------- group

@main.group("group")
def group_group():
    """Exact group operations in exponential coordinates."""


@group_group.command("mul")
@group_option
@click.option("--p", required=True, callback=_POINT)
@click.option("--q", required=True, callback=_POINT)
def group_mul(spec, p, q):
    p, q = group.Point.from_sequence(spec, p), group.Point.from_sequence(spec, q)
    _report(_point_json(group.bch_product(p, q)))


@group_group.command("inv")
@group_option
@click.option("--point", required=True, callback=_POINT)
def group_inv(spec, point):
    _report(_point_json(group.inverse(group.Point.from_sequence(spec, point))))


@group_group.command("dilate")
@group_option
@click.option("--s", "factor", required=True,
              callback=_option(parse_rational, "a rational factor"))
@click.option("--point", required=True, callback=_POINT)
def group_dilate(spec, factor, point):
    _report(_point_json(group.dilate(factor, group.Point.from_sequence(spec, point))))


@group_group.command("gauge")
@group_option
@click.option("--point", required=True, callback=_POINT)
def group_gauge(spec, point):
    click.echo(json.dumps(group.gauge_norm(group.Point.from_sequence(spec, point))))


@group_group.command("dist")
@group_option
@click.option("--p", required=True, callback=_POINT)
@click.option("--q", required=True, callback=_POINT)
def group_dist(spec, p, q):
    p, q = group.Point.from_sequence(spec, p), group.Point.from_sequence(spec, q)
    click.echo(json.dumps(group.gauge_distance(p, q)))


@group_group.command("ballvol")
@group_option
@click.option("--radius", type=float, default=1.0, show_default=True, callback=_RADIUS)
@click.option("--samples", type=int, default=200_000, show_default=True)
@click.option("--seed", type=int, default=12345, show_default=True)
def group_ballvol(spec, radius, samples, seed):
    _report(group.ball_volume_estimate(spec, radius, samples, seed=seed))


# ---------------------------------------------------------------- fields

@main.group("fields")
def fields_group():
    """Left-invariant vector fields and the system residual."""


@fields_group.command("show")
@group_option
@click.option("--label", required=True, callback=_LABEL, help="basis label k,i")
def fields_show(spec, label):
    op = left_invariant_field(spec, label)
    coefficients = {str(list(lab)): poly_to_json(poly)
                    for lab, poly in sorted(op.coeffs.items())}
    _report({"label": list(label), "display": repr(op), "coefficients": coefficients})


@fields_group.command("residual")
@group_option
@click.option("--u", required=True, callback=_POLYS,
              help="solution polynomial(s): expression, JSON, or @file")
@click.option("--f", callback=_POLYS)
@click.option("--fi", "per_slot", callback=_POLYS,
              help="semicolon-separated flux data, one per horizontal slot")
def fields_residual(spec, u, f, per_slot):
    ident = SystemCoefficients.identity(len(u), spec.m)
    f_i = None
    if per_slot is not None:
        if len(u) != 1:
            raise ValueError(f"--fi takes flux data for one component; --u has {len(u)}")
        if len(per_slot) != spec.m:
            raise ValueError(f"--fi needs {spec.m} flux polynomials, one per horizontal "
                             f"slot; got {len(per_slot)}")
        f_i = [[p] for p in per_slot]
    res = system_residual(spec, ident, u, f_i=f_i, f=f)
    _report({"residual": [poly_to_json(p) for p in res],
             "is_zero": all(p.is_zero() for p in res)})


@fields_group.command("commutators")
@group_option
def fields_commutators(spec):
    rep = commutator_check(spec)
    _report(rep, rep["ok"])


# ---------------------------------------------------------------- rewrite

@main.group("rewrite")
def rewrite_group():
    """Derivative-word rewriting and its termination certificates."""


@rewrite_group.command("trace")
@click.option("--step", "step_r", type=int, required=True)
@click.option("--profile", "counts", required=True, help="comma counts for layers 2..r",
              callback=_option(_comma_list(int), "comma-separated layer counts"))
@click.option("--json", "out", type=click.Path(), default=None, callback=_writable)
def rewrite_trace(step_r, counts, out):
    if step_r < 2:
        raise ValueError(f"the step must be at least 2, got {step_r}")
    if len(counts) != step_r - 1:
        raise ValueError(f"--profile needs {step_r - 1} counts for layers 2..{step_r}, "
                         f"got {len(counts)}")
    profile = rewrite.LayerProfile(step_r, [0, *counts])
    trace = rewrite.reduce_to_base(profile)
    _report(trace.to_json(), out=out)


@rewrite_group.command("obstruction")
def rewrite_obstruction():
    _report(rewrite.naive_order_obstruction())


@rewrite_group.command("sweep")
@click.option("--step", "step_r", type=int, required=True)
@click.option("--max-total", type=int, default=6, show_default=True)
def rewrite_sweep(step_r, max_total):
    rep = rewrite.termination_sweep(step_r, max_total)
    _report(rep, not (rep["classification_failures"] or rep["w_violations"]))


# ---------------------------------------------------------------- solve

@main.command("solve")
@group_option
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--bc", default="poly:p11", show_default=True, callback=_POLYS)
@click.option("--f", callback=_POLYS)
@click.option("--half-width", type=float, default=1.0, show_default=True)
@click.option("--out", type=click.Path(), default=None, callback=_writable,
              help="CSV output path")
def solve_cmd(spec, n, bc, f, half_width, out):
    """Solve the weak form with Dirichlet data on the box faces."""
    sol = _solve(spec, n, bc, f, half_width)
    if out:
        _write_csv(sol, out)
        click.echo(f"wrote {out}")
    _report({"solve_report": sol.solve_report})


def _solve(spec, n, bc, f=None, half_width=1.0):
    """The identity-coefficient solution for the data."""
    ident = SystemCoefficients.identity(len(bc), spec.m)
    return numerics.assemble_and_solve(spec, ident, bc, f=f, n=n, half_widths=half_width)


def _write_csv(field, path):
    import numpy as np

    grid = field.grid
    cols = [np.broadcast_to(arr, grid.shape).ravel() for arr in grid.node_arrays().values()]
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


def _report_stable(rep, constant):
    """Report a check that passes when its constant is finite and positive."""
    rep["stable"] = math.isfinite(constant) and constant > 0
    _report(rep, rep["stable"])


@verify_group.command("caccioppoli")
@group_option
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--bc", default="poly:p11*p21", show_default=True, callback=_POLYS)
@click.option("--radius", type=float, default=0.45, show_default=True,
              callback=_RADIUS_SQUARED)
def verify_caccioppoli(spec, n, bc, radius):
    sol = _solve(spec, n, bc)
    rep = numerics.caccioppoli_check(sol, radius=radius)
    _report_stable(rep, rep["empirical_constant"])


@verify_group.command("peetre")
@group_option
@click.option("--n", type=int, default=17, show_default=True)
@click.option("--direction", default="1,1", show_default=True, callback=_LABEL)
@click.option("--alpha", type=float, default=1.0, show_default=True, callback=_ORDER)
@click.option("--beta", type=float, default=0.5, show_default=True, callback=_ORDER)
def verify_peetre(spec, n, direction, alpha, beta):
    if beta > alpha:
        raise ValueError(f"--beta {beta} exceeds --alpha {alpha}: the sandwich needs "
                         "--beta at most --alpha")
    u = _bump_field(spec, n)
    high = numerics.peetre_seminorm(u, direction, alpha)
    low = numerics.peetre_seminorm(u, direction, beta)
    rep = {
        "direction": list(direction),
        "alpha": alpha,
        "beta": beta,
        "seminorm_alpha": high,
        "seminorm_beta": low,
        "sandwich_constant": low / high if high > 0 else 0.0,
        "ok": low <= high or high == 0.0,
    }
    _report(rep, rep["ok"])


@verify_group.command("hormander")
@group_option
@click.option("--n", type=int, default=17, show_default=True)
@click.option("--direction", default="2,1", show_default=True, callback=_LABEL)
def verify_hormander(spec, n, direction):
    u = _bump_field(spec, n)
    ratio = numerics.hormander_ratio(u, direction)
    _report_stable({"direction": list(direction), "ratio": ratio}, ratio)


def _bump_field(spec, n, support=0.8):
    import numpy as np

    grid = numerics.Grid(spec, n, 1.0)
    bump = np.ones(grid.shape)
    for lab, arr in grid.node_arrays().items():
        bump = bump * np.clip(1.0 - (arr / support) ** 2, 0.0, None) ** 2
    if not bump.any():
        raise ValueError(f"no grid nodes inside the bump's support at --n {n}: "
                         f"every node has a coordinate of size {support} or more")
    return numerics.GridField(grid, bump)


@verify_group.command("decay")
@group_option
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--bc", default="poly:p11", show_default=True, callback=_POLYS)
@click.option("--tau", type=float, default=0.5, show_default=True,
              callback=_option(regularity.shrink_factor, "a shrink factor"))
@click.option("--radii", default="0.25,0.5,1", show_default=True,
              callback=_option(lambda text: regularity.fit_radii(map(
                  group.ball_radius, _comma_list(float)(text))), "comma-separated radii"))
def verify_decay(spec, n, bc, tau, radii):
    sol = _solve(spec, n, bc)
    rep = regularity.excess_decay_check(sol, None, tau, max(radii), radii=radii)
    rep["resolutions"] = [n]
    rep["threshold"] = decay_threshold(rep["Q"])
    rep["stable"] = rep["fitted_exponent"] >= rep["threshold"]
    _report(rep, rep["stable"])


@verify_group.command("supbound")
@group_option
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--bc", default="poly:p11*p21", show_default=True, callback=_POLYS)
@click.option("--radius", type=float, default=0.4, show_default=True,
              callback=_RADIUS_FOURTH)
def verify_supbound(spec, n, bc, radius):
    sol = _solve(spec, n, bc)
    rep = regularity.sup_estimate_check(sol, None, radius)
    _report_stable(rep, rep["ratio"])


@verify_group.command("estimate")
@group_option
@click.option("--n", type=int, default=32, show_default=True)
@click.option("--bc", default="poly:p12", show_default=True, callback=_POLYS)
@click.option("--radius", type=float, default=0.4, show_default=True, callback=_RADIUS)
def verify_estimate(spec, n, bc, radius):
    sol = _solve(spec, n, bc)
    rep = regularity.higher_order_estimate_check(sol, radius=radius)
    _report_stable(rep, rep["empirical_constant"])


# ---------------------------------------------------------------- suite

@main.command("suite")
@click.option("--n", type=int, default=RunConfig.n, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--triples", type=int, default=RunConfig.assoc_triples, show_default=True)
@click.option("--samples", type=int, default=RunConfig.mc_samples, show_default=True)
@click.option("--sweep-total", type=int, default=RunConfig.sweep_total, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
@click.option("--json", "out", type=click.Path(), default=None, callback=_writable)
def suite_cmd(n, seed, triples, samples, sweep_total, fmt, out):
    """Aggregated verification report over every module."""
    if fmt == "text" and out:
        raise ValueError("--format text and --json exclude each other: give one")
    report = run_suite(RunConfig(n=n, seed=seed, assoc_triples=triples,
                                 mc_samples=samples, sweep_total=sweep_total))
    _report(report, report["all_pass"], out, _render_text if fmt == "text" else None)


if __name__ == "__main__":
    main()
