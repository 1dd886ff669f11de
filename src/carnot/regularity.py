"""Desk-scale checks of the interior estimates: mixed-layer derivative
bounds, the sup bound for constant-coefficient solutions, mean-square
excess over gauge balls, its decay in the radius, and blow-up rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .group import product_arrays
from .numerics import (
    Grid,
    GridField,
    MarginTooSmall,
    ZeroExcess,
    ball_mask,
    centered_derivative,
    derivative_word,
    horizontal_gradient,
    occupied_ball_mask,
    sample_at,
    sobolev_norm,
)


def ball_oscillation(u: GridField, center, radius):
    """Squared deviations from the mean summed over a gauge ball, the mean
    and the node count."""
    vals = u.values[occupied_ball_mask(u.grid, center, radius)]
    mean = vals.mean(axis=0)
    return float(((vals - mean) ** 2).sum()), mean, len(vals)


def excess(u: GridField, center, radius) -> float:
    """Mean-square oscillation of the field over a gauge ball."""
    total, _, count = ball_oscillation(u, center, radius)
    return total / count


@dataclass
class ExcessReport:
    center: list
    radii: list
    values: list
    means: list
    fitted_exponent: float
    integral_values: list = field(default_factory=list)


def excess_profile(u: GridField, center, radii) -> ExcessReport:
    """Excess at several radii with a least-squares decay exponent.

    The fitted exponent is the slope of ``log`` integral oscillation
    (excess times ball volume) against ``log`` radius, so at least two
    distinct radii are needed.
    """
    if len(set(radii)) < 2:
        raise ValueError(f"the decay fit needs two distinct radii, got {list(radii)}")
    grid = u.grid
    values, means, integrals = [], [], []
    for rad in radii:
        total, mean, count = ball_oscillation(u, center, rad)
        values.append(total / count)
        means.append([float(x) for x in mean])
        integrals.append(total * grid.cell_volume)
    logs_r = np.log(np.asarray(radii, dtype=float))
    logs_i = np.log(np.maximum(np.asarray(integrals), 1e-300))
    return ExcessReport(
        center=[float(c) for c in center],
        radii=[float(r) for r in radii],
        values=values,
        means=means,
        fitted_exponent=float(np.polyfit(logs_r, logs_i, 1)[0]),
        integral_values=integrals,
    )


def excess_decay_check(u: GridField, center, tau, radius, radii=None):
    """Decay ratios of the excess under radius shrinking.

    Reports the mean-form ratio against ``tau**2``, the integral-form ratio
    against ``tau**(Q+2)`` and a fitted exponent over the given radii.
    """
    if not (0 < tau < 1):
        raise ValueError("shrink factor must lie in (0, 1)")
    spec = u.grid.spec
    q_hom = spec.homogeneous_dimension()
    total_s, _, count_s = ball_oscillation(u, center, tau * radius)
    total_l, _, count_l = ball_oscillation(u, center, radius)
    u_small, u_large = total_s / count_s, total_l / count_l
    mean_ratio = u_small / u_large if u_large > 0 else 0.0
    integral_small = u_small * count_s * u.grid.cell_volume
    integral_large = u_large * count_l * u.grid.cell_volume
    integral_ratio = integral_small / integral_large if integral_large > 0 else 0.0
    report = {
        "tau": float(tau),
        "radius": float(radius),
        "U_small": u_small,
        "U_large": u_large,
        "mean_ratio": mean_ratio,
        "mean_bound": tau ** 2,
        "mean_constant": mean_ratio / tau ** 2 if tau else float("inf"),
        "integral_ratio": integral_ratio,
        "integral_bound": tau ** (q_hom + 2),
        "integral_constant": integral_ratio / tau ** (q_hom + 2),
        "Q": q_hom,
    }
    if radii:
        profile = excess_profile(u, center, radii)
        report["radii"] = profile.radii
        report["fitted_exponent"] = profile.fitted_exponent
        report["integral_values"] = profile.integral_values
    return report


@dataclass
class BlowupSequence:
    scale: float
    epsilon: float
    rescaled: GridField
    normalization: float


def blowup_rescale(u: GridField, center, radius, n=None) -> BlowupSequence:
    """Center, rescale and normalize the field on the unit gauge ball.

    ``v(q) = (u(center * dilate(radius, q)) - mean) / sqrt(excess)`` sampled
    on a unit-box grid; the mean-square of ``v`` over the unit ball is the
    returned normalization (1 up to discretization error).
    """
    grid = u.grid
    spec = grid.spec
    total, mean, count = ball_oscillation(u, center, radius)
    u_exc = total / count
    scale_sq = float((u.values ** 2).mean())
    if u_exc <= 1e-14 * max(scale_sq, 1.0):
        raise ZeroExcess(f"excess {u_exc:.3e} too small to normalize")
    eps = math.sqrt(u_exc)
    if n is None:
        n = max(grid.shape)
    out_grid = Grid(spec, n, 1.0)
    # p = center * dilate(radius, q) at the nodes q of the unit box
    nodes = out_grid.node_arrays()
    coords = product_arrays(
        spec, center, [nodes[lab] * radius ** lab[0] for lab in spec.basis]
    )
    moved, mask = sample_at(u, coords)
    vals = (moved - mean) / eps
    vals = np.where(mask[..., None], vals, 0.0)
    rescaled = GridField(out_grid, vals, mask)
    unit = ball_mask(out_grid, None, 1.0) & mask
    count = int(unit.sum())
    norm = float((rescaled.values[unit] ** 2).sum() / count) if count else 0.0
    return BlowupSequence(
        scale=float(radius), epsilon=eps, rescaled=rescaled, normalization=norm
    )


def sup_estimate_check(u: GridField, center, radius):
    """Sup of the scaled jet over the ball against the mean mass over the
    double ball, for homogeneous constant-coefficient solutions."""
    grid = u.grid
    spec = grid.spec
    inner = occupied_ball_mask(grid, center, radius)
    outer = ball_mask(grid, center, 2.0 * radius)
    grads = horizontal_gradient(u)
    second = []
    for gi in grads:
        for j in range(1, spec.m + 1):
            second.append(centered_derivative(gi, (1, j)))
    mask = inner.copy()
    for fld in grads + second:
        mask &= fld.mask
    if not mask.any():
        raise MarginTooSmall("derivative stencils do not cover the ball")
    jet = (u.values ** 2).sum(axis=-1)
    jet = jet + radius ** 2 * sum((g.values ** 2).sum(axis=-1) for g in grads)
    jet = jet + radius ** 4 * sum((s.values ** 2).sum(axis=-1) for s in second)
    lhs = float(jet[mask].max())
    count = int(outer.sum())
    mean_mass = float((u.values[outer] ** 2).sum() / count)
    return {
        "radius": float(radius),
        "sup_jet": lhs,
        "mean_mass": mean_mass,
        "ratio": lhs / mean_mass if mean_mass > 0 else 0.0,
        "ball_nodes": int(mask.sum()),
    }


def higher_order_estimate_check(u: GridField, radius=0.5):
    """Empirical constant of the mixed-layer derivative estimate on the
    ball pair centred at the origin, for a solution without data.

    LHS: first-order horizontal Sobolev norm, over the ball, of the field
    differentiated once along each layer above the horizontal one.  RHS:
    the same norm of the field itself over the double ball.
    """
    grid = u.grid
    word = [(k, 1) for k in range(2, grid.spec.r + 1)]
    inner = occupied_ball_mask(grid, None, radius)
    outer = ball_mask(grid, None, 2.0 * radius)
    derived = derivative_word(u, word)
    if not bool(np.all(derived.mask | ~inner)):
        raise MarginTooSmall("derivative word leaves the box inside the ball")
    lhs = sobolev_norm(derived, 1, inner)
    rhs = sobolev_norm(u, 1, outer)
    return {
        "word": [list(w) for w in word],
        "lhs": lhs,
        "rhs": rhs,
        "empirical_constant": lhs / rhs if rhs > 0 else 0.0,
        "radius": float(radius),
    }
