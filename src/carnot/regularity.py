"""Desk-scale checks of the interior estimates: mixed-layer derivative
bounds, the sup bound for constant-coefficient solutions, mean-square
excess over gauge balls, its decay in the radius, and blow-up rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import product_arrays
from .numerics import (
    Grid,
    GridField,
    ZeroExcess,
    derivative_word,
    gauge_balls,
    horizontal_jet,
    require_stencil_cover,
    sample_at,
    scaling_radius,
    sobolev_norm,
)


def ball_oscillation(u: GridField, ball):
    """Squared deviations from the mean summed over a ball mask, the mean
    and the node count."""
    vals = u.values[ball]
    mean = vals.mean(axis=0)
    return float(((vals - mean) ** 2).sum()), mean, len(vals)


def shrink_factor(tau):
    """``tau``, refused unless it lies in (0, 1)."""
    if not (0 < tau < 1):
        raise ValueError("shrink factor must lie in (0, 1)")
    return tau


def fit_radii(radii):
    """The radii as a list, refused unless at least two are distinct."""
    radii = list(radii)
    if len(set(radii)) < 2:
        raise ValueError(f"the decay fit needs two distinct radii, got {radii}")
    return radii


def excess_decay_check(u: GridField, center, tau, radius, radii):
    """Decay ratios of the excess under radius shrinking.

    Reports the mean-form ratio against ``tau**2``, the integral-form ratio
    against ``tau**(Q+2)`` and, over the given radii (at least two
    distinct), the least-squares slope of ``log`` integral oscillation
    (excess times ball volume) against ``log`` radius.  Every ball is read
    off one gauge distance pass.
    """
    tau, radii = shrink_factor(tau), fit_radii(radii)
    grid = u.grid
    q_hom = grid.spec.homogeneous_dimension()
    small, large, *fit = gauge_balls(grid, center, [tau * radius, radius] + radii)
    total_s, _, count_s = ball_oscillation(u, small)
    total_l, _, count_l = ball_oscillation(u, large)
    u_small, u_large = total_s / count_s, total_l / count_l
    mean_ratio = u_small / u_large if u_large > 0 else 0.0
    integral_small = u_small * count_s * grid.cell_volume
    integral_large = u_large * count_l * grid.cell_volume
    integral_ratio = integral_small / integral_large if integral_large > 0 else 0.0
    report = {
        "tau": float(tau),
        "radius": float(radius),
        "U_small": u_small,
        "U_large": u_large,
        "mean_ratio": mean_ratio,
        "mean_bound": tau ** 2,
        "mean_constant": mean_ratio / tau ** 2,
        "integral_ratio": integral_ratio,
        "integral_bound": tau ** (q_hom + 2),
        "integral_constant": integral_ratio / tau ** (q_hom + 2),
        "Q": q_hom,
    }
    integrals = [ball_oscillation(u, ball)[0] * grid.cell_volume for ball in fit]
    logs_r = np.log(np.asarray(radii, dtype=float))
    logs_i = np.log(np.maximum(np.asarray(integrals), 1e-300))
    report["radii"] = [float(r) for r in radii]
    report["fitted_exponent"] = float(np.polyfit(logs_r, logs_i, 1)[0])
    report["integral_values"] = integrals
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
    total, mean, count = ball_oscillation(u, gauge_balls(grid, center, [radius])[0])
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
    unit = gauge_balls(out_grid, None, [1.0])[0] & mask
    count = int(unit.sum())
    norm = float((rescaled.values[unit] ** 2).sum() / count) if count else 0.0
    return BlowupSequence(
        scale=float(radius), epsilon=eps, rescaled=rescaled, normalization=norm
    )


def sup_estimate_check(u: GridField, center, radius):
    """Sup of the scaled jet over the ball against the mean mass over the
    double ball, for homogeneous constant-coefficient solutions; refuses a
    radius whose fourth power, the scale of the second-order terms, is not
    a normal float."""
    scaling_radius(radius, 4)
    inner, outer = gauge_balls(u.grid, center, (radius, 2.0 * radius))
    _, grads, second = horizontal_jet(u, 2, inner)
    jet = (u.values ** 2).sum(axis=-1)
    jet = jet + radius ** 2 * sum((g.values ** 2).sum(axis=-1) for g in grads)
    jet = jet + radius ** 4 * sum((s.values ** 2).sum(axis=-1) for s in second)
    lhs = float(jet[inner].max())
    count = int(outer.sum())
    mean_mass = float((u.values[outer] ** 2).sum() / count)
    return {
        "radius": float(radius),
        "sup_jet": lhs,
        "mean_mass": mean_mass,
        "ratio": lhs / mean_mass if mean_mass > 0 else 0.0,
        "ball_nodes": int(inner.sum()),
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
    inner, outer = gauge_balls(grid, None, (radius, 2.0 * radius))
    derived = derivative_word(u, word)
    require_stencil_cover(inner, [derived])
    lhs = sobolev_norm(derived, 1, inner)
    rhs = sobolev_norm(u, 1, outer)
    return {
        "word": [list(w) for w in word],
        "lhs": lhs,
        "rhs": rhs,
        "empirical_constant": lhs / rhs if rhs > 0 else 0.0,
        "radius": float(radius),
    }
