import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from carnot import numerics, regularity
from carnot.fields import SystemCoefficients
from carnot.numerics import (
    Grid,
    GridField,
    MarginTooSmall,
    ZeroExcess,
    assemble_and_solve,
    caccioppoli_check,
    gauge_balls,
    hormander_ratio,
)
from carnot.poly import PolyFunction
from carnot.regularity import (
    ball_oscillation,
    blowup_rescale,
    excess_decay_check,
    higher_order_estimate_check,
    sup_estimate_check,
)

P11 = PolyFunction.variable((1, 1))
P12 = PolyFunction.variable((1, 2))
P21 = PolyFunction.variable((2, 1))


@pytest.fixture(scope="module")
def harmonic32(heis):
    ident = SystemCoefficients.identity(1, 2)
    return assemble_and_solve(heis, ident, [P11], n=32)


def excess(u, center, radius):
    """Mean-square oscillation over a gauge ball: ``ball_oscillation``'s
    total over its node count."""
    total, _, count = ball_oscillation(u, gauge_balls(u.grid, center, [radius])[0])
    return total / count


def brute_force_excess(field, center, radius):
    """Plain-python oracle: equal-weight mean oscillation over ball nodes."""
    grid = field.grid
    import itertools

    from carnot.group import Point, gauge_distance

    spec = grid.spec
    c_point = Point.from_sequence(spec, [float(x) for x in center])
    vals = []
    for idx in itertools.product(*(range(s) for s in grid.shape)):
        coords = [grid.coords1d[ax][i] for ax, i in enumerate(idx)]
        p = Point.from_sequence(spec, coords)
        if gauge_distance(p, c_point) < radius:
            vals.append(field.values[idx + (0,)])
    mean = sum(vals) / len(vals)
    return sum((v - mean) ** 2 for v in vals) / len(vals)


def test_excess_constant_field(heis):
    grid = Grid(heis, 9, 1.0)
    u = GridField(grid, np.full(grid.shape, 2.5))
    assert excess(u, [0, 0, 0], 0.5) == 0.0


def test_excess_matches_brute_force_oracle(heis):
    grid = Grid(heis, 11, 1.0)
    u = GridField.from_polys(grid, [P11])
    fast = excess(u, [0.0, 0.0, 0.0], 0.8)
    slow = brute_force_excess(u, [0.0, 0.0, 0.0], 0.8)
    assert fast == pytest.approx(slow, abs=1e-12)


def test_excess_is_variance_of_coordinate(heis):
    grid = Grid(heis, 17, 1.0)
    u = GridField.from_polys(grid, [P11])
    mask, = gauge_balls(grid, None, [1.0])
    vals = u.values[..., 0][mask]
    assert excess(u, [0, 0, 0], 1.0) == pytest.approx(float(vals.var()), rel=1e-12)


def test_excess_shift_invariance(heis):
    grid = Grid(heis, 11, 1.0)
    u = GridField.from_polys(grid, [P11 * P12])
    e1 = excess(u, [0, 0, 0], 0.7)
    e2 = excess(GridField(u.grid, u.values + 17.5), [0, 0, 0], 0.7)
    assert e1 == pytest.approx(e2, rel=1e-12)


def test_excess_profile_exponent_for_coordinate(harmonic32):
    report = excess_decay_check(harmonic32, [0.0, 0.0, 0.0], 0.5, 1.0,
                                radii=[0.25, 0.5, 1.0])
    # mass of a harmonic coordinate scales like r^(Q+2) = r^6
    assert report["fitted_exponent"] == pytest.approx(6.0, abs=0.4)


def test_excess_decay_ratios(harmonic32):
    rep = excess_decay_check(harmonic32, [0.0, 0.0, 0.0], 0.5, 1.0,
                             radii=[0.25, 0.5, 1.0])
    assert rep["mean_ratio"] == pytest.approx(0.25, abs=0.05)
    assert rep["integral_ratio"] <= 2.0 * rep["integral_bound"]
    assert rep["Q"] == 4


def test_excess_decay_scale_invariance(harmonic32):
    radii = [0.25, 0.5, 1.0]
    rep1 = excess_decay_check(harmonic32, [0.0, 0.0, 0.0], 0.5, 1.0, radii)
    scaled = GridField(harmonic32.grid, 5.0 * harmonic32.values)
    rep2 = excess_decay_check(scaled, [0.0, 0.0, 0.0], 0.5, 1.0, radii)
    assert rep1["integral_ratio"] == pytest.approx(rep2["integral_ratio"], rel=1e-12)
    assert rep1["mean_ratio"] == pytest.approx(rep2["mean_ratio"], rel=1e-12)


def test_excess_decay_validates_tau(harmonic32):
    with pytest.raises(ValueError):
        excess_decay_check(harmonic32, [0, 0, 0], 1.5, 1.0, [0.5, 1.0])


def test_blowup_normalization(harmonic32):
    seq = blowup_rescale(harmonic32, [0.0, 0.0, 0.0], 1.0, n=48)
    assert abs(seq.normalization - 1.0) <= 1e-2
    assert seq.epsilon == pytest.approx(math.sqrt(excess(harmonic32, [0, 0, 0], 1.0)))
    # smaller balls are coarser on the source grid; the bias stays small
    small = blowup_rescale(harmonic32, [0.0, 0.0, 0.0], 0.5, n=48)
    assert abs(small.normalization - 1.0) <= 2e-2


def test_blowup_zero_excess(heis):
    grid = Grid(heis, 9, 1.0)
    u = GridField(grid, np.full(grid.shape, 1.0))
    with pytest.raises(ZeroExcess):
        blowup_rescale(u, [0, 0, 0], 0.5)


def test_blowup_affine_shape_reproduced(heis):
    # the rescaling of a horizontal coordinate is the coordinate again,
    # up to the normalization factor
    grid = Grid(heis, 33, 1.0)
    u = GridField.from_polys(grid, [P11])
    radius = 0.5
    seq = blowup_rescale(u, [0.0, 0.0, 0.0], radius, n=33)
    out = seq.rescaled
    nodes = np.broadcast_to(out.grid.node_arrays()[(1, 1)], out.grid.shape)
    inside = gauge_balls(out.grid, None, [1.0])[0] & out.mask
    expected = radius * nodes / seq.epsilon
    assert np.allclose(out.values[..., 0][inside], expected[inside], atol=1e-8)


def test_sup_estimate_constant_field(heis):
    grid = Grid(heis, 17, 1.0)
    u = GridField(grid, np.full(grid.shape, 3.0))
    rep = sup_estimate_check(u, [0, 0, 0], 0.4)
    assert rep["ratio"] == pytest.approx(1.0)


def test_sup_estimate_scale_invariance(harmonic32):
    rep1 = sup_estimate_check(harmonic32, [0.0, 0.0, 0.0], 0.4)
    scaled = GridField(harmonic32.grid, 2.0 * harmonic32.values)
    rep2 = sup_estimate_check(scaled, [0.0, 0.0, 0.0], 0.4)
    assert rep1["ratio"] == pytest.approx(rep2["ratio"], rel=1e-12)


def test_sup_estimate_finite_and_stable(heis):
    ident = SystemCoefficients.identity(1, 2)
    ratios = []
    for n in (16, 32):
        sol = assemble_and_solve(heis, ident, [P11 * P12], n=n)
        ratios.append(sup_estimate_check(sol, [0.0, 0.0, 0.0], 0.4)["ratio"])
    assert all(math.isfinite(v) for v in ratios)
    assert max(ratios) <= 2.0 * min(ratios)


def test_higher_order_estimate_center_derivative_vanishes(harmonic32):
    rep = higher_order_estimate_check(harmonic32, radius=0.4)
    # the center derivative annihilates the horizontal coordinate
    assert rep["empirical_constant"] <= 1e-6


def test_higher_order_estimate_stable(heis):
    ident = SystemCoefficients.identity(1, 2)
    constants = []
    for n in (16, 32):
        sol = assemble_and_solve(heis, ident, [P21], n=n)
        rep = higher_order_estimate_check(sol, radius=0.4)
        constants.append(rep["empirical_constant"])
    assert all(c > 0 for c in constants)
    assert max(constants) <= 2.0 * min(constants)


def test_sup_estimate_refuses_a_ball_the_stencils_leave(heis):
    # at n = 9 the second-order stencils leave the box inside the ball of
    # radius 0.9: the sup is refused rather than taken over part of the ball
    ident = SystemCoefficients.identity(1, 2)
    sol = assemble_and_solve(heis, ident, [P11 * P12], n=9)
    with pytest.raises(MarginTooSmall, match="stencil leaves"):
        sup_estimate_check(sol, [0.0, 0.0, 0.0], 0.9)


# -- one fixed solved field, the checks' reports pinned bitwise

@pytest.fixture(scope="module")
def pinned_field(heis):
    data = P11 + P12.scale(Fraction(1, 2)) + P21.scale(Fraction(1, 4)) + P11 * P12
    return assemble_and_solve(heis, SystemCoefficients.identity(1, 2), [data], n=24)


OFFSET_CENTRE = [0.05, -0.03, 0.02]


def _estimate_reports(u):
    # every check of the estimates on the pinned field, each as a callable
    # returning its report
    def blowup():
        seq = blowup_rescale(u, OFFSET_CENTRE, 0.5)
        return seq.rescaled.values, seq.rescaled.mask, (seq.epsilon, seq.normalization)

    origin = [0.0, 0.0, 0.0]
    return {
        "caccioppoli": lambda: caccioppoli_check(u, radius=0.45),
        "excess_decay_origin": lambda: excess_decay_check(u, origin, 0.5, 1.0,
                                                          radii=[0.25, 0.5, 1.0]),
        "excess_decay_offset": lambda: excess_decay_check(u, OFFSET_CENTRE, 0.5, 0.8,
                                                          radii=[0.2, 0.4, 0.8]),
        "sup": lambda: sup_estimate_check(u, origin, 0.4),
        "higher_order": lambda: higher_order_estimate_check(u, radius=0.4),
        "blowup": blowup,
        "hormander": lambda: hormander_ratio(u, (2, 1)),
    }


def _report_digest(report):
    if isinstance(report, tuple):
        digest = hashlib.sha256()
        for arr in report[:2]:
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(repr(report[2]).encode())
        return digest.hexdigest()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


# SHA-256 digests of each report (JSON with sorted keys; the blow-up's
# values and mask bytes, then its epsilon and normalization); a numpy or
# scipy upgrade may move these bits without any change to the package
ESTIMATE_DIGESTS = {
    "caccioppoli": "1dcaabe522d1100c8942e80b9558d40cc4d3c88db53133e7f1d5ef93f501c8da",
    "excess_decay_origin": "8def23361d7dd138809887ba69fd6190e06d7f08eb249e5fb674d3b0d5383a72",
    "excess_decay_offset": "4720654a2cf2eb4d57cc954f469fbbd9a66c1b2ff4e2b21eb06263c3b5ef0a74",
    "sup": "fd17b000b2fcbd0ba107027ff772b2125cd73d053f9dc069795f6064e543d32d",
    "higher_order": "c63ce76dc4f3b7dca1d49a9ce4467e8b130c5d050c397b910f7c18d1befde892",
    "blowup": "040f5aac46efe7d73cee8e0f328f9bfedbecb4bb9e06b027b5bbf580bc813213",
    "hormander": "bbe79e17f44049576f87f0bfae7f93628c9b41be845d0daca4f76678c5219d88",
}


@pytest.mark.parametrize("name", list(ESTIMATE_DIGESTS))
def test_estimate_bits_are_pinned(pinned_field, name):
    report = _estimate_reports(pinned_field)[name]()
    assert _report_digest(report) == ESTIMATE_DIGESTS[name]


@pytest.mark.parametrize("name,passes", [
    ("caccioppoli", 1), ("excess_decay_origin", 1), ("excess_decay_offset", 1),
    ("sup", 1), ("higher_order", 1), ("blowup", 2),
])
def test_one_gauge_pass_per_ball_centre(pinned_field, name, passes, monkeypatch):
    # every radius of a check is read off one distance array; the blow-up
    # also takes the unit ball of its output grid
    calls = []
    real = numerics.gauge_distance_arrays

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "gauge_distance_arrays", counted)
    _estimate_reports(pinned_field)[name]()
    assert len(calls) == passes
