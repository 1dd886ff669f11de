import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from carnot import regularity
from carnot.algebra import build_free_nilpotent
from carnot.catalog import resolve_group
from carnot.fields import SystemCoefficients, left_invariant_field
from carnot.group import group_law
from carnot.numerics import (
    GRID_BYTE_LIMIT,
    Grid,
    GridField,
    MarginTooSmall,
    NumericsError,
    SeminormParams,
    SolverDiverged,
    StepTooLarge,
    assemble_and_solve,
    ball_mask,
    caccioppoli_check,
    centered_derivative,
    convergence_study,
    flow_coordinates,
    flow_difference,
    gauge_distance_arrays,
    hormander_ratio,
    integrate,
    l2_norm_sq,
    manufactured_source,
    peetre_seminorm,
    sobolev_norm,
)
from carnot.poly import PolyFunction

P11 = PolyFunction.variable((1, 1))
P12 = PolyFunction.variable((1, 2))
P21 = PolyFunction.variable((2, 1))


def bump_field(spec, n=17, support=0.8):
    grid = Grid(spec, n, 1.0)
    bump = np.ones(grid.shape)
    for lab, arr in grid.node_arrays().items():
        bump = bump * np.clip(1.0 - (arr / support) ** 2, 0.0, None) ** 2
    return GridField(grid, bump)


# -------------------------------------------------------------- flows

def test_flow_difference_constant_vanishes(heis):
    grid = Grid(heis, 9, 1.0)
    u = GridField(grid, np.full(grid.shape, 3.5))
    fd = flow_difference(u, (1, 1), 0.2)
    assert np.allclose(fd.values[fd.mask], 0.0)


def test_flow_difference_linear_exact(heis):
    grid = Grid(heis, 9, 1.0)
    u = GridField.from_polys(grid, [P11])
    fd = flow_difference(u, (1, 1), 0.25)
    assert np.allclose(fd.values[..., 0][fd.mask], 1.0, atol=1e-12)


def test_flow_difference_small_step_matches_symbolic(heis):
    u_poly = P11 * P12 + P21 * P11
    symbolic = left_invariant_field(heis, (1, 1)).apply(u_poly)
    grid = Grid(heis, 33, 1.0)
    u = GridField.from_polys(grid, [u_poly])
    exact = GridField.from_polys(grid, [symbolic])
    s = 0.01
    fd = flow_difference(u, (1, 1), s)
    err = np.abs(fd.values - exact.values)[fd.mask[..., None]]
    h = grid.horizontal_spacing()
    assert err.max() <= 5 * (s + h ** 2)


def test_flow_difference_step_too_large(heis):
    grid = Grid(heis, 9, 1.0)
    u = GridField.from_polys(grid, [P11])
    with pytest.raises(StepTooLarge):
        flow_difference(u, (1, 1), 5.0)


def test_centered_derivative_second_order(heis):
    u_poly = P11 ** 2 * P12
    symbolic = left_invariant_field(heis, (1, 1)).apply(u_poly)
    errs = []
    for n in (9, 17):
        grid = Grid(heis, n, 1.0)
        u = GridField.from_polys(grid, [u_poly])
        d = centered_derivative(u, (1, 1))
        exact = GridField.from_polys(grid, [symbolic])
        errs.append(np.abs(d.values - exact.values)[d.mask[..., None]].max())
    assert errs[1] <= errs[0] / 3.0  # roughly fourfold drop for halved h


# -------------------------------------------------------------- seminorms

def test_seminorm_zero_field(heis):
    grid = Grid(heis, 9, 1.0)
    u = GridField.zeros(grid)
    assert peetre_seminorm(u, SeminormParams((1, 1), 1.0)) == 0.0


def test_seminorm_scaling_quadratic(heis):
    u = bump_field(heis)
    base = peetre_seminorm(u, SeminormParams((1, 1), 0.5))
    scaled = peetre_seminorm(u.scale(3.0), SeminormParams((1, 1), 0.5))
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_seminorm_order_monotone(heis):
    u = bump_field(heis)
    eps0 = 4.0 * u.grid.horizontal_spacing()
    low = peetre_seminorm(u, SeminormParams((1, 1), 0.5, eps0))
    high = peetre_seminorm(u, SeminormParams((1, 1), 1.0, eps0))
    assert low <= high
    assert math.isfinite(low) and low > 0


def test_seminorm_invalid_order(heis):
    with pytest.raises(ValueError):
        SeminormParams((1, 1), 1.5)


def test_hormander_ratio_zero_field(heis):
    grid = Grid(heis, 9, 1.0)
    assert hormander_ratio(GridField.zeros(grid), (2, 1)) == 0.0


def test_hormander_ratio_stable_under_refinement(heis):
    values = [hormander_ratio(bump_field(heis, n), (2, 1)) for n in (13, 25)]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert max(values) <= 2.0 * min(values)


def test_hormander_layer1_direction_reduces_to_full_order(heis):
    u = bump_field(heis)
    lhs = peetre_seminorm(u, SeminormParams((1, 2), 1.0))
    ratio = hormander_ratio(u, (1, 2))
    rhs = (
        peetre_seminorm(u, SeminormParams((1, 1), 1.0))
        + peetre_seminorm(u, SeminormParams((1, 2), 1.0))
        + l2_norm_sq(u)
    )
    assert ratio == pytest.approx(lhs / rhs, rel=1e-12)


# -------------------------------------------------------------- norms

def test_sobolev_norm_constant(heis):
    grid = Grid(heis, 9, 1.0)
    region = ball_mask(grid, None, 0.7)
    u = GridField(grid, np.full(grid.shape, 2.0))
    vol = integrate(np.ones(grid.shape), grid, region)
    assert sobolev_norm(u, 1, region) == pytest.approx(2.0 * math.sqrt(vol))


def test_sobolev_norm_coordinate_field(heis):
    grid = Grid(heis, 17, 1.0)
    region = ball_mask(grid, None, 0.6)
    u = GridField.from_polys(grid, [P11])
    vol = integrate(np.ones(grid.shape), grid, region)
    expected = math.sqrt(l2_norm_sq(u, region)) + math.sqrt(vol)
    assert sobolev_norm(u, 1, region) == pytest.approx(expected, rel=1e-10)


def test_sobolev_norm_monotone_in_order(heis):
    u = bump_field(heis)
    region = ball_mask(u.grid, None, 0.5)
    n1 = sobolev_norm(u, 1, region)
    n2 = sobolev_norm(u, 2, region)
    assert n2 >= n1


def test_sobolev_margin_too_small(heis):
    grid = Grid(heis, 9, 1.0)
    u = GridField.from_polys(grid, [P11])
    full = np.ones(grid.shape, dtype=bool)
    with pytest.raises(MarginTooSmall):
        sobolev_norm(u, 1, full)


# -------------------------------------------------------------- solver

def test_solver_zero_boundary_gives_zero(heis):
    ident = SystemCoefficients.identity(1, 2)
    sol = assemble_and_solve(heis, ident, [PolyFunction.zero()], n=9)
    assert np.abs(sol.values).max() <= 1e-12


def test_solver_recovers_exact_solution(heis):
    ident = SystemCoefficients.identity(1, 2)
    sol = assemble_and_solve(heis, ident, [P11], n=12)
    exact = GridField.from_polys(sol.grid, [P11])
    err = np.abs(sol.values - exact.values).max()
    assert err <= 1e-9
    assert sol.solve_report["relative_weak_residual"] <= 1e-10


def test_solver_rejects_noncoercive(heis):
    bad = SystemCoefficients([[[[-1, 0], [0, -1]]]])
    with pytest.raises(SolverDiverged):
        assemble_and_solve(heis, bad, [P11], n=7)


def test_manufactured_source_consistency(heis):
    ident = SystemCoefficients.identity(1, 2)
    u_star = P11 ** 3 + P11 * P12
    from carnot.fields import system_residual

    f = manufactured_source(heis, ident, [u_star])
    residual = system_residual(heis, ident, [u_star], f=f)
    assert all(p.is_zero() for p in residual)


def test_manufactured_convergence_small(heis):
    ident = SystemCoefficients.identity(1, 2)
    study = convergence_study(heis, ident, [P11 ** 4 + P12 ** 4], sizes=(8, 16, 32))
    assert study["order"] >= 1.8


def test_degree_three_solutions_reproduced(heis):
    # the symmetrized scheme reproduces low-degree polynomial solutions
    ident = SystemCoefficients.identity(1, 2)
    u_star = P11 * P12 * P21 + P11 ** 2 * P12
    f = manufactured_source(heis, ident, [u_star])
    sol = assemble_and_solve(heis, ident, [u_star], f=f, n=10)
    exact = GridField.from_polys(sol.grid, [u_star])
    assert math.sqrt(l2_norm_sq(GridField(sol.grid, sol.values - exact.values))) <= 1e-9


def test_vector_system_two_components(heis):
    coeffs = SystemCoefficients.identity(2, 2)
    sol = assemble_and_solve(heis, coeffs, [P11, P12], n=9)
    exact = GridField.from_polys(sol.grid, [P11, P12])
    assert np.abs(sol.values - exact.values).max() <= 1e-9


# -------------------------------------------------------------- energy check

def _harmonic(heis, n, poly=P11 * P12):
    ident = SystemCoefficients.identity(1, 2)
    return assemble_and_solve(heis, ident, [poly], n=n)


def test_caccioppoli_constant_trivial_for_constants(heis):
    grid = Grid(heis, 17, 1.0)
    u = GridField(grid, np.full(grid.shape, 4.0))
    rep = caccioppoli_check(u, radius=0.45)
    assert rep["lhs"] <= 1e-20


def test_caccioppoli_empty_ball_is_a_domain_error(heis):
    u = GridField.from_polys(Grid(heis, 12, 1.0), [P11])
    with pytest.raises(ValueError, match="no grid nodes inside the ball"):
        caccioppoli_check(u, radius=0.05)


def test_caccioppoli_scaling_invariance(heis):
    sol = _harmonic(heis, 17)
    rep1 = caccioppoli_check(sol, radius=0.45)
    rep2 = caccioppoli_check(sol.scale(3.0), radius=0.45)
    assert rep1["empirical_constant"] == pytest.approx(
        rep2["empirical_constant"], abs=1e-8
    )


def test_caccioppoli_dilation_rescaling_invariance(heis):
    # sample the same field on the dilated grid (powers of two keep the
    # float arithmetic exact) and rescale the ball pair accordingly
    n = 17
    ident = SystemCoefficients.identity(1, 2)
    sol = _harmonic(heis, n)
    rep = caccioppoli_check(sol, radius=0.45)

    s = 2.0
    big = Grid(heis, n, {1: s, 2: s ** 2})
    values = sol.values.copy()
    rescaled = GridField(big, values)
    rep_scaled = caccioppoli_check(rescaled, radius=s * 0.45)
    assert rep_scaled["empirical_constant"] == pytest.approx(
        rep["empirical_constant"], abs=1e-8
    )


def test_caccioppoli_stability_across_refinement(heis):
    constants = [
        caccioppoli_check(_harmonic(heis, n), radius=0.45)["empirical_constant"]
        for n in (16, 32)
    ]
    assert max(constants) <= 2.0 * min(constants)


def test_ball_mask_and_gauge_distance(heis):
    grid = Grid(heis, 17, 1.0)
    d0 = gauge_distance_arrays(grid, None)
    assert d0[8, 8, 8] == 0.0
    mask = ball_mask(grid, [0.25, 0.0, 0.0], 0.3)
    nodes = grid.node_arrays()
    assert mask.sum() > 0
    # the center node itself lies inside
    assert mask[10, 8, 8] or mask[9, 8, 8]


# -- replicas of the substituted-polynomial paths the compiled law replaced

def _replica_flow(grid, direction, s):
    spec = grid.spec
    kill = {("q",) + lab: Fraction(0) for lab in spec.basis if lab != direction}
    arrays = dict(grid.node_arrays())
    arrays["s"] = float(s)
    out = []
    for lab in spec.basis:
        poly = group_law(spec)[lab].substitute(kill)
        poly = poly.rename({("q",) + direction: "s"})
        poly = poly.rename({("p",) + b: b for b in spec.basis})
        out.append(np.broadcast_to(poly.evaluate_arrays(arrays), grid.shape))
    return out


def _replica_product(spec, left, right, shape):
    arrays = {("p",) + lab: float(c) for lab, c in zip(spec.basis, left)}
    arrays.update({("q",) + lab: arr for lab, arr in zip(spec.basis, right)})
    return [np.broadcast_to(group_law(spec)[lab].evaluate_arrays(arrays), shape)
            for lab in spec.basis]


def _replica_gauge(spec, coords):
    rfact = math.factorial(spec.r)
    total = 0.0
    for k in range(1, spec.r + 1):
        sq = 0.0
        for lab in spec.labels_in_layer(k):
            sq = sq + coords[spec.basis.index(lab)] ** 2
        total = total + sq ** (rfact // k)
    return total ** (1.0 / (2 * rfact))


@pytest.mark.parametrize("name,n", [
    ("heisenberg", 17), ("engel", 9), ("free:2,3", 7), ("free:3,2", 6),
])
def test_array_law_paths_match_the_substituted_polynomials(name, n, monkeypatch):
    # bitwise on Heisenberg (coefficients 1 and 1/2 make every factor order
    # exact); elsewhere the factors multiply in another order, within 1e-15
    spec = resolve_group(name)
    grid = Grid(spec, n, 1.0)
    nodes = [grid.node_arrays()[lab] for lab in spec.basis]
    rng = np.random.default_rng(5)
    pairs = []
    for lab in spec.basis:
        for s in (0.1, -0.0625):
            pairs.append((flow_coordinates(grid, lab, s), _replica_flow(grid, lab, s)))
    for _ in range(2):
        centre = list(rng.uniform(-0.3, 0.3, len(spec.basis)))
        coords = _replica_product(spec, [-c for c in centre], nodes, grid.shape)
        pairs.append(([gauge_distance_arrays(grid, centre)],
                      [_replica_gauge(spec, coords)]))

    seen = []

    def sample_at(u, coords, outside_zero=False):
        seen.append(coords)
        return sample_original(u, coords, outside_zero)

    sample_original = regularity.sample_at
    monkeypatch.setattr(regularity, "sample_at", sample_at)
    field = GridField.from_polys(grid, [P11 * P12 + P21.scale(3) + P11])
    centre = list(rng.uniform(-0.1, 0.1, len(spec.basis)))
    regularity.blowup_rescale(field, centre, 0.9)
    dilated = [arr * 0.9 ** lab[0] for lab, arr in zip(spec.basis, nodes)]
    pairs.append((seen[0], _replica_product(spec, centre, dilated, grid.shape)))

    for got, want in pairs:
        for g, w in zip(got, want):
            if name == "heisenberg":
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
            else:
                np.testing.assert_allclose(g, w, rtol=1e-15, atol=0.0)


def test_grid_refuses_oversized_node_arrays_before_allocating():
    free34 = build_free_nilpotent(3, 4)
    assert len(free34.basis) == 32
    tracemalloc.start()
    try:
        with pytest.raises(NumericsError, match=r"8\.711e\+40 bytes"):
            Grid(free34, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gated_grids_far_below_the_byte_limit(heis, engel_spec):
    for spec, n in ((heis, 64), (engel_spec, 24)):
        grid = Grid(spec, n)
        meshes = sum(arr.nbytes for arr in grid.node_arrays().values())
        assert meshes == n ** len(spec.basis) * len(spec.basis) * 8
        assert meshes < GRID_BYTE_LIMIT / 100


def test_grid_field_rejects_nonfinite(heis):
    grid = Grid(heis, 5, 1.0)
    bad = np.full(grid.shape, np.nan)
    with pytest.raises(ValueError):
        GridField(grid, bad)


def test_peetre_sandwich_constant_stable_across_refinements(heis):
    # ratio of the lower-order seminorm to the full-order one, on a bump
    # family, stays put under one grid refinement
    ratios = []
    for n in (13, 25):
        u = bump_field(heis, n)
        eps0 = 0.25  # same offsets at both resolutions
        low = peetre_seminorm(u, SeminormParams((1, 1), 0.5, eps0))
        high = peetre_seminorm(u, SeminormParams((1, 1), 1.0, eps0))
        ratios.append(low / high)
    assert all(r > 0 for r in ratios)
    assert max(ratios) <= 2.0 * min(ratios)
