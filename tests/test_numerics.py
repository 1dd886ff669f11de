import gc
import hashlib
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.ndimage import map_coordinates
from scipy.sparse.linalg import cg

from carnot import numerics, regularity
from carnot.algebra import build_free_nilpotent
from carnot.catalog import resolve_group
from carnot.fields import SystemCoefficients, left_invariant_field, system_residual
from carnot.group import Point, bch_product, product_arrays
from carnot.numerics import (
    GRID_BYTE_LIMIT,
    Grid,
    GridField,
    MarginTooSmall,
    NumericsError,
    SolverDiverged,
    assemble_and_solve,
    caccioppoli_check,
    centered_derivative,
    convergence_study,
    coordinate_derivative_matrix,
    derivative_word,
    flow_coordinates,
    gauge_balls,
    gauge_distance_arrays,
    horizontal_jet,
    hormander_ratio,
    integrate,
    l2_norm_sq,
    peetre_seminorm,
    sample_at,
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


# -------------------------------------------------------------- derivatives

def test_flow_quotient_matches_the_symbolic_derivative(heis):
    # the flows behind the seminorms: (u(p e^{sX}) - u(p)) / s tends to X u
    u_poly = P11 * P12 + P21 * P11
    symbolic = left_invariant_field(heis, (1, 1)).apply(u_poly)
    grid = Grid(heis, 33, 1.0)
    u = GridField.from_polys(grid, [u_poly])
    exact = GridField.from_polys(grid, [symbolic])
    s = 0.01
    moved, mask = sample_at(u, flow_coordinates(grid, (1, 1), s))
    err = np.abs((moved - u.values) / s - exact.values)[mask]
    h = grid.horizontal_spacing()
    assert mask.sum() > 0.9 * mask.size
    assert err.max() <= 5 * (s + h ** 2)


@pytest.mark.parametrize("name,n", [("heisenberg", 9), ("engel", 7), ("free:2,3", 6)])
def test_centered_derivative_is_the_mean_of_the_solver_stencils(name, n, monkeypatch):
    # one discrete X_i: the solver's one-sided matrices, averaged, with no
    # flow and no interpolation
    def no_flow(*args, **kwargs):
        raise AssertionError("centered_derivative flowed")

    spec = resolve_group(name)
    grid = Grid(spec, n, 1.0)
    rng = np.random.default_rng(11)
    u = GridField(grid, rng.standard_normal(grid.shape + (2,)))
    flat = u.values.reshape(-1, 2)
    monkeypatch.setattr(numerics, "flow_coordinates", no_flow)
    monkeypatch.setattr(numerics, "sample_at", no_flow)
    for lab in spec.basis:
        (plus, v_plus), (minus, v_minus) = (
            coordinate_derivative_matrix(grid, lab, sign) for sign in (1, -1)
        )
        want = (0.5 * (plus @ flat + minus @ flat)).reshape(u.values.shape)
        d = centered_derivative(u, lab)
        assert np.array_equal(d.mask, v_plus & v_minus)
        assert d.values[d.mask].tobytes() == want[d.mask].tobytes()
        assert not d.values[~d.mask].any()


@pytest.mark.parametrize("name", ["heisenberg", "engel", "free:2,3"])
def test_centered_derivative_cover_is_the_float_reads_of_the_invalid_nodes(name):
    # the boolean cover against the stencils applied in absolute value to
    # an indicator of the invalid nodes
    # an odd node count puts nodes on the planes where coefficients vanish
    spec = resolve_group(name)
    grid = Grid(spec, 7, 1.0)
    rng = np.random.default_rng(14)
    invalid = rng.random(grid.shape) < 0.1
    u = GridField(grid, rng.standard_normal(grid.shape), ~invalid)
    for lab in spec.basis:
        want = ~invalid
        for sign in (1, -1):
            stencil, valid = numerics._stencil(grid, lab, sign)
            reads = numerics._apply_stencil({step: abs(c) for step, c in stencil.items()},
                                            invalid.astype(float)[..., None])
            want = want & valid & (reads[..., 0] == 0.0)
        got = centered_derivative(u, lab).mask
        assert want.any() and np.array_equal(got, want), lab


def test_centered_derivative_builds_no_sparse_matrix(engel_spec, monkeypatch):
    # the stencils are applied as arrays, with the bits of the matrices and
    # the same reads of a masked input
    def no_matrix(*args, **kwargs):
        raise AssertionError("centered_derivative built a sparse matrix")

    def by_matrix(v, lab):
        (plus, v_plus), (minus, v_minus) = (
            coordinate_derivative_matrix(grid, lab, sign) for sign in (1, -1)
        )
        invalid = (~v.mask).ravel().astype(float)
        reads = abs(plus) @ invalid + abs(minus) @ invalid
        mask = v.mask & v_plus & v_minus & (reads == 0.0).reshape(grid.shape)
        flat = v.values.reshape(-1, 1)
        vals = (0.5 * (plus @ flat + minus @ flat)).reshape(v.values.shape)
        return GridField(grid, np.where(mask[..., None], vals, 0.0), mask)

    grid = Grid(engel_spec, 7, 1.0)
    rng = np.random.default_rng(4)
    u = GridField(grid, rng.standard_normal(grid.shape), rng.random(grid.shape) > 0.1)
    want = {lab: by_matrix(by_matrix(u, lab), lab) for lab in engel_spec.basis}
    monkeypatch.setattr(numerics, "coordinate_derivative_matrix", no_matrix)
    monkeypatch.setattr(sparse, "diags", no_matrix)
    monkeypatch.setattr(sparse, "csr_matrix", no_matrix)
    for lab in engel_spec.basis:
        d = derivative_word(u, [lab, lab])
        assert d.mask.any() and np.array_equal(d.mask, want[lab].mask)
        assert d.values.tobytes() == want[lab].values.tobytes()


def test_centered_derivative_exact_on_quadratics(engel_spec):
    # the centred axis differences of a quadratic are exact, and the field
    # coefficients are taken at the node itself
    p31 = PolyFunction.variable((3, 1))
    # the flow form errs by 5e-3 on p31^2 along X_1 at this n
    u_poly = (P11 * P11 + P11 * P12.scale(3) - P12 * P12 + P21 * P11
              + p31 * P12.scale(2) - P21 * P21 + p31 * p31 + P11 + p31)
    grid = Grid(engel_spec, 9, 1.0)
    u = GridField.from_polys(grid, [u_poly])
    for i in (1, 2):
        symbolic = left_invariant_field(engel_spec, (1, i)).apply(u_poly)
        exact = GridField.from_polys(grid, [symbolic]).values
        d = centered_derivative(u, (1, i))
        assert d.mask.sum() > 0
        assert np.abs(d.values - exact)[d.mask].max() <= 1e-13


def test_derivative_word_masks_every_stencil_that_reads_an_invalid_node(heis):
    grid = Grid(heis, 11, 1.0)
    rng = np.random.default_rng(3)
    mask = rng.random(grid.shape) > 0.05
    u = GridField(grid, rng.standard_normal(grid.shape), mask)

    def oracle(valid, lab):
        # faces of every label axis, then the neighbours each nonzero
        # coefficient reads along its axis
        out = valid.copy()
        nodes = grid.node_arrays()
        for label, coeff in left_invariant_field(heis, lab).coeffs.items():
            ax = grid.axis_of(label)
            reads = np.broadcast_to(coeff.evaluate_arrays(nodes), grid.shape) != 0.0
            face = np.zeros(grid.shape, dtype=bool)
            face[(slice(None),) * ax + (0,)] = face[(slice(None),) * ax + (-1,)] = True
            out &= ~face
            for step in (1, -1):
                out &= ~reads | np.roll(valid, step, axis=ax)
        return out

    word = [(1, 1), (1, 2)]
    d = derivative_word(u, word)
    assert np.array_equal(d.mask, oracle(oracle(mask, (1, 2)), (1, 1)))
    assert d.mask.sum() > 0
    # the valid nodes do not see what the invalid ones hold
    noisy = GridField(grid, np.where(mask, u.values[..., 0], 1e6), mask)
    d_noisy = derivative_word(noisy, word)
    assert np.array_equal(d_noisy.mask, d.mask)
    assert d_noisy.values.tobytes() == d.values.tobytes()


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
    assert peetre_seminorm(u, (1, 1), 1.0) == 0.0


def test_seminorm_scaling_quadratic(heis):
    u = bump_field(heis)
    base = peetre_seminorm(u, (1, 1), 0.5)
    scaled = peetre_seminorm(GridField(u.grid, u.values * 3.0), (1, 1), 0.5)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_seminorm_order_monotone(heis):
    u = bump_field(heis)
    low = peetre_seminorm(u, (1, 1), 0.5)
    high = peetre_seminorm(u, (1, 1), 1.0)
    assert low <= high
    assert math.isfinite(low) and low > 0


def test_seminorm_invalid_order(heis):
    with pytest.raises(ValueError, match=r"order must lie in \(0, 1\]"):
        peetre_seminorm(GridField.zeros(Grid(heis, 5, 1.0)), (1, 1), 1.5)


def test_hormander_ratio_zero_field(heis):
    grid = Grid(heis, 9, 1.0)
    assert hormander_ratio(GridField.zeros(grid), (2, 1)) == 0.0


def test_hormander_ratio_stable_under_refinement(heis):
    values = [hormander_ratio(bump_field(heis, n), (2, 1)) for n in (13, 25)]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert max(values) <= 2.0 * min(values)


def test_hormander_layer1_direction_reduces_to_full_order(heis):
    u = bump_field(heis)
    lhs = peetre_seminorm(u, (1, 2), 1.0)
    ratio = hormander_ratio(u, (1, 2))
    rhs = (
        peetre_seminorm(u, (1, 1), 1.0)
        + peetre_seminorm(u, (1, 2), 1.0)
        + l2_norm_sq(u)
    )
    assert ratio == pytest.approx(lhs / rhs, rel=1e-12)


# -------------------------------------------------------------- flow sampling

def map_coordinates_oracle(field, coords):
    # the sampler as scipy's order-1 spline: fractional indices clipped to
    # the box, nodes outside it read as the nearest face, and the validity
    # interpolated with zero beyond the box
    grid = field.grid
    idx = [(c + w) / h
           for c, w, h in zip(np.broadcast_arrays(*coords), grid.half_widths, grid.spacing)]
    inside = np.ones(np.shape(idx[0]), dtype=bool)
    for x, s in zip(idx, grid.shape):
        inside &= (x >= -1e-9) & (x <= s - 1 + 1e-9)
    stacked = np.stack([np.clip(x, 0, s - 1) for x, s in zip(idx, grid.shape)])
    values = np.stack([
        map_coordinates(field.values[..., a], stacked, order=1, mode="nearest")
        for a in range(field.n_components)
    ], axis=-1)
    values = np.where(inside[..., None], values, 0.0)
    mask = inside
    if not np.all(field.mask):
        valid = map_coordinates(field.mask.astype(float), stacked, order=1,
                                mode="constant", cval=0.0)
        mask = mask & (valid > 1.0 - 1e-9)
    return values, mask


def assert_matches_oracle(field, coords):
    got, got_mask = sample_at(field, coords)
    want, want_mask = map_coordinates_oracle(field, coords)
    assert np.array_equal(got_mask, want_mask)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(field.values).max()


SAMPLED_GROUPS = [
    ("heisenberg", (11, 12, 13)),
    ("engel", (8, 9, 7, 8)),
    ("free:2,3", (7, 6, 7, 6, 5)),
]


@pytest.mark.parametrize("name,shape", SAMPLED_GROUPS)
def test_sample_at_matches_map_coordinates_on_every_flow(name, shape):
    spec = resolve_group(name)
    grid = Grid(spec, shape, [0.9 + 0.1 * ax for ax in range(len(shape))])
    rng = np.random.default_rng(7)
    values = rng.uniform(-4.0, 4.0, grid.shape + (2,))
    holes = rng.random(grid.shape) < 0.05
    for mask in (None, ~holes):
        u = GridField(grid, values, mask)
        for lab in spec.basis:
            for h in (0.037, -0.037, 0.0007, -0.0007):
                assert_matches_oracle(u, flow_coordinates(grid, lab, h))


def test_sample_at_matches_map_coordinates_on_a_blowup_grid(heis, monkeypatch):
    seen = []

    def recording(u, coords):
        seen.append(np.broadcast_arrays(*coords))
        return sample_at(u, coords)

    monkeypatch.setattr(regularity, "sample_at", recording)
    grid = Grid(heis, 17, 1.0)
    rng = np.random.default_rng(8)
    u = GridField(grid, rng.uniform(-4.0, 4.0, grid.shape),
                  rng.random(grid.shape) >= 0.05)
    seq = regularity.blowup_rescale(u, [0.07, -0.05, 0.03], 0.6, n=(40, 44, 52))
    (coords,) = seen
    assert seq.rescaled.grid.shape == (40, 44, 52)
    assert np.shape(coords[0]) == (40, 44, 52)
    for field in (u, GridField(grid, u.values)):
        assert_matches_oracle(field, coords)


def test_sample_at_reproduces_multilinear_polynomials(heis):
    # multilinear interpolation is exact on each cell for a polynomial of
    # degree at most one in each coordinate
    poly = (P11 + 1) * (2 - P21) * (P12 + 1)
    grid = Grid(heis, (9, 10, 11), 1.0)
    u = GridField.from_polys(grid, [poly])
    nodes = grid.node_arrays()
    sets = [flow_coordinates(grid, lab, h)
            for lab in heis.basis for h in (0.037, -0.0007)]
    sets.append(product_arrays(heis, [0.1, -0.2, 0.05],
                               [nodes[lab] * 0.7 ** lab[0] for lab in heis.basis]))
    for coords in sets:
        moved, mask = sample_at(u, coords)
        want = poly.evaluate_arrays(dict(zip(heis.basis, coords)))
        assert mask.any()
        assert np.abs(moved[..., 0] - want)[mask].max() <= 1e-14 * np.abs(want).max()
        assert not moved[~mask].any()


def test_sample_at_counts_the_faces_and_their_tolerance_as_inside(heis):
    grid = Grid(heis, (5, 6, 7), (1.0, 0.5, 2.0))
    rng = np.random.default_rng(9)
    u = GridField(grid, rng.uniform(-1.0, 1.0, grid.shape))
    # per axis: each face, 0.5e-9 of a cell beyond it (inside, clipped back
    # to the face) and 2e-9 of a cell beyond it (outside); the other axes
    # sit on their second node
    for ax in range(3):
        w, h = grid.half_widths[ax], grid.spacing[ax]
        coords = [np.full(6, grid.coords1d[i][1]) for i in range(3)]
        coords[ax] = np.array([-w, w, -w - 0.5e-9 * h, w + 0.5e-9 * h,
                               -w - 2e-9 * h, w + 2e-9 * h])
        values, mask = sample_at(u, coords)
        assert mask.tolist() == [True] * 4 + [False] * 2
        at = [1, 1, 1]
        faces = []
        for end in (0, -1):
            at[ax] = end
            faces.append(u.values[..., 0][tuple(at)])
        assert np.abs(values[:4, 0] - faces * 2).max() <= 1e-15
        assert not values[4:].any()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_at_nonfinite_coordinates_are_outside_without_warning(heis, bad):
    grid = Grid(heis, 9, 1.0)
    u = GridField.from_polys(grid, [P11 + 2])
    coords = flow_coordinates(grid, (1, 1), 0.01)
    for ax in range(3):
        bent = [np.broadcast_to(c, grid.shape).copy() for c in coords]
        bent[ax][1, 2, 3] = bad
        bent[(ax + 1) % 3][4, 4, 4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, mask = sample_at(u, bent)
        for point in ((1, 2, 3), (4, 4, 4)):
            assert not values[point].any()
            assert not mask[point]


@pytest.mark.parametrize("direction,fields", [((1, 1), 5), ((2, 1), 3)])
def test_sample_at_peaks_at_a_few_field_sizes(heis, direction, fields):
    # the staged flows gather a pair of arrays per moved axis, not 2**k
    # full-size corners through a full-size index
    grid = Grid(heis, 24, 1.0)
    u = GridField(grid, np.random.default_rng(15).standard_normal(grid.shape))
    coords = flow_coordinates(grid, direction, 0.01)
    sample_at(u, coords)
    tracemalloc.start()
    try:
        sample_at(u, coords)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= fields * u.values.nbytes


@pytest.mark.parametrize("name", [name for name, _ in SAMPLED_GROUPS])
def test_flows_keep_the_lower_layers_and_the_other_same_layer_axes_on_nodes(name):
    # what lets the sampler read those axes at their node index
    spec = resolve_group(name)
    grid = Grid(spec, 6, 1.0)
    nodes = grid.node_arrays()
    for lab in spec.basis:
        for h in (0.037, -0.0007):
            coords = flow_coordinates(grid, lab, h)
            for other, arr in zip(spec.basis, coords):
                if other[0] < lab[0] or (other[0] == lab[0] and other != lab):
                    assert arr.tobytes() == nodes[other].tobytes(), (lab, other)


def test_flow_sampling_leaves_no_reference_cycles(heis):
    u = bump_field(heis, n=13)
    regularity.blowup_rescale(u, [0.05, 0.0, -0.02], 0.5)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        hormander_ratio(u, (2, 1))
        assert gc.collect() == 0
        regularity.blowup_rescale(u, [0.05, 0.0, -0.02], 0.5)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()



# -- the open mesh against dense node meshes

OPEN_MESH_GROUPS = ["heisenberg", "engel", "free:2,3", "free:3,2"]


def _open_and_dense_grids(spec, monkeypatch):
    # two equal grids; the second hands out its node arrays as dense copies
    widths = [0.8 + 0.1 * k for k in range(len(spec.basis))]
    grid, dense = Grid(spec, 7, widths), Grid(spec, 7, widths)
    nodes = {lab: np.broadcast_to(arr, grid.shape).copy()
             for lab, arr in grid.node_arrays().items()}
    monkeypatch.setattr(dense, "node_arrays", lambda: nodes)
    return grid, dense


def _full_bytes(grid, arrays):
    return [np.broadcast_to(a, grid.shape).tobytes() for a in arrays]


@pytest.mark.parametrize("name", OPEN_MESH_GROUPS)
def test_open_mesh_keeps_the_bits_of_dense_meshes(name, monkeypatch):
    spec = resolve_group(name)
    grid, dense = _open_and_dense_grids(spec, monkeypatch)
    assert all(np.shape(a) != grid.shape for a in grid.node_arrays().values())
    for lab in spec.basis:
        for s in (0.1, -0.0625):
            assert (_full_bytes(grid, flow_coordinates(grid, lab, s))
                    == _full_bytes(grid, flow_coordinates(dense, lab, s)))
        for sign in (1, -1):
            (got, got_valid), (want, want_valid) = (
                numerics._stencil(g, lab, sign) for g in (grid, dense))
            assert list(got) == list(want)
            assert [c.tobytes() for c in got.values()] == [c.tobytes() for c in want.values()]
            assert np.array_equal(got_valid, want_valid)
    rng = np.random.default_rng(11)
    for centre in (None, list(rng.uniform(-0.3, 0.3, len(spec.basis)))):
        assert (gauge_distance_arrays(grid, centre).tobytes()
                == gauge_distance_arrays(dense, centre).tobytes())
    first, top = PolyFunction.variable(spec.basis[0]), PolyFunction.variable(spec.basis[-1])
    polys = [first ** 3 * top - top.scale(Fraction(2, 3)) + 1, PolyFunction.constant(2), top]
    assert (GridField.from_polys(grid, polys).values.tobytes()
            == GridField.from_polys(dense, polys).values.tobytes())
    # the blow-up coordinates: p = centre * dilate(radius, q), q on a unit grid
    seen = []

    def recording(u, coords):
        seen.append(coords)
        return sample_at(u, coords)

    monkeypatch.setattr(regularity, "sample_at", recording)
    field = GridField.from_polys(grid, [first * top + top.scale(3) + first])
    centre = list(rng.uniform(-0.1, 0.1, len(spec.basis)))
    regularity.blowup_rescale(field, centre, 0.6, n=6)
    unit = Grid(spec, 6, 1.0)
    want = product_arrays(spec, centre, [np.broadcast_to(arr, unit.shape) * 0.6 ** lab[0]
                                         for lab, arr in unit.node_arrays().items()])
    (coords,) = seen
    assert _full_bytes(unit, coords) == [w.tobytes() for w in want]


def _dense_coords(coords):
    return [a.copy() for a in np.broadcast_arrays(*coords)]


def _assert_sampled_alike(u, coords):
    got, got_mask = sample_at(u, coords)
    want, want_mask = sample_at(u, _dense_coords(coords))
    assert got.tobytes() == want.tobytes()
    assert got_mask.dtype == want_mask.dtype and got_mask.tobytes() == want_mask.tobytes()


@pytest.mark.parametrize("name,shape", SAMPLED_GROUPS)
def test_sample_at_on_broadcast_coordinates_has_the_bits_of_dense_ones(name, shape):
    # open-mesh flows take the staged path where dense coordinates gather
    # jointly; blow-up coordinates and point sets that are not a mesh of
    # the grid's axes, with and without an axis read at its node index,
    # gather jointly either way
    spec = resolve_group(name)
    widths = [0.9 + 0.1 * ax for ax in range(len(shape))]
    grid = Grid(spec, shape, widths)
    rng = np.random.default_rng(12)
    values = rng.uniform(-4.0, 4.0, grid.shape + (2,))
    holes = rng.random(grid.shape) < 0.05
    nodes = grid.node_arrays()
    centre = list(rng.uniform(-0.1, 0.1, len(spec.basis)))
    blowup = product_arrays(spec, centre, [nodes[lab] * 0.6 ** lab[0] for lab in spec.basis])
    listed = [rng.uniform(-1.1 * w, 1.1 * w, (9, 1) if ax % 2 else (1, 4))
              for ax, w in enumerate(widths)]
    listed[-1] = rng.uniform(-1.1 * widths[-1], 1.1 * widths[-1], (9, 4))
    on_nodes = [nodes[spec.basis[0]]] + [rng.uniform(-1.1 * w, 1.1 * w, (2, 1) + grid.shape[1:])
                                         for w in widths[1:]]
    for mask in (None, ~holes):
        u = GridField(grid, values, mask)
        for coords in (blowup, listed, on_nodes):
            _assert_sampled_alike(u, coords)
        assert sample_at(u, on_nodes)[0].shape == (2,) + grid.shape + (2,)
        for lab in spec.basis:
            # the larger steps carry points out of the box
            for h in (0.37, -0.037, 0.0007):
                coords = flow_coordinates(grid, lab, h)
                _assert_sampled_alike(u, coords)
                # a non-finite entry in the flow's own axis and in the next
                # one, which may be a node array
                ax = spec.basis.index(lab)
                for bad in (math.nan, math.inf, -math.inf):
                    bent = [np.array(c, dtype=float) for c in coords]
                    bent[ax].flat[1] = bad
                    bent[(ax + 1) % len(bent)].flat[2] = bad
                    _assert_sampled_alike(u, bent)


def _heis_field(n=9):
    heis = resolve_group("heisenberg")
    return GridField.from_polys(Grid(heis, n, 1.0), [P11 * P12 + P21])


@pytest.mark.parametrize("call,message", [
    (lambda u: product_arrays(u.grid.spec, [1, 2, 3, 4], [5, 6]), "got 4 and 2"),
    (lambda u: gauge_distance_arrays(u.grid, [0.1, 0.2, 0.3, 0.4]), "got 4 and 3"),
    (lambda u: gauge_distance_arrays(u.grid, [0.1, 0.2]), "got 2 and 3"),
    (lambda u: sample_at(u, list(u.grid.node_arrays().values())[:2]),
     "need 3 coordinate arrays, one per axis, got 2"),
    (lambda u: sample_at(u, list(u.grid.node_arrays().values()) + [0.0]),
     "need 3 coordinate arrays, one per axis, got 4"),
    (lambda u: regularity.sup_estimate_check(u, [0.0] * 4, 0.4), "got 4 and 3"),
    (lambda u: regularity.blowup_rescale(u, [0.05] * 4, 0.5), "got 4 and 3"),
    (lambda u: regularity.excess_decay_check(u, [0.0] * 2, 0.5, 0.8, [0.4, 0.8]),
     "got 2 and 3"),
], ids=["product", "distance-4", "distance-2", "sample-2", "sample-4", "sup", "blowup",
        "decay"])
def test_coordinate_lists_of_the_wrong_length_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(_heis_field())


def test_flows_take_the_shape_of_the_axes_they_read(heis):
    grid = Grid(heis, 8, 1.0)
    shapes = [np.shape(a) for a in flow_coordinates(grid, (1, 1), 0.1)]
    assert shapes == [(8, 1, 1), (1, 8, 1), (1, 8, 8)]
    shapes = [np.shape(a) for a in flow_coordinates(grid, (2, 1), 0.1)]
    assert shapes == [(8, 1, 1), (1, 8, 1), (1, 1, 8)]


# -------------------------------------------------------------- norms

def test_sobolev_norm_constant(heis):
    grid = Grid(heis, 9, 1.0)
    region, = gauge_balls(grid, None, [0.7])
    u = GridField(grid, np.full(grid.shape, 2.0))
    vol = integrate(np.ones(grid.shape), grid, region)
    assert sobolev_norm(u, 1, region) == pytest.approx(2.0 * math.sqrt(vol))


def test_sobolev_norm_coordinate_field(heis):
    grid = Grid(heis, 17, 1.0)
    region, = gauge_balls(grid, None, [0.6])
    u = GridField.from_polys(grid, [P11])
    vol = integrate(np.ones(grid.shape), grid, region)
    expected = math.sqrt(l2_norm_sq(u, region)) + math.sqrt(vol)
    assert sobolev_norm(u, 1, region) == pytest.approx(expected, rel=1e-10)


def test_sobolev_norm_monotone_in_order(heis):
    u = bump_field(heis)
    region, = gauge_balls(u.grid, None, [0.5])
    n1 = sobolev_norm(u, 1, region)
    n2 = sobolev_norm(u, 2, region)
    assert n2 >= n1


def test_horizontal_jet_takes_each_level_from_the_last_and_checks_its_cover(heis):
    u = bump_field(heis)
    region, = gauge_balls(u.grid, None, [0.5])
    jet = horizontal_jet(u, 2, region)
    assert [len(level) for level in jet] == [1, 2, 4]
    assert jet[0][0] is u
    words = [[], [(1, 1)], [(1, 2)],
             [(1, 1), (1, 1)], [(1, 2), (1, 1)], [(1, 1), (1, 2)], [(1, 2), (1, 2)]]
    for fld, word in zip([f for level in jet for f in level], words):
        assert fld.values.tobytes() == derivative_word(u, word).values.tobytes()
    with pytest.raises(MarginTooSmall):
        horizontal_jet(u, 1, np.ones(u.grid.shape, dtype=bool))
    assert horizontal_jet(u, 0, np.ones(u.grid.shape, dtype=bool)) == [[u]]


def test_sobolev_margin_too_small(heis):
    grid = Grid(heis, 9, 1.0)
    u = GridField.from_polys(grid, [P11])
    full = np.ones(grid.shape, dtype=bool)
    with pytest.raises(MarginTooSmall):
        sobolev_norm(u, 1, full)


@pytest.mark.parametrize("check,radius,power", [
    ("caccioppoli", 1e-300, 2), ("caccioppoli", 1e-160, 2), ("caccioppoli", 1e200, 2),
    ("sup", 1e-300, 4), ("sup", 1e-80, 4), ("sup", 1e100, 4),
])
def test_a_radius_whose_scale_is_not_a_normal_float_is_refused(check, radius, power):
    u = _heis_field()
    run = {"caccioppoli": lambda: caccioppoli_check(u, radius),
           "sup": lambda: regularity.sup_estimate_check(u, None, radius)}[check]
    with pytest.raises(ValueError, match=re.escape(f"the radius {radius} makes r**{power} = ")):
        run()


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


def test_a_tiny_multiple_of_the_identity_solves_like_the_identity(heis):
    # coercivity is decided exactly, with no cutoff: the solve is scale-invariant
    tiny = SystemCoefficients([[[[Fraction(1, 10 ** 12), 0], [0, Fraction(1, 10 ** 12)]]]])
    assert tiny.coercivity_margin() == pytest.approx(1e-12)
    reports = [assemble_and_solve(heis, A, [P11], n=9).solve_report
               for A in (SystemCoefficients.identity(1, 2), tiny)]
    assert reports[1]["iterations"] == reports[0]["iterations"]
    assert reports[1]["relative_weak_residual"] <= 1e-10


def _legendre_family(t):
    """A = d_ab d_ij + t (d_ai d_bj - d_aj d_bi), N = m = 2: Legendre margin
    1 - |t|, rank-one margin 1 for every t."""
    def d(x, y):
        return int(x == y)
    return SystemCoefficients([[[[d(a, b) * d(i, j) + t * (d(a, i) * d(b, j) - d(a, j) * d(b, i))
                                  for j in range(2)] for i in range(2)]
                                for b in range(2)] for a in range(2)])


def test_the_legendre_condition_accepts_t_one_half_and_refuses_t_three_halves(heis):
    half, three_halves = _legendre_family(Fraction(1, 2)), _legendre_family(Fraction(3, 2))
    assert half.coercivity_margin() == pytest.approx(0.5)
    assert three_halves.coercivity_margin() == pytest.approx(-0.5)
    sol = assemble_and_solve(heis, half, [P11, P12], n=7)
    assert sol.solve_report["relative_weak_residual"] <= 1e-10
    with pytest.raises(SolverDiverged, match="fail the Legendre condition"):
        assemble_and_solve(heis, three_halves, [P11, P12], n=7)


def test_manufactured_source_consistency(heis):
    ident = SystemCoefficients.identity(1, 2)
    u_star = P11 ** 3 + P11 * P12
    f = system_residual(heis, ident, [u_star])
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
    f = system_residual(heis, ident, [u_star])
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
    rep2 = caccioppoli_check(GridField(sol.grid, sol.values * 3.0), radius=0.45)
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
    big = Grid(heis, n, [s, s, s ** 2])
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
    mask, wider = gauge_balls(grid, [0.25, 0.0, 0.0], [0.3, 0.6])
    assert mask.sum() > 0
    assert np.array_equal(wider, gauge_distance_arrays(grid, [0.25, 0.0, 0.0]) < 0.6)
    # the center node itself lies inside
    assert mask[10, 8, 8] or mask[9, 8, 8]
    # the smallest ball must hold a node, whatever the order of the radii;
    # (0.3, 0, 0) is 0.05 from its nearest node
    with pytest.raises(ValueError, match="no grid nodes inside the ball of radius 0.01"):
        gauge_balls(grid, [0.3, 0.0, 0.0], [0.3, 0.01])


@pytest.mark.parametrize("radii,named", [
    ((-1.0, -2.0), "-1.0"),
    ((0.5, 1.0, 0.25, float("nan"), 1.0), "nan"),
    ((0.3, 0.0), "0.0"),
    ((float("inf"), 0.5), "inf"),
])
def test_gauge_balls_name_the_first_radius_not_finite_and_positive(heis, radii, named):
    grid = Grid(heis, 9, 1.0)
    with pytest.raises(ValueError, match=f"ball radius must be finite and positive, got {named}$"):
        gauge_balls(grid, None, radii)


# -- the array law paths against the scalar product, node by node

def _scalar_products(spec, left, right, nodes):
    # bch_product on float points at the given flat node indices; each side
    # is a coordinate sequence of numbers or grid-shaped arrays
    def point(values, j):
        return Point.from_sequence(spec, [
            float(v.flat[j]) if isinstance(v, np.ndarray) else float(v) for v in values
        ])
    return [bch_product(point(left, j), point(right, j)).sequence() for j in nodes]


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
def test_array_law_paths_match_the_scalar_product(name, n, monkeypatch):
    # flows, centred gauge distances and blow-up coordinates at 60 sampled
    # nodes: the law bitwise on every group; the gauge formula bitwise on
    # Heisenberg, elsewhere numpy's powers within 1e-15
    spec = resolve_group(name)
    grid = Grid(spec, n, 1.0)
    nodes = [np.broadcast_to(grid.node_arrays()[lab], grid.shape) for lab in spec.basis]
    rng = np.random.default_rng(5)
    sample = rng.choice(nodes[0].size, 60, replace=False)

    def at_sample(arrays):
        arrays = [np.broadcast_to(a, grid.shape) for a in arrays]
        return [[float(a.flat[j]) for a in arrays] for j in sample]

    for lab in spec.basis:
        for s in (0.1, -0.0625):
            step = [s if b == lab else 0.0 for b in spec.basis]
            got = at_sample(flow_coordinates(grid, lab, s))
            want = _scalar_products(spec, nodes, step, sample)
            assert np.array(got).tobytes() == np.array(want).tobytes()
    for _ in range(2):
        centre = list(rng.uniform(-0.3, 0.3, len(spec.basis)))
        got = gauge_distance_arrays(grid, centre).flat[sample]
        coords = _scalar_products(spec, [-c for c in centre], nodes, sample)
        want = _replica_gauge(spec, list(np.array(coords).T))
        if name == "heisenberg":
            assert np.array(got).tobytes() == np.array(want).tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    seen = []

    def sample_at(u, coords):
        seen.append(coords)
        return sample_original(u, coords)

    sample_original = regularity.sample_at
    monkeypatch.setattr(regularity, "sample_at", sample_at)
    field = GridField.from_polys(grid, [P11 * P12 + P21.scale(3) + P11])
    centre = list(rng.uniform(-0.1, 0.1, len(spec.basis)))
    regularity.blowup_rescale(field, centre, 0.9)
    dilated = [arr * 0.9 ** lab[0] for lab, arr in zip(spec.basis, nodes)]
    want = _scalar_products(spec, centre, dilated, sample)
    assert np.array(at_sample(seen[0])).tobytes() == np.array(want).tobytes()


def test_grid_data_has_the_bits_of_the_scalar_evaluation(heis):
    # per-node Python pow in term order; numpy's own x ** 4 is an ulp off
    # it at some nodes of linspace(-1, 1, 32)
    poly = P11 ** 4 - P21 ** 3 * P12.scale(Fraction(2, 3)) + P11 * P21 + 1
    grid = Grid(heis, 32, 1.0)
    nodes = {lab: np.broadcast_to(arr, grid.shape) for lab, arr in grid.node_arrays().items()}
    want = np.empty(grid.shape)
    for idx in np.ndindex(grid.shape):
        total = 0.0
        for mono, c in poly.terms.items():
            term = float(c)
            for v, e in mono:
                term *= float(nodes[v][idx]) ** e
            total += term
        want[idx] = total
    got = GridField.from_polys(grid, [poly]).values[..., 0]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,half_widths,message", [
    (9, [1.0, 1.0], r"need 3 half widths, one per axis, got \[1.0, 1.0\]"),
    (9, [1.0] * 4, r"need 3 half widths, one per axis"),
    ((9, 9), 1.0, r"need 3 node counts, one per axis, got \[9, 9\]"),
])
def test_grid_refuses_a_node_count_or_half_width_list_of_another_length(
        heis, n, half_widths, message):
    # a short list would leave the last axis out of the grid
    with pytest.raises(ValueError, match=message):
        Grid(heis, n, half_widths)


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


def test_solver_refuses_an_oversized_assembly_before_allocating(heis, monkeypatch):
    # Heisenberg n = 20: 192 kB of node arrays, and 11 diagonals of K over
    # 18^3 interior rows at 25 bytes each, about 1.6 MB
    monkeypatch.setattr(numerics, "GRID_BYTE_LIMIT", 1 << 20)
    ident = SystemCoefficients.identity(1, 2)
    assemble_and_solve(heis, ident, [P11], n=5)      # warm the spec's caches
    tracemalloc.start()
    try:
        with pytest.raises(NumericsError, match=r"20x20x20 needs about 1\.604e\+6 bytes"):
            assemble_and_solve(heis, ident, [P11], n=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assemble_and_solve(heis, ident, [P11], n=16)


def test_gated_grids_far_below_the_byte_limit(heis, engel_spec):
    for spec, n in ((heis, 64), (engel_spec, 24)):
        grid = Grid(spec, n)
        meshes = sum(arr.nbytes for arr in grid.node_arrays().values())
        assert meshes == sum(grid.shape) * 8
        assert meshes < GRID_BYTE_LIMIT / 100


def test_grid_field_rejects_nonfinite(heis):
    grid = Grid(heis, 5, 1.0)
    bad = np.full(grid.shape, np.nan)
    with pytest.raises(ValueError):
        GridField(grid, bad)


def test_peetre_sandwich_constant_stable_across_refinements(heis, monkeypatch):
    # ratio of the lower-order seminorm to the full-order one, on a bump
    # family, stays put under one grid refinement; the offsets, in
    # (0, 4h], are held to (0, 0.25] at both resolutions
    monkeypatch.setattr(Grid, "horizontal_spacing", lambda grid: 0.0625)
    ratios = []
    for n in (13, 25):
        u = bump_field(heis, n)
        low = peetre_seminorm(u, (1, 1), 0.5)
        high = peetre_seminorm(u, (1, 1), 1.0)
        ratios.append(low / high)
    assert all(r > 0 for r in ratios)
    assert max(ratios) <= 2.0 * min(ratios)


# -- the one-product assembly against the per-block sum it replaced

def _replica_derivative(grid, direction, sign):
    # sum over the field's coefficients of diag(c) times a one-sided
    # coordinate difference, one sparse addition each
    op = left_invariant_field(grid.spec, direction)
    nodes = grid.node_arrays()
    size = int(np.prod(grid.shape))
    total = sparse.csr_matrix((size, size))
    valid = np.ones(grid.shape, dtype=bool)
    for label, coeff in op.coeffs.items():
        ax = grid.axis_of(label)
        idx = np.indices(grid.shape)[ax].ravel()
        ok = idx < grid.shape[ax] - 1 if sign > 0 else idx > 0
        rows = np.flatnonzero(ok)
        step = sign * int(np.prod(grid.shape[ax + 1:]))
        inv = 1.0 / (sign * grid.spacing[ax])
        diff = sparse.coo_matrix(
            (np.concatenate([np.full(rows.size, inv), np.full(rows.size, -inv)]),
             (np.concatenate([rows, rows]), np.concatenate([rows + step, rows]))),
            shape=(size, size),
        ).tocsr()
        coeffs = np.broadcast_to(coeff.evaluate_arrays(nodes), grid.shape)
        total = total + sparse.diags(coeffs.ravel()) @ diff
        valid &= ok.reshape(grid.shape)
    return total, valid


def _boundary_mask(shape):
    # the nodes on a face of the box: first or last along some axis
    idx = np.indices(shape)
    return np.any([(i == 0) | (i == s - 1) for i, s in zip(idx, shape)], axis=0)


def _replica_system(spec, A, n, boundary, f, f_i):
    # sum of kron(D_i^T W D_j, A_ij) over both sides and all (i, j), the
    # loads -D_i^T W f_i and -w f, then the Dirichlet elimination
    grid = Grid(spec, n)
    ncomp, m = A.n_components, spec.m
    size = int(np.prod(grid.shape))
    nodes = grid.node_arrays()

    def values(polys):
        return np.stack([np.broadcast_to(p.evaluate_arrays(nodes), grid.shape)
                         for p in polys], -1).reshape(size, ncomp)

    k_mat = sparse.csr_matrix((size * ncomp, size * ncomp))
    b = np.zeros(size * ncomp)
    w_total = np.zeros(size)
    for sgn in (+1, -1):
        mats, valid = [], np.ones(grid.shape, dtype=bool)
        for i in range(m):
            mat, v = _replica_derivative(grid, (1, i + 1), sgn)
            mats.append(mat)
            valid &= v
        w_diag = np.where(valid.ravel(), 0.5 * grid.cell_volume, 0.0)
        w_total += w_diag
        for i in range(m):
            di_w = mats[i].T @ sparse.diags(w_diag)
            for j in range(m):
                block = np.array([[float(A.entry(al, be, i, j)) for be in range(ncomp)]
                                  for al in range(ncomp)])
                if block.any():
                    k_mat = k_mat + sparse.kron(di_w @ mats[j], sparse.csr_matrix(block),
                                                format="csr")
            b -= (di_w @ values(f_i[i])).reshape(-1)
    b -= (w_total[:, None] * values(f)).reshape(-1)
    fixed = np.repeat(_boundary_mask(grid.shape).ravel(), ncomp)
    free = ~fixed
    x = values(boundary).reshape(-1)
    return k_mat[free][:, free], b[free] - k_mat[free][:, fixed] @ x[fixed]


class _Captured(Exception):
    pass


def _system_case(name, ncomp):
    """Coefficients and nonzero data: identity coefficients for one
    component, a coupled non-symmetric system for two."""
    spec = resolve_group(name)
    m = spec.m
    if ncomp == 1:
        A = SystemCoefficients.identity(1, m)
        boundary, f = [P11 * P21 + 1], [P11 - P21.scale(2)]
        f_i = [[P21 * P11]] + [[P11.scale(i)] for i in range(1, m)]
    else:
        # coupled and not symmetric: A(0, 1, 0, 1) != A(1, 0, 1, 0); the
        # symmetric part stays positive definite
        A = SystemCoefficients([
            [[[2, Fraction(1, 2)], [0, 1]], [[0, Fraction(1, 3)], [Fraction(-1, 4), 0]]],
            [[[0, 0], [Fraction(1, 5), 0]], [[1, 0], [Fraction(1, 7), 3]]],
        ])
        boundary, f = [P11, P12 * P21], [P11 * P12, PolyFunction.constant(1)]
        f_i = [[P21, P11 * P11], [P12, P21.scale(-1)]]
    return spec, A, boundary, f, f_i


def _captured_cg_call(monkeypatch, spec, A, boundary, f, f_i, n, half_widths=1.0):
    """``(K, b, keyword arguments)`` of the solver's first CG call."""
    captured = []

    def capture(k_ff, rhs, **kwargs):
        captured.append((k_ff, rhs, kwargs))
        raise _Captured

    monkeypatch.setattr(numerics, "_cg", capture)
    with pytest.raises(_Captured):
        assemble_and_solve(spec, A, boundary, f=f, f_i=f_i, n=n, half_widths=half_widths)
    (call,) = captured
    return call


@pytest.mark.parametrize("name,n,ncomp", [
    ("heisenberg", 20, 1), ("engel", 10, 1), ("heisenberg", 10, 2),
])
def test_assembly_matches_the_per_block_sum(name, n, ncomp, monkeypatch):
    spec, A, boundary, f, f_i = _system_case(name, ncomp)
    k_got, b_got, _ = _captured_cg_call(monkeypatch, spec, A, boundary, f, f_i, n)
    k_want, b_want = _replica_system(spec, A, n, boundary, f, f_i)
    k_got, k_want = k_got.tocsr(), k_want.tocsr()
    k_got.sort_indices()
    k_want.sort_indices()
    assert np.array_equal(k_got.indptr, k_want.indptr)
    assert np.array_equal(k_got.indices, k_want.indices)
    assert np.abs(k_got.data - k_want.data).max() <= 1e-14 * np.abs(k_want.data).max()
    assert np.abs(b_got - b_want).max() <= 1e-14 * np.abs(b_want).max()


# SHA-256 digests of K_ff's (indptr, indices, data) and of the right-hand
# side as the solver hands them to CG; a numpy or scipy upgrade may move
# these bits without any change to the package
OPERATOR_DIGESTS = {
    ("heisenberg", 20, 1): (
        "194c66c6ed750c916f691e26d99c4a709cacb685e6828b9a12a72f795ad1627d",
        "d028308228b5b423e30fbb845371252e86c94dac2e7f88a8ddf8e9f8adaa875b",
    ),
    ("engel", 10, 1): (
        "1dde2be69676eabb1774cba7d1002733bc69fe0e538da3999cb4ba5cb2307c3c",
        "abc487f27c0165720aacad54ddf91d6ea9e481e529efb720f493ad99e87a9194",
    ),
    ("heisenberg", 10, 2): (
        "14ba7c17bb986bcd978ddd65dbe0ce69e95cfd7c67e3e493438823771295be75",
        "f809d5d147cdd6e54ca72fdbb6fde78069d82bcc06cee39e6274676885a20219",
    ),
}


@pytest.mark.parametrize("name,n,ncomp", list(OPERATOR_DIGESTS))
def test_operator_bits_are_pinned(name, n, ncomp, monkeypatch):
    spec, A, boundary, f, f_i = _system_case(name, ncomp)
    k_ff, rhs, _ = _captured_cg_call(monkeypatch, spec, A, boundary, f, f_i, n)
    k_digest = hashlib.sha256()
    for arr in (k_ff.indptr, k_ff.indices, k_ff.data):
        k_digest.update(arr.tobytes())
    rhs_digest = hashlib.sha256(rhs.tobytes())
    assert (k_digest.hexdigest(), rhs_digest.hexdigest()) == OPERATOR_DIGESTS[name, n, ncomp]


# -- the stencil assembly against the sparse products it replaced

def _product_derivative(grid, direction, sign):
    # the one-sided matrix as sparse.diags of whole coefficient arrays, one
    # diagonal per coefficient and minus their sum on the main diagonal
    size = math.prod(grid.shape)
    valid = np.ones(grid.shape, dtype=bool)
    main, diagonals, offsets = np.zeros(size), [], []
    for label, coeff in left_invariant_field(grid.spec, direction).coeffs.items():
        ax = grid.axis_of(label)
        face = (slice(None),) * ax + (-1 if sign > 0 else 0,)
        valid[face] = False
        c = coeff.evaluate_arrays(grid.node_arrays()) / (sign * grid.spacing[ax])
        c = np.broadcast_to(c, grid.shape).copy()
        c[face] = 0.0
        c = c.ravel()
        stride = math.prod(grid.shape[ax + 1:])
        diagonals.append(c[:-stride] if sign > 0 else c[stride:])
        offsets.append(sign * stride)
        main += c
    return sparse.diags([-main] + diagonals, [0] + offsets, (size,) * 2, "csr"), valid


def _product_system(spec, A, boundary, f, f_i, n, half_widths=1.0):
    # K_ff = G_I^T (B G_I) and rhs = -G_I^T (w f_i + B G g) - w f, with G the
    # stack of X_i^+- for every component (rows side, node, alpha, i) and B
    # the weight times the form of A at each node of each side
    grid = Grid(spec, n, half_widths)
    ncomp, m = A.n_components, spec.m
    sides, weights = [], []
    for sgn in (+1, -1):
        valid, side = np.ones(grid.shape, dtype=bool), 0
        for i in range(m):
            mat, v = _product_derivative(grid, (1, i + 1), sgn)
            valid &= v
            slot = sparse.csr_matrix(np.kron(np.eye(ncomp), np.eye(m, 1, -i)))
            side = side + sparse.kron(mat, slot, "csr")
        sides.append(side)
        weights.append(np.where(valid.ravel(), 0.5 * grid.cell_volume, 0.0))
    g_mat, w = sparse.vstack(sides, "csr"), np.stack(weights)
    form = A.quadratic_form_matrix()
    fixed = np.repeat(_boundary_mask(grid.shape).ravel(), ncomp)
    free = ~fixed
    x = GridField.from_polys(grid, boundary).values.reshape(-1)
    flux = np.stack([GridField.from_polys(grid, fi).values for fi in f_i], -1)
    b_mat = sparse.kron(sparse.diags(w.ravel()), form, "csr")
    load = (w[:, :, None, None] * flux.reshape(-1, ncomp, m)).ravel()
    load += b_mat @ (g_mat @ np.where(fixed, x, 0.0))
    g_t = g_mat[:, free].T.tocsr()
    rhs = -(g_t @ load)
    f_vals = GridField.from_polys(grid, f).values.reshape(-1, ncomp)
    rhs -= (w.sum(axis=0)[:, None] * f_vals).ravel()[free]
    k_ff = g_t @ (b_mat @ g_mat[:, free])
    k_ff.sum_duplicates()
    return k_ff, rhs


@pytest.mark.parametrize("name,ncomp,n,half_widths", [
    ("heisenberg", 1, 33, 1.0),                 # odd: x = 0 is a node
    ("engel", 1, (5, 6, 7, 8), 1.0),
    ("heisenberg", 1, (9, 12, 10), [0.7, 1.3, 0.45]),
    ("engel", 1, 7, [1.2, 0.8, 0.5, 0.3]),
    ("free:2,3", 1, 7, 1.0),
    ("free:3,2", 1, 6, 1.0),
    ("free:2,4", 1, 5, 1.0),
    ("heisenberg", 2, 11, 1.0),
    ("engel", 2, (6, 5, 7, 5), [0.9, 1.1, 0.7, 1.4]),
])
def test_stencil_assembly_has_the_bits_of_the_sparse_products(
        name, ncomp, n, half_widths, monkeypatch):
    spec, A, boundary, f, f_i = _system_case(name, ncomp)
    k_got, b_got, _ = _captured_cg_call(monkeypatch, spec, A, boundary, f, f_i, n,
                                        half_widths)
    k_want, b_want = _product_system(spec, A, boundary, f, f_i, n, half_widths)
    for part in ("indptr", "indices", "data"):
        got, want = getattr(k_got, part), getattr(k_want, part)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part
    assert b_got.tobytes() == b_want.tobytes()


@pytest.mark.parametrize("name,n", [
    ("heisenberg", 9), ("engel", (5, 6, 7, 8)), ("free:2,3", 6), ("free:3,2", 5),
])
def test_derivative_matrix_has_the_bits_of_whole_array_diagonals(name, n):
    spec = resolve_group(name)
    grid = Grid(spec, n, [0.5 + 0.25 * k for k in range(len(spec.basis))])
    for lab in spec.basis:
        for sign in (1, -1):
            got, got_valid = coordinate_derivative_matrix(grid, lab, sign)
            want, want_valid = _product_derivative(grid, lab, sign)
            assert np.array_equal(got_valid, want_valid)
            for part in ("indptr", "indices", "data"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


def test_solver_checks_the_data_against_the_system(heis):
    ident = SystemCoefficients.identity(1, 2)
    with pytest.raises(ValueError, match="the boundary data has 2 components; need 1"):
        assemble_and_solve(heis, ident, [P11, P12], n=5)
    with pytest.raises(ValueError, match="f_2 has 2 components; need 1"):
        assemble_and_solve(heis, ident, [P11], f_i=[[P11], [P11, P12]], n=5)
    with pytest.raises(ValueError, match="f_i has 1 entries; the group has 2 X_i"):
        assemble_and_solve(heis, ident, [P11], f_i=[[P11]], n=5)


@pytest.mark.parametrize("name,m", [("heisenberg", 3), ("free:3,2", 2)])
def test_solver_refuses_coefficients_for_another_horizontal_layer(name, m, monkeypatch):
    # refused in one line before the grid is built; a (1, 3) block on
    # Heisenberg used to fail inside the assembly, in a numpy reshape
    spec = resolve_group(name)

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(numerics, "Grid", no_grid)
    with pytest.raises(ValueError,
                       match=f"^the coefficients have {m} slots; the group has {spec.m} X_i$"):
        assemble_and_solve(spec, SystemCoefficients.identity(1, m), [P11], n=5)


@pytest.mark.parametrize("n", [2, (2, 5, 5)])
def test_solver_needs_interior_nodes(heis, n):
    with pytest.raises(ValueError, match="no interior nodes"):
        assemble_and_solve(heis, SystemCoefficients.identity(1, 2), [P11], n=n)


def test_from_polys_names_empty_data(heis):
    with pytest.raises(ValueError, match="the data has no polynomial"):
        GridField.from_polys(Grid(heis, 5), [])
    ident = SystemCoefficients.identity(1, 2)
    with pytest.raises(ValueError, match="the boundary data has no polynomial"):
        assemble_and_solve(heis, ident, [], n=5)
    with pytest.raises(ValueError, match="f has no polynomial"):
        assemble_and_solve(heis, ident, [P11], f=[], n=5)


@pytest.mark.parametrize("sizes", [(8,), (8, 8), ()])
def test_convergence_study_needs_two_distinct_sizes(heis, sizes):
    ident = SystemCoefficients.identity(1, 2)
    with pytest.raises(ValueError, match="two distinct sizes"):
        convergence_study(heis, ident, [P11 ** 3], sizes=sizes)


@pytest.mark.parametrize("name,n,width,message", [
    ("heisenberg", 9, 1e-200, "give the cell volume 0.000e+00 on the 9x9x9 grid"),
    ("heisenberg", 9, 1e160, "give the cell volume inf on the 9x9x9 grid"),
    ("heisenberg", 9, 1e308, "give the cell volume inf on the 9x9x9 grid"),
    ("engel", 5, 1e60, "the stiffness matrix or the loads leave the float range"),
    ("heisenberg", 9, 1e100, "the stiffness matrix or the loads leave the float range"),
], ids=["volume-underflow", "volume-overflow", "spacing-overflow", "engel-stiffness",
        "heisenberg-stiffness"])
def test_a_half_width_out_of_the_float_range_is_refused_before_the_vcycle(
        name, n, width, message, monkeypatch):
    spec = resolve_group(name)
    monkeypatch.setattr(numerics, "VCycle", None)
    with pytest.raises((ValueError, NumericsError), match=re.escape(message)) as refusal:
        assemble_and_solve(spec, SystemCoefficients.identity(1, spec.m), [P11], n=n,
                           half_widths=width)
    assert f"{width:g}" in str(refusal.value)


# -------------------------------------------------------------- CG and multigrid

def test_cg_matches_scipy_and_counts_its_iterations(monkeypatch):
    rng = np.random.default_rng(3)
    root = rng.standard_normal((40, 40))
    mat = sparse.csr_matrix(root @ root.T + 40 * np.eye(40))
    rhs = rng.standard_normal(40)
    calls = []
    x, iterations = numerics._cg(mat, rhs, M=lambda r: r / mat.diagonal(),
                                 callback=calls.append)
    want, want_info = cg(mat, rhs, rtol=numerics.CG_RTOL, atol=0.0, maxiter=200,
                         M=sparse.diags(1 / mat.diagonal()))
    assert want_info == 0
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
    assert 0 < iterations == len(calls) < 200
    monkeypatch.setattr(numerics, "CG_MAXITER", 2)
    calls.clear()
    _, iterations = numerics._cg(mat, rhs, M=lambda r: r, callback=calls.append)
    assert iterations == len(calls) == 2
    monkeypatch.setattr(numerics, "CG_MAXITER", 5)
    x, iterations = numerics._cg(mat, np.zeros(40), M=lambda r: r)
    assert iterations == 0 and not x.any()


def test_cg_scales_the_right_hand_side_by_a_power_of_two():
    # |b|^2 of the second system underflows; scaled by a power of two it
    # takes the first system's iterations, and x comes back with its bits
    rng = np.random.default_rng(5)
    root = rng.standard_normal((30, 30))
    mat = sparse.csr_matrix(root @ root.T + 30 * np.eye(30))
    rhs = rng.standard_normal(30)
    x, iterations = numerics._cg(mat, rhs, M=lambda r: r / mat.diagonal())
    for e in (-700, 600):
        scaled, scaled_iterations = numerics._cg(mat, np.ldexp(rhs, e),
                                                 M=lambda r: r / mat.diagonal())
        assert scaled_iterations == iterations > 0
        assert np.ldexp(scaled, -e).tobytes() == x.tobytes()


def test_solve_at_a_tiny_half_width_meets_the_residual_gate(heis):
    # cell volume about 1e-300, stiffness entries about 1e-100 and loads
    # about 4e-201, whose squares underflow
    ident = SystemCoefficients.identity(1, 2)
    sol = assemble_and_solve(heis, ident, [P11], n=9, half_widths=1e-100)
    report = sol.solve_report
    assert report["iterations"] > 0
    assert report["relative_weak_residual"] <= numerics.WEAK_RESIDUAL_TOL


@pytest.mark.parametrize("name,width", [
    ("heisenberg", 1e-100), ("heisenberg", 1e20), ("heisenberg", 1e60),
    ("engel", 1e-30), ("engel", 1e20),
])
def test_solve_meets_the_residual_gate_across_the_float_range(name, width):
    # at half width 1e20 K's diagonal spans 1.4e39 (Heisenberg) and 2.2e77
    # (Engel), past the float32 range; the float32 cycle runs on
    # D^-1/2 K D^-1/2 and no cast overflows
    spec = resolve_group(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = assemble_and_solve(spec, SystemCoefficients.identity(1, spec.m),
                                 [P11 * P12 + 1], n=9, half_widths=width)
    report = sol.solve_report
    assert report["iterations"] > 0
    assert report["relative_weak_residual"] <= numerics.WEAK_RESIDUAL_TOL


# FCG iterations of a nonsymmetric solve at Heisenberg n = 9 by half width
# and components; with the cycle built on the symmetric part of K they
# were 25, 33, 25 and 34
NONSYMMETRIC_ITERATIONS = {(1.0, 1): 14, (3.0, 1): 22, (1.0, 2): 14, (3.0, 2): 23}


@pytest.mark.parametrize("width,ncomp", list(NONSYMMETRIC_ITERATIONS))
def test_a_nonsymmetric_solve_meets_the_gate_in_one_cg_pass(heis, width, ncomp, monkeypatch):
    # a Legendre form with a skew part in each component: flexible CG over
    # the cycle built on K meets the gate, where plain CG stalled at a weak
    # residual of about 1e-4 at half width 1
    form = [[1, Fraction(1, 2)], [Fraction(-1, 3), 1]]
    zero = [[0, 0], [0, 0]]
    A = SystemCoefficients([[form if a == b else zero for b in range(ncomp)]
                            for a in range(ncomp)])
    real_cg, calls = numerics._cg, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(numerics, "CG_MAXITER", 200)
    monkeypatch.setattr(numerics, "_cg", counted)
    sol = assemble_and_solve(heis, A, [P11 * P12 + 1] * ncomp, n=9, half_widths=width)
    assert len(calls) == 1
    report = sol.solve_report
    assert report["relative_weak_residual"] <= numerics.WEAK_RESIDUAL_TOL
    assert report["iterations"] == NONSYMMETRIC_ITERATIONS[width, ncomp]


# iterations of plain CG with the float64 V-cycle (version 0.7.0)
FLOAT64_CYCLE_ITERATIONS = {("heisenberg", 16, 1): 18, ("engel", 10, 1): 20,
                            ("heisenberg", 10, 2): 27}


@pytest.mark.parametrize("name,n,ncomp", list(FLOAT64_CYCLE_ITERATIONS))
def test_vcycle_is_positive_and_keeps_the_float64_iterations(name, n, ncomp, monkeypatch):
    # flexible CG needs x.Mx > 0 but no symmetry of M, which float32
    # rounding breaks; the float32 cycle takes at most one more iteration
    spec, A, boundary, f, f_i = _system_case(name, ncomp)
    real_cg = numerics._cg
    k_ff, rhs, kwargs = _captured_cg_call(monkeypatch, spec, A, boundary, f, f_i, n)
    precond = kwargs["M"]
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(k_ff.shape[0])
        assert float(x @ precond(x)) > 0
    _, iterations = real_cg(k_ff, rhs, M=precond)
    assert 0 < iterations <= FLOAT64_CYCLE_ITERATIONS[name, n, ncomp] + 1


@pytest.mark.parametrize("name,n,ncomp", list(OPERATOR_DIGESTS))
def test_vcycle_levels_are_float32_and_share_the_indices_of_k(name, n, ncomp, monkeypatch):
    spec, A, boundary, f, f_i = _system_case(name, ncomp)
    k_ff, _, kwargs = _captured_cg_call(monkeypatch, spec, A, boundary, f, f_i, n)
    precond = kwargs["M"]
    level_k = precond.levels[0][0]
    assert np.shares_memory(level_k.indices, k_ff.indices)
    assert np.shares_memory(level_k.indptr, k_ff.indptr)
    for level in precond.levels:
        assert [part.dtype for part in level] == [np.float32] * 4
    assert precond.coarsest.dtype == np.float32
    assert precond.scale.dtype == np.float64


@pytest.mark.parametrize("name,n,ncomp", [("engel", 10, 1), ("heisenberg", 10, 2)])
def test_lanczos_estimate_keeps_every_jacobi_sweep_contracting(name, n, ncomp, monkeypatch):
    # every level's damped sweep I - omega D^-1 K contracts, by the dense
    # spectral radius.  On a symmetric form rho-hat is a Ritz value, so at
    # most rho; at 3/4 rho or more, omega rho is at most 16/9 < 2.  A
    # nonsymmetric form's levels are nonsymmetric, and there rho-hat is an
    # estimate only (largest radius 0.963 on heisenberg-10-2)
    spec, A, boundary, f, f_i = _system_case(name, ncomp)
    form = A.quadratic_form_matrix()
    symmetric = np.array_equal(form, form.T)
    _, _, kwargs = _captured_cg_call(monkeypatch, spec, A, boundary, f, f_i, n)
    checked = 0
    for k, weights, *_ in kwargs["M"].levels:
        if k.shape[0] > 1024:
            continue
        dense = k.toarray().astype(np.float64)
        sweep = np.eye(k.shape[0]) - weights.astype(np.float64)[:, None] * dense
        assert np.abs(np.linalg.eigvals(sweep)).max() < 1
        if symmetric:
            diag = k.diagonal()
            scale = 1.0 / np.sqrt(diag)
            rho = np.linalg.eigvalsh(scale[:, None] * dense * scale)[-1]
            rho_hat = 4.0 / (3.0 * weights * diag)
            assert np.all((0.75 * rho <= rho_hat) & (rho_hat <= rho * (1 + 1e-12)))
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("name,n", [("heisenberg", 9), ("free:2,3", 7)])
def test_vcycle_depends_on_the_values_of_k_only(name, n, monkeypatch):
    # the solver hands the cycle K with sorted indices, and a cycle built
    # on any column order of K, once canonicalised, has the same bits
    spec, A, boundary, f, f_i = _system_case(name, 1)
    seen = []

    class Recording(numerics.VCycle):
        def __init__(self, k, grid, ncomp):
            seen.append((k.copy(), grid))
            super().__init__(k, grid, ncomp)

    monkeypatch.setattr(numerics, "VCycle", Recording)
    _captured_cg_call(monkeypatch, spec, A, boundary, f, f_i, n)
    ((k, grid),) = seen
    rows = np.repeat(np.arange(k.shape[0]), np.diff(k.indptr))
    assert np.all((np.diff(k.indices) > 0) | (np.diff(rows) > 0))

    rng = np.random.default_rng(2)
    order = np.concatenate([
        lo + rng.permutation(hi - lo) for lo, hi in zip(k.indptr[:-1], k.indptr[1:])
    ])
    shuffled = sparse.csr_matrix((k.data[order], k.indices[order], k.indptr), k.shape)
    assert not np.array_equal(shuffled.indices, k.indices)
    cycles = []
    for mat in (k, shuffled):
        mat.sum_duplicates()
        cycles.append(numerics.VCycle(mat, grid, 1))
    assert len(cycles[0].levels) == len(cycles[1].levels)
    for level_a, level_b in zip(cycles[0].levels, cycles[1].levels):
        for a, b in zip(level_a, level_b):
            if sparse.issparse(a):
                for part in ("indptr", "indices", "data"):
                    assert getattr(a, part).tobytes() == getattr(b, part).tobytes()
            else:
                assert a.tobytes() == b.tobytes()
    r = rng.standard_normal(k.shape[0])
    assert cycles[0](r).tobytes() == cycles[1](r).tobytes()


@pytest.mark.parametrize("name,n,ncomp", list(OPERATOR_DIGESTS))
def test_galerkin_slabs_have_the_bits_of_the_whole_product(name, n, ncomp, monkeypatch):
    # a one-byte budget takes one slab per coarse x-plane; the build with
    # the whole product R (K P) is the reference
    spec, A, boundary, f, f_i = _system_case(name, ncomp)
    slabbed, real_vstack = numerics._galerkin_product, sparse.vstack
    products, stacked, cycles = [], [], {}

    def recording(k, prolong, restrict, planes):
        products.append((k, prolong, restrict, planes, slabbed(k, prolong, restrict, planes)))
        return products[-1][-1]

    def whole(k, prolong, restrict, planes):
        return (restrict @ (k @ prolong)).tocsr()

    def counting_vstack(blocks, **kwargs):
        stacked.append(len(blocks))
        return real_vstack(blocks, **kwargs)

    class Recording(numerics.VCycle):
        def __init__(self, k, grid, ncomp):
            super().__init__(k, grid, ncomp)
            cycles[build] = self

    monkeypatch.setattr(numerics, "VCycle", Recording)
    monkeypatch.setattr(sparse, "vstack", counting_vstack)
    solutions = {}
    for build, slab_bytes in ((recording, 1), (whole, numerics.GALERKIN_SLAB_BYTES)):
        monkeypatch.setattr(numerics, "_galerkin_product", build)
        monkeypatch.setattr(numerics, "GALERKIN_SLAB_BYTES", slab_bytes)
        solutions[build] = assemble_and_solve(spec, A, boundary, f=f, f_i=f_i, n=n)

    assert stacked == [planes for *_, planes, _ in products if planes >= 2]
    assert len(stacked) >= 2
    for k, prolong, restrict, _, got in products:
        want = whole(k, prolong, restrict, None)
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
    slab_cycle, whole_cycle = cycles[recording], cycles[whole]
    assert len(slab_cycle.levels) == len(whole_cycle.levels) == len(products)
    for slab_level, whole_level in zip(slab_cycle.levels, whole_cycle.levels):
        (slab_k, slab_weights, *_), (whole_k, whole_weights, *_) = slab_level, whole_level
        for part in ("indptr", "indices", "data"):
            assert getattr(slab_k, part).tobytes() == getattr(whole_k, part).tobytes()
        assert slab_weights.tobytes() == whole_weights.tobytes()
    slab_sol, whole_sol = solutions[recording], solutions[whole]
    assert slab_sol.values.tobytes() == whole_sol.values.tobytes()
    assert slab_sol.solve_report == whole_sol.solve_report


# levels: the horizontal axes halve down to two interior nodes, then the
# upper-layer axes do, then every axis halves to one node, whose
# ncomp x ncomp block is the bottom (Heisenberg n = 16: 14, 7, 4, 2
# horizontally, then 7, 4, 2 vertically, then 1 on all three axes: seven
# smoothed levels and the bottom)
@pytest.mark.parametrize("name,n,levels", [
    ("heisenberg", 16, 8), ("heisenberg", 32, 10), ("engel", 12, 8), ("free:2,3", 8, 6),
])
def test_vcycle_iterations_stay_bounded(name, n, levels):
    spec = resolve_group(name)
    ident = SystemCoefficients.identity(1, spec.m)
    sol = assemble_and_solve(spec, ident, [P11 * P21 + P11.scale(3)], n=n)
    report = sol.solve_report
    assert report["relative_weak_residual"] <= 1e-10
    assert report["levels"] == levels
    # Jacobi-PCG took 122, 262, 107 and 69 iterations on these solves
    assert report["iterations"] <= 40


@pytest.mark.parametrize("name,n,slab_bytes,bytes_per_node", [
    pytest.param("heisenberg", 32, numerics.GALERKIN_SLAB_BYTES, 431, id="heisenberg-32"),
    pytest.param("engel", 12, numerics.GALERKIN_SLAB_BYTES, 397, id="engel-12"),
    pytest.param("heisenberg", 32, 1 << 20, 401, id="heisenberg-32-1MiB-slabs"),
])
def test_solve_peak_memory_per_node(name, n, slab_bytes, bytes_per_node, monkeypatch):
    # a solve peaks at 392 and 361 bytes per node on these grids, and at 365
    # on Heisenberg when a 1 MiB budget takes its first two Galerkin levels
    # in 8 and 5 slabs (the bounds are 10 % above); with each level formed
    # from the whole product K P and the loads alive through the build it
    # peaked at 412 and 371, with the sparse products G^T (B G) at 542 and
    # 545, and at 715 and 902 when it kept G, B and K alive through the solve
    monkeypatch.setattr(numerics, "GALERKIN_SLAB_BYTES", slab_bytes)
    spec = resolve_group(name)
    ident = SystemCoefficients.identity(1, spec.m)
    assemble_and_solve(spec, ident, [P11], n=5)      # warm the spec's caches
    tracemalloc.start()
    try:
        assemble_and_solve(spec, ident, [P11], n=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_node * n ** len(spec.basis)
