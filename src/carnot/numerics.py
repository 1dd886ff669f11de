"""Grid realization of the analytic objects: flow difference quotients,
seminorms, horizontal Sobolev norms, a weak-form solver and the energy
inequality check.

Fields live on a lattice in exponential coordinates.  Group flows
``p -> p * exp(s Z)`` land off-lattice and are evaluated by multilinear
interpolation; horizontal derivatives are centered flow differences with
step equal to the grid spacing.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.ndimage import map_coordinates
from scipy.sparse.linalg import cg as _cg

from .algebra import AlgebraSpec
from .fields import SystemCoefficients, left_invariant_field, system_residual
from .group import gauge_norm_arrays, product_arrays
from .poly import PolyFunction


class NumericsError(Exception):
    pass


class StepTooLarge(NumericsError):
    pass


class MarginTooSmall(NumericsError):
    pass


class SolverDiverged(NumericsError):
    pass


class ZeroExcess(NumericsError):
    pass


# the node meshes of a grid (one float64 array per axis) may take at most
# this many bytes; a grid that would exceed it is refused before allocating
GRID_BYTE_LIMIT = 4 << 30


class Grid:
    """Box-shaped lattice in exponential coordinates, inclusive endpoints."""

    def __init__(self, spec: AlgebraSpec, n, half_widths=1.0):
        self.spec = spec
        self.axes = spec.basis
        d = len(self.axes)
        if isinstance(n, int):
            n = (n,) * d
        self.shape = tuple(int(x) for x in n)
        needed = math.prod(self.shape) * d * 8
        if needed > GRID_BYTE_LIMIT:
            raise NumericsError(
                f"grid {'x'.join(map(str, self.shape))} needs about "
                f"{Decimal(needed):.3e} bytes of node arrays, over the "
                f"{GRID_BYTE_LIMIT:.3e}-byte limit"
            )
        if isinstance(half_widths, (int, float, Fraction)):
            widths = [float(half_widths)] * d
        elif isinstance(half_widths, dict):
            widths = [float(half_widths[lab[0]]) for lab in self.axes]
        else:
            widths = [float(w) for w in half_widths]
        if not all(math.isfinite(w) and w > 0 for w in widths):
            raise ValueError(f"half widths must be finite and positive, got {widths}")
        self.half_widths = tuple(widths)
        if any(s < 2 for s in self.shape):
            raise ValueError("need at least two nodes per axis")
        self.coords1d = [
            np.linspace(-w, w, s) for w, s in zip(self.half_widths, self.shape)
        ]
        self.spacing = tuple(
            2.0 * w / (s - 1) for w, s in zip(self.half_widths, self.shape)
        )
        self._nodes = None

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def node_arrays(self):
        """Dict label -> full mesh of that coordinate (computed once)."""
        if self._nodes is None:
            mesh = np.meshgrid(*self.coords1d, indexing="ij")
            self._nodes = dict(zip(self.axes, mesh))
        return self._nodes

    def axis_of(self, label):
        return self.axes.index(tuple(label))

    def horizontal_spacing(self):
        return self.spacing[self.axis_of((1, 1))]

    def boundary_mask(self):
        mask = np.zeros(self.shape, dtype=bool)
        for ax in range(len(self.shape)):
            sl = [slice(None)] * len(self.shape)
            sl[ax] = 0
            mask[tuple(sl)] = True
            sl[ax] = -1
            mask[tuple(sl)] = True
        return mask

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.spec is other.spec
            and self.shape == other.shape
            and self.half_widths == other.half_widths
        )


class GridField:
    """Sampled vector-valued function with a validity mask."""

    def __init__(self, grid: Grid, values, mask=None):
        values = np.asarray(values, dtype=float)
        if values.shape == grid.shape:
            values = values[..., None]
        if values.shape[:-1] != grid.shape:
            raise ValueError("values do not match the grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values
        self.mask = np.ones(grid.shape, dtype=bool) if mask is None else mask

    @property
    def n_components(self):
        return self.values.shape[-1]

    @staticmethod
    def zeros(grid, n_components=1):
        return GridField(grid, np.zeros(grid.shape + (n_components,)))

    @staticmethod
    def from_polys(grid, polys):
        if isinstance(polys, PolyFunction):
            polys = [polys]
        nodes = grid.node_arrays()
        comps = [p.evaluate_arrays(nodes) for p in polys]
        return GridField(grid, np.stack(comps, axis=-1))

    def component(self, alpha=0):
        return self.values[..., alpha]

    def scale(self, c):
        return GridField(self.grid, self.values * float(c), self.mask.copy())

    def shift(self, c):
        return GridField(self.grid, self.values + float(c), self.mask.copy())


# ---------------------------------------------------------------------------
# group flows on the grid
# ---------------------------------------------------------------------------

def flow_coordinates(grid: Grid, direction, s):
    """Coordinates of ``p * exp(s X_direction)`` for every node."""
    direction = tuple(direction)
    if direction not in grid.axes:
        raise ValueError(f"{direction} is not a coordinate axis of the grid")
    nodes = grid.node_arrays()
    step = [float(s) if lab == direction else 0.0 for lab in grid.axes]
    return product_arrays(grid.spec, [nodes[lab] for lab in grid.axes], step)


def _fractional_indices(grid, coords):
    idx = []
    for ax, arr in enumerate(coords):
        w = grid.half_widths[ax]
        h = grid.spacing[ax]
        idx.append((arr + w) / h)
    return idx


def _inside_mask(grid, indices, tol=1e-9):
    mask = np.ones(np.shape(indices[0]), dtype=bool)
    for ax, arr in enumerate(indices):
        mask &= (arr >= -tol) & (arr <= grid.shape[ax] - 1 + tol)
    return mask


def sample_at(field: GridField, coords, outside_zero=False):
    """Multilinear interpolation of the field at off-lattice points.

    Returns ``(values, mask)``; outside the box the value is 0 and the mask
    is cleared unless ``outside_zero`` marks the extension as intended.
    """
    grid = field.grid
    indices = _fractional_indices(grid, coords)
    inside = _inside_mask(grid, indices)
    stacked = np.stack([np.clip(ix, 0, s - 1) for ix, s in zip(indices, grid.shape)])
    comps = []
    for alpha in range(field.n_components):
        comps.append(
            map_coordinates(field.values[..., alpha], stacked, order=1, mode="nearest")
        )
    values = np.stack(comps, axis=-1)
    values = np.where(inside[..., None], values, 0.0)
    mask = np.ones(inside.shape, dtype=bool) if outside_zero else inside
    if not np.all(field.mask):
        valid = map_coordinates(
            field.mask.astype(float), stacked, order=1, mode="constant", cval=0.0
        )
        mask = mask & (valid > 1.0 - 1e-9)
    return values, mask


def flow_difference(u: GridField, direction, s, alpha=1.0) -> GridField:
    """Forward flow quotient ``(u(p e^{sZ}) - u(p)) / |s|**alpha``.

    Nodes whose flowed point leaves the box are marked invalid; raises
    :class:`StepTooLarge` when fewer than half of the nodes survive.
    """
    if s == 0:
        raise ValueError("flow step must be nonzero")
    coords = flow_coordinates(u.grid, direction, s)
    moved, mask = sample_at(u, coords)
    quot = (moved - u.values) / abs(s) ** alpha
    mask = mask & u.mask
    if mask.sum() < 0.5 * mask.size:
        raise StepTooLarge(
            f"flow step {s} along {tuple(direction)} leaves the box on most nodes"
        )
    quot = np.where(mask[..., None], quot, 0.0)
    return GridField(u.grid, quot, mask)


def centered_derivative(u: GridField, direction, s=None) -> GridField:
    """Centered flow difference, second-order consistent with the
    left-invariant derivative."""
    if s is None:
        s = u.grid.spacing[u.grid.axis_of(direction)]
    fwd_coords = flow_coordinates(u.grid, direction, s)
    bwd_coords = flow_coordinates(u.grid, direction, -s)
    fwd, m1 = sample_at(u, fwd_coords)
    bwd, m2 = sample_at(u, bwd_coords)
    mask = m1 & m2 & u.mask
    vals = np.where(mask[..., None], (fwd - bwd) / (2.0 * s), 0.0)
    return GridField(u.grid, vals, mask)


def derivative_word(u: GridField, word, s=None) -> GridField:
    """Apply centered derivatives for the labels in ``word`` (rightmost
    first, matching operator composition order)."""
    out = u
    for direction in reversed(list(word)):
        out = centered_derivative(out, direction, s)
    return out


def horizontal_gradient(u: GridField, s=None):
    spec = u.grid.spec
    return [centered_derivative(u, (1, i), s) for i in range(1, spec.m + 1)]


# ---------------------------------------------------------------------------
# regions and integrals
# ---------------------------------------------------------------------------

def gauge_distance_arrays(grid: Grid, center=None):
    """Gauge distance from every node to ``center`` (a coordinate sequence)."""
    spec = grid.spec
    nodes = grid.node_arrays()
    if center is None or not any(center):
        return gauge_norm_arrays(spec, nodes)
    coords = product_arrays(
        spec, [-float(c) for c in center], [nodes[lab] for lab in spec.basis]
    )
    return gauge_norm_arrays(spec, dict(zip(spec.basis, coords)))


def ball_mask(grid: Grid, center, radius):
    return gauge_distance_arrays(grid, center) < radius


def occupied_ball_mask(grid: Grid, center, radius):
    """:func:`ball_mask`, raising ``ValueError`` when no node is inside."""
    mask = ball_mask(grid, center, radius)
    if not mask.any():
        raise ValueError(f"no grid nodes inside the ball of radius {radius}")
    return mask


def integrate(field_values, grid: Grid, mask=None):
    """Equal-weight quadrature of nodal values over a masked region."""
    vals = np.asarray(field_values, dtype=float)
    if mask is not None:
        if vals.shape != mask.shape:
            vals = np.where(mask[..., None], vals, 0.0)
        else:
            vals = np.where(mask, vals, 0.0)
    return float(vals.sum()) * grid.cell_volume


def l2_norm_sq(u: GridField, mask=None):
    density = (u.values ** 2).sum(axis=-1)
    return integrate(density, u.grid, mask)


def sobolev_norm(u: GridField, order=1, region=None, s=None):
    """Discrete horizontal Sobolev norm: L2 plus all horizontal derivative
    words up to the given order, over the region mask (or the whole box).

    Raises :class:`MarginTooSmall` when the derivative stencils do not
    cover the region.
    """
    spec = u.grid.spec
    if region is None:
        region = np.ones(u.grid.shape, dtype=bool)
    total = math.sqrt(l2_norm_sq(u, region))
    level = {(): u}
    for _ in range(order):
        nxt = {}
        for word, fld in level.items():
            for i in range(1, spec.m + 1):
                d = centered_derivative(fld, (1, i), s)
                if not bool(np.all(d.mask | ~region)):
                    raise MarginTooSmall(
                        "horizontal stencil leaves the grid inside the region"
                    )
                nxt[word + ((1, i),)] = d
        for fld in nxt.values():
            total += math.sqrt(l2_norm_sq(fld, region))
        level = nxt
    return total


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

# offsets sampled, geometrically, by the seminorm's sup
OFFSET_SAMPLES = 16


def peetre_seminorm(u: GridField, direction, alpha, epsilon0=None) -> float:
    """Sup over sampled offsets in ``(0, epsilon0]`` of the squared flow
    quotient of fractional order ``alpha`` in (0, 1] along ``direction``.

    The field is treated as compactly supported: flows that leave the box
    read zero.
    """
    if not (0 < alpha <= 1):
        raise ValueError("order must lie in (0, 1]")
    grid = u.grid
    eps0 = 4.0 * grid.horizontal_spacing() if epsilon0 is None else epsilon0
    offsets = np.geomspace(eps0 / 2 ** (OFFSET_SAMPLES - 1), eps0, OFFSET_SAMPLES)
    worst = 0.0
    for h in offsets:
        coords = flow_coordinates(grid, direction, float(h))
        moved, _ = sample_at(u, coords, outside_zero=True)
        diff = ((moved - u.values) ** 2).sum(axis=-1)
        val = integrate(diff, grid) / float(h) ** (2 * float(alpha))
        worst = max(worst, val)
    return float(worst)


def hormander_ratio(u: GridField, direction):
    """Ratio of the fractional seminorm along one layer-k direction to the
    full-order horizontal seminorms plus the L2 norm."""
    spec = u.grid.spec
    lhs = peetre_seminorm(u, direction, 1.0 / direction[0])
    rhs = 0.0
    for j in range(1, spec.m + 1):
        rhs += peetre_seminorm(u, (1, j), 1.0)
    rhs += l2_norm_sq(u)
    if rhs == 0.0:
        return 0.0
    return float(lhs / rhs)


# ---------------------------------------------------------------------------
# weak-form assembly and solve
# ---------------------------------------------------------------------------

def coordinate_derivative_matrix(grid: Grid, direction, sign):
    """One-sided discretization of a left-invariant field in coordinate
    form: exact polynomial coefficients times axis-aligned differences.

    Axis stencils stay on the lattice, so no interpolation enters and the
    only invalid rows are on the faces the differences step over.
    """
    op = left_invariant_field(grid.spec, direction)
    nodes = grid.node_arrays()
    index = np.arange(math.prod(grid.shape)).reshape(grid.shape)
    valid = np.ones(grid.shape, dtype=bool)
    rows, cols, data = [], [], []
    for label, coeff in op.coeffs.items():
        ax = grid.axis_of(label)
        # each row steps to its neighbour along the axis; the face the step
        # would leave has no row
        along = np.moveaxis(index, ax, 0)
        here, there = (along[:-1], along[1:]) if sign > 0 else (along[1:], along[:-1])
        np.moveaxis(valid, ax, 0)[-1 if sign > 0 else 0] = False
        here, there = here.ravel(), there.ravel()
        c = coeff.evaluate_arrays(nodes).ravel()[here] / (sign * grid.spacing[ax])
        rows += [here, here]
        cols += [there, here]
        data += [c, -c]
    coo = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
    return sparse.csr_matrix(coo, shape=(index.size,) * 2), valid


def _derivative_stack(grid: Grid, ncomp):
    """G, the one-sided derivatives X_i of both signs for ``ncomp``
    components (rows ordered side, node, alpha, i), and each side's node
    weights: half the cell volume where all that side's stencils stay on
    the grid.  Averaging the two sides' quadratic forms gives the compact
    stencil (no odd-even decoupling) and cancels the first-order term."""
    m = grid.spec.m
    size = math.prod(grid.shape)
    comps = np.arange(ncomp)
    rows, cols, vals, weights = [], [], [], []
    for side, sgn in enumerate((+1, -1)):
        valid = np.ones(grid.shape, dtype=bool)
        for i in range(m):
            mat, v = coordinate_derivative_matrix(grid, (1, i + 1), sgn)
            valid &= v
            mat = mat.tocoo()
            # 64-bit indices: scipy's 32-bit ones would wrap on large grids
            row, col = mat.row.astype(np.int64), mat.col.astype(np.int64)
            rows.append(((side * size + row[:, None]) * ncomp + comps) * m + i)
            cols.append(col[:, None] * ncomp + comps)
            vals.append(np.repeat(mat.data, ncomp))
        weights.append(np.where(valid.ravel(), 0.5 * grid.cell_volume, 0.0))
    # one list at a time, so that each is freed before the next is joined
    vals = np.concatenate(vals)
    rows = np.concatenate(rows).ravel()
    cols = np.concatenate(cols).ravel()
    shape = (2 * size * ncomp * m, size * ncomp)
    return sparse.csr_matrix((vals, (rows, cols)), shape=shape), np.stack(weights)


# CG polishes to the next tolerance while the weak residual fails its gate
CG_RTOLS = (1e-12, 1e-15)
CG_MAXITER = 20000
WEAK_RESIDUAL_TOL = 1e-10


def assemble_and_solve(
    spec: AlgebraSpec,
    A: SystemCoefficients,
    boundary,
    f=None,
    f_i=None,
    n=16,
    half_widths=1.0,
) -> GridField:
    """Solve the discrete weak form with Dirichlet data on the box faces.

    ``boundary``, ``f`` and the ``f_i`` may be polynomials (lists for
    several components) or grid fields.  Returns the solution field with a
    ``solve_report`` attribute carrying residual and conditioning data.
    """
    if not A.is_coercive():
        raise SolverDiverged(
            f"coefficients are not coercive (margin {A.coercivity_margin():.3e})"
        )
    grid = Grid(spec, n, half_widths)
    ncomp, m = A.n_components, spec.m

    def as_field(obj, name):
        if obj is None:
            return GridField.zeros(grid, ncomp)
        obj = obj if isinstance(obj, GridField) else GridField.from_polys(grid, obj)
        if obj.n_components != ncomp:
            raise ValueError(f"{name} has {obj.n_components} components; need {ncomp}")
        return obj

    g = as_field(boundary, "the boundary data")
    f_field = as_field(f, "f")
    f_i = [None] * m if f_i is None else f_i
    if len(f_i) != m:
        raise ValueError(f"f_i has {len(f_i)} entries; the group has {m} X_i")
    flux = np.stack([as_field(fi, f"f_{i}").values for i, fi in enumerate(f_i, 1)], -1)

    # the weak form is K = G^T B G, with B block diagonal: at each node of
    # each side the weight times the form of A on the slots (alpha, i)
    g_mat, w = _derivative_stack(grid, ncomp)
    b_mat = sparse.kron(sparse.diags(w.ravel()), A.quadratic_form_matrix(), "csr")
    k_mat = (g_mat.T @ (b_mat @ g_mat)).tocsr()
    b = -(g_mat.T @ (w[:, :, None, None] * flux.reshape(-1, ncomp, m)).ravel())
    b -= (w.sum(axis=0)[:, None] * f_field.values.reshape(-1, ncomp)).ravel()

    fixed = np.repeat(grid.boundary_mask().ravel(), ncomp)
    free = ~fixed
    x = g.values.reshape(-1).copy()
    rhs = b[free] - k_mat[free][:, fixed] @ x[fixed]
    k_ff = k_mat[free][:, free]

    diag = k_ff.diagonal()
    if np.any(diag <= 0):
        raise SolverDiverged("stiffness diagonal is not positive")
    precond = sparse.diags(1.0 / diag)

    k_inf = float(np.max(np.abs(k_ff).sum(axis=1))) if k_ff.nnz else 1.0

    def componentwise_residual(vec):
        # largest row residual, relative to the backward-error scale
        if vec.size == 0:
            return 0.0
        residual = k_ff @ vec - rhs
        scale = k_inf * float(np.max(np.abs(vec))) + float(np.max(np.abs(rhs)))
        return float(np.max(np.abs(residual))) / max(scale, 1e-300)

    sol = None
    for rtol in CG_RTOLS:
        sol, info = _cg(k_ff, rhs, x0=sol, rtol=rtol, atol=0.0, maxiter=CG_MAXITER,
                        M=precond)
        if not np.all(np.isfinite(sol)):
            raise SolverDiverged(f"conjugate gradient failed (info={info})")
        rel_residual = componentwise_residual(sol)
        if rel_residual <= WEAK_RESIDUAL_TOL:
            break
    x[free] = sol
    field = GridField(grid, x.reshape(grid.shape + (ncomp,)))
    field.solve_report = {
        "n": grid.shape,
        "unknowns": int(free.sum()),
        "relative_weak_residual": rel_residual,
        "diag_ratio": float(diag.max() / diag.min()),
        "coercivity_margin": A.coercivity_margin(),
    }
    if rel_residual > WEAK_RESIDUAL_TOL:
        raise SolverDiverged(
            f"weak-form residual {rel_residual:.2e} above tolerance {WEAK_RESIDUAL_TOL}"
        )
    return field


def manufactured_source(spec, A: SystemCoefficients, u_polys, fi_polys=None):
    """Source polynomials making the given polynomials an exact solution."""
    if isinstance(u_polys, PolyFunction):
        u_polys = [u_polys]
    return system_residual(spec, A, u_polys, f_i=fi_polys, f=None)


def convergence_study(spec, A, u_polys, sizes=(16, 32, 64), half_widths=1.0):
    """Solve with manufactured data on a sequence of grids; least-squares
    fit of the L2 error order."""
    if isinstance(u_polys, PolyFunction):
        u_polys = [u_polys]
    f = manufactured_source(spec, A, u_polys)
    errors = []
    spacings = []
    for n in sizes:
        sol = assemble_and_solve(spec, A, u_polys, f=f, n=n, half_widths=half_widths)
        exact = GridField.from_polys(sol.grid, u_polys)
        err = math.sqrt(l2_norm_sq(GridField(sol.grid, sol.values - exact.values)))
        errors.append(err)
        spacings.append(sol.grid.horizontal_spacing())
    if len(sizes) >= 2:
        logs_h = np.log(np.array(spacings))
        logs_e = np.log(np.maximum(np.array(errors), 1e-300))
        slope = float(np.polyfit(logs_h, logs_e, 1)[0])
    else:
        slope = float("nan")
    return {
        "sizes": list(sizes),
        "errors": errors,
        "order": slope,
    }


def caccioppoli_check(u: GridField, f=None, f_i=None, center=None, radius=0.5):
    """Empirical constant of the interior energy inequality on a ball pair.

    LHS integrates the squared horizontal gradient over the ball; the RHS
    combines the scaled L2 mass and the data terms over the double ball.
    """
    grid = u.grid
    center = center or [0.0] * len(grid.axes)
    inner = occupied_ball_mask(grid, center, radius)
    outer = ball_mask(grid, center, 2.0 * radius)
    grads = horizontal_gradient(u)
    for g in grads:
        if not bool(np.all(g.mask | ~inner)):
            raise MarginTooSmall("gradient stencil leaves the box inside the ball")
    lhs = sum(l2_norm_sq(g, inner) for g in grads)
    mass = l2_norm_sq(u, outer)
    data = 0.0
    if f is not None:
        data += l2_norm_sq(f, outer)
    if f_i is not None:
        for fi in f_i:
            data += l2_norm_sq(fi, outer)
    rhs = mass / radius ** 2 + data
    return {
        "lhs": lhs,
        "rhs": rhs,
        "radius": radius,
        "empirical_constant": lhs / rhs if rhs > 0 else 0.0,
        "ball_nodes": int(inner.sum()),
        "double_ball_nodes": int(outer.sum()),
    }
