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
from .fields import SystemCoefficients
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
        comps = [np.broadcast_to(p.evaluate_arrays(nodes), grid.shape).astype(float)
                 for p in polys]
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

class SeminormParams:
    """Direction, fractional order and offset sampling for the seminorm."""

    def __init__(self, direction, alpha, epsilon0=None, offset_samples=16):
        if not (0 < alpha <= 1):
            raise ValueError("order must lie in (0, 1]")
        self.direction = tuple(direction)
        self.alpha = float(alpha)
        self.epsilon0 = epsilon0
        self.offset_samples = int(offset_samples)


def peetre_seminorm(u: GridField, params: SeminormParams) -> float:
    """Sup over sampled offsets of the squared fractional flow quotient.

    The field is treated as compactly supported: flows that leave the box
    read zero.
    """
    grid = u.grid
    eps0 = params.epsilon0
    if eps0 is None:
        eps0 = 4.0 * grid.horizontal_spacing()
    offsets = np.geomspace(eps0 / 2 ** (params.offset_samples - 1), eps0,
                           params.offset_samples)
    worst = 0.0
    for h in offsets:
        coords = flow_coordinates(grid, params.direction, float(h))
        moved, _ = sample_at(u, coords, outside_zero=True)
        diff = ((moved - u.values) ** 2).sum(axis=-1)
        val = integrate(diff, grid) / float(h) ** (2 * params.alpha)
        worst = max(worst, val)
    return float(worst)


def hormander_ratio(u: GridField, direction, epsilon0=None, offset_samples=16):
    """Ratio of the fractional seminorm along one layer-k direction to the
    full-order horizontal seminorms plus the L2 norm."""
    direction = tuple(direction)
    k = direction[0]
    spec = u.grid.spec
    lhs = peetre_seminorm(
        u, SeminormParams(direction, 1.0 / k, epsilon0, offset_samples)
    )
    rhs = 0.0
    for j in range(1, spec.m + 1):
        rhs += peetre_seminorm(
            u, SeminormParams((1, j), 1.0, epsilon0, offset_samples)
        )
    rhs += l2_norm_sq(u)
    if rhs == 0.0:
        return 0.0
    return float(lhs / rhs)


# ---------------------------------------------------------------------------
# weak-form assembly and solve
# ---------------------------------------------------------------------------

def _axis_shift_difference(grid: Grid, ax, sign):
    """Sparse one-sided coordinate difference along one axis."""
    size = int(np.prod(grid.shape))
    h = grid.spacing[ax]
    stride = 1
    for a in range(len(grid.shape) - 1, ax, -1):
        stride *= grid.shape[a]
    idx = np.indices(grid.shape)[ax].ravel()
    if sign > 0:
        valid_flat = idx < grid.shape[ax] - 1
        shift = stride
    else:
        valid_flat = idx > 0
        shift = -stride
    rows = np.arange(size)[valid_flat]
    data = np.concatenate([np.full(rows.size, 1.0 / (sign * h)),
                           np.full(rows.size, -1.0 / (sign * h))])
    cols = np.concatenate([rows + shift, rows])
    mat = sparse.coo_matrix(
        (data, (np.concatenate([rows, rows]), cols)), shape=(size, size)
    ).tocsr()
    return mat, valid_flat.reshape(grid.shape)


def coordinate_derivative_matrix(grid: Grid, direction, sign):
    """One-sided discretization of a left-invariant field in coordinate
    form: exact polynomial coefficients times axis-aligned differences.

    Axis stencils stay on the lattice, so no interpolation enters and the
    only invalid rows are on the faces the differences step over.
    """
    from .fields import left_invariant_field

    op = left_invariant_field(grid.spec, direction)
    nodes = grid.node_arrays()
    size = int(np.prod(grid.shape))
    total = sparse.csr_matrix((size, size))
    valid = np.ones(grid.shape, dtype=bool)
    for label, coeff in op.coeffs.items():
        ax = grid.axis_of(label)
        diff, v = _axis_shift_difference(grid, ax, sign)
        cvals = np.broadcast_to(coeff.evaluate_arrays(nodes), grid.shape).ravel()
        total = total + sparse.diags(cvals) @ diff
        valid &= v
    return total, valid


def assemble_and_solve(
    spec: AlgebraSpec,
    A: SystemCoefficients,
    boundary,
    f=None,
    f_i=None,
    n=16,
    half_widths=1.0,
    rtol=1e-12,
    maxiter=20000,
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
    ncomp = A.n_components
    m = spec.m

    def as_field(obj, default=0.0):
        if obj is None:
            return GridField(grid, np.full(grid.shape + (ncomp,), default))
        if isinstance(obj, GridField):
            return obj
        return GridField.from_polys(grid, obj)

    g = as_field(boundary)
    f_field = as_field(f)
    fi_fields = [as_field(None) for _ in range(m)] if f_i is None else [
        as_field(fi) for fi in f_i
    ]

    # symmetrized pair of one-sided coordinate-form derivatives: the average
    # of the forward and backward quadratic forms gives the compact stencil
    # (no odd-even lattice decoupling) and cancels the first-order term
    sides = []
    for sgn in (+1, -1):
        mats = []
        valid = np.ones(grid.shape, dtype=bool)
        for i in range(1, m + 1):
            mat, v = coordinate_derivative_matrix(grid, (1, i), sgn)
            mats.append(mat)
            valid &= v
        sides.append((mats, np.where(valid.ravel(), 0.5 * grid.cell_volume, 0.0)))

    a_blocks = [
        [np.array([[float(A.entry(al, be, i, j)) for be in range(ncomp)]
                   for al in range(ncomp)])
         for j in range(m)] for i in range(m)
    ]
    size = int(np.prod(grid.shape))
    k_mat = sparse.csr_matrix((size * ncomp, size * ncomp))
    b = np.zeros(size * ncomp)
    w_total = np.zeros(size)
    for mats, w_diag in sides:
        weight = sparse.diags(w_diag)
        w_total += w_diag
        for i in range(m):
            di_w = mats[i].T @ weight
            for j in range(m):
                block = a_blocks[i][j]
                if not block.any():
                    continue
                s_ij = di_w @ mats[j]
                k_mat = k_mat + sparse.kron(s_ij, sparse.csr_matrix(block), format="csr")
            b -= (di_w @ fi_fields[i].values.reshape(size, ncomp)).reshape(-1)
    b -= (w_total[:, None] * f_field.values.reshape(size, ncomp)).reshape(-1)

    boundary_nodes = grid.boundary_mask().ravel()
    fixed = np.repeat(boundary_nodes, ncomp)
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

    sol, info = _cg(k_ff, rhs, rtol=rtol, atol=0.0, maxiter=maxiter, M=precond)
    if not np.all(np.isfinite(sol)):
        raise SolverDiverged(f"conjugate gradient failed (info={info})")
    rel_residual = componentwise_residual(sol)
    if rel_residual > 1e-10:
        # polish from the current iterate before giving up
        sol, info = _cg(
            k_ff, rhs, x0=sol, rtol=1e-15, atol=0.0, maxiter=maxiter, M=precond
        )
        if not np.all(np.isfinite(sol)):
            raise SolverDiverged(f"conjugate gradient failed (info={info})")
        rel_residual = componentwise_residual(sol)
    x[free] = sol
    field = GridField(grid, x.reshape(grid.shape + (ncomp,)))
    field.solve_report = {
        "n": grid.shape,
        "unknowns": int(free.sum()),
        "relative_weak_residual": rel_residual,
        "diag_ratio": float(diag.max() / diag.min()),
        "coercivity_margin": A.coercivity_margin(),
    }
    if rel_residual > 1e-10:
        raise SolverDiverged(
            f"weak-form residual {rel_residual:.2e} above tolerance 1e-10"
        )
    return field


def manufactured_source(spec, A: SystemCoefficients, u_polys, fi_polys=None):
    """Source polynomials making the given polynomials an exact solution."""
    from .fields import system_residual

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
