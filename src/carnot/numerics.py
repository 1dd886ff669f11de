"""Grid realization of the analytic objects: lattice derivatives,
seminorms, horizontal Sobolev norms, a weak-form solver and the energy
inequality check.

Fields live on a lattice in exponential coordinates, whose node arrays
are the open mesh, so the group-law arrays built from them take the
broadcast shape of the axes they read.  A left-invariant derivative is
discretised once, by the one-sided stencils of :func:`_stencil` (a
coefficient array per axis displacement): the solver
accumulates the weak form from them diagonal by diagonal, and
:func:`centered_derivative` averages the two sides applied by
:func:`_apply_stencil`, neither through a sparse matrix;
:func:`coordinate_derivative_matrix` is the same stencils as a sparse
matrix, kept as the reference form.  The estimate checks take each ball
from :func:`gauge_balls`, one gauge distance pass per centre (the origin
too) through the group law for all of a check's radii, and their
horizontal derivatives from :func:`horizontal_jet`, which refuses a ball
the stencils do not cover.  Group flows ``p -> p * exp(s Z)`` land
off-lattice and serve only where they are the definition (the fractional
seminorms and the blow-ups).  They are sampled by multilinear
interpolation over the axes they move, one axis at a time where it can: a
flow along a layer-k direction leaves the lower layers and the other
layer-k axes on their nodes, and those axes are read at their node index;
a last moved axis whose corners do not vary along the earlier moved axes
is interpolated on their lattice, and the moved axes left are gathered
jointly; a point off the box reads zero and is masked invalid.

scipy is imported only inside the functions that build sparse matrices,
so importing the package, and every exact computation, leaves it
unloaded; the first solve loads ``scipy.sparse`` and no other scipy
package: the solver factors no sparse matrix.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .algebra import AlgebraSpec
from .fields import SystemCoefficients, left_invariant_field, system_residual
from .group import ball_radius, gauge_norm_arrays, product_arrays


class NumericsError(Exception):
    pass


class MarginTooSmall(NumericsError):
    pass


class SolverDiverged(NumericsError):
    pass


class ZeroExcess(NumericsError):
    pass


# d full-grid float64 arrays (a flow's outputs, the stencils, the field data)
# may take at most this many bytes; a larger grid is refused before allocating
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
        if len(self.shape) != d:
            raise ValueError(f"need {d} node counts, one per axis, got {list(self.shape)}")
        needed = math.prod(self.shape) * d * 8
        if needed > GRID_BYTE_LIMIT:
            raise NumericsError(
                f"grid {'x'.join(map(str, self.shape))} needs about "
                f"{Decimal(needed):.3e} bytes of node arrays, over the "
                f"{GRID_BYTE_LIMIT:.3e}-byte limit"
            )
        if isinstance(half_widths, (int, float, Fraction)):
            widths = [float(half_widths)] * d
        else:
            widths = [float(w) for w in half_widths]
        if len(widths) != d:
            raise ValueError(f"need {d} half widths, one per axis, got {widths}")
        if not all(math.isfinite(w) and w > 0 for w in widths):
            raise ValueError(f"half widths must be finite and positive, got {widths}")
        self.half_widths = tuple(widths)
        if any(s < 2 for s in self.shape):
            raise ValueError("need at least two nodes per axis")
        self.spacing = tuple(
            2.0 * w / (s - 1) for w, s in zip(self.half_widths, self.shape)
        )
        volume = math.prod(self.spacing)
        if not sys.float_info.min <= volume < math.inf:
            raise ValueError(f"half widths {widths} give the cell volume {volume:.3e} "
                             f"on the {'x'.join(map(str, self.shape))} grid, not a normal float")
        self.coords1d = [
            np.linspace(-w, w, s) for w, s in zip(self.half_widths, self.shape)
        ]
        self._nodes = dict(zip(self.axes, np.ix_(*self.coords1d)))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def node_arrays(self):
        """Dict label -> that coordinate on the open mesh: its axis's nodes,
        with extent 1 on every other axis."""
        return self._nodes

    def axis_of(self, label):
        return self.axes.index(tuple(label))

    def horizontal_spacing(self):
        return self.spacing[self.axis_of((1, 1))]


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
    def from_polys(grid, polys, name="the data"):
        if not polys:
            raise ValueError(f"{name} has no polynomial")
        with np.errstate(over="ignore", invalid="ignore"):
            comps = [p.evaluate_arrays(grid.node_arrays()) for p in polys]
        if not all(np.all(np.isfinite(c)) for c in comps):
            raise ValueError(f"{name} leaves the float range on the grid at half widths "
                             f"{list(grid.half_widths)}")
        return GridField(grid, np.stack([np.broadcast_to(c, grid.shape) for c in comps], -1))


# ---------------------------------------------------------------------------
# group flows on the grid
# ---------------------------------------------------------------------------

def flow_coordinates(grid: Grid, direction, s):
    """Coordinates of ``p * exp(s X_direction)`` for every node, each in
    the shape of the node arrays it reads."""
    direction = tuple(direction)
    if direction not in grid.axes:
        raise ValueError(f"{direction} is not a coordinate axis of the grid")
    nodes = grid.node_arrays()
    step = [float(s) if lab == direction else 0.0 for lab in grid.axes]
    return product_arrays(grid.spec, [nodes[lab] for lab in grid.axes], step)


def _fold(corners, fractions):
    """Multilinear combination of the ``2**k`` corner arrays (bit j of a
    corner's position is its step along the j-th moved axis) by pairwise
    lerps ``a + t (b - a)``, the last axis first, in place."""
    for j in reversed(range(len(fractions))):
        t, half = fractions[j], 1 << j
        for lo, hi in zip(corners[:half], corners[half:]):
            hi -= lo
            hi *= t
            hi += lo
        corners = corners[half:]
    return corners[0]


def sample_at(field: GridField, coords):
    """Multilinear interpolation of the field at off-lattice points.

    ``coords`` holds one array per axis; they broadcast together to the
    points' shape, and each is read in its own shape.  Returns ``(values,
    mask)``.  Points are clipped to the box; beyond it by more than 1e-9
    of a cell, or at a non-finite coordinate, the value is 0 and the mask
    is cleared.  Where the field has invalid nodes a point is valid only
    if their interpolated share is below 1e-9: the validity goes through
    the interpolation as one more component.  An axis whose coordinates
    are its node array, broadcast, is read at its node index, so only the
    moved axes are interpolated, the last first.  When the points are a
    mesh of the grid's axes (their shape is the grid's), a last moved
    axis whose lower corners do not vary along the earlier moved axes is
    interpolated on their lattice from two gathers; the moved axes left
    gather their ``2**j`` corners jointly.
    """
    grid = field.grid
    if len(coords) != len(grid.axes):
        raise ValueError(f"need {len(grid.axes)} coordinate arrays, one per axis, "
                         f"got {len(coords)}")
    nodes = grid.node_arrays()
    shape = np.broadcast_shapes(*map(np.shape, coords))
    inside = True
    moved = []      # (axis, lower corner, fraction), each in the points' ndim
    for ax, (lab, arr) in enumerate(zip(grid.axes, coords)):
        s, node = grid.shape[ax], nodes[lab]
        if (np.ndim(arr) >= node.ndim and np.shape(arr)[ax - node.ndim] == s
                and np.array_equal(arr, np.broadcast_to(node, np.shape(arr)))):
            continue
        # the fractional index (arr + w) / h, the floor of its clipped value
        # (at most s - 2) and the fraction in [0, 1], each in place
        x = np.array(arr, dtype=float, ndmin=len(shape))
        x += grid.half_widths[ax]
        x /= grid.spacing[ax]
        inside = inside & (x >= -1e-9) & (x <= s - 1 + 1e-9)
        # fmax and fmin drop NaN, so no non-finite value reaches the cast
        np.fmin(np.fmax(x, 0.0, out=x), s - 1.0, out=x)
        lower = x.astype(np.intp)
        np.minimum(lower, s - 2, out=lower)
        x -= lower
        moved.append((ax, lower, x[..., None]))
    values = field.values
    partial = not np.all(field.mask)
    if partial:
        values = np.concatenate([values, field.mask[..., None].astype(float)], axis=-1)
    dim = len(grid.shape)
    while moved:
        ax, lower, _ = moved[-1]
        if shape == grid.shape and all(lower.shape[k] == 1 for k, _, _ in moved[:-1]):
            # the last moved axis alone, on the lattice of the earlier ones:
            # a block of the axes its corners vary along
            stage = [moved.pop()]
            reach = [k for k, e in enumerate(lower.shape) if e > 1 or k == ax]
            lo, hi = reach[0], reach[-1] + 1
        else:
            stage, moved, lo, hi = moved, [], 0, dim
        # one flat index into the block of axes lo..hi-1: the stage's axes at
        # their lower corners, every other axis at its position; corner o of
        # a point is entry index + o
        lattice, lowers = values.shape[:-1], {k: low for k, low, _ in stage}
        index, offsets = 0, [0]
        for k in range(lo, hi):
            stride = math.prod(lattice[k + 1:hi])
            if k in lowers:
                index = index + lowers[k] * stride
                offsets += [o + stride for o in offsets]
            else:
                position = np.arange(lattice[k]).reshape((-1,) + (1,) * (dim - 1 - k))
                index = index + position * stride
        index = index.reshape(index.shape[lo:index.ndim - dim + hi])
        flat = values.reshape(lattice[:lo] + (-1,) + values.shape[hi:])
        corners, at = [], 0
        for o in offsets:
            index += o - at
            at = o
            corners.append(flat.take(index, axis=lo))
        values = _fold(corners, [t for _, _, t in stage])
    if values is field.values or values.shape[:-1] != shape:
        values = np.array(np.broadcast_to(values, shape + values.shape[-1:]))
    if not np.all(inside):
        np.copyto(values, 0.0, where=~inside[..., None])
    mask = np.full(shape, inside)
    if partial:
        mask = mask & (values[..., -1] > 1.0 - 1e-9)
        values = values[..., :-1]
    return values, mask


# ---------------------------------------------------------------------------
# lattice derivatives
# ---------------------------------------------------------------------------

def centered_derivative(u: GridField, direction) -> GridField:
    """``(X^+ u + X^- u) / 2`` with the solver's one-sided stencils of
    :func:`_stencil`: on the lattice, second-order consistent with the
    left-invariant derivative.

    A node is valid where both one-sided stencils stay on the grid and
    no nonzero coefficient of either reads a node invalid in ``u``, a
    cover decided on boolean slices of the masks.
    """
    grid = u.grid
    (plus, valid_plus), (minus, valid_minus) = (
        _stencil(grid, direction, sign) for sign in (1, -1)
    )
    mask = u.mask & valid_plus & valid_minus
    if not np.all(u.mask):
        for step, c in (*plus.items(), *minus.items()):
            here, there = _step_slices(step, grid.shape)
            mask[here] &= (c[here] == 0.0) | u.mask[there]
    vals = 0.5 * (_apply_stencil(plus, u.values) + _apply_stencil(minus, u.values))
    vals = np.where(mask[..., None], vals, 0.0)
    return GridField(grid, vals, mask)


def derivative_word(u: GridField, word) -> GridField:
    """Apply centered derivatives for the labels in ``word`` (rightmost
    first, matching operator composition order)."""
    out = u
    for direction in reversed(list(word)):
        out = centered_derivative(out, direction)
    return out


def horizontal_jet(u: GridField, order, region):
    """``[[u], [X_i u], [X_i X_j u], ...]`` to the given order, each level
    X_1, ..., X_m of every field below it in turn; raises
    :class:`MarginTooSmall` when a level's stencils do not cover the region."""
    jet = [[u]]
    for _ in range(order):
        level = [centered_derivative(fld, (1, i))
                 for fld in jet[-1] for i in range(1, u.grid.spec.m + 1)]
        require_stencil_cover(region, level)
        jet.append(level)
    return jet


# ---------------------------------------------------------------------------
# regions and integrals
# ---------------------------------------------------------------------------

def gauge_distance_arrays(grid: Grid, center=None):
    """Gauge distance from every node to ``center``, a coordinate sequence
    or ``None`` for the origin."""
    spec = grid.spec
    nodes = grid.node_arrays()
    inverse = np.zeros(len(spec.basis)) if center is None else [-float(c) for c in center]
    coords = product_arrays(spec, inverse, [nodes[lab] for lab in spec.basis])
    return gauge_norm_arrays(spec, dict(zip(spec.basis, coords)))


def gauge_balls(grid: Grid, center, radii):
    """Masks of the gauge balls about ``center`` of the given radii, from
    one distance pass; raises ``ValueError`` on a radius refused by
    :func:`ball_radius`, and when the smallest ball holds no node."""
    for r in radii:
        ball_radius(r)
    dist = gauge_distance_arrays(grid, center)
    balls = [dist < r for r in radii]
    if not balls[int(np.argmin(radii))].any():
        raise ValueError(f"no grid nodes inside the ball of radius {min(radii)}")
    return balls


def scaling_radius(r, power):
    """``r``, refused by :func:`ball_radius` and unless ``r ** power``, the
    scale a check puts on its derivative terms, is a normal float."""
    ball_radius(r)
    try:
        scale = r ** power
    except OverflowError:
        scale = math.inf
    if not sys.float_info.min <= scale < math.inf:
        raise ValueError(f"the radius {r} makes r**{power} = {scale:.3e}, "
                         "not a normal float")
    return r


def require_stencil_cover(region, fields):
    """Raise :class:`MarginTooSmall` unless every derived field is valid on
    the region."""
    outside = ~region
    if not all(bool(np.all(fld.mask | outside)) for fld in fields):
        raise MarginTooSmall("a derivative stencil leaves the grid inside the region")


def integrate(field_values, grid: Grid, mask=None):
    """Equal-weight quadrature of nodal values over a masked region."""
    vals = np.asarray(field_values, dtype=float)
    if mask is not None:
        vals = np.where(mask, vals, 0.0)
    return float(vals.sum()) * grid.cell_volume


def l2_norm_sq(u: GridField, mask=None):
    density = (u.values ** 2).sum(axis=-1)
    return integrate(density, u.grid, mask)


def sobolev_norm(u: GridField, order, region):
    """Discrete horizontal Sobolev norm: L2 plus all horizontal derivative
    words up to the given order, over the region mask.

    Raises :class:`MarginTooSmall` when the derivative stencils do not
    cover the region.
    """
    return sum(math.sqrt(l2_norm_sq(fld, region))
               for level in horizontal_jet(u, order, region) for fld in level)


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

# offsets sampled, geometrically, by the seminorm's sup
OFFSET_SAMPLES = 16


def fractional_order(alpha):
    """``alpha`` as a float, refused unless it lies in (0, 1]."""
    if not (0 < alpha <= 1):
        raise ValueError(f"a fractional order must lie in (0, 1], got {alpha}")
    return float(alpha)


def peetre_seminorm(u: GridField, direction, alpha) -> float:
    """Sup over sampled offsets in ``(0, 4h]``, h the horizontal spacing, of
    the squared flow quotient of fractional order ``alpha`` in (0, 1] along
    ``direction``.

    The field is treated as compactly supported: flows that leave the box
    read zero.
    """
    alpha = fractional_order(alpha)
    grid = u.grid
    eps0 = 4.0 * grid.horizontal_spacing()
    offsets = np.geomspace(eps0 / 2 ** (OFFSET_SAMPLES - 1), eps0, OFFSET_SAMPLES)
    worst = 0.0
    for h in offsets:
        coords = flow_coordinates(grid, direction, float(h))
        moved, _ = sample_at(u, coords)
        diff = ((moved - u.values) ** 2).sum(axis=-1)
        val = integrate(diff, grid) / float(h) ** (2 * alpha)
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

def _stencil(grid: Grid, direction, sign):
    """One-sided discretization of a left-invariant field in coordinate
    form: exact polynomial coefficients times axis-aligned differences.

    Returns a map from axis displacement to coefficient array, the zero
    displacement first, and the nodes where the stencil stays on the grid.
    Each coefficient sits at a step of ``sign`` along its label's axis and
    the zero displacement holds minus their sum.  Axis stencils stay on the
    lattice, so no interpolation enters and the only invalid nodes are on
    the faces the differences step over, where every coefficient is zero.
    """
    dim, nodes = len(grid.shape), grid.node_arrays()
    valid = np.ones(grid.shape, dtype=bool)
    main = np.zeros(grid.shape)
    stencil = {(0,) * dim: main}
    for label, coeff in left_invariant_field(grid.spec, direction).coeffs.items():
        ax = grid.axis_of(label)
        # the face the step would leave has no entry
        face = (slice(None),) * ax + (-1 if sign > 0 else 0,)
        valid[face] = False
        c = np.full(grid.shape, coeff.evaluate_arrays(nodes) / (sign * grid.spacing[ax]))
        c[face] = 0.0
        stencil[_unit_step(dim, ax, sign)] = c
        main += c
    np.negative(main, out=main)
    return stencil, valid


def _unit_step(dim, ax, sign):
    return tuple(sign if k == ax else 0 for k in range(dim))


def _flat_offset(shape, step):
    return sum(t * math.prod(shape[k + 1:]) for k, t in enumerate(step))


def coordinate_derivative_matrix(grid: Grid, direction, sign):
    """The one-sided matrix of :func:`_stencil`, one diagonal per
    displacement, and its valid nodes."""
    from scipy import sparse

    stencil, valid = _stencil(grid, direction, sign)
    size = math.prod(grid.shape)
    offsets = [_flat_offset(grid.shape, step) for step in stencil]
    diagonals = [c.ravel()[max(0, -o):size - max(0, o)]
                 for c, o in zip(stencil.values(), offsets)]
    return sparse.diags(diagonals, offsets, (size,) * 2, "csr"), valid


def _find_malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


_MALLOC_TRIM = _find_malloc_trim()


def _release_freed_memory():
    """Hand the C heap's free pages back to the operating system.

    glibc serves arrays below its mmap threshold, which rises towards
    32 MiB once large arrays are freed, from a heap that keeps freed
    pages resident, so the peak of the same solve moved by up to 40 MB
    from one process to the next.  The solver calls this where a
    measurement showed that it lowers the peak.  Without glibc it does
    nothing.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _coupled_steps(grid: Grid, form):
    """The axis displacements, ascending, from an unknown's node to the
    nodes its row of K reaches: on either side, a step of X_j less a step
    of X_i, for each pair of slots (i, j) the form couples."""
    spec, dim = grid.spec, len(grid.shape)
    m = spec.m
    ncomp = form.shape[0] // m
    coupled = form.reshape(ncomp, m, ncomp, m).any(axis=(0, 2))
    steps = set()
    for sign in (1, -1):
        reach = [[(0,) * dim] + [_unit_step(dim, grid.axis_of(label), sign)
                                 for label in left_invariant_field(spec, (1, i + 1)).coeffs]
                 for i in range(m)]
        for i, j in zip(*np.nonzero(coupled)):
            steps.update(tuple(b - a for a, b in zip(back, ahead))
                         for back in reach[i] for ahead in reach[j])
    return sorted(steps)


def _weak_form(grid: Grid, form, steps, g: GridField, flux, f: GridField):
    """K_ff and the right-hand side of the weak form on the interior
    unknowns, accumulated diagonal by diagonal from the stencils.

    K = sum over the sides and slots of X_i^T (w A_ij) X_j, with w half the
    cell volume where all of a side's stencils stay on the grid; the loads
    are -X_i^T (w f_i), -w f and, for the Dirichlet data g, -X_i^T (w A_ij)
    X_j g.  Averaging the two sides' forms gives the compact stencil (no
    odd-even decoupling) and cancels the first-order term.  Each entry of
    K sums its terms from 0.0 over the side, then the quadrature node p by
    ascending displacement from the unknown's node, then i, each term X_i
    at p times the sum over ascending (beta, j) of w A_ij X_j at p; the
    loads sum the same way.  These are the sums, in the same order, of the
    sparse products G_I^T (B G_I) and G_I^T (B G g) with G the stack of the
    X_i^± (rows side, node, component, i) and B the weighted form at each
    node, so K and the right-hand side have the bits of those products,
    with entries that sum to exactly zero dropped.
    """
    m, ncomp = grid.spec.m, g.n_components
    inner = tuple(s - 2 for s in grid.shape)
    form = form.reshape(ncomp, m, ncomp, m)         # [alpha, i, beta, j]
    # acc[k, beta, q, alpha]: the row of unknown (q, alpha) at column
    # (q + steps[k], beta), q running over the interior nodes
    acc = np.zeros((len(steps), ncomp) + inner + (ncomp,))
    rhs = np.zeros(inner + (ncomp,))
    interior = tuple(slice(1, -1) for _ in inner)
    fixed = g.values.copy()
    fixed[interior] = 0.0
    w_total = 0.0
    for sign in (1, -1):
        w_total = w_total + _add_side(grid, form, sign, steps, fixed, flux, acc, rhs)
    np.negative(rhs, out=rhs)
    rhs -= w_total[interior][..., None] * f.values[interior]
    return _diagonals_to_csr(acc, steps), rhs.ravel()


def _add_side(grid: Grid, form, sign, steps, fixed, flux, acc, rhs):
    """Add one side's terms to ``acc`` and ``rhs`` (see :func:`_weak_form`,
    without the loads' minus sign) and return its node weights; the
    side's stencils and products are freed on return."""
    m, ncomp = grid.spec.m, fixed.shape[-1]
    diagonal = {step: k for k, step in enumerate(steps)}
    stencils, valid = zip(*(_stencil(grid, (1, i + 1), sign) for i in range(m)))
    w = np.where(np.logical_and.reduce(valid), 0.5 * grid.cell_volume, 0.0)
    # per slot i: for each (alpha, beta) the weighted form times X_j,
    # summed over j, at each displacement; and the loads on the grid
    xg = [_apply_stencil(stencil, fixed) for stencil in stencils]
    load = w[..., None, None] * flux
    bx = [[] for _ in range(m)]
    for al, i in np.ndindex(ncomp, m):
        dirichlet = 0.0
        for be in range(ncomp):
            sums = {}
            for j in range(m):
                a = form[al, i, be, j]
                if a == 0.0:
                    continue
                wa = w * a
                dirichlet = dirichlet + wa * xg[j][..., be]
                for step, c in stencils[j].items():
                    sums[step] = sums.get(step, 0.0) + wa * c
            bx[i].append((al, be, sums))
        load[..., al, i] += dirichlet
    term = np.empty(rhs.shape[:-1])
    for nu in sorted({tuple(-t for t in step) for st in stencils for step in st}):
        at = tuple(slice(1 + t, s - 1 + t) for t, s in zip(nu, grid.shape))
        back = tuple(-t for t in nu)
        for i, stencil in enumerate(stencils):
            if back not in stencil:
                continue
            xi = stencil[back][at]
            rhs += xi[..., None] * load[at + (slice(None), i)]
            for al, be, sums in bx[i]:
                for step, b in sums.items():
                    k = diagonal[tuple(t + u for t, u in zip(nu, step))]
                    entries = acc[k, be, ..., al]
                    entries += np.multiply(xi, b[at], out=term)
    return w


def _step_slices(step, shape):
    """The slices ``(here, there)`` of the nodes of a box of ``shape`` whose
    displacement by ``step`` stays in it, and of the nodes they reach."""
    return (tuple(slice(max(0, -t), s - max(0, t)) for t, s in zip(step, shape)),
            tuple(slice(max(0, t), s - max(0, -t)) for t, s in zip(step, shape)))


def _apply_stencil(stencil, x):
    """The stencil applied to nodal values ``x[..., component]``: at each
    node, the sum from 0.0 over ascending displacement of the coefficient
    times the value it reaches, the order in which the sparse matrix sums
    its row."""
    out = np.zeros(x.shape)
    for step in sorted(stencil):
        here, there = _step_slices(step, x.shape)
        reached = out[here]
        reached += stencil[step][here][..., None] * x[there]
    return out


def _diagonals_to_csr(acc, steps):
    """The CSR matrix with row (q, alpha) holding ``acc[k, beta, q, alpha]``
    at column (q + steps[k], beta), q over an interior box: the columns off
    the box and the exact zeros are dropped, and each row's columns ascend
    because the steps do."""
    from scipy import sparse

    ncomp, inner = acc.shape[1], acc.shape[2:-1]
    for k, step in enumerate(steps):
        for ax, t in enumerate(step):
            if t:
                cut = slice(max(inner[ax] - t, 0), None) if t > 0 else slice(None, -t)
                acc[(k, slice(None)) + (slice(None),) * ax + (cut,)] = 0.0
    values = acc.reshape(len(steps) * ncomp, -1).T
    keep = values != 0.0
    rows = values.shape[0]
    # int32 indices: GRID_BYTE_LIMIT at 25 bytes an entry keeps every count below 2**31
    offsets = np.array([_flat_offset(inner, step) for step in steps], dtype=np.int32)
    columns = (offsets[:, None] * ncomp + np.arange(ncomp, dtype=np.int32)).ravel()
    indices = (np.arange(rows, dtype=np.int32) // ncomp * ncomp)[:, None] + columns
    indptr = np.zeros(rows + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sparse.csr_matrix((values[keep], indices[keep], indptr), shape=(rows, rows))


def _dot(u, v, out=None):
    # numpy's pairwise sum in a fixed order: unlike BLAS ddot, its bits do
    # not depend on the BLAS thread count; ``out`` takes the product
    return float(np.add.reduce(np.multiply(u, v, out=out)))


def _cg(A, b, *, M, callback=None):
    """Flexible conjugate gradients from zero, FCG(1) (Notay, SIAM J. Sci.
    Comput. 22, 2000): beta = -(z, q_prev) / (p_prev, q_prev), q = A p, and
    alpha = (p, r) / (p, q), every inner product taken by :func:`_dot`.
    Unlike CG it needs no symmetric ``M``, which float32 rounding breaks.

    ``M`` is a callable applied once per iteration and ``callback(x)`` runs
    after each one.  Returns ``(x, iterations)``: the iterations run until
    the residual norm is at most ``CG_RTOL * |b|``, at most ``CG_MAXITER``.
    The loop solves for ``x 2**-e`` from ``b 2**-e``, e the exponent of
    max |b|, so that |b|^2 neither underflows nor overflows: a power of
    two scales every product, sum and quotient of the loop and of ``M``
    exactly, so the iterations and the bits of ``x`` are those of the
    unscaled loop wherever that one stays in the normal range.  ``callback``
    sees the scaled iterate.
    """
    e = math.frexp(float(np.max(np.abs(b))))[1]
    x = np.zeros_like(b)
    work = np.empty_like(x)     # every product and scaled vector of the loop
    r = np.ldexp(b, -e)
    tol = CG_RTOL * math.sqrt(_dot(r, r, work))
    p = q = pq = None
    for iteration in range(CG_MAXITER):
        if math.sqrt(_dot(r, r, work)) <= tol:
            return np.ldexp(x, e), iteration
        z = M(r)
        if p is None:
            p = z.copy()
        else:
            p *= -_dot(z, q, work) / pq
            p += z
        q = A @ p
        pq = _dot(p, q, work)
        alpha = _dot(p, r, work) / pq
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(q, alpha, out=work)
        if callback is not None:
            callback(x)
    return np.ldexp(x, e), CG_MAXITER


def _interpolation(size):
    """Nested linear interpolation onto ``size`` interior nodes of an axis
    from its even nodes 0, 2, 4, ...: an odd node takes the mean of its two
    neighbours, and a neighbour beyond the last node is the Dirichlet face."""
    from scipy import sparse

    coarse = (size + 1) // 2
    fine = np.arange(size)
    left = fine // 2
    odd = fine % 2 == 1
    right = odd & (left + 1 < coarse)
    rows = np.concatenate([fine, fine[right]])
    cols = np.concatenate([left, left[right] + 1])
    vals = np.concatenate([np.where(odd, 0.5, 1.0), np.full(int(right.sum()), 0.5)])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(size, coarse), dtype=np.float32)


# Lanczos steps behind each level's estimate of the spectral radius of D^-1 K
LANCZOS_STEPS = 4

# bytes that one slab of the product K P may take while a Galerkin level
# is formed (see _galerkin_product); smaller slabs cost time, since each
# slab boundary recomputes one fine x-plane of K P
GALERKIN_SLAB_BYTES = 32 << 20


def _galerkin_product(k, prolong, restrict, planes):
    """R K P in CSR, formed by slabs of coarse rows: each slab is a run of
    consecutive coarse x-planes (``planes`` in all), times only the rows of
    K that its rows of R reach.

    The slab count keeps each slab of K P under GALERKIN_SLAB_BYTES, taking
    the bytes scipy allocates for it: a value and an index per term, that
    is per nonzero of K times the mean row length of P.  K's rows enter as
    views of its arrays.  Every row of a product is summed from its own
    operands in their stored order, so the slabs hold the rows of the whole
    product with their bits and their stored order.
    """
    from scipy import sparse

    per_term = k.data.itemsize + k.indices.itemsize
    kp_bytes = per_term * k.nnz * prolong.nnz / prolong.shape[0]
    count = min(planes, max(1, math.ceil(kp_bytes / GALERKIN_SLAB_BYTES)))
    plane_rows = restrict.shape[0] // planes
    slabs = []
    for s in range(count):
        a, b = (planes * t // count * plane_rows for t in (s, s + 1))
        ra, rb = restrict.indptr[a], restrict.indptr[b]
        reached = restrict.indices[ra:rb]
        lo, hi = int(reached.min()), int(reached.max()) + 1
        ka, kb = k.indptr[lo], k.indptr[hi]
        k_rows = sparse.csr_matrix(
            (k.data[ka:kb], k.indices[ka:kb], k.indptr[lo:hi + 1] - ka),
            shape=(hi - lo, k.shape[1]))
        r_rows = sparse.csr_matrix(
            (restrict.data[ra:rb], reached - lo, restrict.indptr[a:b + 1] - ra),
            shape=(b - a, hi - lo))
        slabs.append(r_rows @ (k_rows @ prolong))
    if count == 1:
        return slabs[0]
    # the slabs' freed work arrays would stay resident under the stacked copy
    _release_freed_memory()
    return sparse.vstack(slabs, format="csr")


def _largest_ritz_value(k, scale):
    """The largest Ritz value of LANCZOS_STEPS float64 Lanczos steps on S K S,
    S = diag(``scale``) = D^-1/2, from a fixed start vector: a lower bound
    on the spectral radius of D^-1 K if K is symmetric, else an estimate.
    A float32 K is read through one float64 copy of its values."""
    from scipy import sparse

    k = sparse.csr_matrix((k.data.astype(np.float64, copy=False), k.indices, k.indptr),
                          shape=k.shape)
    v = np.random.default_rng(0).standard_normal(k.shape[0])
    v /= math.sqrt(_dot(v, v))
    v_prev, beta, alphas, betas = 0.0, 0.0, [], []
    for _ in range(min(LANCZOS_STEPS, k.shape[0])):
        w = scale * (k @ (scale * v)) - beta * v_prev
        alphas.append(_dot(v, w))
        w -= alphas[-1] * v
        beta = math.sqrt(_dot(w, w))
        if beta == 0.0:         # v spans an invariant subspace
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    off = betas[:len(alphas) - 1]
    return float(np.linalg.eigvalsh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))[-1])


def _unit_diagonal(k, scale, planes):
    """S K S in float32, S = diag(``scale``) = D^-1/2, sharing K's index
    arrays: each entry is formed in float64, one x-plane (of ``planes``) of
    rows at a time, and rounded once.  Its symmetric part has entries at
    most 1 (K's is positive definite), however far K's diagonal spans."""
    from scipy import sparse

    data = np.empty(k.nnz, dtype=np.float32)
    plane_rows = k.shape[0] // planes
    for a in range(0, k.shape[0], plane_rows):
        ka, kb = k.indptr[a], k.indptr[a + plane_rows]
        entries = np.take(scale, k.indices[ka:kb])
        entries *= k.data[ka:kb]
        entries *= np.repeat(scale[a:a + plane_rows], np.diff(k.indptr[a:a + plane_rows + 1]))
        data[ka:kb] = entries
    return sparse.csr_matrix((data, k.indices, k.indptr), shape=k.shape)


class VCycle:
    """Multigrid V-cycle in float32 for the interior unknowns of a grid,
    built on S K S, S = D^-1/2 (:func:`_unit_diagonal`).

    The horizontal (layer-1) axes are coarsened first, by
    :func:`_interpolation`, while the upper layers keep every node: the
    sub-Laplacian reaches them only through its coefficients, so it couples
    strongly only along the horizontal axes.  Once no horizontal axis has
    more than two interior nodes the upper-layer axes are coarsened too,
    and once no axis has more than two, every axis halves to one node: the
    bottom is an ncomp x ncomp block, applied as its dense inverse.
    Coarse operators are Galerkin products P^T K P, with P the Kronecker
    product of the axis interpolations and the identity on the components,
    formed by slabs of coarse x-planes (:func:`_galerkin_product`) so that
    no level holds the whole product K P; each level smooths with one
    damped Jacobi sweep before and one after, omega = 4 / (3 rho) with rho
    from :func:`_largest_ritz_value`.  Every level's matrices, weights and
    vectors are float32, so no product upcasts a matrix.
    Called on a residual r, the cycle returns S c(S r), c the cycle on
    S K S: S r is formed in float64 and shifted by the power of two of its
    largest entry before it is rounded, and c's result is scaled and
    shifted back in float64.
    """

    def __init__(self, k, grid: Grid, ncomp):
        from scipy import sparse

        shape = [s - 2 for s in grid.shape]
        horizontal = [grid.axis_of((1, i)) for i in range(1, grid.spec.m + 1)]
        self.scale = 1.0 / np.sqrt(k.diagonal())       # S = D^-1/2, float64
        rho = _largest_ritz_value(k, self.scale)
        k = _unit_diagonal(k, self.scale, shape[0])
        diag = k.diagonal()
        self.levels = []        # (K, omega D^-1, P, P^T) per level above the bottom
        while any(s > 1 for s in shape):
            axes = ([ax for ax in horizontal if shape[ax] > 2]
                    or [ax for ax, s in enumerate(shape) if s > 2]
                    or [ax for ax, s in enumerate(shape) if s > 1])
            factors = [sparse.identity(s, dtype=np.float32, format="csr")
                       for s in shape + [ncomp]]
            for ax in axes:
                factors[ax] = _interpolation(shape[ax])
                shape[ax] = (shape[ax] + 1) // 2
            prolong = functools.reduce(lambda a, b: sparse.kron(a, b, "csr"), factors)
            restrict = prolong.T.tocsr()
            self.levels.append((k, (4.0 / (3.0 * rho)) / diag, prolong, restrict))
            k = _galerkin_product(k, prolong, restrict, shape[0])
            _release_freed_memory()
            diag = k.diagonal()
            rho = _largest_ritz_value(k, 1.0 / np.sqrt(diag.astype(np.float64)))
        self.coarsest = np.linalg.inv(k.toarray())     # ncomp x ncomp

    def __call__(self, r):
        w = self.scale * r
        e = math.frexp(max(float(w.max()), -float(w.min())))[1]
        r = np.ldexp(w, -e, out=w).astype(np.float32)
        down = []
        for k, weights, _, restrict in self.levels:
            x = weights * r
            down.append((x, r))
            kx = k @ x
            r = restrict @ np.subtract(r, kx, out=kx)
        x = self.coarsest @ r
        for (k, weights, prolong, _), (x_pre, r) in zip(self.levels[::-1], down[::-1]):
            x = prolong @ x
            x += x_pre
            kx = k @ x
            np.subtract(r, kx, out=kx)
            x += np.multiply(kx, weights, out=kx)
        np.ldexp(x, e, out=w, dtype=np.float64)
        w *= self.scale
        return w


CG_RTOL = 1e-12
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

    ``boundary``, ``f`` and the ``f_i`` are lists of polynomials, one per
    component.  Returns the solution field with a ``solve_report``
    attribute carrying residual, conditioning and solver data.
    """
    if A.m != spec.m:
        raise ValueError(f"the coefficients have {A.m} slots; the group has {spec.m} X_i")
    if not A.is_coercive():
        raise SolverDiverged(
            "the coefficients fail the Legendre condition: the symmetric part of the "
            f"form is not positive definite (smallest eigenvalue {A.coercivity_margin():.3e})"
        )
    grid = Grid(spec, n, half_widths)
    if min(grid.shape) < 3:
        raise ValueError("the grid has no interior nodes; need three nodes per axis")
    ncomp, m = A.n_components, spec.m
    form = A.quadratic_form_matrix()
    steps = _coupled_steps(grid, form)
    # each diagonal entry of K_ff takes 25 bytes to assemble: 8 to sum it,
    # 1 to mask it, 12 for its CSR value and index and 4 for the index
    # before masking; an assembly over the byte limit is refused here
    needed = 25 * len(steps) * ncomp * math.prod(s - 2 for s in grid.shape) * ncomp
    if needed > GRID_BYTE_LIMIT:
        raise NumericsError(
            f"grid {'x'.join(map(str, grid.shape))} needs about {Decimal(needed):.3e} "
            f"bytes to assemble the stiffness matrix, over the "
            f"{GRID_BYTE_LIMIT:.3e}-byte limit"
        )

    def as_field(polys, name):
        if polys is None:
            return GridField.zeros(grid, ncomp)
        field = GridField.from_polys(grid, polys, name)
        if field.n_components != ncomp:
            raise ValueError(f"{name} has {field.n_components} components; need {ncomp}")
        return field

    g = as_field(boundary, "the boundary data")
    f_field = as_field(f, "f")
    f_i = [None] * m if f_i is None else f_i
    if len(f_i) != m:
        raise ValueError(f"f_i has {len(f_i)} entries; the group has {m} X_i")
    flux = np.stack([as_field(fi, f"f_{i}").values for i, fi in enumerate(f_i, 1)], -1)

    # an earlier solve's freed pages would stay resident under the assembly,
    # where they raised the peak
    _release_freed_memory()
    with np.errstate(over="ignore", invalid="ignore"):
        k_ff, rhs = _weak_form(grid, form, steps, g, flux, f_field)
    if not (np.all(np.isfinite(k_ff.data)) and np.all(np.isfinite(rhs))):
        raise NumericsError(
            f"the stiffness matrix or the loads leave the float range at half widths "
            f"{list(grid.half_widths)}"
        )
    # the loads are spent: neither the V-cycle build nor CG holds them
    del flux, f_field

    diag = k_ff.diagonal()
    if np.any(diag <= 0):
        raise SolverDiverged("stiffness diagonal is not positive")
    diag_ratio = float(diag.max() / diag.min())
    del diag
    # the largest absolute row sum, summed as abs(K).sum(axis=1) sums it,
    # from a copy of K's values but not of its indices; every row holds its
    # positive diagonal.  The copy is freed before the V-cycle build, which
    # holds the solve's peak
    k_inf = float(np.add.reduceat(np.abs(k_ff.data), k_ff.indptr[:-1]).max())
    precond = VCycle(k_ff, grid, ncomp)

    sol, iterations = _cg(k_ff, rhs, M=precond)
    if not np.all(np.isfinite(sol)):
        raise SolverDiverged(f"conjugate gradient failed after {iterations} iterations")
    # largest row residual, relative to the backward-error scale
    scale = k_inf * float(np.max(np.abs(sol))) + float(np.max(np.abs(rhs)))
    rel_residual = float(np.max(np.abs(k_ff @ sol - rhs))) / max(scale, 1e-300)
    interior = tuple(slice(1, -1) for _ in grid.shape)
    values = g.values.copy()
    values[interior] = sol.reshape(values[interior].shape)
    field = GridField(grid, values)
    field.solve_report = {
        "n": grid.shape,
        "unknowns": sol.size,
        "nnz": int(k_ff.nnz),
        "levels": len(precond.levels) + 1,
        "iterations": iterations,
        "relative_weak_residual": rel_residual,
        "diag_ratio": diag_ratio,
        "coercivity_margin": A.coercivity_margin(),
    }
    if rel_residual > WEAK_RESIDUAL_TOL:
        raise SolverDiverged(
            f"weak-form residual {rel_residual:.2e} above tolerance {WEAK_RESIDUAL_TOL}"
        )
    return field


def convergence_study(spec, A, u_polys, sizes=(16, 32, 64)):
    """Solve with manufactured data on a sequence of grids; least-squares
    fit of the L2 error order."""
    if len(set(sizes)) < 2:
        raise ValueError(f"need at least two distinct sizes, got {list(sizes)}")
    # the source that makes u an exact solution
    f = system_residual(spec, A, u_polys)
    errors = []
    spacings = []
    for n in sizes:
        sol = assemble_and_solve(spec, A, u_polys, f=f, n=n)
        exact = GridField.from_polys(sol.grid, u_polys)
        err = math.sqrt(l2_norm_sq(GridField(sol.grid, sol.values - exact.values)))
        errors.append(err)
        spacings.append(sol.grid.horizontal_spacing())
    logs_h = np.log(np.array(spacings))
    logs_e = np.log(np.maximum(np.array(errors), 1e-300))
    slope = float(np.polyfit(logs_h, logs_e, 1)[0])
    return {
        "sizes": list(sizes),
        "errors": errors,
        "order": slope,
    }


def caccioppoli_check(u: GridField, radius=0.5):
    """Empirical constant of the interior energy inequality on the ball pair
    centred at the origin, for a solution without data.

    LHS integrates the squared horizontal gradient over the ball; the RHS
    is the L2 mass over the double ball, scaled by the squared radius,
    which must be a normal float.
    """
    grid = u.grid
    scaling_radius(radius, 2)
    inner, outer = gauge_balls(grid, None, (radius, 2.0 * radius))
    _, grads = horizontal_jet(u, 1, inner)
    lhs = sum(l2_norm_sq(g, inner) for g in grads)
    rhs = l2_norm_sq(u, outer) / radius ** 2
    return {
        "lhs": lhs,
        "rhs": rhs,
        "radius": radius,
        "empirical_constant": lhs / rhs if rhs > 0 else 0.0,
        "ball_nodes": int(inner.sum()),
        "double_ball_nodes": int(outer.sum()),
    }
