"""Rulers: fixed work, independent of ``carnot``, timed beside a workload.

The reference machine is a share of a busy host, and its pace drifts by
up to 1.7x over minutes.  A run therefore times a ruler as well as the
workload: after every pass (and every set-up probe) it runs whole units
of the ruler for a fixed share of the time just measured.  A workload
time is reported in *reference seconds*, its wall time scaled by how much
slower or faster than its reference pace the ruler ran in the same
window.  Drift that slows the workload and the ruler alike cancels; a
change to ``carnot`` moves only the workload side.

Each workload gets the ruler whose bottleneck matches its own: the
``Fraction`` ruler for ``exact``, the sparse ruler (a Jacobi-preconditioned
CG on a fixed matrix larger than L2) for ``solve``, and the interpolation
ruler (``map_coordinates`` on a fixed grid, as ``sample_at`` does) for
``estimates``.
The reference paces are constants, about each ruler's unit time in a
quiet period on the reference machine; they set the scale of the
reported figures and nothing else.
"""

from __future__ import annotations

import time
from fractions import Fraction


class Ruler:
    """Whole units of one fixed piece of work, timed in windows."""

    def __init__(self, unit, reference_s):
        self.unit = unit
        self.reference_s = reference_s
        self.spent = 0.0
        self.units = 0

    def fresh(self):
        """The same ruler with nothing measured yet."""
        return Ruler(self.unit, self.reference_s)

    def measure(self, budget):
        """Run units until ``budget`` seconds have passed (at least one)."""
        start = time.perf_counter()
        while True:
            self.unit()
            self.units += 1
            spent = time.perf_counter() - start
            if spent >= budget:
                break
        self.spent += spent

    def pace(self):
        """Mean wall time of one unit over every window measured."""
        return self.spent / self.units

    def reference_seconds(self, wall_s):
        return wall_s * self.reference_s / self.pace()


def _fraction_unit():
    """Rational arithmetic and dict stores, the mix of ``PolyFunction.evaluate``."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 8000):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, i % 4 + 1)
        table[i % 97] = acc
    return acc


def fraction_ruler():
    return Ruler(_fraction_unit, reference_s=0.050)


def sparse_ruler():
    """20 CG iterations on a 7-point Laplacian, 64^3 unknowns, 22 MB of CSR."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import cg

    n = 64
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    lap = (sp.kron(sp.kron(line, eye), eye) + sp.kron(sp.kron(eye, line), eye)
           + sp.kron(sp.kron(eye, eye), line))
    matrix = (lap + 1e-3 * sp.identity(n ** 3)).tocsr()
    rhs = np.ones(n ** 3)
    jacobi = sp.diags(1.0 / matrix.diagonal())

    def unit():
        # rtol 0 never converges, so every unit runs all 20 iterations
        cg(matrix, rhs, rtol=0.0, atol=0.0, maxiter=20, M=jacobi)

    return Ruler(unit, reference_s=0.125)


def interpolation_ruler():
    """Four multilinear interpolations of a 49^3 grid at its own nodes,
    moved by a fixed sub-cell flow: the ``sample_at`` calls of ``estimates``."""
    import numpy as np
    from scipy.ndimage import map_coordinates

    n = 49
    axes = np.meshgrid(*[np.linspace(-1.0, 1.0, n)] * 3, indexing="ij")
    values = np.sin(3 * axes[0]) * np.cos(2 * axes[1]) + axes[0] * axes[2]
    nodes = np.indices((n, n, n), dtype=float)
    moved = [np.clip(nodes + shift * np.stack([axes[1], -axes[0], axes[2]]), 0, n - 1)
             for shift in (0.3, -0.7, 1.9, -2.6)]

    def unit():
        for coords in moved:
            out = map_coordinates(values, coords, order=1, mode="nearest")
            np.where(coords[0] > 0, out, 0.0)

    return Ruler(unit, reference_s=0.050)


RULERS = {"exact": fraction_ruler, "solve": sparse_ruler, "estimates": interpolation_ruler}
