"""Left-invariant vector fields as first-order operators with polynomial
coefficients, derived from the group law rather than hand-coded.

The coefficient of the layer-k field at the slot ``(j, l)`` is the
``q``-derivative of the product polynomial ``z_{j,l}(p, q)`` at ``q = 0``,
so every sign convention is inherited from the product.  Coordinate
variables of plain polynomials are the basis labels ``(k, i)``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, AlgebraSpec
from .group import left_invariant_coefficients
from .poly import PolyFunction, check_variables


def coordinate(label) -> PolyFunction:
    """The coordinate function ``p_label`` as a polynomial."""
    return PolyFunction.variable(tuple(label))


class VectorFieldOperator:
    """First-order operator ``sum_a coeff_a(p) d/dp_a``."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.coeffs = {lab: c for lab, c in coeffs.items() if not c.is_zero()}

    def apply(self, u: PolyFunction) -> PolyFunction:
        parts = []
        for lab, coeff in self.coeffs.items():
            d = u.derivative(lab)
            if not d.is_zero():
                parts.append(coeff * d)
        return PolyFunction.sum(parts)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*d/dp{lab}" for lab, c in sorted(self.coeffs.items()))


def left_invariant_field(spec: AlgebraSpec, label) -> VectorFieldOperator:
    """Left-invariant field for a basis label, memoized per spec."""
    label = tuple(label)
    cache = spec._cache.setdefault("fields", {})
    if label in cache:
        return cache[label]
    if label not in spec.index:
        raise ValueError(f"{label} is not a basis label")
    op = VectorFieldOperator(spec, left_invariant_coefficients(spec, label))
    cache[label] = op
    return op


def field_of_element(spec: AlgebraSpec, elem: AlgebraElement) -> VectorFieldOperator:
    """Left-invariant field of an arbitrary algebra element (linear)."""
    terms = [(left_invariant_field(spec, lab).coeffs, c) for lab, c in elem.coeffs.items()]
    slots = dict.fromkeys(slot for coeffs, _ in terms for slot in coeffs)
    return VectorFieldOperator(spec, {
        slot: PolyFunction.sum(coeffs[slot].scale(c) for coeffs, c in terms if slot in coeffs)
        for slot in slots
    })


def commutator_check(spec: AlgebraSpec):
    """Check that operator brackets reproduce the structure constants.

    For every basis pair the commutator ``X_a X_b - X_b X_a`` is applied to
    each coordinate function and compared exactly against the structure
    constant combination.
    """
    report = {"pairs": [], "ok": True}
    fields_by_label = {lab: left_invariant_field(spec, lab) for lab in spec.basis}
    for i, a in enumerate(spec.basis):
        for b in spec.basis[i + 1:]:
            xa, xb = fields_by_label[a], fields_by_label[b]
            expected = spec.basis_bracket(a, b)
            ok = True
            for lab in spec.basis:
                f = coordinate(lab)
                lhs = xa.apply(xb.apply(f)) - xb.apply(xa.apply(f))
                rhs = PolyFunction.sum(
                    fields_by_label[lc].apply(f).scale(c) for lc, c in expected.items()
                )
                if lhs != rhs:
                    ok = False
                    break
            report["pairs"].append({"a": list(a), "b": list(b), "ok": ok})
            if not ok:
                report["ok"] = False
    return report


class SystemCoefficients:
    """Constant coefficients ``A[alpha][beta][i][j]`` with a coercivity check."""

    def __init__(self, coefficients):
        a = [
            [
                [[Fraction(v) for v in row] for row in beta_block]
                for beta_block in alpha_block
            ]
            for alpha_block in coefficients
        ]
        n = self.n_components = len(a)
        m = self.m = len(a[0][0]) if a and a[0] else 0
        rows = [[[len(row) for row in block] for block in blocks] for blocks in a]
        if not m or rows != [[[m] * m] * n] * n:
            raise ValueError(f"coefficients must be N x N x m x m with m >= 1; the rows "
                             f"of the (alpha, beta) blocks have lengths {rows}")
        # the exact (mN) x (mN) form on xi, rows and columns in the slots
        # (alpha, i)
        self._rows = [[a[alpha][beta][i][j] for beta in range(n) for j in range(m)]
                      for alpha in range(n) for i in range(m)]

    @staticmethod
    def identity(n_components, m):
        return SystemCoefficients(
            [
                [
                    [
                        [1 if (alpha == beta and i == j) else 0 for j in range(m)]
                        for i in range(m)
                    ]
                    for beta in range(n_components)
                ]
                for alpha in range(n_components)
            ]
        )

    def entry(self, alpha, beta, i, j):
        return self._rows[alpha * self.m + i][beta * self.m + j]

    def quadratic_form_matrix(self):
        """The (mN) x (mN) matrix of the form on xi with slots (alpha, i)."""
        return np.array(self._rows, dtype=float)

    def coercivity_margin(self):
        """Smallest eigenvalue of the symmetric part of the form, in floats;
        a report, not the decision (see :meth:`is_coercive`)."""
        mat = self.quadratic_form_matrix()
        sym = 0.5 * (mat + mat.T)
        return float(np.linalg.eigvalsh(sym).min())

    def is_coercive(self):
        """The Legendre condition, decided exactly: the symmetric part of the
        form is positive definite, so every pivot of its LDL^T
        factorisation over the rationals, taken in order, is positive."""
        sym = [[(a + b) / 2 for a, b in zip(row, col)]
               for row, col in zip(self._rows, zip(*self._rows))]
        for k, pivot_row in enumerate(sym):
            if pivot_row[k] <= 0:
                return False
            for row in sym[k + 1:]:
                factor = row[k] / pivot_row[k]
                for q in range(k + 1, len(row)):
                    row[q] -= factor * pivot_row[q]
        return True


def system_residual(spec, A: SystemCoefficients, u, f_i=None, f=None):
    """Strong-form residual of the divergence-form system, one polynomial
    per component: ``sum_i X_i(sum_{j,beta} A X_j u^beta + f_i) - f``.
    """
    n = len(u)
    m = spec.m
    if A.n_components != n or A.m != m:
        raise ValueError("coefficient block does not match u and the spec")
    if f_i is None:
        f_i = [[PolyFunction.zero() for _ in range(n)] for _ in range(m)]
    if f is None:
        f = [PolyFunction.zero() for _ in range(n)]
    check_variables([*u, *f, *(p for row in f_i for p in row)], spec.basis)
    fields_h = [left_invariant_field(spec, (1, i)) for i in range(1, m + 1)]
    grads = [[fields_h[j].apply(u[beta]) for beta in range(n)] for j in range(m)]
    residual = []
    for alpha in range(n):
        divergence = []
        for i in range(m):
            flux = []
            for j in range(m):
                for beta in range(n):
                    c = A.entry(alpha, beta, i, j)
                    if c:
                        flux.append(grads[j][beta].scale(c))
            flux.append(f_i[i][alpha])
            divergence.append(fields_h[i].apply(PolyFunction.sum(flux)))
        residual.append(PolyFunction.sum(divergence) - f[alpha])
    return residual
