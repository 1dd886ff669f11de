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
from .poly import PolyFunction


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
        out = PolyFunction.zero()
        for lab, coeff in self.coeffs.items():
            d = u.derivative(lab)
            if not d.is_zero():
                out = out + coeff * d
        return out

    def __add__(self, other):
        out = dict(self.coeffs)
        for lab, c in other.coeffs.items():
            out[lab] = out.get(lab, PolyFunction.zero()) + c
        return VectorFieldOperator(self.spec, out)

    def scale(self, c):
        return VectorFieldOperator(
            self.spec, {lab: coeff.scale(c) for lab, coeff in self.coeffs.items()}
        )

    def __eq__(self, other):
        return isinstance(other, VectorFieldOperator) and self.coeffs == other.coeffs

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
        raise KeyError(f"{label} is not a basis label")
    op = VectorFieldOperator(spec, left_invariant_coefficients(spec, label))
    cache[label] = op
    return op


def field_of_element(spec: AlgebraSpec, elem: AlgebraElement) -> VectorFieldOperator:
    """Left-invariant field of an arbitrary algebra element (linear)."""
    out = VectorFieldOperator(spec, {})
    for lab, c in elem.coeffs.items():
        out = out + left_invariant_field(spec, lab).scale(c)
    return out


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
                rhs = PolyFunction.zero()
                for lc, c in expected.items():
                    rhs = rhs + fields_by_label[lc].apply(f).scale(c)
                if lhs != rhs:
                    ok = False
                    break
            report["pairs"].append({"a": list(a), "b": list(b), "ok": ok})
            if not ok:
                report["ok"] = False
    return report


def horizontal_jacobian(spec: AlgebraSpec, u):
    """m x N matrix of horizontal derivatives of the components of u."""
    fields_h = [left_invariant_field(spec, (1, i)) for i in range(1, spec.m + 1)]
    return [[x.apply(comp) for comp in u] for x in fields_h]


class SystemCoefficients:
    """Constant coefficients ``A[alpha][beta][i][j]`` with a coercivity check."""

    def __init__(self, coefficients, coercivity_tol=1e-10):
        a = [
            [
                [[Fraction(v) for v in row] for row in beta_block]
                for beta_block in alpha_block
            ]
            for alpha_block in coefficients
        ]
        self.n_components = len(a)
        self.m = len(a[0][0]) if a else 0
        self.A = a
        self.coercivity_tol = coercivity_tol

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
        return self.A[alpha][beta][i][j]

    def quadratic_form_matrix(self):
        """The (mN) x (mN) matrix of the form on xi with slots (alpha, i)."""
        n, m = self.n_components, self.m
        mat = np.zeros((m * n, m * n))
        for alpha in range(n):
            for beta in range(n):
                for i in range(m):
                    for j in range(m):
                        mat[alpha * m + i, beta * m + j] = float(self.A[alpha][beta][i][j])
        return mat

    def coercivity_margin(self):
        """Smallest eigenvalue of the symmetric part of the form."""
        mat = self.quadratic_form_matrix()
        sym = 0.5 * (mat + mat.T)
        return float(np.linalg.eigvalsh(sym).min())

    def is_coercive(self):
        return self.coercivity_margin() > self.coercivity_tol


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
    fields_h = [left_invariant_field(spec, (1, i)) for i in range(1, m + 1)]
    grads = [[fields_h[j].apply(u[beta]) for beta in range(n)] for j in range(m)]
    residual = []
    for alpha in range(n):
        total = PolyFunction.zero()
        for i in range(m):
            flux = PolyFunction.zero()
            for j in range(m):
                for beta in range(n):
                    c = A.entry(alpha, beta, i, j)
                    if c:
                        flux = flux + grads[j][beta].scale(c)
            flux = flux + f_i[i][alpha]
            total = total + fields_h[i].apply(flux)
        residual.append(total - f[alpha])
    return residual
