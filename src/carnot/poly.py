"""Sparse multivariate polynomials with exact rational coefficients, and
the one compiler that evaluates them: exactly, on floats or on arrays.

Variables are opaque hashable keys (coordinate labels like ``(k, i)``, or
the group law's tagged labels).  A monomial is a sorted tuple of
``(var, exponent)`` pairs with positive exponents; the zero polynomial has
no terms.  Everything is immutable by convention.

A polynomial stores integer numerators over one common denominator:
``nums`` maps each monomial to a nonzero ``int`` and ``den`` is a positive
``int`` with ``gcd(den, *nums.values()) == 1``.  The form is canonical, so
``==`` and ``hash`` are those of the values.  Arithmetic runs on ``int``s
and reduces each result once; ``terms`` gives ``{monomial: Fraction}`` on
demand.  Every result keeps the term order of the ``Fraction`` arithmetic
this form replaced (``+`` keeps the left terms, then appends the right
one's new terms; a cancelled term is dropped and re-appended if it comes
back), because the float program sums the terms in that order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np


Monomial = tuple   # tuple[(var, exp), ...], canonically sorted, exps > 0

_ONE_MONO: Monomial = ()


def _mono_key(pair):
    # repr-based order keeps mixed key types (tuples of ints and strings)
    # canonically sortable
    return repr(pair[0])


def _as_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, Rational):
        return Fraction(c)
    raise TypeError(f"not an exact coefficient: {c!r}")


def _poly(nums, den):
    # no reduction: ``nums`` over ``den`` must already be canonical
    out = object.__new__(PolyFunction)
    out.nums = nums
    out.den = den
    return out


def _reduced(nums, den):
    """The canonical polynomial ``nums / den`` (``den`` positive)."""
    g = math.gcd(den, *nums.values())
    if g != 1:
        nums = {m: c // g for m, c in nums.items()}
        den //= g
    return _poly(nums, den)


class PolyFunction:
    """A polynomial function of group coordinates, in canonical sparse form."""

    __slots__ = ("nums", "den")

    def __init__(self, terms=None):
        coeffs = {}
        for m, c in (terms or {}).items():
            c = _as_coeff(c)
            if c:
                coeffs[m] = c
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.nums = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}
        self.den = den

    @property
    def terms(self):
        """``{monomial: Fraction}`` in term order, built on each call."""
        den = self.den
        return {m: Fraction(c, den) for m, c in self.nums.items()}

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero():
        return _poly({}, 1)

    @staticmethod
    def constant(c):
        c = _as_coeff(c)
        return _poly({_ONE_MONO: c.numerator}, c.denominator) if c else _poly({}, 1)

    @staticmethod
    def variable(var, exp=1):
        if isinstance(exp, bool) or not isinstance(exp, int) or exp < 0:
            raise ValueError(f"exponent {exp!r} is not a non-negative integer")
        if exp == 0:
            return PolyFunction.constant(1)
        return _poly({((var, exp),): 1}, 1)

    @staticmethod
    def sum(polys):
        """The sum of ``polys`` in one dict, with the term order of ``+``
        folded from the left."""
        polys = list(polys)
        if not polys:
            return _poly({}, 1)
        den = math.lcm(*(p.den for p in polys))
        first = polys[0]
        k = den // first.den
        out = dict(first.nums) if k == 1 else {m: c * k for m, c in first.nums.items()}
        get = out.get
        for p in polys[1:]:
            k = den // p.den
            for m, c in p.nums.items():
                s = get(m, 0) + c * k
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _reduced(out, den)

    # -- basic queries -----------------------------------------------

    def is_zero(self):
        return not self.nums

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyFunction):
            if not isinstance(other, Rational):
                return NotImplemented
            other = PolyFunction.constant(other)
        return PolyFunction.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, PolyFunction):
            if not isinstance(other, Rational):
                return NotImplemented
            other = PolyFunction.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        return (-self) + other

    def scale(self, c):
        c = _as_coeff(c)
        if c == 0:
            return _poly({}, 1)
        k = c.numerator
        return _reduced({m: v * k for m, v in self.nums.items()}, self.den * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, PolyFunction):
            if not isinstance(other, Rational):
                return NotImplemented
            return self.scale(other)
        out = {}
        get = out.get
        other_items = other.nums.items()
        for m1, c1 in self.nums.items():
            for m2, c2 in other_items:
                m = _mul_mono(m1, m2)
                s = get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _reduced(out, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = PolyFunction.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, PolyFunction):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    # -- calculus ------------------------------------------------------

    def derivative(self, var):
        # distinct canonical monomials have distinct derivatives, so no
        # term of the result collects or cancels
        out = {}
        for mono, c in self.nums.items():
            for pos, (v, e) in enumerate(mono):
                if v == var:
                    if e == 1:
                        out[mono[:pos] + mono[pos + 1:]] = c
                    else:
                        out[mono[:pos] + ((v, e - 1),) + mono[pos + 1:]] = c * e
                    break
        return _reduced(out, self.den)

    # -- evaluation -----------------------------------------------------

    def evaluate(self, values):
        """Exact evaluation; ``values`` maps every needed variable to a scalar."""
        total = 0
        for mono, c in self.nums.items():
            term = c
            for v, e in mono:
                if v not in values:
                    raise KeyError(f"no value for variable {v!r}")
                x = values[v]
                for _ in range(e):
                    term = term * x
            total = total + term
        return Fraction(total) / self.den

    def evaluate_arrays(self, arrays):
        """Float evaluation on numpy arrays (or numbers) per variable, in
        the broadcast shape of the variables its terms read, as
        :func:`run_arrays` gives it; ``arrays`` must name every variable."""
        program = compile_polys([self], list(arrays))[1]
        return run_arrays(program, list(arrays.values()))[0]

    # -- display --------------------------------------------------------

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        bits = []
        for mono in sorted(terms, key=lambda m: (sum(e for _, e in m), str(m))):
            c = terms[mono]
            head = "*".join(
                f"{v}" if e == 1 else f"{v}^{e}" for v, e in mono
            )
            if not head:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(head)
            elif c == -1:
                bits.append(f"-{head}")
            else:
                bits.append(f"{c}*{head}")
        return " + ".join(bits).replace("+ -", "- ")


def _mul_mono(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items(), key=_mono_key))


def check_variables(polys, variables):
    """Raise ``ValueError`` naming each variable of ``polys`` not in ``variables``."""
    outside = {v for p in polys for mono in p.nums for v, _ in mono} - set(variables)
    if outside:
        names = ", ".join(sorted(map(repr, outside)))
        raise ValueError(f"polynomial variables {names} not among {list(variables)}")


def compile_polys(polys, variables):
    """The polynomials as flat programs over ``variables``: input ``j`` is
    the value of ``variables[j]``.

    Per polynomial the exact program is ``(L, groups)``: ``L`` is the
    common denominator of the coefficients and ``groups`` lists ``(degree,
    [(numerator over L, input indices repeated by exponent)])`` by
    increasing degree.  The float program keeps the polynomial's own term
    order as ``(float coefficient, ((input, exponent), ...))``.  Returns
    ``(exact, floating)``, one program per polynomial in each.
    """
    check_variables(polys, variables)
    index = {v: j for j, v in enumerate(variables)}
    exact, floating = [], []
    for poly in polys:
        common = poly.den
        by_degree = {}
        for mono, c in poly.nums.items():
            inputs = tuple(index[v] for v, e in mono for _ in range(e))
            by_degree.setdefault(len(inputs), []).append((c, inputs))
        exact.append((common, sorted(by_degree.items())))
        # int / int is the correctly rounded quotient, as float(Fraction)
        floating.append([
            (c / common, tuple((index[v], e) for v, e in mono))
            for mono, c in poly.nums.items()
        ])
    return exact, floating


def run_exact(program, values):
    # inputs as integer numerators over their common denominator D; the
    # degree groups are summed by Horner's rule in D, so each output is
    # one integer over L * D**(top degree) and one Fraction normalisation
    scale = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (scale // v.denominator) for v in values]
    out = []
    for common, groups in program:
        acc = top = 0
        for degree, terms in groups:
            part = 0
            for c, inputs in terms:
                for i in inputs:
                    c *= nums[i]
                part += c
            acc = acc * scale ** (degree - top) + part
            top = degree
        out.append(Fraction(acc, common * scale ** top))
    return out


def run_arrays(program, values):
    """The float program on numbers or numpy arrays that broadcast
    together.  Each term takes the broadcast shape of its own factors and
    each output that of its terms (a number where no array enters)."""
    values = [v if isinstance(v, np.ndarray) else float(v) for v in values]
    # np.float_power is the C pow of the scalar x ** e (numpy's ** and
    # np.power, even x*x for e == 2, are an ulp off it at some points).  A
    # term with a zero number input is left out while every number input is
    # finite: for finite array entries no bit changes (sums start at +0.0),
    # and a number 0*inf still makes its nan.  x**1 would copy an array.
    skip = {i for i, v in enumerate(values) if isinstance(v, float) and v == 0}
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        skip = ()
    out = []
    for terms in program:
        total = 0.0
        for c, factors in terms:
            if any(i in skip for i, _ in factors):
                continue
            term = c
            for i, e in factors:
                term = term * (values[i] if e == 1 else np.float_power(values[i], e))
            total = total + term
        out.append(total)
    return out
