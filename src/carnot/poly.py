"""Sparse multivariate polynomials with exact rational coefficients, and
the one compiler that evaluates them: exactly, on floats or on arrays.

Variables are opaque hashable keys (coordinate labels like ``(k, i)``, or
the group law's tagged labels).  A monomial is a sorted tuple of
``(var, exponent)`` pairs with positive exponents; the zero polynomial has
no terms.  Everything is immutable by convention.
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
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact coefficient: {c!r}")


class PolyFunction:
    """A polynomial function of group coordinates, in canonical sparse form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero():
        return PolyFunction()

    @staticmethod
    def constant(c):
        c = _as_coeff(c)
        return PolyFunction({_ONE_MONO: c} if c else {})

    @staticmethod
    def variable(var, exp=1):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError(f"exponent {exp!r} is not a non-negative integer")
        if exp == 0:
            return PolyFunction.constant(1)
        return PolyFunction({((var, exp),): Fraction(1)})

    # -- basic queries -----------------------------------------------

    def is_zero(self):
        return not self.terms

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Rational)):
            other = PolyFunction.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return PolyFunction(out)

    __radd__ = __add__

    def __neg__(self):
        return PolyFunction({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Rational)):
            other = PolyFunction.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = _as_coeff(c)
        if c == 0:
            return PolyFunction()
        return PolyFunction({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Rational)):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mul_mono(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return PolyFunction(out)

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
        if isinstance(other, (int, Fraction, Rational)):
            other = PolyFunction.constant(other)
        if not isinstance(other, PolyFunction):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus ------------------------------------------------------

    def derivative(self, var):
        out = {}
        for mono, c in self.terms.items():
            for pos, (v, e) in enumerate(mono):
                if v == var:
                    if e == 1:
                        new = mono[:pos] + mono[pos + 1:]
                    else:
                        new = mono[:pos] + ((v, e - 1),) + mono[pos + 1:]
                    out[new] = out.get(new, Fraction(0)) + c * e
                    break
        return PolyFunction({m: c for m, c in out.items() if c})

    # -- evaluation -----------------------------------------------------

    def evaluate(self, values):
        """Exact evaluation; ``values`` maps every needed variable to a scalar."""
        total = None
        for mono, c in self.terms.items():
            term = c
            for v, e in mono:
                if v not in values:
                    raise KeyError(f"no value for variable {v!r}")
                x = values[v]
                for _ in range(e):
                    term = term * x
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def evaluate_arrays(self, arrays):
        """Float evaluation on numpy arrays (or numbers) per variable, as
        a full-shape array; ``arrays`` must name every variable."""
        program = compile_polys([self], list(arrays))[1]
        return run_arrays(program, list(arrays.values()))[0]

    # -- display --------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(e for _, e in m), str(m))):
            c = self.terms[mono]
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
    outside = {v for p in polys for mono in p.terms for v, _ in mono} - set(variables)
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
        terms = poly.terms
        common = math.lcm(*(c.denominator for c in terms.values()))
        by_degree = {}
        for mono, c in terms.items():
            inputs = tuple(index[v] for v, e in mono for _ in range(e))
            by_degree.setdefault(len(inputs), []).append(
                (c.numerator * (common // c.denominator), inputs)
            )
        exact.append((common, sorted(by_degree.items())))
        floating.append([
            (float(c), tuple((index[v], e) for v, e in mono))
            for mono, c in terms.items()
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


def run_float(program, values, power=pow, skip=()):
    # floats, or numpy arrays of one shape with power=np.float_power (the C
    # pow of the scalar x ** e; numpy's ** and np.power, even x*x for
    # e == 2, are an ulp off it at some points).  A term with an input in
    # ``skip`` is left out: for scalar zeros and finite inputs no bit
    # changes (sums start at +0.0), but a 0*inf term is dropped.  x**1
    # would copy an array.
    out = []
    for terms in program:
        total = 0.0
        for c, factors in terms:
            if any(i in skip for i, _ in factors):
                continue
            term = c
            for i, e in factors:
                term *= values[i] if e == 1 else power(values[i], e)
            total += term
        out.append(total)
    return out


def run_arrays(program, values):
    """:func:`run_float` on numbers or numpy arrays broadcast together;
    every output is an array of the broadcast shape."""
    shape = np.broadcast_shapes(*map(np.shape, values))
    # full-shape arrays, so the running products and sums work in place
    values = [np.broadcast_to(v, shape) if isinstance(v, np.ndarray) else float(v)
              for v in values]
    skip = {i for i, v in enumerate(values) if isinstance(v, float) and v == 0}
    out = run_float(program, values, np.float_power, skip)
    return [v if np.shape(v) == shape else np.full(shape, v) for v in out]
