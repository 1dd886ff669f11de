"""Sparse multivariate polynomials with exact rational coefficients.

Variables are opaque hashable keys (coordinate labels like ``(k, i)`` or
tagged labels like ``("q", k, i)``).  A monomial is a sorted tuple of
``(var, exponent)`` pairs with positive exponents; the zero polynomial has
no terms.  Everything is immutable by convention.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


Monomial = tuple   # tuple[(var, exp), ...], canonically sorted, exps > 0

_ONE_MONO: Monomial = ()


def _mono_key(pair):
    # repr-based order keeps mixed key types (tuples of ints and strings)
    # canonically sortable
    return repr(pair[0])


def _sorted_mono(pairs):
    return tuple(sorted(pairs, key=_mono_key))


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
        if exp < 0:
            raise ValueError("negative exponent")
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

    # -- substitution / evaluation --------------------------------------

    def substitute(self, assignment):
        """Replace variables by polynomials or exact constants.

        Variables absent from ``assignment`` are kept.
        """
        result = PolyFunction.zero()
        for mono, c in self.terms.items():
            term = PolyFunction.constant(c)
            for v, e in mono:
                if v in assignment:
                    rep = assignment[v]
                    if not isinstance(rep, PolyFunction):
                        rep = PolyFunction.constant(rep)
                    term = term * rep ** e
                else:
                    term = term * PolyFunction.variable(v, e)
            result = result + term
        return result

    def rename(self, mapping):
        """Rename variables via ``mapping`` (missing keys kept)."""
        out = {}
        for mono, c in self.terms.items():
            new = _sorted_mono((mapping.get(v, v), e) for v, e in mono)
            out[new] = out.get(new, Fraction(0)) + c
        return PolyFunction({m: v for m, v in out.items() if v})

    def evaluate(self, values, default=None):
        """Exact evaluation; ``values`` maps every needed variable to a scalar."""
        total = None
        for mono, c in self.terms.items():
            term = c
            for v, e in mono:
                if v in values:
                    x = values[v]
                elif default is not None:
                    x = default
                else:
                    raise KeyError(f"no value for variable {v!r}")
                for _ in range(e):
                    term = term * x
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def evaluate_arrays(self, arrays):
        """Vectorized evaluation with numpy arrays (or scalars) per variable."""
        total = None
        for mono, c in self.terms.items():
            term = float(c)
            for v, e in mono:
                term = term * arrays[v] ** e
            total = term if total is None else total + term
        return 0.0 if total is None else total

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
    return _sorted_mono(d.items())
