"""``PolyFunction`` (integer numerators over one common denominator) against
the ``Fraction``-dict arithmetic it replaced, kept here as the oracle.

Every operation must give the same terms in the same order: the float
program sums a polynomial's terms in its own order, so the order decides
the float bits of the field coefficients and the grid data.
"""

import functools
import math
import operator
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import example, given, settings, strategies as st

from carnot import group
from carnot.algebra import build_free_nilpotent
from carnot.catalog import engel, heisenberg
from carnot.poly import PolyFunction, _mono_key, _mul_mono, compile_polys


# ---------------------------------------------------------------------------
# the oracle: the Fraction-dict arithmetic of the old PolyFunction
# ---------------------------------------------------------------------------

class FractionPoly:
    """One ``Fraction`` per term; every operation normalises each one."""

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @staticmethod
    def constant(c):
        c = Fraction(c)
        return FractionPoly({(): c} if c else {})

    @staticmethod
    def variable(var, exp=1):
        if exp == 0:
            return FractionPoly.constant(1)
        return FractionPoly({((var, exp),): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if isinstance(other, Rational):
            other = FractionPoly.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Rational):
            other = FractionPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return FractionPoly()
        return FractionPoly({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Rational):
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
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = FractionPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return self.terms == other.terms

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
        return FractionPoly({m: c for m, c in out.items() if c})


def oracle_compile(polys, variables):
    """``compile_polys`` as it read the ``Fraction`` terms."""
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


# ---------------------------------------------------------------------------
# random polynomials over few monomials, so that terms collect and cancel
# ---------------------------------------------------------------------------

VARIABLES = [(1, 1), (1, 2), ("q", 2, 1)]

monomials = st.dictionaries(
    st.sampled_from(VARIABLES), st.integers(1, 3), max_size=3
).map(lambda d: tuple(sorted(d.items(), key=_mono_key)))
coefficients = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 2, 3, 4, 6])
)
term_lists = st.lists(st.tuples(monomials, coefficients), max_size=8)


def both(pairs):
    """The same polynomial in both representations, terms in draw order."""
    terms = {}
    for m, c in pairs:
        terms[m] = terms.get(m, 0) + c
    return PolyFunction(terms), FractionPoly(terms)


def same(new, old):
    assert isinstance(new, PolyFunction)
    got = list(new.terms.items())
    assert got == list(old.terms.items())
    assert all(type(c) is Fraction for _, c in got)
    assert new.den > 0 and math.gcd(new.den, *new.nums.values()) == 1
    assert all(type(c) is int and c for c in new.nums.values())


X, Y = (((1, 1), 1),), (((1, 2), 1),)     # (x + y)(x - y): the xy terms cancel


@st.composite
def related_pairs(draw):
    """Two term lists; the second negates a random part of the first, in a
    shuffled order, so sums and differences cancel terms."""
    p = draw(term_lists)
    flips = draw(st.lists(st.booleans(), min_size=len(p), max_size=len(p)))
    q = [(m, -c) for (m, c), flip in zip(p, flips) if flip] + draw(term_lists)
    return p, draw(st.permutations(q))


@settings(max_examples=100, deadline=None)
@given(related_pairs())
@example(([(X, Fraction(1)), (Y, Fraction(1))], [(X, Fraction(1)), (Y, Fraction(-1))]))
def test_binary_operations_match_the_oracle(pair):
    (p, fp), (q, fq) = both(pair[0]), both(pair[1])
    same(p + q, fp + fq)
    same(q + p, fq + fp)
    same(p - q, fp - fq)
    same(p * q, fp * fq)
    same(-p, -fp)
    same(p + 3, fp + 3)
    same(Fraction(1, 2) + p, Fraction(1, 2) + fp)
    same(p - 1, fp - 1)
    same(1 - p, 1 - fp)
    same(p * 2, fp * 2)
    assert (p == q) == (fp == fq)
    assert p - p == PolyFunction.zero()


@settings(max_examples=100, deadline=None)
@given(term_lists, coefficients | st.just(Fraction(0)), st.sampled_from(VARIABLES),
       st.integers(0, 3))
def test_unary_operations_match_the_oracle(pairs, c, var, n):
    p, fp = both(pairs)
    same(p.scale(c), fp.scale(c))
    same(p.derivative(var), fp.derivative(var))
    same(p ** n, fp ** n)


@settings(max_examples=60, deadline=None)
@given(st.lists(related_pairs(), max_size=3), st.data())
def test_sum_matches_the_left_fold(pairs, data):
    polys = [both(t) for pair in pairs for t in pair]
    # repeat some, negated, so terms cancel and come back later
    extra = data.draw(st.lists(st.sampled_from(polys), max_size=3)) if polys else []
    polys += [(-p, -fp) for p, fp in extra] + extra
    new = PolyFunction.sum(p for p, _ in polys)
    old = functools.reduce(operator.add, (fp for _, fp in polys), FractionPoly())
    same(new, old)


def test_a_cancelled_term_comes_back_at_the_end():
    x, y = PolyFunction.variable("x"), PolyFunction.variable("y")
    total = PolyFunction.sum([x, y, -x, x])
    assert list(total.terms) == [(("y", 1),), (("x", 1),)]
    assert list((x + y - x + x).terms) == list(total.terms)


@settings(max_examples=50, deadline=None)
@given(term_lists, st.permutations(list(range(8))))
def test_equal_values_compare_and_hash_equal_in_any_term_order(pairs, order):
    p, _ = both(pairs)
    shuffled = [pairs[i] for i in order if i < len(pairs)]
    q, _ = both(shuffled)
    assert p == q and hash(p) == hash(q)
    assert p.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == p


@settings(max_examples=50, deadline=None)
@given(st.lists(term_lists, min_size=1, max_size=3))
def test_compile_polys_matches_the_oracle(lists):
    pairs = [both(t) for t in lists]
    assert compile_polys([p for p, _ in pairs], VARIABLES) == oracle_compile(
        [fp for _, fp in pairs], VARIABLES)


def test_compile_polys_rounds_wide_coefficients_once():
    # numerators past 2**53: the float coefficient is the correctly rounded
    # quotient, as float(Fraction) gives it
    terms = [{(): Fraction(3 ** 40 + 1, 7 ** 21)}, {X: Fraction(-(2 ** 60) - 3, 3 ** 25)}]
    assert compile_polys(list(map(PolyFunction, terms)), VARIABLES) == oracle_compile(
        list(map(FractionPoly, terms)), VARIABLES)


LAW_SPECS = {
    **{f"free:{m},{r}": (lambda m=m, r=r: build_free_nilpotent(m, r))
       for m, r in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]},
    "heisenberg": heisenberg,
    "engel": engel,
}


@pytest.mark.parametrize("name", sorted(LAW_SPECS))
def test_group_laws_and_field_coefficients_match_the_oracle(name, monkeypatch):
    spec = LAW_SPECS[name]()
    law = group.group_law(spec)
    with monkeypatch.context() as patch:
        patch.setattr(group, "PolyFunction", FractionPoly)
        patch.setattr(group, "compile_polys", oracle_compile)
        oracle_spec = LAW_SPECS[name]()
        oracle_law = group.group_law(oracle_spec)
    assert isinstance(oracle_law[oracle_spec.basis[0]], FractionPoly)
    assert spec._cache["law_program"] == oracle_spec._cache["law_program"]
    for lab in spec.basis:
        same(law[lab], oracle_law[lab])
    # the field coefficients: the law's terms whose only q factor is q_label
    for label in spec.basis:
        qfactor = [(("q",) + label, 1)]
        coeffs = group.left_invariant_coefficients(spec, label)
        for lab in spec.basis:
            same(coeffs[lab], FractionPoly({
                tuple((v[1:], e) for v, e in mono if v[0] == "p"): c
                for mono, c in oracle_law[lab].terms.items()
                if [f for f in mono if f[0][0] == "q"] == qfactor
            }))


# ---------------------------------------------------------------------------
# the representation refuses what is not exact
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", [
    lambda p: p + 0.5, lambda p: 0.5 + p, lambda p: p - 0.5, lambda p: 0.5 - p,
    lambda p: p * 0.5, lambda p: 0.5 * p,
])
def test_float_operands_raise_type_error(op):
    with pytest.raises(TypeError, match="unsupported operand"):
        op(PolyFunction.variable("x"))


def test_float_coefficients_and_boolean_exponents_are_refused():
    with pytest.raises(TypeError, match="not an exact coefficient"):
        PolyFunction({(): 0.5})
    with pytest.raises(TypeError, match="not an exact coefficient"):
        PolyFunction.variable("x").scale(0.5)
    with pytest.raises(ValueError, match="exponent True is not"):
        PolyFunction.variable("x", True)
