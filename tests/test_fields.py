import re
from fractions import Fraction

import pytest

from carnot.fields import (
    SystemCoefficients,
    commutator_check,
    coordinate,
    field_of_element,
    left_invariant_field,
    system_residual,
)
from carnot.group import Point, bch_product
from carnot.poly import PolyFunction


def test_abelian_fields_are_plain_derivatives(abelian2):
    for i in (1, 2):
        op = left_invariant_field(abelian2, (1, i))
        assert op.coeffs == {(1, i): PolyFunction.constant(1)}


def test_heisenberg_field_coefficient_from_flow_oracle(heis):
    # the sign of the layer-2 coefficient is derived from the product:
    # finite difference of p * exp(t X_1) at a sample point
    p = Point.from_sequence(heis, [Fraction(1, 3), Fraction(5, 7), Fraction(2)])
    t = Fraction(1, 1024)
    flowed = bch_product(p, Point.from_sequence(heis, [t, 0, 0]))
    diff = [(a - b) / t for a, b in zip(flowed.sequence(), p.sequence())]
    # exact flow derivative: (1, 0, coeff) with coeff = -b/2
    assert diff[0] == 1 and diff[1] == 0
    assert diff[2] == -p.coords[(1, 2)] / 2
    op = left_invariant_field(heis, (1, 1))
    b_var = coordinate((1, 2))
    assert op.coeffs[(2, 1)] == b_var.scale(Fraction(-1, 2))
    assert op.coeffs[(1, 1)] == PolyFunction.constant(1)


def test_top_layer_field_is_plain_derivative(heis, free24):
    for spec in (heis, free24):
        r = spec.r
        for i in range(1, spec.layer_dims[r - 1] + 1):
            op = left_invariant_field(spec, (r, i))
            assert op.coeffs == {(r, i): PolyFunction.constant(1)}


def test_apply_examples(heis):
    x1 = left_invariant_field(heis, (1, 1))
    assert x1.apply(PolyFunction.constant(5)).is_zero()
    assert x1.apply(coordinate((1, 1))) == PolyFunction.constant(1)
    u = coordinate((1, 1)) * coordinate((2, 1))
    v = coordinate((1, 2)) ** 2
    assert x1.apply(u + v) == x1.apply(u) + x1.apply(v)


@pytest.mark.parametrize("name", ["heis", "engel_spec", "free23", "abelian2"])
def test_commutator_check_builtin_groups(name, request):
    spec = request.getfixturevalue(name)
    report = commutator_check(spec)
    assert report["ok"]
    assert all(entry["ok"] for entry in report["pairs"])


def test_field_homogeneity_under_dilation(free23):
    # X_{k,i}(u o delta_s) = s^k (X_{k,i} u) o delta_s for rational s
    u = (
        coordinate((1, 1)) * coordinate((2, 1))
        + coordinate((3, 2)) * coordinate((1, 2)) ** 2
    )

    def dilated(poly, s):
        # poly o delta_s: each monomial scales by s to its weighted degree
        return PolyFunction({mono: c * s ** sum(v[0] * e for v, e in mono)
                             for mono, c in poly.terms.items()})

    for s in (Fraction(2), Fraction(1, 3), Fraction(5, 4)):
        for lab in free23.basis:
            op = left_invariant_field(free23, lab)
            lhs = op.apply(dilated(u, s))
            rhs = dilated(op.apply(u), s).scale(s ** lab[0])
            assert lhs == rhs


def test_coefficient_homogeneous_degree(free24):
    # coefficient at slot (j, l) of the layer-k field has weighted degree l-k
    weights = {lab: lab[0] for lab in free24.basis}
    for lab in free24.basis:
        op = left_invariant_field(free24, lab)
        for slot, poly in op.coeffs.items():
            for mono in poly.terms:
                wdeg = sum(weights[v] * e for v, e in mono)
                assert wdeg == slot[0] - lab[0]


def test_system_residual_harmonic_coordinates(heis):
    ident = SystemCoefficients.identity(1, 2)
    for lab in [(1, 1), (1, 2), (2, 1)]:
        res = system_residual(heis, ident, [coordinate(lab)])
        assert all(p.is_zero() for p in res)


def test_system_residual_constant_source(heis):
    ident = SystemCoefficients.identity(1, 2)
    res = system_residual(
        heis, ident, [PolyFunction.zero()], f=[PolyFunction.constant(1)]
    )
    assert res[0] == PolyFunction.constant(-1)


def test_system_residual_flux_data(heis):
    # residual = sum_i X_i f_i when u = 0
    ident = SystemCoefficients.identity(1, 2)
    f_i = [[coordinate((1, 2))], [coordinate((1, 1))]]
    res = system_residual(heis, ident, [PolyFunction.zero()], f_i=f_i)
    x1, x2 = (left_invariant_field(heis, (1, i)) for i in (1, 2))
    expected = x1.apply(coordinate((1, 2))) + x2.apply(coordinate((1, 1)))
    assert res[0] == expected


def test_coercivity_margin():
    ident = SystemCoefficients.identity(2, 2)
    assert ident.coercivity_margin() == pytest.approx(1.0)
    assert ident.is_coercive()
    skew = SystemCoefficients(
        [[[[1, 10], [-10, 1]]]]
    )  # symmetric part is the identity
    assert skew.coercivity_margin() == pytest.approx(1.0)
    negative = SystemCoefficients([[[[-1, 0], [0, -1]]]])
    assert not negative.is_coercive()


@pytest.mark.parametrize("coefficients,rows", [
    ([[[[1, 5]]]], "[[[2]]]"),                  # one row of two entries
    ([[[[1], [0]]]], "[[[1, 1]]]"),             # two rows of one entry
    ([[[[1]], [[0]]]], "[[[1], [1]]]"),         # two beta blocks for one component
    ([], "[]"),                                 # no component
    ([[[]]], "[[[]]]"),                         # an empty block
])
def test_system_coefficients_refuse_a_block_that_is_not_square(coefficients, rows):
    message = r"must be N x N x m x m with m >= 1; .* lengths " + re.escape(rows)
    with pytest.raises(ValueError, match=message):
        SystemCoefficients(coefficients)


def test_field_of_element_linearity(heis):
    from carnot.algebra import AlgebraElement

    elem = AlgebraElement(heis, {(1, 1): Fraction(2), (2, 1): Fraction(-1, 2)})
    op = field_of_element(heis, elem)
    x1 = left_invariant_field(heis, (1, 1))
    center = left_invariant_field(heis, (2, 1))
    u = coordinate((1, 1)) * coordinate((2, 1))
    assert op.apply(u) == x1.apply(u).scale(2) + center.apply(u).scale(Fraction(-1, 2))
