import itertools
from fractions import Fraction

import pytest

from carnot.algebra import (
    AlgebraElement,
    AlgebraSpec,
    BasisSizeExceeded,
    GradingViolation,
    JacobiViolation,
    StratificationViolation,
    bracket,
    build_free_nilpotent,
    build_from_table,
    spec_from_json,
    spec_to_json,
    validate_spec,
    verify_stratification,
)


# independent counting oracle: Moebius / necklace formula, written from
# scratch (the package has its own copy; this one is the test's referee)
def mobius(n):
    result, p, m = 1, 2, n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def witt_dimension(m, k):
    return sum(mobius(d) * m ** (k // d) for d in divisors(k)) // k


def divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


@pytest.mark.parametrize("m,r", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (1, 1)])
def test_free_nilpotent_layer_dims_match_witt_oracle(m, r):
    spec = build_free_nilpotent(m, r)
    assert list(spec.layer_dims) == [witt_dimension(m, k) for k in range(1, r + 1)]


def test_heisenberg_dimensions(heis):
    assert list(heis.layer_dims) == [2, 1]
    assert heis.homogeneous_dimension() == 4


def test_abelian_case():
    spec = build_free_nilpotent(3, 1)
    assert list(spec.layer_dims) == [3]
    assert spec.homogeneous_dimension() == 3
    x, y = AlgebraElement.basis(spec, (1, 1)), AlgebraElement.basis(spec, (1, 2))
    assert bracket(x, y).is_zero()


def test_homogeneous_dimension_free23(free23):
    assert list(free23.layer_dims) == [2, 1, 2]
    assert free23.homogeneous_dimension() == 2 + 2 + 6


def test_basis_cap():
    with pytest.raises(BasisSizeExceeded):
        build_free_nilpotent(7, 4)    # 728 basis elements, over BASIS_CAP


@pytest.mark.parametrize("m,r", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_exact_invariants_on_free_groups(m, r):
    spec = build_free_nilpotent(m, r)
    assert validate_spec(spec) == []
    # antisymmetry, checked directly as well
    for a in spec.basis:
        for b in spec.basis:
            ea, eb = AlgebraElement.basis(spec, a), AlgebraElement.basis(spec, b)
            assert (bracket(ea, eb) + bracket(eb, ea)).is_zero()


def test_jacobi_residual_exact_zero(free24):
    for a, b, c in itertools.combinations(free24.basis, 3):
        ea, eb, ec = (AlgebraElement.basis(free24, lab) for lab in (a, b, c))
        total = (
            bracket(bracket(ea, eb), ec)
            + bracket(bracket(eb, ec), ea)
            + bracket(bracket(ec, ea), eb)
        )
        assert total.is_zero()


def test_layer_homogeneity_of_brackets(free23):
    for a in free23.basis:
        for b in free23.basis:
            combo = free23.basis_bracket(a, b)
            for lab in combo:
                assert lab[0] == a[0] + b[0]


def test_heisenberg_bracket_matches_free22(heis):
    # the validated table and the free construction agree up to labels
    free22 = build_free_nilpotent(2, 2)
    x1 = AlgebraElement.basis(heis, (1, 1))
    x2 = AlgebraElement.basis(heis, (1, 2))
    assert bracket(x1, x2).coeffs == {(2, 1): Fraction(1)}
    f1 = AlgebraElement.basis(free22, (1, 1))
    f2 = AlgebraElement.basis(free22, (1, 2))
    assert bracket(f1, f2).coeffs == {(2, 1): Fraction(1)}


def test_center_brackets_vanish(heis):
    center = AlgebraElement.basis(heis, (2, 1))
    for lab in heis.basis:
        assert bracket(center, AlgebraElement.basis(heis, lab)).is_zero()


def test_engel_table_valid(engel_spec):
    assert validate_spec(engel_spec) == []
    assert list(engel_spec.layer_dims) == [2, 1, 1]
    assert engel_spec.homogeneous_dimension() == 2 + 2 + 3


def test_grading_violation_detected():
    # a bracket landing back in layer 1
    table = {((1, 1), (1, 2)): {(1, 1): 1}}
    with pytest.raises(GradingViolation):
        build_from_table([2, 1], table)


def test_stratification_violation_detected():
    # nothing generates the second layer
    table = {((1, 1), (1, 2)): {}}
    with pytest.raises(StratificationViolation):
        build_from_table([2, 1], table)


def test_jacobi_violation_detected():
    # step 4, dims [2,1,1,1]: the sum over (x1, x2, [x1,x2]) picks up an
    # uncancelled layer-4 element with these entries
    table = {
        ((1, 1), (1, 2)): {(2, 1): 1},
        ((1, 1), (2, 1)): {(3, 1): 1},
        ((1, 2), (2, 1)): {(3, 1): 1},
        ((1, 1), (3, 1)): {(4, 1): 1},
        ((1, 2), (3, 1)): {},
    }
    with pytest.raises(JacobiViolation) as err:
        build_from_table([2, 1, 1, 1], table)
    assert err.value.triple == ((1, 1), (1, 2), (2, 1))


def test_validate_spec_reports_instead_of_raising():
    table = {((1, 1), (1, 2)): {}}
    try:
        build_from_table([2, 1], table)
    except StratificationViolation as exc:
        assert exc.layer == 1
        assert exc.rank == 0
        assert exc.expected == 1


def test_verify_stratification_reports(heis, engel_spec):
    rep = verify_stratification(heis)
    assert rep["ok"] and all(layer["ok"] for layer in rep["layers"])
    rep = verify_stratification(engel_spec)
    assert rep["ok"]
    # abelian: vacuously fine, no layers to check
    ab = build_free_nilpotent(2, 1)
    assert verify_stratification(ab) == {"layers": [], "ok": True}


def test_spec_json_round_trip(free23, engel_spec):
    for spec in (free23, engel_spec):
        data = spec_to_json(spec)
        back = spec_from_json(data)
        assert back.layer_dims == spec.layer_dims
        for a in spec.basis:
            for b in spec.basis:
                assert back.basis_bracket(a, b) == spec.basis_bracket(a, b)


def test_bracket_bilinearity(free23):
    x = AlgebraElement(free23, {(1, 1): Fraction(2, 3), (2, 1): Fraction(-1)})
    y = AlgebraElement(free23, {(1, 2): Fraction(5, 2)})
    z = AlgebraElement(free23, {(1, 1): Fraction(1), (1, 2): Fraction(1, 7)})
    lhs = bracket(x + z, y)
    rhs = bracket(x, y) + bracket(z, y)
    assert lhs == rhs
    assert bracket(x, x).is_zero()


@pytest.mark.parametrize("key", [((1, 2), (1, 1)), ((1, 1), (1, 1))])
def test_spec_refuses_a_bracket_key_that_is_not_an_ordered_pair(key):
    # build_from_table orders a user table; the spec takes only that form
    with pytest.raises(ValueError, match="ordered pairs"):
        AlgebraSpec([2, 1], {key: {(2, 1): Fraction(1)}})
