import math
import random
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carnot.algebra import build_free_nilpotent
from carnot.catalog import resolve_group
from carnot.group import (
    Point,
    ball_volume_estimate,
    bch_product,
    dilate,
    dynkin_terms,
    gauge_distance,
    gauge_norm,
    gauge_norm_arrays,
    gauge_norm_power,
    group_law,
    inverse,
    product_arrays,
)
from carnot.poly import PolyFunction

rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)


def rand_point(spec, rng, span=2, den=3):
    return Point(
        spec,
        {lab: Fraction(rng.randint(-span, span), rng.randint(1, den)) for lab in spec.basis},
    )


def test_identity_is_neutral(heis):
    p = Point.from_sequence(heis, [Fraction(1, 2), Fraction(-2), Fraction(7, 3)])
    e = Point(heis)
    assert bch_product(p, e) == p
    assert bch_product(e, p) == p


def test_heisenberg_closed_form_oracle(heis):
    # closed form (a+a', b+b', c+c'+(ab'-a'b)/2), itself cross-checked
    # against the truncated series below
    rng = random.Random(11)
    for _ in range(50):
        p, q = rand_point(heis, rng), rand_point(heis, rng)
        (a, b, c), (ap, bp, cp) = p.sequence(), q.sequence()
        expected = [a + ap, b + bp, c + cp + (a * bp - ap * b) / 2]
        assert bch_product(p, q).sequence() == expected


def test_dynkin_degree_two_coefficients():
    terms = dynkin_terms(2)
    assert terms[(0,)] == 1 and terms[(1,)] == 1
    # bracket words are not independent; the invariant combination is the
    # difference of the two degree-2 words, [X,Y]/2 in total
    xy = terms.get((0, 1), Fraction(0))
    yx = terms.get((1, 0), Fraction(0))
    assert xy - yx == Fraction(1, 2)


def test_group_law_is_symbolic_heisenberg(heis):
    law = group_law(heis)
    a, b = PolyFunction.variable(("p", 1, 1)), PolyFunction.variable(("p", 1, 2))
    ap, bp = PolyFunction.variable(("q", 1, 1)), PolyFunction.variable(("q", 1, 2))
    c, cp = PolyFunction.variable(("p", 2, 1)), PolyFunction.variable(("q", 2, 1))
    assert law[(1, 1)] == a + ap
    assert law[(1, 2)] == b + bp
    half = Fraction(1, 2)
    assert law[(2, 1)] == c + cp + (a * bp - ap * b).scale(half)


def test_inverse_examples(heis):
    e = Point(heis)
    assert inverse(e) == e
    p = Point.from_sequence(heis, [1, 0, 0])
    assert inverse(p).sequence() == [-1, 0, 0]


def test_inverse_property_random(free24):
    rng = random.Random(3)
    e = Point(free24)
    for _ in range(100):
        p = rand_point(free24, rng)
        assert bch_product(inverse(p), p) == e
        assert bch_product(p, inverse(p)) == e


@pytest.mark.parametrize("m,r", [(2, 3), (2, 4), (3, 3)])
def test_associativity_exact(m, r):
    spec = build_free_nilpotent(m, r)
    rng = random.Random(100 * m + r)
    for _ in range(25):
        p, q, w = (rand_point(spec, rng) for _ in range(3))
        assert bch_product(bch_product(p, q), w) == bch_product(p, bch_product(q, w))


def test_dilation_examples(heis):
    p = Point.from_sequence(heis, [1, 1, 1])
    assert dilate(2, p).sequence() == [2, 2, 4]
    assert dilate(1, p) == p


@settings(max_examples=30, deadline=None)
@given(s=st.fractions(min_value=Fraction(1, 3), max_value=Fraction(3), max_denominator=3),
       t=st.fractions(min_value=Fraction(1, 3), max_value=Fraction(3), max_denominator=3),
       coords=st.lists(rationals, min_size=3, max_size=3))
def test_dilation_semigroup(s, t, coords):
    heis = build_free_nilpotent(2, 2)
    p = Point.from_sequence(heis, coords)
    assert dilate(s, dilate(t, p)) == dilate(s * t, p)


def test_dilation_homomorphism(free23):
    rng = random.Random(5)
    for _ in range(25):
        p, q = rand_point(free23, rng), rand_point(free23, rng)
        s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert dilate(s, bch_product(p, q)) == bch_product(dilate(s, p), dilate(s, q))


def test_gauge_norm_examples(heis):
    assert gauge_norm(Point(heis)) == 0.0
    assert gauge_norm(Point.from_sequence(heis, [1, 0, 0])) == 1.0


@pytest.mark.parametrize("value", [Fraction(1, 1000), Fraction(30), 1e-3, 30.0])
def test_gauge_norm_step5_leaves_float_range(value):
    # |p|**(2 * 5!) = value**240 underflows (1e-720) or overflows (1e354)
    free25 = build_free_nilpotent(2, 5)
    norm = gauge_norm(Point(free25, {(1, 1): value}))
    assert norm == pytest.approx(float(value), rel=1e-12)
    assert gauge_norm(Point(free25, {(5, 1): value ** 5})) == pytest.approx(
        float(value), rel=1e-12
    )


@pytest.mark.parametrize("value", [1e-3, 30.0])
def test_gauge_norm_arrays_step5_leaves_float_range(value):
    free25 = build_free_nilpotent(2, 5)
    zero = np.zeros(2)
    for lab, x in (((1, 1), value), ((5, 1), value ** 5)):
        coords = {b: zero for b in free25.basis}
        coords[lab] = np.array([x, -x])
        norms = gauge_norm_arrays(free25, coords)
        assert norms == pytest.approx([value, value], rel=1e-12)


def test_gauge_norm_arrays_step4_small_points_and_the_origin(free24):
    # |p11|**48 underflows at p11 = 1e-8 on free:2,4; the origin stays 0
    zero = np.zeros(3)
    coords = {lab: zero for lab in free24.basis}
    coords[(1, 1)] = np.array([0.0, 1e-8, 0.5])
    coords[(4, 1)] = np.array([0.0, 0.0, 0.25])
    norms = gauge_norm_arrays(free24, coords)
    assert norms[0] == 0.0
    for j in (1, 2):
        point = Point(free24, {lab: float(arr[j]) for lab, arr in coords.items()})
        assert norms[j] == pytest.approx(gauge_norm(point), rel=1e-12)


def test_ball_volume_hit_fraction_is_dilation_invariant_at_step5():
    # the sampling box scales with the dilations, so every radius draws the
    # same points up to scale; the parent gave 1.0 at R=0.01 and 0.0 at R=30
    free25 = build_free_nilpotent(2, 5)
    hits = [ball_volume_estimate(free25, radius, 20_000, seed=3)["hit_fraction"]
            for radius in (0.01, 1.0, 30.0)]
    assert hits[0] == hits[1] == hits[2]
    assert 0.0 < hits[1] < 1.0


def test_gauge_homogeneity_exact(free23):
    rng = random.Random(9)
    two_rfact = 2 * math.factorial(free23.r)
    for _ in range(30):
        p = rand_point(free23, rng)
        s = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        assert gauge_norm_power(dilate(s, p)) == s ** two_rfact * gauge_norm_power(p)


def test_gauge_distance_properties(heis):
    rng = random.Random(17)
    for _ in range(20):
        p, q, g = rand_point(heis, rng), rand_point(heis, rng), rand_point(heis, rng)
        assert gauge_distance(p, p) == 0.0
        # positivity: zero distance only at equal points
        if p != q:
            assert gauge_distance(p, q) > 0.0
        # left invariance, checked on the exact gauge power
        shift_p, shift_q = bch_product(g, p), bch_product(g, q)
        lhs = gauge_norm_power(bch_product(inverse(shift_q), shift_p))
        rhs = gauge_norm_power(bch_product(inverse(q), p))
        assert lhs == rhs


def test_ball_volume_abelian_interval():
    line = build_free_nilpotent(1, 1)
    rep = ball_volume_estimate(line, 1.0, 10_000, seed=4)
    assert rep["estimate"] == pytest.approx(2.0)


def test_ball_volume_scaling_constant(heis):
    values = []
    for i, radius in enumerate((0.5, 1.0, 2.0)):
        rep = ball_volume_estimate(heis, radius, 100_000, seed=50 + i)
        values.append(rep["estimate"] / radius ** 4)
    mid = sorted(values)[1]
    assert all(abs(v - mid) / mid < 0.05 for v in values)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
def test_ball_volume_refuses_a_radius_not_finite_and_positive(heis, radius):
    with pytest.raises(ValueError, match=f"finite and positive, got {radius}$"):
        ball_volume_estimate(heis, radius, 100)


@pytest.mark.parametrize("bad,message", [
    ({"seed": -1}, "need seed >= 0, got -1"),      # reached numpy's generator
    ({"shard": 0}, "need shard >= 1, got 0"),      # drew no sample a round, forever
])
def test_ball_volume_refuses_a_bad_seed_or_shard(heis, bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ball_volume_estimate(heis, 1.0, 100, **bad)


def test_ball_volume_deterministic(heis):
    a = ball_volume_estimate(heis, 1.0, 30_000, seed=7)
    b = ball_volume_estimate(heis, 1.0, 30_000, seed=7)
    assert a == b


# -- the compiled group law against the plain polynomial evaluation ----------

LAW_SPECS = ["heisenberg", "engel", "free:2,2", "free:2,3", "free:2,4",
             "free:3,2", "free:3,3", "free:2,5"]
_law_spec = lru_cache(maxsize=None)(resolve_group)


def _oracle_product(p, q):
    law = group_law(p.spec)
    values = {}
    for lab in p.spec.basis:
        values[("p",) + lab] = p.coords[lab]
        values[("q",) + lab] = q.coords[lab]
    return {lab: law[lab].evaluate(values) for lab in p.spec.basis}


def _replica_float_product(p, q):
    # the per-term operation order of the float evaluator the compiled
    # program replaced
    law = group_law(p.spec)
    out = {}
    for lab in p.spec.basis:
        total = 0.0
        for mono, c in law[lab].terms.items():
            term = float(c)
            for (tag, *label), e in mono:
                point = p if tag == "p" else q
                term *= float(point.coords[tuple(label)]) ** e
            total += term
        out[lab] = total
    return out


small_rationals = st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                               max_denominator=7)
large_denominators = st.builds(
    Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12)
)
exact_coords = st.one_of(st.integers(-5, 5), small_rationals, large_denominators)
float_coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _draw_point(data, spec, coords):
    return Point(spec, {lab: data.draw(coords) for lab in spec.basis})


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(LAW_SPECS), data=st.data())
def test_compiled_law_matches_polynomial_evaluation(name, data):
    spec = _law_spec(name)
    p, q, w = (_draw_point(data, spec, exact_coords) for _ in range(3))
    pq = bch_product(p, q)
    assert pq.coords == _oracle_product(p, q)
    assert all(type(v) is Fraction for v in pq.coords.values())
    # chained products carry the large denominators of the first one
    assert bch_product(pq, w).coords == _oracle_product(pq, w)
    assert bch_product(w, pq).coords == _oracle_product(w, pq)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(LAW_SPECS), data=st.data())
def test_compiled_law_float_path_is_bitwise_unchanged(name, data):
    spec = _law_spec(name)
    p = _draw_point(data, spec, st.one_of(float_coords, exact_coords))
    q = _draw_point(data, spec, float_coords)
    for a, b in ((p, q), (q, p)):
        got = bch_product(a, b).coords
        want = _replica_float_product(a, b)
        assert {lab: v.hex() for lab, v in got.items()} == {
            lab: v.hex() for lab, v in want.items()
        }


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(LAW_SPECS), data=st.data())
def test_product_arrays_matches_the_float_product_bitwise(name, data):
    # the draws of the float-path test above, as one-element arrays
    spec = _law_spec(name)
    p = _draw_point(data, spec, st.one_of(float_coords, exact_coords))
    q = _draw_point(data, spec, float_coords)
    for a, b in ((p, q), (q, p)):
        got = product_arrays(
            spec,
            [np.array([float(v)]) for v in a.sequence()],
            [np.array([float(v)]) for v in b.sequence()],
        )
        want = _replica_float_product(a, b)
        assert [v.shape for v in got] == [(1,)] * len(spec.basis)
        assert [float(v[0]).hex() for v in got] == [
            want[lab].hex() for lab in spec.basis
        ]


@pytest.mark.parametrize("name", ["engel", "free:2,3", "free:2,5"])
def test_product_arrays_matches_bch_product_on_a_seeded_cloud(name):
    # squares and cubes of many points: numpy's own float64 power is off by
    # an ulp from the scalar x ** e at some of them
    spec = _law_spec(name)
    rng = np.random.default_rng(7)
    p_arrays = list(rng.uniform(-3.0, 3.0, (len(spec.basis), 400)))
    q_arrays = list(rng.uniform(-3.0, 3.0, (len(spec.basis), 400)))
    got = product_arrays(spec, p_arrays, q_arrays)
    for j in range(400):
        p = Point(spec, {lab: float(a[j]) for lab, a in zip(spec.basis, p_arrays)})
        q = Point(spec, {lab: float(a[j]) for lab, a in zip(spec.basis, q_arrays)})
        want = bch_product(p, q).coords
        assert [float(v[j]).hex() for v in got] == [
            want[lab].hex() for lab in spec.basis
        ]


def test_float_product_keeps_zero_times_inf_as_nan(heis):
    # the float product multiplies out every term, as the old evaluator did
    zero = {lab: 0.0 for lab in heis.basis}
    p = Point(heis, zero)
    q = Point(heis, {**zero, (1, 2): math.inf})
    got = bch_product(p, q).coords
    assert math.isnan(got[(2, 1)])
    assert math.isnan(_replica_float_product(p, q)[(2, 1)])


def test_numpy_integer_coordinates_multiply_exactly(free24):
    # 3**20 cubed and beyond overflows int64: the numerators are read as
    # Python ints, so no numpy arithmetic (and no overflow warning) is left
    y = Point(free24, {lab: Fraction(j + 1, 7) for j, lab in enumerate(free24.basis)})
    big = {lab: 3 ** 20 for lab in free24.basis}
    x = Point(free24, {lab: np.int64(v) for lab, v in big.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bch_product(x, y)
        assert bch_product(y, x) == bch_product(y, Point(free24, big))
    assert got == bch_product(Point(free24, big), y)
    assert got.coords[free24.basis[-1]] == Fraction(12157665872822011165, 98)
    assert all(type(v) is Fraction for v in got.sequence())


def test_numpy_float_coordinates_take_the_float_path(heis):
    p = Point(heis, {(1, 1): np.float32(0.5), (2, 1): np.int64(2)})
    q = Point(heis, {(1, 2): Fraction(1, 3)})
    got = bch_product(p, q).sequence()
    want = bch_product(Point(heis, {(1, 1): 0.5, (2, 1): 2.0}), q).sequence()
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("value", ["x", None, 1 + 0j])
def test_a_coordinate_that_is_not_a_real_number_is_named(heis, value):
    p = Point(heis, {(1, 1): Fraction(1, 2), (2, 1): value})
    for a, b in ((p, Point(heis)), (Point(heis, {(1, 2): 1.5}), p)):
        with pytest.raises(ValueError, match=r"coordinate \(2, 1\) is .* not a real number"):
            bch_product(a, b)


def test_a_point_refuses_labels_outside_the_basis(heis):
    with pytest.raises(ValueError, match=r"labels \(1, 3\), \(3, 1\) are not in the basis"):
        Point(heis, {(1, 3): 1, (1, 1): 2, (3, 1): 5})
    assert Point(heis, {(1, 1): 2}).sequence() == [2, 0, 0]


def test_points_over_different_bases_are_unequal_in_both_orders(heis, engel_spec, free23):
    pairs = [(Point(heis), Point(engel_spec)),
             (Point(free23), Point(engel_spec)),
             (Point(heis, {(1, 1): 1}), Point(build_free_nilpotent(2, 2), {(1, 1): 1}))]
    for a, b in pairs[:2]:
        assert a != b and b != a
        assert not a == b and not b == a
    a, b = pairs[2]         # the same basis over two spec objects
    assert a == b and b == a and hash(a) == hash(b)
    assert Point(heis) != (0, 0, 0) and Point(heis) != Point(heis, {(2, 1): 1})


@pytest.mark.parametrize("name", ["heisenburg", "free:2,", "abelian:"])
def test_a_misspelt_group_name_lists_the_builtin_forms(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError) as refused:
        resolve_group(name)
    assert str(refused.value) == (f"[Errno 2] No such file or directory: {name!r}, and not "
                                  "a builtin group (heisenberg, engel, free:m,r, abelian:n)")
