import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from carnot.algebra import build_free_nilpotent
from carnot.catalog import resolve_group
from carnot.fields import SystemCoefficients
from carnot.poly import PolyFunction
from carnot.rewrite import (
    ABSTRACT,
    ClassificationFailure,
    ExactContext,
    LayerProfile,
    Letter,
    ReductionTrace,
    SymbolicTerm,
    classify_successor,
    expand_f,
    expand_fi,
    naive_order_obstruction,
    normalize_word,
    reduce_to_base,
    t2_step,
    termination_sweep,
    verify_rewrite_identity,
    _recursive_f,
    _recursive_fi,
)


# ---------------------------------------------------------------------------
# independent oracle: direct interpreter of the two-line recursive
# definitions of the inhomogeneous terms, in abstract letters
# ---------------------------------------------------------------------------

def _stack(profile, from_layer):
    out = ()
    for k in range(from_layer, profile.r + 1):
        out += tuple(Letter(k, pos) for pos in range(profile.count(k), 0, -1))
    return out


def _v_word(profile, level, b):
    low = tuple(Letter(level - 1, pos) for pos in range(b, 0, -1))
    return low + _stack(profile, level)


def oracle_fi(profile, l):
    """Unrolls: flux data at count b is a commutator term on the one-shorter
    word plus the next letter applied to the previous data; at count zero it
    rebases one layer up, bottoming out at a plain word on the data."""

    def rec(level, b):
        if b == 0:
            if level == profile.r:
                return [(_stack(profile, profile.r), "fi")]
            return rec(level + 1, profile.count(level))
        terms = [((Letter(level),) + _v_word(profile, level, b - 1), "u")]
        terms += [
            ((Letter(level - 1, b),) + word, target)
            for word, target in rec(level, b - 1)
        ]
        return terms

    return rec(l, profile.count(l - 1))


def oracle_f(profile, l):
    def rec(level, b):
        if b == 0:
            if level == profile.r:
                return [(_stack(profile, profile.r), "f")]
            return rec(level + 1, profile.count(level))
        terms = [
            ((Letter(level - 1, b),) + word, target)
            for word, target in rec(level, b - 1)
        ]
        terms.append(((Letter(level), Letter(1)) + _v_word(profile, level, b - 1), "u"))
        terms += [
            ((Letter(level),) + word, target)
            for word, target in oracle_fi_at(profile, level, b - 1)
        ]
        return terms

    return rec(l, profile.count(l - 1))


def oracle_fi_at(profile, level, b):
    return oracle_fi(profile.with_count(level - 1, b), level)


def as_multiset(terms):
    return Counter((t.word, t.target) if isinstance(t, SymbolicTerm) else tuple(t)
                   for t in terms)


PROFILES = [
    (2, (0, 1)),
    (2, (0, 3)),
    (3, (0, 2, 1)),
    (3, (0, 1, 2)),
    (3, (0, 0, 2)),
    (3, (0, 2, 0)),
    (4, (0, 1, 1, 1)),
    (4, (0, 2, 0, 1)),
    (4, (0, 0, 2, 1)),
    (4, (0, 1, 0, 2)),
]


@pytest.mark.parametrize("r,counts", PROFILES)
def test_expand_fi_matches_recursive_definition(r, counts):
    profile = LayerProfile(r, counts)
    low = profile.lowest_layer() or r
    l = min(low + 1, r)
    assert as_multiset(expand_fi(l, profile)) == as_multiset(oracle_fi(profile, l))


@pytest.mark.parametrize("r,counts", PROFILES)
def test_expand_f_matches_recursive_definition(r, counts):
    profile = LayerProfile(r, counts)
    low = profile.lowest_layer() or r
    l = min(low + 1, r)
    assert as_multiset(expand_f(l, profile)) == as_multiset(oracle_f(profile, l))


@pytest.mark.parametrize("r,counts", PROFILES)
def test_recursions_match_the_oracles(r, counts):
    # the recursion the exact soundness check compares against, read
    # abstractly, is the oracle's recursion
    profile = LayerProfile(r, counts)
    low = profile.lowest_layer() or r
    l = min(low + 1, r)
    assert as_multiset(_recursive_fi(ABSTRACT, l, profile, None)) == as_multiset(
        oracle_fi(profile, l)
    )
    assert as_multiset(_recursive_f(ABSTRACT, l, profile)) == as_multiset(
        oracle_f(profile, l)
    )


def test_expand_fi_single_layer_example():
    # two terms when one lowest-layer letter sits under a top block
    profile = LayerProfile(3, (0, 1, 2))
    terms = expand_fi(3, profile)
    families = Counter(t.family for t in terms)
    assert families == {"fi-V": 1, "fi-data": 1}


def test_expand_fi_base_case_is_single_data_word():
    profile = LayerProfile(3, (0, 0, 2))
    terms = expand_fi(3, profile)
    assert len(terms) == 1 and terms[0].target == "fi"
    assert terms[0].word == (Letter(3, 2), Letter(3, 1))


def test_expand_f_single_layer_example():
    # data word, one commutator term with a horizontal letter, one flux word
    profile = LayerProfile(3, (0, 1, 2))
    terms = expand_f(3, profile)
    assert len(terms) == 3
    by_family = {t.family: t for t in terms}
    assert set(by_family) == {"f-data", "P1", "f-fi-data"}
    assert by_family["P1"].word[0] == Letter(3)
    assert by_family["P1"].word[1] == Letter(1)


def test_expand_f_term_count_step4():
    profile = LayerProfile(4, (0, 1, 1, 1))
    assert len(expand_f(3, profile)) == len(oracle_f(profile, 3))


# ---------------------------------------------------------------------------
# word normalization
# ---------------------------------------------------------------------------

def test_normalize_word_sorts_and_collects():
    cases = [
        # the layer-5 remainder vanishes at step 4 and survives at step 5
        ((Letter(3), Letter(2, 1), Letter(4, 1)), 4,
         (Letter(2, 1), Letter(3), Letter(4, 1)), []),
        ((Letter(3), Letter(2, 1), Letter(4, 1)), 5,
         (Letter(2, 1), Letter(3), Letter(4, 1)), [(Letter(4, 1), Letter(5))]),
        # a surviving remainder is normalized in turn
        ((Letter(2, 2), Letter(3), Letter(2, 1), Letter(3, 1)), 8,
         (Letter(2, 2), Letter(2, 1), Letter(3), Letter(3, 1)),
         [(Letter(2, 2), Letter(8)), (Letter(2, 2), Letter(3, 1), Letter(5))]),
        ((Letter(5, 1), Letter(2, 1)), 4, None, []),
    ]
    for word, r, principal, remainders in cases:
        assert normalize_word(word, r) == (principal, remainders)


def test_shift_remainders_annihilate_on_step4():
    # layer-3 letter over layer-2 block: remainders carry layer 5 > 4
    word = (Letter(2, 2), Letter(3), Letter(2, 1), Letter(3, 1))
    principal = (Letter(2, 2), Letter(2, 1), Letter(3), Letter(3, 1))
    assert normalize_word(word, 4) == (principal, [])
    # one layer more and the same swap leaves its layer-5 remainder
    assert normalize_word(word, 5) == (
        principal, [(Letter(2, 2), Letter(3, 1), Letter(5))])


def _is_sublist(short, long):
    rest = iter(long)
    return all(any(x == y for y in rest) for x in short)


@pytest.mark.parametrize("name", ["free:2,3", "free:2,4", "free:3,3", "engel"])
def test_exact_normalization_is_an_identity_on_the_abstract_words(name):
    spec = resolve_group(name)
    ctx = ExactContext(spec, SystemCoefficients.identity(1, spec.m))
    rng = random.Random(f"normalize:{name}")
    for _ in range(60):
        u = _rand_poly(spec, rng, degree=5, terms=6)
        sites = [(rng.randint(1, spec.r), rng.randint(1, 3))
                 for _ in range(rng.randint(2, 5))]
        word = tuple(ctx.letter(layer, pos) for layer, pos in sites)
        principal, remainders = normalize_word(word, spec.r, ctx)
        normalized = ([] if principal is None else [principal]) + remainders
        total = PolyFunction.zero()
        for w in normalized:
            total = total + ctx.apply(w, u)
        assert total == ctx.apply(word, u)

        principal, remainders = normalize_word([Letter(*s) for s in sites], spec.r)
        abstract = [[let.layer for let in w] for w in [principal] + remainders]
        exact = [[ctx.layer(e) for e in w] for w in normalized]
        if name == "engel":  # some brackets vanish there
            assert _is_sublist(exact, abstract)
        else:
            assert exact == abstract


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_case_i():
    profile = LayerProfile(3, (0, 2, 1))
    term = SymbolicTerm((Letter(2, 1), Letter(3), Letter(3, 1)), "u", "V", "P1")
    succ, tag = classify_successor(profile, term)
    assert tag == "case-i"
    assert succ.counts == (0, 1, 2)


def test_classify_case_ii():
    profile = LayerProfile(4, (0, 1, 1, 1))
    term = SymbolicTerm((Letter(2, 1), Letter(4), Letter(4, 1)), "u", "V", "fi-T")
    succ, tag = classify_successor(profile, term)
    assert tag == "case-ii"
    assert succ.counts == (0, 1, 0, 2)


def test_classify_total_decrease_for_remainder():
    profile = LayerProfile(3, (0, 2, 1))
    term = SymbolicTerm(
        (Letter(3), Letter(3, 1)), "u", "commutator-remainder", "L4-shift"
    )
    succ, tag = classify_successor(profile, term)
    assert tag == "total-decrease"


def test_classify_failure_on_growth():
    profile = LayerProfile(3, (0, 1, 0))
    term = SymbolicTerm((Letter(2, 1), Letter(2, 2), Letter(3, 1)), "u", "V", "P1")
    with pytest.raises(ClassificationFailure):
        classify_successor(profile, term)


def test_classify_absorbs_one_leading_horizontal():
    profile = LayerProfile(3, (0, 2, 1))
    term = SymbolicTerm(
        (Letter(1), Letter(2, 1), Letter(3), Letter(3, 1)), "u", "V", "P2"
    )
    succ, tag = classify_successor(profile, term)
    assert succ.counts == (0, 1, 2)


# ---------------------------------------------------------------------------
# steps and the reduction driver
# ---------------------------------------------------------------------------

def test_t2_step_reduces_lowest_layer():
    profile = LayerProfile(3, (0, 1, 2))
    successors, certificate = t2_step(profile)
    assert certificate["ok"]
    for s in successors:
        assert s.profile.count(2) == 0
        assert s.profile.total() <= profile.total()


def test_t2_step_certificate_on_step3():
    profile = LayerProfile(3, (0, 2, 1))
    successors, certificate = t2_step(profile)
    assert all(chk["ok"] for chk in certificate["checks"])
    ws = {s.profile.w_measure() for s in successors}
    assert max(ws) < profile.w_measure()


def test_t2_step_rejects_middle_mass():
    with pytest.raises(ValueError):
        t2_step(LayerProfile(4, (0, 1, 1, 1)))


def test_reduce_zero_profile_empty_trace():
    trace = reduce_to_base(LayerProfile(3, (0, 0, 0)))
    assert len(trace) == 0


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_reduce_step2_top_layer_strips(n):
    trace = reduce_to_base(LayerProfile(2, (0, n)))
    assert len(trace) <= n
    assert all(step.rule == "A" for step in trace.steps)


def test_reduce_step4_example_profile():
    profile = LayerProfile(4, (0, 1, 1, 1))
    trace = reduce_to_base(profile)
    assert len(trace) <= profile.w_measure() == 6
    for step in trace.steps:
        assert step.w_out < step.w_in
    last = trace.steps[-1]
    assert min(p.w_measure() for p in last.out_profiles) == 0


def test_reduce_rejects_horizontal_mass():
    with pytest.raises(ValueError):
        reduce_to_base(LayerProfile(3, (1, 1, 0)))


def test_trace_json_round_trip_and_replay():
    trace = reduce_to_base(LayerProfile(4, (0, 2, 1, 0)))
    data = json.loads(json.dumps(trace.to_json()))
    back = ReductionTrace.from_json(data)
    assert back.replay()
    assert [s.rule for s in back.steps] == [s.rule for s in trace.steps]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_termination_sweep_small(r):
    report = termination_sweep(r, 3)
    assert report["classification_failures"] == 0
    assert report["w_violations"] == 0
    assert report["profiles"] > 0


# sha256 of the JSON traces of every profile swept at r = 2, 3, 4 and
# total <= 6 (116 profiles), rule labels included
SWEEP_TRACES_SHA256 = "59860b361a7eb38dd8d31024d091bf295781eb9666c03aeee9f84e2c4721d21d"


def test_sweep_traces_pinned():
    traces = []
    for r in (2, 3, 4):
        for counts in itertools.product(range(7), repeat=r - 1):
            if 0 < sum(counts) <= 6:
                traces.append(reduce_to_base(LayerProfile(r, (0,) + counts)).to_json())
    assert len(traces) == 116
    rules = {step["rule"] for trace in traces for step in trace["steps"]}
    assert any(rule.startswith("T1-") for rule in rules)
    blob = json.dumps(traces, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SWEEP_TRACES_SHA256


def test_w_measure_values():
    assert LayerProfile(4, (0, 1, 1, 1)).w_measure() == 3 + 2 + 1
    assert LayerProfile(2, (0, 5)).w_measure() == 5
    assert LayerProfile(3, (0, 0, 0)).w_measure() == 0


# ---------------------------------------------------------------------------
# the step-4 ordering obstruction
# ---------------------------------------------------------------------------

def test_obstruction_directions():
    report = naive_order_obstruction()
    verdicts = {tuple(c["direction"]): c["obstruction"] for c in report["cases"]}
    assert verdicts == {(2, 1): True, (3, 1): False, (4, 1): False}
    assert report["obstructed_directions"] == [[2, 1]]


def test_obstruction_term_profile():
    report = naive_order_obstruction()
    worst = next(c for c in report["cases"] if c["obstruction"])
    assert worst["profile"] == [0, 1, 0, 2]
    # the term is smaller in W; the failure is the lowest-layer count
    assert worst["W"] < report["target_W"]


# ---------------------------------------------------------------------------
# exact soundness
# ---------------------------------------------------------------------------

def _rand_poly(spec, rng, degree, terms):
    out = PolyFunction.zero()
    for _ in range(terms):
        piece = PolyFunction.constant(Fraction(rng.randint(1, 3)))
        for _ in range(rng.randint(1, degree)):
            piece = piece * PolyFunction.variable(
                spec.basis[rng.randrange(len(spec.basis))]
            )
        out = out + piece
    return out


def test_shift_identity_on_product_polynomial(heis):
    u = PolyFunction.variable((1, 1)) * PolyFunction.variable((1, 2))
    res = verify_rewrite_identity(heis, "shift", u, shift_params=(0, 1, 2))
    assert res["ok"]


def test_identity_trivial_on_constants(free23):
    u = PolyFunction.constant(7)
    res = verify_rewrite_identity(
        free23, "expand_f", u, profile=LayerProfile(3, (0, 1, 1)), l=3
    )
    assert res["ok"] and res["lhs_terms"] == 0


def test_full_expansion_identity_step3(free23):
    rng = random.Random(23)
    u = _rand_poly(free23, rng, degree=4, terms=8)
    f = _rand_poly(free23, rng, degree=3, terms=3)
    f_i = [_rand_poly(free23, rng, degree=3, terms=3) for _ in range(free23.m)]
    res = verify_rewrite_identity(
        free23, "expand_f", u, f=f, f_i=f_i, profile=LayerProfile(3, (0, 2, 1)), l=3
    )
    assert res["ok"]


def test_identity_with_general_coefficients(free24):
    coeffs = SystemCoefficients([[[[2, Fraction(1, 2)], [Fraction(1, 3), 1]]]])
    # survives the whole word: one variable per differentiated layer
    u = (
        PolyFunction.variable((4, 1))
        * PolyFunction.variable((3, 1))
        * PolyFunction.variable((2, 1))
        * PolyFunction.variable((1, 1)) ** 2
    )
    res = verify_rewrite_identity(
        free24,
        "expand_fi",
        u,
        A=coeffs,
        profile=LayerProfile(4, (0, 2, 0, 1)),
        l=3,
    )
    assert res["ok"] and res["lhs_terms"] > 0


def test_randomized_identities_are_nontrivial(free24):
    rng = random.Random(99)
    nontrivial = 0
    for _ in range(10):
        u = _rand_poly(free24, rng, degree=6, terms=8)
        res = verify_rewrite_identity(
            free24, "expand_f", u, profile=LayerProfile(4, (0, 0, 2, 1)), l=4
        )
        assert res["ok"]
        nontrivial += res["lhs_terms"] > 0
    assert nontrivial >= 5


def test_step3_trace_matches_hand_computation():
    # profile (h2, h3) = (2, 1): the first step peels one layer-2 letter;
    # the expansions contribute, with and without one extra derivative from
    # layers 2 and 3, exactly the profiles below (worked out by hand)
    profile = LayerProfile(3, (0, 2, 1))
    trace = reduce_to_base(profile)
    first = trace.steps[0]
    assert first.w_in == 5
    out = {p.counts for p in first.out_profiles}
    assert out == {(0, 1, 1), (0, 0, 2), (0, 1, 2), (0, 0, 3)}
    assert first.w_out == 4  # binding successor (0, 1, 2)
    chain = [tuple(s.in_profile.counts) for s in trace.steps]
    assert chain == [(0, 2, 1), (0, 1, 2), (0, 0, 2), (0, 0, 1)]
    assert [s.rule for s in trace.steps][1:] == ["T2", "A", "A"]


def test_lowest_at_top_minus_one_routes_through_two_layer_step():
    # mass only in the next-to-top layer: still the two-layer machinery
    profile = LayerProfile(4, (0, 0, 2, 0))
    successors, certificate = t2_step(profile)
    assert certificate["ok"]
    out = {s.profile.counts for s in successors}
    assert (0, 0, 1, 0) in out           # peeled word
    assert all(p[2] <= 1 for p in out)   # lowest-layer count dropped


# ---------------------------------------------------------------------------
# the certified words are the verified words
# ---------------------------------------------------------------------------

def _reading(term):
    """A term read as its layer sequence; collapsed exact letters are
    homogeneous, so they read as their one layer."""
    layers = []
    for letter in term.word:
        if isinstance(letter, Letter):
            layers.append(letter.layer)
        else:
            (layer,) = letter.layers()
            layers.append(layer)
    return tuple(layers), term.target, term.family


@pytest.mark.parametrize(
    "m,r,counts,l",
    [
        (2, 3, (0, 2, 1), 3),
        (2, 3, (0, 1, 2), 3),
        (2, 4, (0, 1, 1, 1), 3),
        (2, 4, (0, 2, 0, 1), 3),
        (2, 4, (0, 0, 2, 1), 4),
    ],
)
def test_exact_words_read_as_the_abstract_words(m, r, counts, l):
    spec = build_free_nilpotent(m, r)
    general = SystemCoefficients([[[[2, Fraction(1, 2)], [Fraction(1, 3), 1]]]])
    profile = LayerProfile(r, counts)
    for A in (SystemCoefficients.identity(1, m), general):
        ctx = ExactContext(spec, A)
        for expand in (expand_fi, expand_f):
            abstract = [_reading(t) for t in expand(l, profile)]
            exact = expand(l, profile, ctx)
            # the source-side data word belongs to no slot and comes once
            shared = [a for a in abstract if a[1] == "f"]
            assert [_reading(t) for t in exact if t.slot is None] == shared
            for slot in ctx.slots:
                words = [_reading(t) for t in exact if t.slot == slot]
                assert words == [a for a in abstract if a[1] != "f"]
