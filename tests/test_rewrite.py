import dataclasses
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from carnot import rewrite
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
    TraceStep,
    classify_successor,
    expand_f,
    expand_fi,
    naive_order_obstruction,
    normalize_word,
    reduce_to_base,
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
    term = SymbolicTerm((Letter(2, 1), Letter(3), Letter(3, 1)), "u", "P1")
    succ, tag = classify_successor(profile, term)
    assert tag == "case-i"
    assert succ.counts == (0, 1, 2)


def test_classify_case_ii():
    profile = LayerProfile(4, (0, 1, 1, 1))
    term = SymbolicTerm((Letter(2, 1), Letter(4), Letter(4, 1)), "u", "fi-T")
    succ, tag = classify_successor(profile, term)
    assert tag == "case-ii"
    assert succ.counts == (0, 1, 0, 2)


def test_classify_total_decrease_for_remainder():
    profile = LayerProfile(3, (0, 2, 1))
    term = SymbolicTerm(
        (Letter(3), Letter(3, 1)), "u", "L4-shift"
    )
    succ, tag = classify_successor(profile, term)
    assert tag == "total-decrease"


def test_classify_failure_on_growth():
    profile = LayerProfile(3, (0, 1, 0))
    term = SymbolicTerm((Letter(2, 1), Letter(2, 2), Letter(3, 1)), "u", "P1")
    with pytest.raises(ClassificationFailure):
        classify_successor(profile, term)


def test_classify_absorbs_one_leading_horizontal():
    profile = LayerProfile(3, (0, 2, 1))
    term = SymbolicTerm(
        (Letter(1), Letter(2, 1), Letter(3), Letter(3, 1)), "u", "P2"
    )
    succ, tag = classify_successor(profile, term)
    assert succ.counts == (0, 1, 2)


# ---------------------------------------------------------------------------
# steps and the reduction driver
# ---------------------------------------------------------------------------

def test_two_layer_step_reduces_lowest_layer():
    profile = LayerProfile(3, (0, 1, 2))
    step = rewrite._step(profile)
    assert step.rule == "T2" and step.out_profiles
    for p in step.out_profiles:
        assert p.count(2) == 0
        assert p.total() <= profile.total()


def test_two_layer_step_certificate_on_step3():
    # every successor lost a layer-2 letter and kept its layer-3 mass
    profile = LayerProfile(3, (0, 2, 1))
    step = rewrite._step(profile)
    assert step.rule == "T2"
    for p in step.out_profiles:
        assert p.count(2) <= 1 and p.count(3) >= 1
        assert p.total() <= profile.total()
    assert step.w_out == max(p.w_measure() for p in step.out_profiles) < profile.w_measure()


@pytest.mark.parametrize("counts,rule", [
    ((0, 1, 1, 1), "T1-P2"),    # middle mass: the rule of the chosen expansion
    ((0, 2, 1), "T2"),
    ((0, 0, 2, 0), "T2"),
])
def test_only_two_layer_profiles_take_t2(counts, rule):
    assert rewrite._step(LayerProfile(len(counts), counts)).rule == rule


@pytest.mark.parametrize("counts", [
    (0, 2, 1),    # keeps every lowest-layer letter
    (0, 1, 0),    # loses a top-layer letter
    (0, 1, 3),    # grows in total
])
def test_two_layer_step_refuses_a_successor_outside_the_certificate(monkeypatch, counts):
    profile = LayerProfile(3, (0, 2, 1))
    bad = rewrite.Successor(LayerProfile(3, counts), "energy")
    monkeypatch.setattr(rewrite, "_expansion_successors", lambda p: [bad])
    with pytest.raises(ClassificationFailure, match="two-layer certificate"):
        rewrite._step(profile)


def test_a_classification_failure_in_the_stream_wins_over_a_two_layer_misfit(monkeypatch):
    profile = LayerProfile(3, (0, 2, 1))
    failure = ClassificationFailure(profile, LayerProfile(3, (0, 3, 1)), None, "grew")

    def successors(p):
        yield rewrite.Successor(LayerProfile(3, (0, 2, 1)), "energy")   # a misfit
        raise failure

    monkeypatch.setattr(rewrite, "_expansion_successors", successors)
    with pytest.raises(ClassificationFailure) as failed:
        rewrite._step(profile)
    assert failed.value is failure


def test_reduce_zero_profile_empty_trace():
    trace = reduce_to_base(LayerProfile(3, (0, 0, 0)))
    assert len(trace.steps) == 0


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_reduce_step2_top_layer_strips(n):
    trace = reduce_to_base(LayerProfile(2, (0, n)))
    assert len(trace.steps) <= n
    assert all(step.rule == "A" for step in trace.steps)


def test_reduce_step4_example_profile():
    profile = LayerProfile(4, (0, 1, 1, 1))
    trace = reduce_to_base(profile)
    assert len(trace.steps) <= profile.w_measure() == 6
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


@pytest.mark.parametrize("tamper", [
    lambda d: d.update(steps=d["steps"][:2] + d["steps"][3:]),
    lambda d: d["steps"][0].update(rule="A"),
    lambda d: d.update(steps=d["steps"][:-2]),
    lambda d: d.update(initial=[0, 3, 0, 0]),
    lambda d: d.update(steps=[]),
], ids=["step-dropped", "rule-changed", "tail-cut", "initial-changed", "no-steps"])
def test_replay_rejects_tampered_trace(tamper):
    trace = reduce_to_base(LayerProfile(4, (0, 2, 1, 0)))
    assert [s.rule for s in trace.steps] == ["T1-P2", "T2", "T1-P2", "T2", "A", "A"]
    data = json.loads(json.dumps(trace.to_json()))
    tamper(data)
    assert not ReductionTrace.from_json(data).replay()


def test_replay_rejects_a_trace_of_an_unclassifiable_profile():
    profile = LayerProfile(5, (0, 1, 1, 0, 0))
    with pytest.raises(ClassificationFailure):
        reduce_to_base(profile)
    zero = LayerProfile(5, (0,) * 5)
    forged = ReductionTrace(profile, [TraceStep("T1-P2", profile, (zero,), 7, 0)])
    assert not forged.replay()


def test_termination_sweep_counts_unclassified_profiles():
    # from step 5 some profiles fit no case of the table; each is counted
    report = termination_sweep(5, 4)
    assert report["profiles"] == 69
    assert report["classification_failures"] == 25
    assert report["w_violations"] == 0


@pytest.mark.parametrize("r", [2, 3, 4])
def test_termination_sweep_small(r):
    report = termination_sweep(r, 3)
    assert report["classification_failures"] == 0
    assert report["w_violations"] == 0
    assert report["profiles"] > 0


def _sweep_oracle(r, max_total):
    """The sweep as a reduction from every start profile, each failure of
    the chain counted once."""
    report = {"r": r, "max_total": max_total, "profiles": 0, "max_trace": 0,
              "classification_failures": 0, "w_violations": 0}
    for counts in itertools.product(range(max_total + 1), repeat=r - 1):
        if not 0 < sum(counts) <= max_total:
            continue
        report["profiles"] += 1
        try:
            trace = reduce_to_base(LayerProfile(r, (0,) + counts))
        except ClassificationFailure:
            report["classification_failures"] += 1
            continue
        report["max_trace"] = max(report["max_trace"], len(trace.steps))
    return report


@pytest.mark.parametrize("r, max_total", [(2, 6), (3, 6), (4, 6), (5, 4), (6, 3)])
def test_termination_sweep_matches_per_profile_reduction(monkeypatch, r, max_total):
    want = _sweep_oracle(r, max_total)
    expanded = []
    expand = rewrite._expansion_successors

    def counting(profile):
        expanded.append(profile)
        return expand(profile)

    monkeypatch.setattr(rewrite, "_expansion_successors", counting)
    report = termination_sweep(r, max_total)
    assert report == want
    # each profile is expanded at most once; the max_total profiles with
    # letters in the top layer only drop one top letter and expand nothing
    assert len(set(expanded)) == len(expanded)
    assert len(expanded) + max_total == report["profiles"]


@pytest.mark.parametrize("r, max_total", [(2, 6), (4, 6), (7, 3), (20, 2)])
def test_termination_sweep_domain_size(r, max_total):
    # one profile per nonempty multiset of at most max_total layers in 2..r
    report = termination_sweep(r, max_total)
    assert report["profiles"] == math.comb(max_total + r - 1, r - 1) - 1


def test_termination_sweep_refuses_a_domain_over_the_byte_limit(monkeypatch):
    def enumerated(*args):
        raise AssertionError("the domain was enumerated")

    monkeypatch.setattr(rewrite.itertools, "combinations_with_replacement", enumerated)
    with pytest.raises(ValueError, match=r"step 12 to total 14 has 4,457,399 profiles"):
        termination_sweep(12, 14)
    with pytest.raises(ValueError, match=r"has over 18,446,744,073,709,551,616 profiles"):
        termination_sweep(10 ** 9, 10 ** 9)
    monkeypatch.undo()
    # (3, 4) has 14 profiles: a limit of exactly their bytes holds them
    monkeypatch.setattr(rewrite, "SWEEP_BYTE_LIMIT", 14 * rewrite.SWEEP_BYTES_PER_PROFILE)
    assert termination_sweep(3, 4)["profiles"] == 14
    monkeypatch.setattr(rewrite, "SWEEP_BYTE_LIMIT", 14 * rewrite.SWEEP_BYTES_PER_PROFILE - 1)
    with pytest.raises(ValueError, match="has 14 profiles"):
        termination_sweep(3, 4)


def test_termination_sweep_counts_chains_through_a_w_violation(monkeypatch):
    # a step on which W does not drop breaks every chain through it, once each
    stalled = LayerProfile(3, (0, 0, 1))
    starts = [
        LayerProfile(3, (0, a, b)) for a in range(3) for b in range(3) if 0 < a + b <= 2
    ]
    through = sum(
        stalled in [s.in_profile for s in reduce_to_base(p).steps] for p in starts
    )
    step = rewrite._step

    def stalling(profile):
        s = step(profile)
        return dataclasses.replace(s, w_out=s.w_in) if profile == stalled else s

    monkeypatch.setattr(rewrite, "_step", stalling)
    report = termination_sweep(3, 2)
    assert report["profiles"] == len(starts)
    assert report["w_violations"] == through > 0
    assert report["classification_failures"] == 0
    with pytest.raises(ClassificationFailure, match="W did not decrease"):
        reduce_to_base(stalled)


@pytest.mark.parametrize("r, max_total, moves", [
    (5, 6, {(3, 5): 70}),
    (6, 5, {(3, 5): 56, (4, 6): 70}),
    (7, 5, {(3, 5): 84, (4, 6): 112, (5, 7): 105}),
])
def test_certified_steps_give_the_move_of_each_failing_step(r, max_total, moves):
    # each profile whose own step fails has one successor, at equal total,
    # that moved one letter from a layer above the lowest two layers up
    seen = Counter()
    for profile, step in rewrite.certified_steps(r, max_total):
        if isinstance(step, ClassificationFailure):
            assert step.profile == profile
            assert step.detail == "equal total, no admissible case"
            delta = [b - a for a, b in zip(profile.counts, step.successor.counts)]
            assert sorted(delta) == [-1] + [0] * (r - 2) + [1]
            seen[delta.index(-1) + 1, delta.index(1) + 1] += 1
    assert seen == moves


def test_certified_steps_refuse_at_the_call_and_stream_in_ascending_w():
    with pytest.raises(ValueError, match="the step must be at least 2, got 1"):
        rewrite.certified_steps(1, 3)
    with pytest.raises(ValueError, match="has over 18,446,744,073,709,551,616 profiles"):
        rewrite.certified_steps(10 ** 9, 10 ** 9)
    streamed = list(rewrite.certified_steps(4, 4))
    assert len(streamed) == math.comb(4 + 3, 3) - 1
    ws = [profile.w_measure() for profile, _ in streamed]
    assert ws == sorted(ws)
    assert all(step == rewrite._step(profile) for profile, step in streamed)


def test_a_failure_names_the_profile_the_successor_its_word_and_the_reason():
    with pytest.raises(ClassificationFailure) as failed:
        reduce_to_base(LayerProfile(5, (0, 1, 1, 0, 0)))
    failure = failed.value
    assert failure.profile == LayerProfile(5, (0, 1, 1, 0, 0))
    assert failure.successor == LayerProfile(5, (0, 1, 0, 0, 1))
    assert failure.word == SymbolicTerm((Letter(2), Letter(5)), "u", "L4-shift")
    assert str(failure) == (
        "unclassifiable successor P[0, 1, 0, 0, 1] by <L4-shift: X^2·X^5 u> from "
        "P[0, 1, 1, 0, 0]: equal total, no admissible case")


def test_two_layer_and_w_failures_keep_the_successor_and_its_word(monkeypatch):
    profile = LayerProfile(3, (0, 2, 1))
    term = SymbolicTerm((Letter(2, 1),), "u", "P4")  # lost the top-layer letter
    bad = rewrite.Successor(LayerProfile(3, (0, 1, 0)), "T1-P4", term)
    monkeypatch.setattr(rewrite, "_expansion_successors", lambda p: [bad])
    with pytest.raises(ClassificationFailure, match="two-layer certificate") as failed:
        rewrite._step(profile)
    assert (failed.value.successor, failed.value.word) == (bad.profile, term)
    monkeypatch.undo()
    step = rewrite._step
    monkeypatch.setattr(rewrite, "_step", lambda p: dataclasses.replace(step(p), w_out=7))
    with pytest.raises(ClassificationFailure) as failed:
        reduce_to_base(profile)
    assert (failed.value.successor, failed.value.word) == (step(profile).out_profiles[0], None)
    assert str(failed.value).endswith("from P[0, 2, 1]: W did not decrease: 5 to 7")


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
    step = rewrite._step(profile)
    assert step.rule == "T2"
    out = {p.counts for p in step.out_profiles}
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
