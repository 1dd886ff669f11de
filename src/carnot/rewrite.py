"""Derivative-word rewriting with a machine-checkable termination certificate.

Words are noncommutative products of layered derivative letters applied to
the solution ``u`` or to the data ``f``, ``f_i``.  Differentiating the
system converts lowest-layer letters into collapsed commutator letters one
layer up; the engine expands those inhomogeneous terms in closed form,
normalizes words by shifting commutator letters into layer order, and
certifies that the measure ``W = sum_k (r + 1 - k) h_k`` strictly drops at
every step until all letter counts reach zero.

One generator writes the closed-form expansion, one the recursive
definition it replaces, and :func:`normalize_word` the commutator swap
``ab = ba + [a, b]``, each once, for two letter interpretations.  The
abstract one tracks letters and layer profiles only (collapsed commutator
letters carry just their layer); its words are the ones the certificate
classifies.  The exact one (:class:`ExactContext`) instantiates every
letter as an algebra element; the soundness check compares both
generators' words, and a word against its normalized form, as operator
identities on polynomials.  So the certified words are the verified words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import AlgebraElement, bracket
from .fields import SystemCoefficients, field_of_element
from .poly import PolyFunction


class RewriteError(Exception):
    pass


class ClassificationFailure(RewriteError):
    """A produced term fits none of the admissible bookkeeping cases."""

    def __init__(self, profile, term, detail=""):
        super().__init__(f"unclassifiable term {term} from {profile}: {detail}")
        self.profile = profile
        self.term = term


class DepthExceeded(RewriteError):
    pass


# ---------------------------------------------------------------------------
# letters, words, profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Letter:
    """A derivative letter; ``index == 0`` marks a collapsed commutator
    letter (or an index left unspecified), known only by its layer."""

    layer: int
    index: int = 0

    def __repr__(self):
        if self.index == 0:
            return f"X^{self.layer}"
        return f"X({self.layer},{self.index})"


Word = tuple  # tuple[Letter, ...]; leftmost letter is applied last


def word_str(word) -> str:
    return "·".join(repr(let) for let in word) if word else "1"


@dataclass(frozen=True)
class SymbolicTerm:
    word: Word
    target: str  # "u" | "f" | "fi"
    kind: str    # "V" | "f-term" | "fi-term" | "commutator-remainder"
    family: str
    slot: object = None  # index i of Y_i and f_i; None outside any slot

    def __repr__(self):
        return f"<{self.family}: {word_str(self.word)} {self.target}>"


class LayerProfile:
    """Per-layer letter counts ``h_1..h_r`` with the termination measure W."""

    __slots__ = ("r", "counts")

    def __init__(self, r, counts):
        counts = tuple(int(c) for c in counts)
        if len(counts) != r:
            raise ValueError(f"need {r} layer counts, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ValueError("negative layer count")
        self.r = r
        self.counts = counts

    def count(self, layer):
        return self.counts[layer - 1]

    def with_count(self, layer, value):
        counts = list(self.counts)
        counts[layer - 1] = value
        return LayerProfile(self.r, counts)

    def total(self):
        return sum(self.counts)

    def w_measure(self):
        return sum((self.r + 1 - k) * c for k, c in enumerate(self.counts, start=1))

    def lowest_layer(self):
        for k, c in enumerate(self.counts, start=1):
            if c:
                return k
        return None

    def is_zero(self):
        return not any(self.counts)

    def only_top_layer(self):
        return not any(self.counts[:-1]) and self.counts[-1] > 0

    def middle_is_empty(self):
        low = self.lowest_layer()
        if low is None or low == self.r:
            return True
        return not any(self.counts[low: self.r - 1])

    def __eq__(self, other):
        return (
            isinstance(other, LayerProfile)
            and self.r == other.r
            and self.counts == other.counts
        )

    def __hash__(self):
        return hash((self.r, self.counts))

    def __repr__(self):
        return f"P{list(self.counts)}"


def word_profile(word, r) -> LayerProfile:
    """Letter counts of a word; valid only for words within the step."""
    counts = [0] * r
    for let in word:
        if let.layer > r:
            raise ValueError("word contains an annihilated letter")
        counts[let.layer - 1] += 1
    return LayerProfile(r, counts)


# ---------------------------------------------------------------------------
# closed-form expansion of the inhomogeneous terms
# ---------------------------------------------------------------------------
#
# The closed form, the recursive definition and the word normalization are
# written once, over a letter interpretation that answers six questions:
# which letter sits at (layer, position), what a consumed letter collapses
# into on the flux side and on the source side, what the extra horizontal
# letter is, which slots (the index i of Y_i and f_i) there are, which layer
# a letter lies in, and what two swapped letters merge into.  Positions
# count from the bottom of a layer's block; words are written top-down.

class AbstractLetters:
    """Letters known by layer and position; collapsed letters only by
    their layer; a single anonymous slot."""

    slots = (None,)

    def letter(self, layer, pos):
        return Letter(layer, pos)

    def flux(self, layer, pos, slot):
        return Letter(layer + 1)

    source = flux

    def horizontal(self, slot):
        return Letter(1)

    def layer(self, letter):
        return letter.layer

    def merge(self, a, b):
        return Letter(a.layer + b.layer)


ABSTRACT = AbstractLetters()


def _block(letters, layer, top, bottom=0):
    """Letters of one layer at positions ``top`` down to ``bottom + 1``."""
    return tuple(letters.letter(layer, pos) for pos in range(top, bottom, -1))


def _stack(letters, profile, from_layer, to_layer):
    """The full blocks of layers ``from_layer..to_layer``, in word order."""
    out = ()
    for k in range(from_layer, to_layer + 1):
        out += _block(letters, k, profile.count(k))
    return out


def _prefixed(head, term, family=None):
    return SymbolicTerm(
        head + term.word, term.target, term.kind, family or term.family, term.slot
    )


def _collapse_sites(letters, l, profile):
    """Every letter of layers ``l-1..r-1`` that can collapse one layer up.

    Yields ``(s, k, head, tail)``: the consumed letter sits at position
    ``k + 1`` of layer ``s - 1``; ``head`` and ``tail`` are the words
    before and after it.
    """
    r = profile.r
    for s in range(l, r + 1):
        h = profile.count(s - 1)
        prefix = _stack(letters, profile, l - 1, s - 2)
        for k in range(h - 1, -1, -1):
            head = prefix + _block(letters, s - 1, h, k + 1)
            tail = _block(letters, s - 1, k) + _stack(letters, profile, s, r)
            yield s, k, head, tail


def _closed_fi(letters, l, profile, slot):
    """Closed form of the flux-side term for one slot: the lowest-layer
    collapse family, one insertion family per higher layer that still
    carries letters, and a single pure-data word."""
    terms = []
    for s, k, head, tail in _collapse_sites(letters, l, profile):
        word = head + (letters.flux(s - 1, k + 1, slot),) + tail
        family = "fi-V" if s == l else "fi-T"
        terms.append(SymbolicTerm(word, "u", "V", family, slot))
    data = _stack(letters, profile, l - 1, profile.r)
    terms.append(SymbolicTerm(data, "fi", "fi-term", "fi-data", slot))
    return terms


def expand_fi(l, profile, letters=ABSTRACT):
    """Closed-form expansion of the flux-side inhomogeneous term.

    ``profile`` carries the letter counts, with ``profile.count(l-1)`` the
    number of lowest-layer derivatives already applied.  Returns the terms
    of every slot of the interpretation, slot by slot.
    """
    return [t for slot in letters.slots for t in _closed_fi(letters, l, profile, slot)]


_INNER_FAMILY = {
    # outer level-l branch          # outer insertion branch
    "fi-V": {"l": "P3", "s": "P5"},
    "fi-T": {"l": "P4", "s": "P6"},
    "fi-data": {"l": "f-fi-data", "s": "f-fi-data"},
}


def expand_f(l, profile, letters=ABSTRACT):
    """Closed-form expansion of the source-side inhomogeneous term.

    Substitutes the flux-side expansion into its own recursion, producing
    the data word and the six structural families P1..P6: a collapse with
    the extra horizontal letter (P1 at the lowest layer, P2 above), then
    the flux-side terms behind each collapse (P5/P6 above, P3/P4 last).
    """
    data = _stack(letters, profile, l - 1, profile.r)
    terms = [SymbolicTerm(data, "f", "f-term", "f-data")]
    lowest = []
    for slot in letters.slots:
        for s, k, head, tail in _collapse_sites(letters, l, profile):
            head += (letters.source(s - 1, k + 1, slot),)
            word = head + (letters.horizontal(slot),) + tail
            terms.append(SymbolicTerm(word, "u", "V", "P1" if s == l else "P2", slot))
            side = "l" if s == l else "s"
            (lowest if s == l else terms).extend(
                _prefixed(head, t, _INNER_FAMILY[t.family][side])
                for t in _closed_fi(letters, s, profile.with_count(s - 1, k), slot)
            )
    return terms + lowest


def _recursive_fi(letters, l, profile, slot):
    """The recursive definition of the flux-side term, unrolled for one
    slot: at count b, the collapse of the b-th letter over the one-shorter
    word plus that letter applied to the term at count b - 1; at count
    zero, the term rebased one layer up, ending in a word on the data."""
    r = profile.r

    def rec(level, b):
        if b == 0:
            if level == r:
                data = _stack(letters, profile, r, r)
                return [SymbolicTerm(data, "fi", "fi-term", "recursion", slot)]
            return rec(level + 1, profile.count(level))
        rest = _block(letters, level - 1, b - 1) + _stack(letters, profile, level, r)
        collapsed = (letters.flux(level - 1, b, slot),) + rest
        terms = [SymbolicTerm(collapsed, "u", "V", "recursion", slot)]
        letter = (letters.letter(level - 1, b),)
        return terms + [_prefixed(letter, t) for t in rec(level, b - 1)]

    return rec(l, profile.count(l - 1))


def _recursive_f(letters, l, profile):
    """The recursive definition of the source-side term, unrolled."""
    r = profile.r

    def rec(level, b):
        if b == 0:
            if level == r:
                data = _stack(letters, profile, r, r)
                return [SymbolicTerm(data, "f", "f-term", "recursion")]
            return rec(level + 1, profile.count(level))
        letter = (letters.letter(level - 1, b),)
        terms = [_prefixed(letter, t) for t in rec(level, b - 1)]
        rest = _block(letters, level - 1, b - 1) + _stack(letters, profile, level, r)
        shorter = profile.with_count(level - 1, b - 1)
        for slot in letters.slots:
            collapsed = (letters.source(level - 1, b, slot),)
            word = collapsed + (letters.horizontal(slot),) + rest
            terms.append(SymbolicTerm(word, "u", "V", "recursion", slot))
            terms += [
                _prefixed(collapsed, t)
                for t in _recursive_fi(letters, level, shorter, slot)
            ]
        return terms

    return rec(l, profile.count(l - 1))


# ---------------------------------------------------------------------------
# word normalization: the one commutator swap
# ---------------------------------------------------------------------------

def normalize_word(word, r, letters=ABSTRACT):
    """Sort a word into layer order, collecting commutator remainders.

    Returns ``(principal, remainders)``: the principal word has
    non-decreasing layers; every swap of an out-of-order pair ``a b`` into
    ``b a`` spawns a remainder with ``letters.merge(a, b)`` in place of the
    pair (``ab = ba + [a, b]``), recursively normalized.  Words with a zero
    letter (layer ``None``) or a letter beyond layer ``r`` vanish; a
    vanished principal comes back as ``None``.
    """
    word = tuple(word)
    layers = tuple(letters.layer(let) for let in word)
    if any(k is None or k > r for k in layers):
        return None, []
    principal = None
    remainders = []
    # a swap permutes two layers and a merge writes one, so each word's
    # layers ride beside it instead of being read again
    stack = [(word, layers, True)]
    while stack:
        w, layers, is_principal = stack.pop()
        z = next((z for z in range(len(w) - 1) if layers[z] > layers[z + 1]), None)
        if z is None:
            if is_principal:
                principal = w
            else:
                remainders.append(w)
            continue
        a, b = w[z], w[z + 1]
        swapped = layers[:z] + (layers[z + 1], layers[z]) + layers[z + 2:]
        stack.append((w[:z] + (b, a) + w[z + 2:], swapped, is_principal))
        merged = letters.merge(a, b)
        k = letters.layer(merged)
        if k is not None and k <= r:
            merged_layers = layers[:z] + (k,) + layers[z + 2:]
            stack.append((w[:z] + (merged,) + w[z + 2:], merged_layers, False))
    return principal, remainders


def _strip_absorbed_horizontal(word):
    """Drop the single leading horizontal letter absorbed by the norm."""
    n = 0
    while n < len(word) and word[n].layer == 1:
        n += 1
    if n > 1:
        raise RewriteError(f"more than one leading horizontal letter: {word_str(word)}")
    return word[n:]


def classify_successor(profile, term):
    """Profile of a normalized solution term with its admissible case tag.

    Tags: ``total-decrease``, ``case-i`` (fewer lowest-layer letters at
    equal total) and ``case-ii`` (equal lowest count, mass moved one layer
    up somewhere above).  Raises :class:`ClassificationFailure` otherwise.
    """
    if term.target != "u":
        raise ValueError("only solution terms have successor profiles")
    word = _strip_absorbed_horizontal(term.word)
    succ = word_profile(word, profile.r)
    low = profile.lowest_layer()
    if succ.total() < profile.total():
        return succ, "total-decrease"
    if succ.total() == profile.total():
        if succ.count(low) < profile.count(low):
            return succ, "case-i"
        if succ.count(low) == profile.count(low):
            for beta in range(low + 1, profile.r):
                if succ.count(beta) < profile.count(beta) and succ.count(
                    beta + 1
                ) > profile.count(beta + 1):
                    return succ, "case-ii"
        raise ClassificationFailure(profile, term, "equal total, no admissible case")
    raise ClassificationFailure(profile, term, "total letter count grew")


# ---------------------------------------------------------------------------
# single iteration steps and the reduction driver
# ---------------------------------------------------------------------------

_RULE_OF_FAMILY = {
    "fi-V": "T1-Q2",
    "fi-T": "T1-Q1",
    "P1": "T1-P1",
    "P2": "T1-P2",
    "P3": "T1-P3",
    "P4": "T1-P4",
    "P5": "T1-P5",
    "P6": "T1-P6",
}


@dataclass(frozen=True)
class Successor:
    profile: LayerProfile
    rule: str


def _expansion_successors(profile):
    """All successor profiles of one differentiation step on ``profile``.

    The step peels one lowest-layer derivative: the remaining word is one
    such successor, and the inhomogeneous data of its system (expanded in
    closed form, with and without one more derivative from any layer at or
    above the lowest) supplies the rest.
    """
    r = profile.r
    low = profile.lowest_layer()
    c = profile.count(low)
    data_profile = profile.with_count(low, c - 1)
    succ = [Successor(data_profile, "energy")]
    l = low + 1
    raw = expand_f(l, data_profile) + expand_fi(l, data_profile)
    prefixes = [None] + [Letter(j) for j in range(low, r + 1)]
    for term in raw:
        if term.target != "u":
            continue
        for prefix in prefixes:
            word = ((prefix,) if prefix else ()) + term.word
            principal, remainders = normalize_word(word, r)
            if principal is not None:
                p_term = SymbolicTerm(principal, "u", term.kind, term.family)
                prof, _ = classify_successor(profile, p_term)
                succ.append(Successor(prof, _RULE_OF_FAMILY[term.family]))
            for rem in remainders:
                r_term = SymbolicTerm(rem, "u", "commutator-remainder", "L4-shift")
                prof, _ = classify_successor(profile, r_term)
                succ.append(Successor(prof, "L4-shift"))
    return succ


def t2_step(profile):
    """Step for profiles populated only at the lowest and top layers.

    Returns ``(successors, certificate)``; the certificate asserts that
    every successor lost at least one lowest-layer letter without losing
    mass anywhere else and without increasing the total.
    """
    r = profile.r
    low = profile.lowest_layer()
    if low is None:
        return [], {"rule": "T2", "ok": True, "checks": []}
    if not profile.middle_is_empty():
        raise ValueError("t2 step needs an empty middle range")
    if low == r:
        raise ValueError("top-layer-only profiles reduce by the top-layer iteration")
    succ = _expansion_successors(profile)
    checks = []
    for s in succ:
        ok = (
            s.profile.total() <= profile.total()
            and s.profile.count(low) <= profile.count(low) - 1
            and all(
                s.profile.count(k) >= profile.count(k)
                for k in range(1, r + 1)
                if k != low
            )
        )
        checks.append({"profile": list(s.profile.counts), "ok": ok})
        if not ok:
            raise ClassificationFailure(
                profile, s, "successor violates the two-layer certificate"
            )
    certificate = {
        "rule": "T2",
        "ok": True,
        "lowest_layer": low,
        "checks": checks,
    }
    return succ, certificate


@dataclass(frozen=True)
class TraceStep:
    rule: str
    in_profile: LayerProfile
    out_profiles: tuple
    w_in: int
    w_out: int

    def to_json(self):
        return {
            "rule": self.rule,
            "in_profile": list(self.in_profile.counts),
            "out_profiles": [list(p.counts) for p in self.out_profiles],
            "W_in": self.w_in,
            "W_out": self.w_out,
        }


class ReductionTrace:
    """Replayable record of one reduction to the zero profile."""

    def __init__(self, initial, steps):
        self.initial = initial
        self.steps = list(steps)

    def __len__(self):
        return len(self.steps)

    def to_json(self):
        return {
            "r": self.initial.r,
            "initial": list(self.initial.counts),
            "steps": [s.to_json() for s in self.steps],
        }

    @staticmethod
    def from_json(data):
        r = int(data["r"])
        steps = [
            TraceStep(
                s["rule"],
                LayerProfile(r, s["in_profile"]),
                tuple(LayerProfile(r, p) for p in s["out_profiles"]),
                int(s["W_in"]),
                int(s["W_out"]),
            )
            for s in data["steps"]
        ]
        return ReductionTrace(LayerProfile(r, data["initial"]), steps)

    def replay(self):
        """Re-run every step and confirm the recorded successor sets."""
        for step in self.steps:
            recomputed = _step_successors(step.in_profile)[1]
            got = tuple(sorted({s.profile.counts for s in recomputed}))
            want = tuple(sorted(p.counts for p in step.out_profiles))
            if got != want:
                return False
            if step.w_in != step.in_profile.w_measure():
                return False
            if step.out_profiles and step.w_out != max(
                p.w_measure() for p in step.out_profiles
            ):
                return False
            if step.w_out >= step.w_in:
                return False
        return True


def _step_successors(profile):
    """Dispatch one reduction step; returns (default rule, successor list)."""
    r = profile.r
    if profile.only_top_layer():
        nxt = profile.with_count(r, profile.count(r) - 1)
        return "A", [Successor(nxt, "A")]
    if profile.middle_is_empty():
        return "T2", t2_step(profile)[0]
    return "T1", _expansion_successors(profile)


def reduce_to_base(initial: LayerProfile) -> ReductionTrace:
    """Iterate the reduction until every layer count is zero.

    Every step records all successor profiles and requires the measure W
    to drop strictly on each of them; the chain continues through the
    successor of largest W, so its length is bounded by W(initial).
    """
    low = initial.lowest_layer()
    if low == 1:
        raise ValueError("horizontal-layer letters are absorbed by the energy norm")
    steps = []
    profile = initial
    budget = initial.w_measure()
    while not profile.is_zero():
        if len(steps) >= budget:
            raise DepthExceeded(f"more steps than W({initial}) = {budget}")
        default_rule, succ = _step_successors(profile)
        w_in = profile.w_measure()
        for s in succ:
            if s.profile.w_measure() >= w_in:
                raise ClassificationFailure(
                    profile, s, f"W did not decrease: {s.profile}"
                )
        # deterministic continuation: largest W, then largest counts
        chosen = max(succ, key=lambda s: (s.profile.w_measure(), s.profile.counts))
        rule = chosen.rule if default_rule == "T1" else default_rule
        out = tuple(
            sorted(
                {s.profile for s in succ},
                key=lambda p: (p.w_measure(), p.counts),
                reverse=True,
            )
        )
        steps.append(TraceStep(rule, profile, out, w_in, out[0].w_measure()))
        profile = chosen.profile
    return ReductionTrace(initial, steps)


def termination_sweep(r, max_total):
    """Exhaustively reduce every profile of the given step with bounded
    total letters (lowest layer >= 2); returns a summary report."""
    report = {
        "r": r,
        "max_total": max_total,
        "profiles": 0,
        "max_trace": 0,
        "classification_failures": 0,
        "w_violations": 0,
    }
    ranges = [range(max_total + 1)] * (r - 1)
    for counts in itertools.product(*ranges):
        if sum(counts) > max_total or not any(counts):
            continue
        profile = LayerProfile(r, (0,) + counts)
        report["profiles"] += 1
        trace = reduce_to_base(profile)
        report["max_trace"] = max(report["max_trace"], len(trace))
        for step in trace.steps:
            if step.w_out >= step.w_in:
                report["w_violations"] += 1
    return report


# ---------------------------------------------------------------------------
# the step-4 ordering obstruction
# ---------------------------------------------------------------------------

def naive_order_obstruction():
    """Replay the failure of naive differentiation order on a step-4 group.

    Target: one derivative in each of the layers 2, 3, 4, taken top-down.
    Differentiating along the top two layers is assumed; the data term of
    the once-more-differentiated system carries a commutator that absorbs
    the layer-3 letter into layer 4.  Differentiating along layer 2 then
    leaves as many layer-2 letters on the right-hand side as the target
    has, so the scheme cannot close; the other directions stay inside the
    standing assumption.
    """
    r = 4
    target = LayerProfile(r, (0, 1, 1, 1))
    commuted = (Letter(4), Letter(4, 1))  # layer-3 letter absorbed into layer 4
    cases = []
    for z in (2, 3, 4):
        word = (Letter(z, 1),) + commuted
        prof = word_profile(word, r)
        covered = prof.count(2) == 0
        obstruction = not covered and prof.count(2) >= target.count(2)
        cases.append(
            {
                "direction": [z, 1],
                "u_term": word_str(word),
                "data_term": word_str((Letter(z, 1), Letter(3, 1), Letter(4, 1)))
                + " f_i (bounded: data is smooth)",
                "profile": list(prof.counts),
                "W": prof.w_measure(),
                "covered_by_assumption": covered,
                "obstruction": obstruction,
                "reason": (
                    "lowest-layer derivative count does not decrease; the "
                    "derivative appears on both sides"
                    if obstruction
                    else "no lowest-layer derivative; covered by the assumption"
                ),
            }
        )
    return {
        "step": r,
        "target_profile": list(target.counts),
        "target_W": target.w_measure(),
        "assumed_layers": [3, 4],
        "cases": cases,
        "obstructed_directions": [c["direction"] for c in cases if c["obstruction"]],
        "note": (
            "the obstructing term is smaller in W, which is exactly what the "
            "ordered iteration exploits; the naive order has no decreasing "
            "measure for it"
        ),
    }


# ---------------------------------------------------------------------------
# exact mode: rewrites as operator identities
# ---------------------------------------------------------------------------

class ExactContext:
    """The exact interpretation: letters are algebra elements, words act as
    compositions of left-invariant operators on polynomials.

    Letter positions above the layer dimension wrap around, so every
    profile maps onto any spec.  Slot ``i`` carries ``Y_i = sum_j A_ij X_j``
    and the data ``f_i``.
    """

    def __init__(self, spec, A: SystemCoefficients):
        if A.n_components != 1:
            raise ValueError("exact checks run on single-component systems")
        if A.m != spec.m:
            raise ValueError("coefficient block does not match the spec")
        self.spec = spec
        self.slots = tuple(range(1, spec.m + 1))
        self.Y = [
            AlgebraElement(spec, {(1, j): A.entry(0, 0, i - 1, j - 1) for j in self.slots})
            for i in self.slots
        ]
        self._fields = {}

    def letter(self, layer, pos):
        index = (pos - 1) % self.spec.layer_dims[layer - 1] + 1
        return AlgebraElement.basis(self.spec, (layer, index))

    def flux(self, layer, pos, slot):
        return bracket(self.letter(layer, pos), self.Y[slot - 1])

    def source(self, layer, pos, slot):
        return bracket(self.letter(1, slot), self.letter(layer, pos))

    def horizontal(self, slot):
        return self.Y[slot - 1]

    def layer(self, elem):
        """The layer of a homogeneous element; ``None`` for zero."""
        if elem.is_zero():
            return None
        (layer,) = elem.layers()
        return layer

    merge = staticmethod(bracket)

    def apply(self, word, poly):
        """Apply a word to a polynomial; ``word[0]`` acts last."""
        for elem in reversed(word):
            if elem.is_zero():
                return PolyFunction.zero()
            field = self._fields.get(elem)
            if field is None:
                field = self._fields[elem] = field_of_element(self.spec, elem)
            poly = field.apply(poly)
            if poly.is_zero():
                break
        return poly

    def evaluate(self, terms, u, f, f_i):
        """Sum of the terms applied to their targets."""
        total = PolyFunction.zero()
        for term in terms:
            if term.target == "fi":
                data = f_i[term.slot - 1]
            else:
                data = u if term.target == "u" else f
            total = total + self.apply(term.word, data)
        return total


def verify_rewrite_identity(
    spec,
    rule,
    u,
    f=None,
    f_i=None,
    A=None,
    profile=None,
    l=None,
    shift_params=None,
):
    """Exact check that a rewrite is an operator identity on polynomials.

    ``rule`` is one of ``"shift"`` (a commutator letter over a lower-layer
    block against its :func:`normalize_word` form), ``"expand_fi"`` or
    ``"expand_f"`` (closed form against the raw recursive definition).  The
    normalization and the closed form are the ones the termination
    certificate runs, read in the exact interpretation.
    Returns a report dict with an ``ok`` flag and both sides' fingerprints.
    """
    if A is None:
        A = SystemCoefficients.identity(1, spec.m)
    if f is None:
        f = PolyFunction.zero()
    if f_i is None:
        f_i = [PolyFunction.zero() for _ in range(spec.m)]
    ctx = ExactContext(spec, A)
    if rule == "shift":
        q, k, l_shift = shift_params
        if l_shift < 2 or l_shift > spec.r:
            raise ValueError("shift layer out of range")
        lower = l_shift - 1
        mover = ctx.flux(lower, k + 1, 1)
        word = _block(ctx, lower, q + k, k) + (mover,) + _block(ctx, lower, k)
        lhs = ctx.apply(word, u)
        principal, remainders = normalize_word(word, spec.r, ctx)
        rhs = PolyFunction.zero()
        for w in ([] if principal is None else [principal]) + remainders:
            rhs = rhs + ctx.apply(w, u)
    elif rule in ("expand_fi", "expand_f"):
        if profile is None or l is None:
            raise ValueError("expansion checks need a profile and a level")
        if rule == "expand_fi":
            closed = expand_fi(l, profile, ctx)
            recursive = [
                t for slot in ctx.slots for t in _recursive_fi(ctx, l, profile, slot)
            ]
        else:
            closed = expand_f(l, profile, ctx)
            recursive = _recursive_f(ctx, l, profile)
        lhs = ctx.evaluate(closed, u, f, f_i)
        rhs = ctx.evaluate(recursive, u, f, f_i)
    else:
        raise ValueError(f"unknown rewrite rule {rule!r}")
    return {
        "rule": rule,
        "ok": lhs == rhs,
        "lhs_terms": len(lhs.terms),
        "rhs_terms": len(rhs.terms),
    }
