"""Exact group operations in exponential coordinates.

The product is the truncated Baker-Campbell-Hausdorff series evaluated
through the structure constants.  For each spec the coordinate polynomials
of the product ``z(p, q)`` are computed once (Dynkin's formula, exact
rational coefficients) and compiled by :func:`carnot.poly.compile_polys`.
An exact product runs the law as one generated straight-line function of
integers (:func:`carnot.poly.exact_function`, built on the spec's first
:func:`bch_product`); a product with a float coordinate runs the float
program.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from functools import lru_cache
from numbers import Real

import numpy as np

from .algebra import AlgebraSpec, combination_bracket
from .poly import PolyFunction, compile_polys, exact_function, run_arrays


class Point:
    """Group element in exponential coordinates, every basis label in basis
    order (another label is a ``ValueError``); ``Point(spec)`` is the identity."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec, coords=None):
        self.spec = spec
        coords = coords or {}
        if not coords.keys() <= spec.index.keys():
            stray = ", ".join(sorted(map(repr, coords.keys() - spec.index.keys())))
            raise ValueError(f"labels {stray} are not in the basis {list(spec.basis)}")
        self.coords = {lab: coords.get(lab, 0) for lab in spec.basis}

    @staticmethod
    def from_sequence(spec, values):
        values = list(values)
        if len(values) != len(spec.basis):
            raise ValueError(
                f"point needs {len(spec.basis)} coordinates, got {len(values)}"
            )
        return Point(spec, dict(zip(spec.basis, values)))

    def sequence(self):
        return list(self.coords.values())

    def __eq__(self, other):
        return isinstance(other, Point) and (
            self.spec is other.spec or self.spec.basis == other.spec.basis
        ) and self.coords == other.coords

    def __hash__(self):
        return hash(tuple(self.coords.values()))

    def __repr__(self):
        return f"Point({self.sequence()})"


def _point(spec, coords):
    # no checks: ``coords`` already maps the basis, in basis order
    out = object.__new__(Point)
    out.spec = spec
    out.coords = coords
    return out


# ---------------------------------------------------------------------------
# Dynkin series
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dynkin_terms(max_degree: int):
    """Universal BCH terms ``(word, coefficient)`` up to the given degree.

    Words are tuples over {0, 1} (0 for the left factor, 1 for the right);
    a word ``w`` stands for the right-nested bracket
    ``[w_0, [w_1, [... [w_{n-2}, w_{n-1}] ...]]]``.
    """
    terms = {}

    def blocks(remaining, seq):
        if seq:
            yield tuple(seq)
        if remaining == 0:
            return
        for rr in range(remaining + 1):
            for ss in range(remaining - rr + 1):
                if rr + ss == 0:
                    continue
                seq.append((rr, ss))
                yield from blocks(remaining - rr - ss, seq)
                seq.pop()

    # blocks yields each sequence once
    for seq in blocks(max_degree, []):
        n = len(seq)
        total = sum(rr + ss for rr, ss in seq)
        denom = total
        for rr, ss in seq:
            denom *= math.factorial(rr) * math.factorial(ss)
        coeff = Fraction((-1) ** (n - 1), n * denom)
        word = tuple(
            letter for rr, ss in seq for letter in (0,) * rr + (1,) * ss
        )
        terms[word] = terms.get(word, Fraction(0)) + coeff
    return {w: c for w, c in terms.items() if c}


def _poly_element(spec, tag):
    return {
        lab: PolyFunction.variable((tag,) + lab) for lab in spec.basis
    }


def group_law(spec: AlgebraSpec):
    """Product coordinate polynomials ``z_label(p, q)``, memoized per spec.

    Variables are ``("p", k, i)`` and ``("q", k, i)``.
    """
    cached = spec._cache.get("law")
    if cached is not None:
        return cached
    x = _poly_element(spec, "p")
    y = _poly_element(spec, "q")
    z = {lab: x[lab] + y[lab] for lab in spec.basis}

    # evaluate nested bracket words with shared suffixes
    suffix_vals = {}

    def word_value(word):
        if word in suffix_vals:
            return suffix_vals[word]
        if len(word) == 1:
            val = x if word[0] == 0 else y
        else:
            head = x if word[0] == 0 else y
            val = {lab: poly for lab, poly in
                   combination_bracket(spec, head, word_value(word[1:])).items()
                   if not poly.is_zero()}
        suffix_vals[word] = val
        return val

    for word, coeff in dynkin_terms(spec.r).items():
        if len(word) < 2:
            continue
        for lab, poly in word_value(word).items():
            z[lab] = z[lab] + poly.scale(coeff)
    spec._cache["law"] = z
    spec._cache["law_program"] = compile_polys(
        [z[lab] for lab in spec.basis],
        [(tag,) + lab for tag in ("p", "q") for lab in spec.basis],
    )
    return z


def _law_program(spec):
    if "law_program" not in spec._cache:
        group_law(spec)
    return spec._cache["law_program"]


def bch_product(p: Point, q: Point) -> Point:
    """Group product; exact when the coordinates are exact, in floats when
    one is a float; a coordinate that is not a real number is a ``ValueError``."""
    spec = p.spec
    if q.spec is not spec and q.spec.basis != spec.basis:
        raise ValueError("points live over different specs")
    law = spec._cache.get("law_function")
    if law is None:
        law = spec._cache["law_function"] = exact_function(
            _law_program(spec)[0], 2 * len(spec.basis))
    try:
        out = law(*p.coords.values(), *q.coords.values())
    except AttributeError:          # a coordinate with no numerator
        for lab, v in (*p.coords.items(), *q.coords.items()):
            if not isinstance(v, Real):
                raise ValueError(f"coordinate {lab} is {v!r}, not a real number") from None
        out = [float(v) for v in run_arrays(_law_program(spec)[1], p.sequence() + q.sequence())]
    return _point(spec, dict(zip(spec.basis, out)))


def product_arrays(spec, p_values, q_values):
    """Float coordinates of ``p * q`` in basis order, from coordinates in
    basis order that are numbers or numpy arrays (broadcast together)."""
    p_values, q_values = list(p_values), list(q_values)
    if len(p_values) != len(spec.basis) or len(q_values) != len(spec.basis):
        raise ValueError(f"need {len(spec.basis)} coordinates per factor, one per basis "
                         f"element, got {len(p_values)} and {len(q_values)}")
    return run_arrays(_law_program(spec)[1], p_values + q_values)


def left_invariant_coefficients(spec, label):
    """``{lab: d z_lab / d q_label at q = 0}``, polynomials in the plain
    coordinates ``(k, i)``: the coefficients of the left-invariant field,
    read as the law's terms whose only q factor is ``q_label``."""
    law = group_law(spec)
    qfactor = [(("q",) + tuple(label), 1)]
    return {lab: PolyFunction({
        tuple((v[1:], e) for v, e in mono if v[0] == "p"): c
        for mono, c in law[lab].nums.items()
        if [f for f in mono if f[0][0] == "q"] == qfactor
    }).scale(Fraction(1, law[lab].den)) for lab in spec.basis}


def inverse(p: Point) -> Point:
    return _point(p.spec, {lab: -v for lab, v in p.coords.items()})


def dilate(s, p: Point) -> Point:
    """Anisotropic dilation: layer-k coordinates scale by ``s**k``."""
    if s <= 0:
        raise ValueError("dilation parameter must be positive")
    powers = [s ** k for k in range(p.spec.r + 1)]
    return _point(p.spec, {lab: v * powers[lab[0]] for lab, v in p.coords.items()})


def gauge_norm_power(p: Point):
    """The value ``|p|**(2 r!)``; exact for rational coordinates."""
    spec = p.spec
    rfact = math.factorial(spec.r)
    total = 0
    for k in range(1, spec.r + 1):
        sq = 0
        for lab in spec.labels_in_layer(k):
            v = p.coords[lab]
            sq = sq + v * v
        total = total + sq ** (rfact // k)
    return total


def gauge_norm(p: Point) -> float:
    """``|p|``, the ``2 r!``-th root of :func:`gauge_norm_power`.

    Where the power is a finite, positive, normal float this is that
    float's root.  Otherwise (from step 5 on, small and large points leave
    the float range) the root is taken from the power computed exactly,
    split by the integer logs of its numerator and denominator, so it
    neither underflows nor overflows.
    """
    spec = p.spec
    order = 2 * math.factorial(spec.r)
    try:
        approx = float(gauge_norm_power(p))
    except OverflowError:           # a power beyond the float range
        approx = math.inf
    if sys.float_info.min <= approx < math.inf:
        return approx ** (1.0 / order)
    # float coordinates are exact rationals too (a non-finite one raises)
    power = gauge_norm_power(
        Point(spec, {lab: Fraction(v) for lab, v in p.coords.items()})
    )
    if power == 0:
        return 0.0
    # power = m * 2**e with m in (1/2, 2), e from the integer logs (bit
    # lengths) of numerator and denominator; |p| = 2**(e / order) * m**(1 / order)
    num, den = power.numerator, power.denominator
    e = num.bit_length() - den.bit_length()
    m = num / (den << e) if e >= 0 else (num << -e) / den
    whole, part = divmod(e, order)
    try:
        return math.ldexp(2.0 ** (part / order) * m ** (1.0 / order), whole)
    except OverflowError:
        raise ValueError(f"the gauge norm, about 2**{e / order:.6g}, is beyond "
                         "the float range") from None


def gauge_distance(p: Point, q: Point) -> float:
    return gauge_norm(bch_product(inverse(q), p))


# ---------------------------------------------------------------------------
# ball volume by Monte-Carlo sampling
# ---------------------------------------------------------------------------

def gauge_norm_arrays(spec, coords):
    """Vectorized gauge norm; ``coords`` maps labels to numpy arrays.

    Where the power ``|p|**(2 r!)`` leaves the normal float range at a
    nonzero point (from step 5 on), the norm is ``M (sum_k (a_k /
    M)**(2 r!))**(1 / 2 r!)`` with ``a_k`` the Euclidean norm of layer ``k``
    to the power ``1/k`` and ``M`` the largest ``a_k``.
    """
    rfact = math.factorial(spec.r)
    order = 2 * rfact
    layers = [[coords[lab] for lab in spec.labels_in_layer(k)]
              for k in range(1, spec.r + 1)]
    with np.errstate(under="ignore", over="ignore"):
        total = sum(sum(x ** 2 for x in layer) ** (rfact // k)
                    for k, layer in enumerate(layers, 1))
    norm = total ** (1.0 / order)
    redo = ~((total >= sys.float_info.min) & (total < math.inf))
    if not np.any(redo):
        return norm
    norm = np.array(norm, dtype=float)
    roots = [functools.reduce(np.hypot, (np.broadcast_to(x, norm.shape)[redo]
                                         for x in layer), 0.0) ** (1.0 / k)
             for k, layer in enumerate(layers, 1)]
    top = np.max(roots, axis=0)
    with np.errstate(invalid="ignore"):
        scaled = sum((a / top) ** order for a in roots)
    norm[redo] = np.where(top == 0, 0.0, top * scaled ** (1.0 / order))
    return norm


def ball_radius(r):
    """``r``, refused unless it is finite and positive."""
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"a ball radius must be finite and positive, got {r}")
    return r


def sample_seed(seed):
    """``seed``, refused unless it is non-negative, as numpy's generators
    take it."""
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    return seed


def ball_volume_estimate(spec, radius, samples, seed=0, shard=1 << 16):
    """Monte-Carlo Lebesgue volume of the gauge ball with a 95% interval.

    Sampling is sharded with per-shard generators seeded by (seed, shard
    index), so a partition across workers would reproduce the same estimate.
    """
    ball_radius(radius)
    sample_seed(seed)
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if shard < 1:
        raise ValueError(f"need shard >= 1, got {shard}")
    # a half width or a box volume that overflows, underflows or is
    # subnormal would sample, or scale by, a box the floats do not hold
    try:
        halves = {lab: radius ** lab[0] for lab in spec.basis}
        box_vol = math.prod(2.0 * half for half in halves.values())
        in_range = all(math.isfinite(v) and v >= sys.float_info.min
                       for v in (*halves.values(), box_vol))
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError(f"the radius {radius} puts the sampling box outside the float "
                         "range: its half widths r^k and its volume must be finite "
                         "normal floats")
    hits = 0
    done = 0
    index = 0
    while done < samples:
        n = min(shard, samples - done)
        rng = np.random.default_rng([int(seed), index])
        coords = {}
        for lab, half in halves.items():
            coords[lab] = rng.uniform(-half, half, size=n)
        norms = gauge_norm_arrays(spec, coords)
        hits += int(np.count_nonzero(norms < radius))
        done += n
        index += 1
    p_hat = hits / samples
    est = box_vol * p_hat
    # the rule of three where all samples fell inside or all outside
    half_ci = (1.96 * box_vol * math.sqrt(p_hat * (1 - p_hat) / samples)
               or 3.0 * box_vol / samples)
    return {
        "estimate": est,
        "ci": [est - half_ci, est + half_ci],
        "samples": samples,
        "hit_fraction": p_hat,
        "box_volume": box_vol,
    }
