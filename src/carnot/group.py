"""Exact group operations in exponential coordinates.

The product is the truncated Baker-Campbell-Hausdorff series evaluated
through the structure constants.  For each spec the coordinate polynomials
of the product ``z(p, q)`` are computed once (Dynkin's formula, exact
rational coefficients) and compiled into a flat index-based program, which
each product evaluates: in integers over common denominators for exact
points, in floating point when any coordinate is a float.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import AlgebraSpec
from .poly import PolyFunction


class Point:
    """Group element in exponential coordinates ``p_{i,k}``."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec, coords=None):
        self.spec = spec
        coords = coords or {}
        self.coords = {lab: coords.get(lab, 0) for lab in spec.basis}

    @staticmethod
    def identity(spec):
        return Point(spec)

    @staticmethod
    def from_sequence(spec, values):
        values = list(values)
        if len(values) != len(spec.basis):
            raise ValueError(
                f"point needs {len(spec.basis)} coordinates, got {len(values)}"
            )
        return Point(spec, dict(zip(spec.basis, values)))

    def sequence(self):
        return [self.coords[lab] for lab in self.spec.basis]

    def __eq__(self, other):
        return isinstance(other, Point) and all(
            self.coords[lab] == other.coords[lab] for lab in self.spec.basis
        )

    def __hash__(self):
        return hash(tuple(self.coords[lab] for lab in self.spec.basis))

    def __repr__(self):
        return f"Point({self.sequence()})"


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

    seen = set()
    for seq in blocks(max_degree, []):
        if seq in seen:
            continue
        seen.add(seq)
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


def _bracket_poly(spec, a, b):
    """Bracket of {label: Poly} elements through the structure constants."""
    out = {}
    for la, pa in a.items():
        if pa.is_zero():
            continue
        for lb, pb in b.items():
            if pb.is_zero():
                continue
            combo = spec.basis_bracket(la, lb)
            if not combo:
                continue
            prod = pa * pb
            for lc, c in combo.items():
                cur = out.get(lc)
                piece = prod.scale(c)
                out[lc] = piece if cur is None else cur + piece
    return out


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
            inner = word_value(word[1:])
            head = x if word[0] == 0 else y
            val = _bracket_poly(spec, head, inner)
        suffix_vals[word] = val
        return val

    for word, coeff in dynkin_terms(spec.r).items():
        if len(word) < 2:
            continue
        val = word_value(word)
        for lab, poly in val.items():
            if poly.is_zero():
                continue
            z[lab] = z[lab] + poly.scale(coeff)
    spec._cache["law"] = z
    spec._cache["law_program"] = _compile_law(spec, z)
    return z


def _compile_law(spec, law):
    """The law as the flat program :func:`bch_product` runs.

    Input ``j`` is ``p`` at ``spec.basis[j]`` and input ``d + j`` is ``q``
    there.  Per coordinate the exact program is ``(L, groups)``: ``L`` is
    the common denominator of the coefficients and ``groups`` lists
    ``(degree, [(numerator over L, input indices repeated by exponent)])``
    by increasing degree.  The float program keeps the polynomial's own
    term order as ``(float coefficient, ((input, exponent), ...))``.
    """
    d = len(spec.basis)
    index = {}
    for j, lab in enumerate(spec.basis):
        index[("p",) + lab] = j
        index[("q",) + lab] = d + j
    exact, floating = [], []
    for lab in spec.basis:
        terms = law[lab].terms
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


def _run_exact(program, values):
    # inputs as integer numerators over their common denominator D; the
    # degree groups are summed by Horner's rule in D, so each coordinate is
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


def _run_float(program, values, power=pow, skip=()):
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


def _law_program(spec):
    if "law_program" not in spec._cache:
        group_law(spec)
    return spec._cache["law_program"]


def bch_product(p: Point, q: Point) -> Point:
    """Group product; exact when the coordinates are exact."""
    spec = p.spec
    if q.spec is not spec and q.spec.basis != spec.basis:
        raise ValueError("points live over different specs")
    exact, floating = _law_program(spec)
    values = p.sequence() + q.sequence()
    if any(isinstance(v, float) for v in values):
        out = _run_float(floating, [float(v) for v in values])
    else:
        out = _run_exact(exact, values)
    return Point(spec, dict(zip(spec.basis, out)))


def product_arrays(spec, p_values, q_values):
    """Float coordinates of ``p * q`` in basis order, from coordinates in
    basis order that are numbers or numpy arrays (broadcast together)."""
    values = list(p_values) + list(q_values)
    shape = np.broadcast_shapes(*map(np.shape, values))
    # full-shape arrays, so the running products and sums work in place
    values = [np.broadcast_to(v, shape) if isinstance(v, np.ndarray) else float(v)
              for v in values]
    skip = {i for i, v in enumerate(values) if isinstance(v, float) and v == 0}
    out = _run_float(_law_program(spec)[1], values, np.float_power, skip)
    return [v if np.shape(v) == shape else np.full(shape, v) for v in out]


def left_invariant_coefficients(spec, label):
    """``{lab: d z_lab / d q_label at q = 0}``, polynomials in the plain
    coordinates ``(k, i)``: the coefficients of the left-invariant field."""
    law = group_law(spec)
    qvar = ("q",) + tuple(label)
    q_zero = {("q",) + lab: 0 for lab in spec.basis}
    plain = {("p",) + lab: lab for lab in spec.basis}
    return {lab: law[lab].derivative(qvar).substitute(q_zero).rename(plain)
            for lab in spec.basis}


def inverse(p: Point) -> Point:
    return Point(p.spec, {lab: -v for lab, v in p.coords.items()})


def dilate(s, p: Point) -> Point:
    """Anisotropic dilation: layer-k coordinates scale by ``s**k``."""
    if s <= 0:
        raise ValueError("dilation parameter must be positive")
    return Point(p.spec, {lab: v * s ** lab[0] for lab, v in p.coords.items()})


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
    return math.ldexp(2.0 ** (part / order) * m ** (1.0 / order), whole)


def gauge_distance(p: Point, q: Point) -> float:
    return gauge_norm(bch_product(inverse(q), p))


def quasi_triangle_constant(spec, samples=200, radius=1.0, seed=0):
    """Estimate sup d(p,q) / (d(p,w) + d(w,q)) over random triples.

    The gauge is only a quasi-metric; this reports the observed constant.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        pts = []
        for _ in range(3):
            coords = {
                lab: float(rng.uniform(-radius ** lab[0], radius ** lab[0]))
                for lab in spec.basis
            }
            pts.append(Point(spec, coords))
        p, w, q = pts
        denom = gauge_distance(p, w) + gauge_distance(q, w)
        if denom > 0:
            worst = max(worst, gauge_distance(p, q) / denom)
    return worst


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


def ball_volume_estimate(spec, radius, samples, seed=0, shard=1 << 16):
    """Monte-Carlo Lebesgue volume of the gauge ball with a 95% interval.

    Sampling is sharded with per-shard generators seeded by (seed, shard
    index), so a partition across workers would reproduce the same estimate.
    """
    if radius <= 0 or samples < 1:
        raise ValueError("need radius > 0 and samples >= 1")
    box_vol = 1.0
    for lab in spec.basis:
        box_vol *= 2.0 * radius ** lab[0]
    hits = 0
    done = 0
    index = 0
    while done < samples:
        n = min(shard, samples - done)
        rng = np.random.default_rng([int(seed), index])
        coords = {}
        for lab in spec.basis:
            half = radius ** lab[0]
            coords[lab] = rng.uniform(-half, half, size=n)
        norms = gauge_norm_arrays(spec, coords)
        hits += int(np.count_nonzero(norms < radius))
        done += n
        index += 1
    p_hat = hits / samples
    est = box_vol * p_hat
    half_ci = 1.96 * box_vol * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / samples)
    return {
        "estimate": est,
        "ci": [est - half_ci, est + half_ci],
        "samples": samples,
        "hit_fraction": p_hat,
        "box_volume": box_vol,
    }
