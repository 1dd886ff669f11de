"""Stratified nilpotent Lie algebras with exact rational structure constants.

An algebra is described by its layer dimensions ``m_1, ..., m_r`` and the
brackets of the graded basis ``X_{k,i}`` (label ``(k, i)``, layer ``k``,
``1 <= i <= m_k``).  Free nilpotent algebras are built on a Hall basis;
arbitrary bracket tables are accepted after exact validation of
antisymmetry, grading, the Jacobi identity and the stratification property.
"""

from __future__ import annotations

from fractions import Fraction

from .expressions import json_fraction, json_int, json_label

Label = tuple  # (layer, index), both 1-based

BASIS_CAP = 512


class AlgebraError(Exception):
    pass


class BasisSizeExceeded(AlgebraError):
    """Free nilpotent basis would exceed ``BASIS_CAP`` elements."""


class GradingViolation(AlgebraError):
    def __init__(self, pair, detail):
        super().__init__(f"bracket {pair} violates the grading: {detail}")
        self.pair = pair
        self.detail = detail


class JacobiViolation(AlgebraError):
    def __init__(self, triple, residual):
        super().__init__(f"Jacobi identity fails on {triple}: residual {residual}")
        self.triple = triple
        self.residual = residual


class StratificationViolation(AlgebraError):
    def __init__(self, layer, rank, expected):
        super().__init__(
            f"brackets of layer 1 with layer {layer} span rank {rank}, "
            f"need {expected}"
        )
        self.layer = layer
        self.rank = rank
        self.expected = expected


class AlgebraSpec:
    """Immutable description of a stratified algebra.

    ``brackets`` maps ordered basis-label pairs (a, b) with a < b
    (lexicographically) to ``{label: Fraction}`` combinations of nonzero
    coefficients, as :func:`build_from_table` writes them; the other order
    is implied by antisymmetry and diagonal brackets vanish.
    """

    def __init__(self, layer_dims, brackets, name=None):
        self.layer_dims = tuple(int(d) for d in layer_dims)
        self.r = len(self.layer_dims)
        self.m = self.layer_dims[0] if self.layer_dims else 0
        self.name = name
        self.basis = tuple(
            (k, i)
            for k in range(1, self.r + 1)
            for i in range(1, self.layer_dims[k - 1] + 1)
        )
        self.index = {lab: n for n, lab in enumerate(self.basis)}
        if any(a >= b for a, b in brackets):
            raise ValueError("bracket keys must be ordered pairs (a, b) with a < b")
        self._table = dict(brackets)
        self._cache = {}

    # -- lookups --------------------------------------------------------

    def labels_in_layer(self, k):
        return [(k, i) for i in range(1, self.layer_dims[k - 1] + 1)]

    def basis_bracket(self, a, b):
        """Bracket of two basis elements as a {label: Fraction} combination."""
        if a == b:
            return {}
        if a > b:
            return {lab: -c for lab, c in self._table.get((b, a), {}).items()}
        return dict(self._table.get((a, b), {}))

    def homogeneous_dimension(self):
        return sum(k * mk for k, mk in enumerate(self.layer_dims, start=1))

    def __repr__(self):
        tag = self.name or "table"
        return f"AlgebraSpec({tag}, layers={list(self.layer_dims)})"


class AlgebraElement:
    """Finitely supported rational combination of basis elements."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs=None):
        self.spec = spec
        self.coeffs = {lab: Fraction(c) for lab, c in (coeffs or {}).items() if c}

    @staticmethod
    def basis(spec, label):
        if label not in spec.index:
            raise KeyError(f"{label} is not a basis label")
        return AlgebraElement(spec, {label: Fraction(1)})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for lab, c in other.coeffs.items():
            s = out.get(lab, Fraction(0)) + c
            if s:
                out[lab] = s
            else:
                out.pop(lab, None)
        return AlgebraElement(self.spec, out)

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def layers(self):
        return {lab[0] for lab in self.coeffs}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*X{lab}" for lab, c in sorted(self.coeffs.items()))


def combination_bracket(spec: AlgebraSpec, a, b):
    """``[a, b]`` of ``{label: coefficient}`` combinations through the
    structure constants, with each product ``a[la] * b[lb]`` formed once.

    The coefficients may be anything that multiplies together and by a
    ``Fraction`` (rationals, polynomials).  An entry that cancels keeps its
    place, as zero.
    """
    out = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            combo = spec.basis_bracket(la, lb)
            if not combo:
                continue
            prod = ca * cb
            for lc, s in combo.items():
                cur = out.get(lc)
                out[lc] = prod * s if cur is None else cur + prod * s
    return out


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the structure constants; exact."""
    if a.spec is not b.spec and a.spec.basis != b.spec.basis:
        raise ValueError("elements live over different specs")
    return AlgebraElement(a.spec, combination_bracket(a.spec, a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------
# free nilpotent construction (Hall basis)
# ---------------------------------------------------------------------------

def _hall_trees(m, r):
    """Hall trees per degree; a tree is a generator int or a pair of trees.

    A pair (a, b) belongs to the basis iff idx(a) < idx(b) and b is either a
    generator or its left subtree satisfies idx(b.left) <= idx(a).  Indices
    are assigned degree-major, which makes the order degree-compatible.
    """
    idx = {}
    by_degree = [[] for _ in range(r + 1)]  # by_degree[d] = trees of degree d
    count = 0
    for i in range(1, m + 1):
        idx[i] = count
        count += 1
        by_degree[1].append(i)
    for d in range(2, r + 1):
        for da in range(1, d):
            db = d - da
            for a in by_degree[da]:
                for b in by_degree[db]:
                    if idx[a] >= idx[b]:
                        continue
                    if isinstance(b, tuple) and idx[b[0]] > idx[a]:
                        continue
                    t = (a, b)
                    idx[t] = count
                    count += 1
                    if count > BASIS_CAP:
                        raise BasisSizeExceeded(
                            f"free nilpotent basis for m={m}, r={r} exceeds cap {BASIS_CAP}"
                        )
                    by_degree[d].append(t)
        by_degree[d].sort(key=idx.get)
    return by_degree, idx


def build_free_nilpotent(m: int, r: int) -> AlgebraSpec:
    """Free nilpotent algebra on ``m`` generators of step ``r``."""
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    by_degree, idx = _hall_trees(m, r)
    trees = [t for d in range(1, r + 1) for t in by_degree[d]]
    degree = {idx[t]: d for d in range(1, r + 1) for t in by_degree[d]}
    layer_dims = [len(by_degree[d]) for d in range(1, r + 1)]

    # label (k, i) for the i-th Hall tree of degree k
    label_of = {}
    for d in range(1, r + 1):
        for i, t in enumerate(by_degree[d], start=1):
            label_of[idx[t]] = (d, i)

    hall_index = {idx[t]: t for t in trees}
    memo = {}

    def hall_bracket(i, j):
        """[basis_i, basis_j] expanded in the Hall basis, by index."""
        if i == j:
            return {}
        if i > j:
            return {k: -c for k, c in hall_bracket(j, i).items()}
        key = (i, j)
        if key in memo:
            return memo[key]
        d = degree[i] + degree[j]
        if d > r:
            memo[key] = {}
            return {}
        a, b = hall_index[i], hall_index[j]
        if not isinstance(b, tuple) or idx[b[0]] <= i:
            out = {idx[(a, b)]: Fraction(1)}
        else:
            # b = (b1, b2) with idx(b1) > i: [a,[b1,b2]] = [[a,b1],b2] + [b1,[a,b2]]
            i1, i2 = idx[b[0]], idx[b[1]]
            out = {}
            for k, c in hall_bracket(i, i1).items():
                for e, c2 in hall_bracket(k, i2).items():
                    v = out.get(e, Fraction(0)) + c * c2
                    out[e] = v
            for k, c in hall_bracket(i, i2).items():
                for e, c2 in hall_bracket(i1, k).items():
                    v = out.get(e, Fraction(0)) + c * c2
                    out[e] = v
            out = {e: c for e, c in out.items() if c}
        memo[key] = out
        return out

    brackets = {}
    n = len(trees)
    for i in range(n):
        for j in range(i + 1, n):
            combo = hall_bracket(i, j)
            if combo:
                brackets[(label_of[i], label_of[j])] = {
                    label_of[e]: c for e, c in combo.items()
                }
    return AlgebraSpec(layer_dims, brackets, name=f"free:{m},{r}")


# ---------------------------------------------------------------------------
# validation and user tables
# ---------------------------------------------------------------------------

def _jacobi_residual(spec, a, b, c):
    ea, eb, ec = (AlgebraElement.basis(spec, lab) for lab in (a, b, c))
    return (
        bracket(bracket(ea, eb), ec)
        + bracket(bracket(eb, ec), ea)
        + bracket(bracket(ec, ea), eb)
    )


def _rational_rank(rows):
    """Exact rank of a list of Fraction row-vectors via Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    col = 0
    width = max((len(r) for r in rows), default=0)
    while rows and col < width:
        pivot = next((i for i, r in enumerate(rows) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        head = rows[0]
        for r in rows[1:]:
            if r[col]:
                f = r[col] / head[col]
                for j in range(col, width):
                    r[j] -= f * head[j]
        rows = rows[1:]
        rank += 1
        col += 1
    return rank


def _stratification_ranks(spec):
    """``(j, rank, dim V^{j+1})`` per layer j < r, rank of ``[V^1, V^j]``."""
    for j in range(1, spec.r):
        next_layer = spec.labels_in_layer(j + 1)
        pos = {lab: t for t, lab in enumerate(next_layer)}
        rows = []
        for x in spec.labels_in_layer(1):
            for y in spec.labels_in_layer(j):
                row = [Fraction(0)] * len(next_layer)
                for lab, c in spec.basis_bracket(x, y).items():
                    if lab in pos:
                        row[pos[lab]] = c
                rows.append(row)
        yield j, _rational_rank(rows), len(next_layer)


def validate_spec(spec: AlgebraSpec):
    """Return the list of invariant violations (empty when the spec is valid)."""
    problems = []
    # grading: supports live in layer k+l, nothing beyond step r
    for a in spec.basis:
        for b in spec.basis:
            if a >= b:
                continue
            combo = spec.basis_bracket(a, b)
            target = a[0] + b[0]
            if target > spec.r:
                if combo:
                    problems.append(
                        GradingViolation((a, b), f"nonzero bracket beyond step {spec.r}")
                    )
                continue
            for lab in combo:
                if lab[0] != target:
                    problems.append(
                        GradingViolation((a, b), f"component in layer {lab[0]}, expected {target}")
                    )
    # Jacobi, exact over the rationals
    n = len(spec.basis)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = spec.basis[i], spec.basis[j], spec.basis[k]
                res = _jacobi_residual(spec, a, b, c)
                if not res.is_zero():
                    problems.append(JacobiViolation((a, b, c), res))
    # stratification: [V^1, V^j] spans V^{j+1}
    for j, rank, required in _stratification_ranks(spec):
        if rank < required:
            problems.append(StratificationViolation(j, rank, required))
    return problems


def verify_stratification(spec: AlgebraSpec):
    """Per-layer rank report for the generating property of the first layer."""
    layers = [
        {"layer": j, "rank": rank, "required": required, "ok": rank == required}
        for j, rank, required in _stratification_ranks(spec)
    ]
    return {"layers": layers, "ok": all(entry["ok"] for entry in layers)}


def build_from_table(layer_dims, table, name=None) -> AlgebraSpec:
    """Build a spec from a user bracket table, raising on the first violation.

    ``table`` maps basis-label pairs to {label: rational} combinations; only
    one order per pair is required.  Use :func:`validate_spec` for a full
    non-raising report.
    """
    entries = {}
    for (a, b), combo in table.items():
        combo = {tuple(lab): Fraction(c) for lab, c in combo.items() if c}
        a, b = tuple(a), tuple(b)
        if a == b:
            if combo:
                raise GradingViolation((a, b), "diagonal bracket must vanish")
            continue
        key, flip = ((a, b), False) if a < b else ((b, a), True)
        stored = {lab: (-c if flip else c) for lab, c in combo.items()}
        if key in entries and entries[key] != stored:
            raise GradingViolation(key, "inconsistent antisymmetric entries")
        entries[key] = stored
    spec = AlgebraSpec(layer_dims, entries, name=name)
    problems = validate_spec(spec)
    if problems:
        raise problems[0]
    return spec


# ---------------------------------------------------------------------------
# counting oracle used by the suite report (tests carry their own copy)
# ---------------------------------------------------------------------------

def _mobius(n):
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    if n > 1:
        mu = -mu
    return mu


def witt_layer_dims(m, r):
    """Dimensions of the free nilpotent layers by the necklace-count formula."""
    dims = []
    for k in range(1, r + 1):
        total = sum(_mobius(d) * m ** (k // d) for d in range(1, k + 1) if k % d == 0)
        dims.append(total // k)
    return dims


# ---------------------------------------------------------------------------
# JSON serialization of specs
# ---------------------------------------------------------------------------

def spec_to_json(spec: AlgebraSpec) -> dict:
    kind = "free" if (spec.name or "").startswith("free:") else "table"
    out = {
        "kind": kind,
        "m": spec.m,
        "r": spec.r,
        "layer_dims": list(spec.layer_dims),
        "brackets": [],
    }
    for (a, b), combo in sorted(spec._table.items()):
        out["brackets"].append(
            {
                "a": list(a),
                "b": list(b),
                "out": [
                    {"basis": list(lab), "num": c.numerator, "den": c.denominator}
                    for lab, c in sorted(combo.items())
                ],
            }
        )
    return out


def spec_from_json(data: dict) -> AlgebraSpec:
    """Inverse of :func:`spec_to_json`; ``ValueError`` on a missing entry or
    a number that is not a JSON integer."""
    try:
        free = data.get("kind") == "free"
        if free:
            m, r = json_int(data["m"], "m"), json_int(data["r"], "r")
        else:
            table = {}
            for entry in data.get("brackets", []):
                table[(json_label(entry["a"]), json_label(entry["b"]))] = {
                    json_label(t["basis"]): json_fraction(t["num"], t.get("den", 1))
                    for t in entry.get("out", [])
                }
            layer_dims = [json_int(d, "a layer dimension") for d in data["layer_dims"]]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed group spec: {exc!r}") from None
    return build_free_nilpotent(m, r) if free else build_from_table(layer_dims, table)
