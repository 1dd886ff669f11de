"""The benchmark's three workloads: seeded inputs, set-up, one pass, oracles.

Each workload has ``setup(seed)``, which returns the state the passes
share, and ``run_pass(state, seed, index)``, which does the workload's
fixed work once on inputs drawn from ``(seed, index)`` and returns a
:class:`PassResult`.  Every pass draws fresh inputs, so no cache keyed by
the inputs can help a later pass; caches keyed by the group spec (the group
law, the vector fields) are filled in set-up and reused, as a batch job in
one process would.  Why each workload exists is in ``NOTES.md``.

Only the generated inputs are passed to ``carnot``.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import traceback
from fractions import Fraction

import numpy as np

from carnot import algebra, fields, group, numerics, regularity, rewrite
from carnot.catalog import engel, heisenberg
from carnot.fields import SystemCoefficients
from carnot.poly import PolyFunction


class PassResult:
    """Oracle outcomes of one pass and a digest of everything it computed.

    Only counts and a running hash are kept, so a long run holds no
    growing heap of results.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._hash = hashlib.sha256()

    def check(self, name, fn):
        """Run one correctness check; an exception counts as a failure."""
        try:
            ok = bool(fn())
        except Exception:           # a failed check must not end the run
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.attempted += 1
        self.failed += not ok
        self._hash.update(f"{name}={ok};".encode())
        return ok

    def record(self, *values):
        self._hash.update(repr(values).encode())

    def digest(self):
        return self._hash.hexdigest()


def pass_rng(seed, index):
    return random.Random(f"carnot-bench:{seed}:{index}")


def _warm(spec):
    """The first group-law and vector-field builds of a spec (set-up work)."""
    group.group_law(spec)
    for label in spec.basis:
        fields.left_invariant_field(spec, label)
    return spec


def _finite_positive(value):
    return math.isfinite(value) and value > 0


def _array_digest(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# exact: the pure-Python Fraction path
# ---------------------------------------------------------------------------

FREE_GROUPS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
ASSOC_TRIPLES = 200          # per group and pass
DILATION_PAIRS = 25          # per group and pass
REWRITE_CASES = 144          # 12 spec/rule combinations, 12 cases each
REWRITE_SPECS = ["free:2,2", "free:2,3", "engel", "free:2,4"]
REWRITE_RULES = ["shift", "expand_fi", "expand_f"]
SWEEP_STEPS = (2, 3, 4)
SWEEP_TOTAL = 6
COMMUTATOR_SPECS = ["heisenberg", "engel", "free:2,3"]


def exact_setup(seed):
    specs = {f"free:{m},{r}": algebra.build_free_nilpotent(m, r)
             for m, r in FREE_GROUPS}
    specs["heisenberg"] = heisenberg()
    specs["engel"] = engel()
    for spec in specs.values():
        _warm(spec)
    return {"specs": specs}


def _rand_point(spec, rng):
    return group.Point(
        spec,
        {lab: Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for lab in spec.basis},
    )


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


def _rewrite_case(specs, rng, case):
    """One randomized rewrite identity, drawn as acceptance criterion 5 does."""
    spec = specs[REWRITE_SPECS[case % len(REWRITE_SPECS)]]
    rule = REWRITE_RULES[case % len(REWRITE_RULES)]
    u = _rand_poly(spec, rng, degree=6, terms=7)
    f = _rand_poly(spec, rng, degree=4, terms=3)
    f_i = [_rand_poly(spec, rng, degree=4, terms=3) for _ in range(spec.m)]
    kwargs = {}
    if rule == "shift":
        kwargs["shift_params"] = (rng.randint(0, 2), rng.randint(1, 2),
                                  rng.randint(2, spec.r))
    else:
        counts = [0] * spec.r
        for _ in range(rng.randint(1, 3)):
            counts[rng.randrange(1, spec.r)] += 1
        profile = rewrite.LayerProfile(spec.r, counts)
        kwargs["profile"] = profile
        kwargs["l"] = min(profile.lowest_layer() + 1, spec.r)
    return spec, rule, u, f, f_i, kwargs


def exact_pass(state, seed, index):
    specs = state["specs"]
    rng = pass_rng(seed, index)
    out = PassResult()
    for m, r in FREE_GROUPS:
        spec = specs[f"free:{m},{r}"]
        two_rfact = 2 * math.factorial(r)
        for _ in range(ASSOC_TRIPLES):
            p, q, w = (_rand_point(spec, rng) for _ in range(3))

            def assoc():
                left = group.bch_product(group.bch_product(p, q), w)
                right = group.bch_product(p, group.bch_product(q, w))
                out.record(left.sequence())
                return left == right

            out.check(f"{spec.name}:associativity", assoc)
        for _ in range(DILATION_PAIRS):
            p, q = _rand_point(spec, rng), _rand_point(spec, rng)
            s = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            out.check(f"{spec.name}:dilation", lambda: group.dilate(
                s, group.bch_product(p, q)
            ) == group.bch_product(group.dilate(s, p), group.dilate(s, q)))
            out.check(f"{spec.name}:gauge_homogeneity", lambda: group.gauge_norm_power(
                group.dilate(s, p)
            ) == s ** two_rfact * group.gauge_norm_power(p))
    for case in range(REWRITE_CASES):
        spec, rule, u, f, f_i, kwargs = _rewrite_case(specs, rng, case)

        def identity():
            res = rewrite.verify_rewrite_identity(spec, rule, u, f=f, f_i=f_i, **kwargs)
            out.record(res["lhs_terms"], res["rhs_terms"])
            return res["ok"]

        out.check(f"{spec.name}:{rule}", identity)
    for r in SWEEP_STEPS:
        def sweep():
            rep = rewrite.termination_sweep(r, SWEEP_TOTAL)
            out.record(rep)
            return rep["classification_failures"] == 0 and rep["w_violations"] == 0

        out.check(f"sweep:{r}", sweep)
    for m, r in FREE_GROUPS:
        spec = specs[f"free:{m},{r}"]
        out.check(f"{spec.name}:validate", lambda: algebra.validate_spec(spec) == [])
    for name in COMMUTATOR_SPECS:
        out.check(f"{name}:commutators",
                  lambda: fields.commutator_check(specs[name])["ok"])
    return out


# ---------------------------------------------------------------------------
# solve: sparse assembly and Jacobi-preconditioned CG
# ---------------------------------------------------------------------------

SOLVES = [("heisenberg", 64), ("engel", 24)]
RESIDUAL_GATE = 1e-10
VALUE_GATE = 1e-8


def solve_setup(seed):
    specs = {"heisenberg": _warm(heisenberg()), "engel": _warm(engel())}
    return {"specs": specs}


def _coefficient(rng):
    """A nonzero rational of size 1/2 to 2."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(4, 16), 8)


def _horizontal_affine(rng):
    """``a p11 + b p21 + c``: exactly reproduced by the discrete solver,
    so the solution can be checked node by node."""
    a, b, c = (_coefficient(rng) for _ in range(3))
    p11 = PolyFunction.variable((1, 1))
    p21 = PolyFunction.variable((1, 2))
    return p11.scale(a) + p21.scale(b) + PolyFunction.constant(c)


def solve_pass(state, seed, index):
    rng = pass_rng(seed, index)
    out = PassResult()
    for name, n in SOLVES:
        spec = state["specs"][name]
        data = _horizontal_affine(rng)
        ident = SystemCoefficients.identity(1, spec.m)
        solution = {}

        def solved():
            sol = numerics.assemble_and_solve(spec, ident, [data], n=n)
            solution["sol"] = sol
            res = sol.solve_report["relative_weak_residual"]
            out.record(res, sol.solve_report["unknowns"], _array_digest(sol.values))
            return res <= RESIDUAL_GATE

        if not out.check(f"{name}:n={n}:weak_residual", solved):
            continue

        def reproduced():
            sol = solution["sol"]
            exact = numerics.GridField.from_polys(sol.grid, [data])
            return float(np.max(np.abs(sol.values - exact.values))) <= VALUE_GATE

        out.check(f"{name}:n={n}:max_error", reproduced)
    return out


# ---------------------------------------------------------------------------
# estimates: flow interpolation and float group-law evaluation on one field
# ---------------------------------------------------------------------------

ESTIMATE_N = 48
DECAY_RADII = [0.25, 0.5, 1.0]
OFFSET_RADII = [0.2, 0.4, 0.8]
OFFSET_HALF_WIDTH = 0.1      # keeps the off-centre balls of radius 0.8 in the box
BALL_SAMPLES = 1_000_000


def estimates_setup(seed):
    spec = _warm(heisenberg())
    rng = pass_rng(seed, "setup")
    # harmonic data: a p11 + b p21 + c p12 + d p11 p21 (p12 is the
    # vertical coordinate); every term is annihilated by X1^2 + X2^2
    a, b, c, d = (_coefficient(rng) for _ in range(4))
    p11, p21 = PolyFunction.variable((1, 1)), PolyFunction.variable((1, 2))
    p12 = PolyFunction.variable((2, 1))
    data = p11.scale(a) + p21.scale(b) + p12.scale(c) + (p11 * p21).scale(d)
    ident = SystemCoefficients.identity(1, spec.m)
    field = numerics.assemble_and_solve(spec, ident, [data], n=ESTIMATE_N)
    return {"spec": spec, "field": field}


def estimates_pass(state, seed, index):
    spec, u = state["spec"], state["field"]
    rng = pass_rng(seed, index)
    out = PassResult()
    q_hom = spec.homogeneous_dimension()
    origin = [0.0] * len(spec.basis)
    centre = [rng.uniform(-OFFSET_HALF_WIDTH, OFFSET_HALF_WIDTH) for _ in spec.basis]
    radius = rng.uniform(0.5, 1.5)
    mc_seed = rng.randrange(1 << 30)

    def caccioppoli():
        rep = numerics.caccioppoli_check(u, radius=0.45)
        out.record(rep["empirical_constant"])
        return _finite_positive(rep["empirical_constant"])

    def decay(where, top, radii):
        def check():
            rep = regularity.excess_decay_check(u, where, 0.5, top, radii=radii)
            out.record(rep["fitted_exponent"], rep["integral_constant"])
            return rep["fitted_exponent"] >= q_hom + 2 - 0.3
        return check

    def blowup():
        seq = regularity.blowup_rescale(u, centre, 0.5)
        out.record(seq.normalization, seq.epsilon)
        return _finite_positive(seq.normalization)

    def sup_bound():
        rep = regularity.sup_estimate_check(u, origin, 0.4)
        out.record(rep["ratio"])
        return _finite_positive(rep["ratio"])

    def higher_order():
        rep = regularity.higher_order_estimate_check(u, radius=0.4)
        out.record(rep["empirical_constant"])
        return _finite_positive(rep["empirical_constant"])

    def hormander():
        ratio = numerics.hormander_ratio(u, (2, 1))
        out.record(ratio)
        return _finite_positive(ratio)

    def ball_volume():
        small = group.ball_volume_estimate(spec, radius, BALL_SAMPLES, seed=mc_seed)
        big = group.ball_volume_estimate(spec, 2 * radius, BALL_SAMPLES, seed=mc_seed + 1)
        ratio = big["estimate"] / small["estimate"]
        out.record(ratio)
        return abs(ratio - 2 ** q_hom) <= 0.03 * 2 ** q_hom

    out.check("caccioppoli", caccioppoli)
    out.check("excess_decay:origin", decay(origin, 1.0, DECAY_RADII))
    out.check("excess_decay:offset", decay(centre, OFFSET_RADII[-1], OFFSET_RADII))
    out.check("blowup", blowup)
    out.check("sup_estimate", sup_bound)
    out.check("higher_order_estimate", higher_order)
    out.check("hormander_ratio", hormander)
    out.check("ball_volume_ratio", ball_volume)
    return out


WORKLOADS = {
    "exact": (exact_setup, exact_pass),
    "solve": (solve_setup, solve_pass),
    "estimates": (estimates_setup, estimates_pass),
}
