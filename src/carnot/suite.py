"""One-shot verification suite aggregating the package's checks.

Each entry mirrors one acceptance property at desk defaults sized for a
fast deterministic run; the test suite pins the full-strength parameters.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import algebra, group, numerics, regularity, rewrite
from .catalog import engel, heisenberg
from .fields import SystemCoefficients, commutator_check, system_residual
from .poly import PolyFunction

FREE_GROUPS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
SOUNDNESS_CASES = 24
DECAY_THRESHOLD = 5.4


@dataclass
class RunConfig:
    n: int = 32
    seed: int = 12345
    assoc_triples: int = 200
    mc_samples: int = 200_000
    sweep_total: int = 5

    def rng(self, salt=0):
        return random.Random(self.seed * 1_000_003 + salt)


def _rand_point(spec, rng):
    return group.Point(
        spec,
        {
            lab: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            for lab in spec.basis
        },
    )


def _rand_poly(spec, rng, degree=5, terms=6):
    out = PolyFunction.zero()
    for _ in range(terms):
        piece = PolyFunction.constant(Fraction(rng.randint(1, 3)))
        for _ in range(rng.randint(1, degree)):
            lab = spec.basis[rng.randrange(len(spec.basis))]
            piece = piece * PolyFunction.variable(lab)
        out = out + piece
    return out


def check_exact_algebra(config: RunConfig):
    groups = {}
    ok = True
    for m, r in FREE_GROUPS:
        spec = algebra.build_free_nilpotent(m, r)
        problems = algebra.validate_spec(spec)
        witt = algebra.witt_layer_dims(m, r)
        good = not problems and list(spec.layer_dims) == witt
        groups[f"free:{m},{r}"] = {
            "layer_dims": list(spec.layer_dims),
            "witt_dims": witt,
            "violations": len(problems),
            "ok": good,
        }
        ok &= good
    for named in (heisenberg(), engel()):
        problems = algebra.validate_spec(named)
        groups[named.name] = {
            "layer_dims": list(named.layer_dims),
            "violations": len(problems),
            "ok": not problems,
        }
        ok &= not problems
    return {"id": 1, "name": "exact_algebra", "pass": ok, "groups": groups}


def check_group_exactness(config: RunConfig):
    rng = config.rng(1)
    per_group = {}
    ok = True
    for m, r in FREE_GROUPS:
        spec = algebra.build_free_nilpotent(m, r)
        assoc = dil = gauge = True
        for _ in range(config.assoc_triples):
            p, q, w = (_rand_point(spec, rng) for _ in range(3))
            left = group.bch_product(group.bch_product(p, q), w)
            right = group.bch_product(p, group.bch_product(q, w))
            assoc &= left == right
        for _ in range(max(4, config.assoc_triples // 8)):
            p, q = _rand_point(spec, rng), _rand_point(spec, rng)
            s = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            dil &= group.dilate(s, group.bch_product(p, q)) == group.bch_product(
                group.dilate(s, p), group.dilate(s, q)
            )
            power = group.gauge_norm_power(group.dilate(s, p))
            gauge &= power == s ** (2 * math.factorial(spec.r)) * group.gauge_norm_power(p)
        good = assoc and dil and gauge
        per_group[spec.name] = {
            "associativity": assoc,
            "dilation_homomorphism": dil,
            "gauge_homogeneity": gauge,
        }
        ok &= good
    return {
        "id": 2,
        "name": "exact_group",
        "pass": ok,
        "triples": config.assoc_triples,
        "groups": per_group,
    }


def check_ball_volume(config: RunConfig):
    spec = heisenberg()
    small = group.ball_volume_estimate(spec, 1.0, config.mc_samples, seed=config.seed)
    big = group.ball_volume_estimate(
        spec, 2.0, config.mc_samples, seed=config.seed + 1
    )
    ratio = big["estimate"] / small["estimate"]
    q_hom = spec.homogeneous_dimension()
    ok = abs(ratio - 2 ** q_hom) <= 0.03 * 2 ** q_hom
    return {
        "id": 3,
        "name": "ball_volume_scaling",
        "pass": ok,
        "Q": q_hom,
        "ratio": ratio,
        "expected": 2 ** q_hom,
        "samples": config.mc_samples,
        "estimates": {"R=1": small, "R=2": big},
    }


def check_fields(config: RunConfig):
    ok = True
    reports = {}
    for spec in (heisenberg(), engel(), algebra.build_free_nilpotent(2, 3)):
        rep = commutator_check(spec)
        reports[spec.name] = rep["ok"]
        ok &= rep["ok"]
    heis = heisenberg()
    ident = SystemCoefficients.identity(1, heis.m)
    residual_zero = True
    for lab in [(1, 1), (1, 2), (2, 1)]:
        res = system_residual(heis, ident, [PolyFunction.variable(lab)])
        residual_zero &= all(p.is_zero() for p in res)
    reports["coordinate_residuals_vanish"] = residual_zero
    ok &= residual_zero
    return {"id": 4, "name": "vector_fields", "pass": ok, "checks": reports}


def check_rewrite_soundness(config: RunConfig):
    rng = config.rng(5)
    specs = [
        algebra.build_free_nilpotent(2, 2),
        algebra.build_free_nilpotent(2, 3),
        engel(),
        algebra.build_free_nilpotent(2, 4),
    ]
    rules = ["shift", "expand_fi", "expand_f"]
    failures = 0
    trivial = 0
    for case in range(SOUNDNESS_CASES):
        spec = specs[case % len(specs)]
        rule = rules[case % len(rules)]
        u = _rand_poly(spec, rng, degree=6, terms=7)
        f = _rand_poly(spec, rng, degree=4, terms=3)
        f_i = [_rand_poly(spec, rng, degree=4, terms=3) for _ in range(spec.m)]
        counts = [0] * spec.r
        total = rng.randint(1, 3)
        for _ in range(total):
            counts[rng.randrange(1, spec.r)] += 1
        profile = rewrite.LayerProfile(spec.r, counts)
        low = profile.lowest_layer()
        kwargs = {}
        if rule == "shift":
            layer = rng.randint(2, spec.r)
            kwargs["shift_params"] = (rng.randint(0, 2), rng.randint(1, 2), layer)
        else:
            kwargs["profile"] = profile
            kwargs["l"] = min(low + 1, spec.r)
        res = rewrite.verify_rewrite_identity(spec, rule, u, f=f, f_i=f_i, **kwargs)
        if not res["ok"]:
            failures += 1
        if res["lhs_terms"] == 0 and res["rhs_terms"] == 0:
            trivial += 1
    return {
        "id": 5,
        "name": "rewrite_soundness",
        "pass": failures == 0,
        "cases": SOUNDNESS_CASES,
        "failures": failures,
        "trivial_cases": trivial,
    }


def check_rewrite_termination(config: RunConfig):
    reports = {}
    ok = True
    for r in (2, 3, 4):
        rep = rewrite.termination_sweep(r, config.sweep_total)
        good = rep["classification_failures"] == 0 and rep["w_violations"] == 0
        reports[f"step_{r}"] = rep
        ok &= good
    return {
        "id": 6,
        "name": "rewrite_termination",
        "pass": ok,
        "max_total": config.sweep_total,
        "sweeps": reports,
    }


def check_obstruction(config: RunConfig):
    rep = rewrite.naive_order_obstruction()
    ok = rep["obstructed_directions"] == [[2, 1]]
    return {"id": 7, "name": "naive_order_obstruction", "pass": ok, "report": rep}


def _harmonic_solution(spec, coefficients, n, boundary_poly):
    return numerics.assemble_and_solve(spec, coefficients, [boundary_poly], n=n)


def check_solver(config: RunConfig):
    spec = heisenberg()
    ident = SystemCoefficients.identity(1, spec.m)
    u_star = (
        PolyFunction.variable((1, 1)) ** 4 + PolyFunction.variable((1, 2)) ** 4
    )
    sizes = tuple(sorted({8, 16, min(32, config.n)}))
    study = numerics.convergence_study(spec, ident, [u_star], sizes=sizes)
    ok = study["order"] >= 1.8
    return {
        "id": 8,
        "name": "solver_convergence",
        "pass": ok,
        "order": study["order"],
        "sizes": study["sizes"],
        "errors": study["errors"],
    }


def check_caccioppoli(config: RunConfig):
    spec = heisenberg()
    ident = SystemCoefficients.identity(1, spec.m)
    bc = PolyFunction.variable((1, 1)) * PolyFunction.variable((1, 2))
    sizes = tuple(sorted({16, max(24, min(32, config.n))}))
    constants = []
    for n in sizes:
        sol = _harmonic_solution(spec, ident, n, bc)
        rep = numerics.caccioppoli_check(sol, radius=0.45)
        constants.append(rep["empirical_constant"])
    spread = max(constants) / min(constants) if min(constants) > 0 else float("inf")
    return {
        "id": 9,
        "name": "caccioppoli_stability",
        "pass": spread <= 2.0,
        "sizes": list(sizes),
        "constants": constants,
        "spread": spread,
    }


def check_excess_decay(config: RunConfig):
    spec = heisenberg()
    ident = SystemCoefficients.identity(1, spec.m)
    # the smallest fitted ball needs a few lattice planes
    n = max(config.n, 24)
    sol = _harmonic_solution(spec, ident, n, PolyFunction.variable((1, 1)))
    center = [0.0] * len(spec.basis)
    rep = regularity.excess_decay_check(
        sol, center, 0.5, 1.0, radii=[0.25, 0.5, 1.0]
    )
    ok = rep["fitted_exponent"] >= DECAY_THRESHOLD
    return {
        "id": 10,
        "name": "excess_decay",
        "pass": ok,
        "n": n,
        "fitted_exponent": rep["fitted_exponent"],
        "threshold": DECAY_THRESHOLD,
        "Q": rep["Q"],
        "integral_constant": rep["integral_constant"],
        "mean_ratio": rep["mean_ratio"],
    }


def check_determinism(config: RunConfig):
    # same seed and shard scheme must reproduce byte-equal numbers; the CLI
    # level byte-identity of two suite runs is exercised by the test suite
    spec = heisenberg()
    first = group.ball_volume_estimate(spec, 1.0, 50_000, seed=config.seed,
                                       shard=1 << 12)
    second = group.ball_volume_estimate(spec, 1.0, 50_000, seed=config.seed,
                                        shard=1 << 12)
    rng_a = config.rng(99)
    rng_b = config.rng(99)
    pts_equal = all(
        _rand_point(spec, rng_a) == _rand_point(spec, rng_b) for _ in range(10)
    )
    ok = first == second and pts_equal
    return {
        "id": 11,
        "name": "determinism",
        "pass": ok,
        "estimate": first["estimate"],
        "replayed_equal": first == second,
        "sampler_equal": pts_equal,
    }


ALL_CHECKS = [
    check_exact_algebra,
    check_group_exactness,
    check_ball_volume,
    check_fields,
    check_rewrite_soundness,
    check_rewrite_termination,
    check_obstruction,
    check_solver,
    check_caccioppoli,
    check_excess_decay,
    check_determinism,
]


def run_suite(config: RunConfig | None = None):
    """Run every check; partial failures still produce the full report."""
    config = config or RunConfig()
    entries = []
    for check in ALL_CHECKS:
        try:
            entries.append(check(config))
        except Exception as exc:  # a falsified invariant should surface, not abort
            entries.append(
                {
                    "id": len(entries) + 1,
                    "name": check.__name__,
                    "pass": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    return {
        "config": {
            # each check picks its own groups; the key keeps the report's bytes
            "group": "heisenberg",
            "n": config.n,
            "seed": config.seed,
            "assoc_triples": config.assoc_triples,
            "mc_samples": config.mc_samples,
            "soundness_cases": SOUNDNESS_CASES,
            "sweep_total": config.sweep_total,
        },
        "checks": entries,
        "all_pass": all(e.get("pass") for e in entries),
    }
