"""One-shot verification suite: one check per acceptance criterion.

Every check takes its sizes from a ``RunConfig`` and gates on the bounds in
``THRESHOLDS``.  ``RunConfig()`` is the fast desk preset behind ``carnot
suite``; ``ACCEPTANCE`` is the full-strength preset of the acceptance tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import __version__, algebra, group, numerics, regularity, rewrite
from .catalog import engel, heisenberg
from .fields import SystemCoefficients, commutator_check, system_residual
from .poly import PolyFunction

FREE_GROUPS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]

THRESHOLDS = {
    "ball_volume_rel_error": 0.03,  # 3: |B(2R)|/|B(R)| within this of 2^Q
    "nontrivial_share": 0.5,  # 5: share of identities with a nonzero left side
    "convergence_order": 1.8,  # 8: least-squares L2 error order
    "caccioppoli_spread": 2.0,  # 9: max/min energy constant across grids
    "decay_margin": 0.3,  # 10: fitted exponent >= Q + 2 - margin
}
SOLVER_COARSEST = 8  # criterion 8's coarsest grid


def decay_threshold(q_hom):
    """Criterion 10's gate on the fitted excess-decay exponent."""
    return q_hom + 2 - THRESHOLDS["decay_margin"]


def ladder(low, top):
    """Grid sizes ``low, 2*low, ...`` below ``top``, then ``top``."""
    sizes = []
    while low < top:
        sizes.append(low)
        low *= 2
    return sizes + [top]


@dataclass(frozen=True)
class RunConfig:
    n: int = 32
    seed: int = 12345
    assoc_triples: int = 200
    mc_samples: int = 200_000
    sweep_total: int = 5
    soundness_cases: int = 24

    def __post_init__(self):
        for name in ("assoc_triples", "mc_samples", "sweep_total", "soundness_cases"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n <= SOLVER_COARSEST:
            raise ValueError(
                f"n must exceed {SOLVER_COARSEST}, the coarsest grid of the "
                f"convergence study, got {self.n}"
            )

    def rng(self, salt=0):
        return random.Random(self.seed * 1_000_003 + salt)


ACCEPTANCE = RunConfig(
    n=64, assoc_triples=1000, mc_samples=1_000_000, sweep_total=6, soundness_cases=200
)


def _rand_point(spec, rng):
    return group.Point(spec, {
        lab: Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for lab in spec.basis
    })


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
    free = [
        (algebra.build_free_nilpotent(m, r), algebra.witt_layer_dims(m, r))
        for m, r in FREE_GROUPS
    ]
    groups = {}
    for spec, witt in free + [(heisenberg(), None), (engel(), None)]:
        problems = algebra.validate_spec(spec)
        entry = groups[spec.name] = {
            "layer_dims": list(spec.layer_dims),
            "violations": len(problems),
            "ok": not problems,
        }
        if witt is not None:
            entry["witt_dims"] = witt
            entry["ok"] &= entry["layer_dims"] == witt
    ok = all(entry["ok"] for entry in groups.values())
    return {"pass": ok, "groups": groups}


def check_group_exactness(config: RunConfig):
    rng = config.rng(1)
    per_group = {}
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
        per_group[spec.name] = {
            "associativity": assoc,
            "dilation_homomorphism": dil,
            "gauge_homogeneity": gauge,
        }
    return {
        "pass": all(all(flags.values()) for flags in per_group.values()),
        "triples": config.assoc_triples,
        "groups": per_group,
    }


def check_ball_volume(config: RunConfig):
    spec = heisenberg()
    small = group.ball_volume_estimate(spec, 1.0, config.mc_samples, seed=config.seed)
    big = group.ball_volume_estimate(spec, 2.0, config.mc_samples, seed=config.seed + 1)
    # no sample in the small ball leaves the ratio undefined and the gate failed
    ratio = big["estimate"] / small["estimate"] if small["estimate"] else None
    q_hom = spec.homogeneous_dimension()
    tolerance = THRESHOLDS["ball_volume_rel_error"] * 2 ** q_hom
    # each 95 % half width within half the tolerance: too few samples fail
    half = 0.5 * THRESHOLDS["ball_volume_rel_error"]
    tight = all(e["ci"][1] - e["estimate"] <= half * e["estimate"] for e in (small, big))
    return {
        "pass": ratio is not None and tight and abs(ratio - 2 ** q_hom) <= tolerance,
        "Q": q_hom,
        "ratio": ratio,
        "expected": 2 ** q_hom,
        "samples": config.mc_samples,
        "estimates": {"R=1": small, "R=2": big},
    }


def check_fields(config: RunConfig):
    reports = {}
    for spec in (heisenberg(), engel(), algebra.build_free_nilpotent(2, 3)):
        reports[spec.name] = commutator_check(spec)["ok"]
    heis = heisenberg()
    ident = SystemCoefficients.identity(1, heis.m)
    reports["coordinate_residuals_vanish"] = all(
        p.is_zero()
        for lab in [(1, 1), (1, 2), (2, 1)]
        for p in system_residual(heis, ident, [PolyFunction.variable(lab)])
    )
    ok = all(reports.values())
    return {"pass": ok, "checks": reports}


def check_rewrite_soundness(config: RunConfig):
    rng = config.rng(5)
    free = algebra.build_free_nilpotent
    specs = [free(2, 2), free(2, 3), engel(), free(2, 4)]
    rules = ["shift", "expand_fi", "expand_f"]
    failures = trivial = nontrivial = 0
    for case in range(config.soundness_cases):
        spec = specs[case % len(specs)]
        rule = rules[case % len(rules)]
        u = _rand_poly(spec, rng, degree=6, terms=7)
        f = _rand_poly(spec, rng, degree=4, terms=3)
        f_i = [_rand_poly(spec, rng, degree=4, terms=3) for _ in range(spec.m)]
        counts = [0] * spec.r
        for _ in range(rng.randint(1, 3)):
            counts[rng.randrange(1, spec.r)] += 1
        profile = rewrite.LayerProfile(spec.r, counts)
        if rule == "shift":
            layer = rng.randint(2, spec.r)
            kwargs = {"shift_params": (rng.randint(0, 2), rng.randint(1, 2), layer)}
        else:
            kwargs = {"profile": profile, "l": min(profile.lowest_layer() + 1, spec.r)}
        res = rewrite.verify_rewrite_identity(spec, rule, u, f=f, f_i=f_i, **kwargs)
        failures += not res["ok"]
        trivial += res["lhs_terms"] == 0 and res["rhs_terms"] == 0
        nontrivial += res["lhs_terms"] > 0
    enough = nontrivial >= THRESHOLDS["nontrivial_share"] * config.soundness_cases
    return {
        "pass": failures == 0 and enough,
        "cases": config.soundness_cases,
        "failures": failures,
        "trivial_cases": trivial,
        "nontrivial_cases": nontrivial,
    }


def check_rewrite_termination(config: RunConfig):
    reports = {
        f"step_{r}": rewrite.termination_sweep(r, config.sweep_total) for r in (2, 3, 4)
    }
    ok = all(
        rep["classification_failures"] == 0 and rep["w_violations"] == 0
        for rep in reports.values()
    )
    return {
        "pass": ok,
        "max_total": config.sweep_total,
        "sweeps": reports,
    }


def check_obstruction(config: RunConfig):
    rep = rewrite.naive_order_obstruction()
    ok = rep["obstructed_directions"] == [[2, 1]]
    return {"pass": ok, "report": rep}


def check_solver(config: RunConfig):
    spec = heisenberg()
    ident = SystemCoefficients.identity(1, spec.m)
    u_star = PolyFunction.variable((1, 1)) ** 4 + PolyFunction.variable((1, 2)) ** 4
    sizes = tuple(ladder(SOLVER_COARSEST, config.n)[-3:])
    study = numerics.convergence_study(spec, ident, [u_star], sizes=sizes)
    return {
        "pass": study["order"] >= THRESHOLDS["convergence_order"],
        "order": study["order"],
        "sizes": study["sizes"],
        "errors": study["errors"],
    }


def check_caccioppoli(config: RunConfig):
    spec = heisenberg()
    ident = SystemCoefficients.identity(1, spec.m)
    bc = PolyFunction.variable((1, 1)) * PolyFunction.variable((1, 2))
    sizes = ladder(16, max(config.n, 24))
    constants = []
    for n in sizes:
        sol = numerics.assemble_and_solve(spec, ident, [bc], n=n)
        rep = numerics.caccioppoli_check(sol, radius=0.45)
        constants.append(rep["empirical_constant"])
    spread = max(constants) / min(constants) if min(constants) > 0 else float("inf")
    return {
        "pass": spread <= THRESHOLDS["caccioppoli_spread"],
        "sizes": sizes,
        "constants": constants,
        "spread": spread,
    }


def check_excess_decay(config: RunConfig):
    spec = heisenberg()
    ident = SystemCoefficients.identity(1, spec.m)
    # the smallest fitted ball needs a few lattice planes
    n = max(config.n, 24)
    sol = numerics.assemble_and_solve(spec, ident, [PolyFunction.variable((1, 1))], n=n)
    rep = regularity.excess_decay_check(sol, None, 0.5, 1.0, radii=[0.25, 0.5, 1.0])
    threshold = decay_threshold(rep["Q"])
    return {
        "pass": rep["fitted_exponent"] >= threshold,
        "n": n,
        "fitted_exponent": rep["fitted_exponent"],
        "threshold": threshold,
        "Q": rep["Q"],
        "integral_constant": rep["integral_constant"],
        "mean_ratio": rep["mean_ratio"],
    }


def check_determinism(config: RunConfig):
    # same seed and shard scheme must reproduce byte-equal numbers; the CLI
    # level byte-identity of two suite runs is exercised by the test suite
    spec = heisenberg()
    first, second = (
        group.ball_volume_estimate(spec, 1.0, 50_000, seed=config.seed, shard=1 << 12)
        for _ in range(2)
    )
    rng_a, rng_b = config.rng(99), config.rng(99)
    pts_equal = all(
        _rand_point(spec, rng_a) == _rand_point(spec, rng_b) for _ in range(10)
    )
    return {
        "pass": first == second and pts_equal,
        "estimate": first["estimate"],
        "replayed_equal": first == second,
        "sampler_equal": pts_equal,
    }


# (name, check) per acceptance criterion; a criterion's id is its place
ALL_CHECKS = [
    ("exact_algebra", check_exact_algebra),
    ("exact_group", check_group_exactness),
    ("ball_volume_scaling", check_ball_volume),
    ("vector_fields", check_fields),
    ("rewrite_soundness", check_rewrite_soundness),
    ("rewrite_termination", check_rewrite_termination),
    ("naive_order_obstruction", check_obstruction),
    ("solver_convergence", check_solver),
    ("caccioppoli_stability", check_caccioppoli),
    ("excess_decay", check_excess_decay),
    ("determinism", check_determinism),
]


def run_suite(config: RunConfig | None = None):
    """Run every check; partial failures still produce the full report."""
    config = config or RunConfig()
    entries = []
    for number, (name, check) in enumerate(ALL_CHECKS, 1):
        try:
            entry = check(config)
        except Exception as exc:  # a falsified invariant should surface, not abort
            entry = {"pass": False, "error": f"{type(exc).__name__}: {exc}"}
        entries.append({"id": number, "name": name, **entry})
    return {
        "version": __version__,
        "config": asdict(config),
        "checks": entries,
        "all_pass": all(e.get("pass") for e in entries),
    }
