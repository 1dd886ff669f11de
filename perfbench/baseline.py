"""Cross-check of the benchmark against the ROADMAP's seed-baseline figures.

    python3 perfbench/baseline.py

Measures, on the ROADMAP's own inputs, the figures it quotes: the exact
``bch_product`` per call, CG iterations for Dirichlet data p11 on
Heisenberg n = 16, 32, 64 and Engel n = 24, the Heisenberg n=64 solve time
and the step-4 termination sweep.  Prints each beside the ROADMAP figure
and flags any that differs by more than a tenth.  ``NOTES.md`` records the
result on the reference machine.
"""

import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from carnot import group, numerics, rewrite  # noqa: E402
from carnot.algebra import build_free_nilpotent  # noqa: E402
from carnot.catalog import engel, heisenberg  # noqa: E402
from carnot.fields import SystemCoefficients  # noqa: E402
from carnot.poly import PolyFunction  # noqa: E402
from spans import Tracer  # noqa: E402

# figure name -> (ROADMAP value, unit); a range is (low, high)
ROADMAP = {
    "bch_us.free-2-2": (60, "us"),
    "bch_us.free-2-3": (230, "us"),
    "bch_us.free-2-4": (630, "us"),
    "bch_us.free-3-3": (940, "us"),
    "cg_iters.heisenberg-16": (121, "count"),
    "cg_iters.heisenberg-32": (261, "count"),
    "cg_iters.heisenberg-64": (538, "count"),
    "cg_iters.engel-24": (236, "count"),
    "solve_s.heisenberg-64": ((4.3, 5.5), "s"),
    "solve_s.engel-24": (4.4, "s"),
    "sweep_s.r4-total6": (0.24, "s"),
}
BCH_CALLS = 200
BCH_BATCHES = 5
SOLVE_REPEATS = 3


def bch_us(m, r):
    spec = build_free_nilpotent(m, r)
    group.group_law(spec)
    rng = random.Random(20240)
    batches = []
    for _ in range(BCH_BATCHES):
        pairs = [
            tuple(group.Point(spec, {lab: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                     for lab in spec.basis}) for _ in range(2))
            for _ in range(BCH_CALLS)
        ]
        start = time.perf_counter()
        for p, q in pairs:
            group.bch_product(p, q)
        batches.append(1e6 * (time.perf_counter() - start) / BCH_CALLS)
    return statistics.median(batches)


def solve(spec, n):
    """Seconds and CG iterations of one p11 solve."""
    ident = SystemCoefficients.identity(1, spec.m)
    data = [PolyFunction.variable((1, 1))]
    tracer = Tracer()
    tracer.install()
    try:
        numerics.assemble_and_solve(spec, ident, data, n=n)
    finally:
        tracer.uninstall()
    iters = int(tracer.counters[(0, "numerics.cg.iters")])
    times = []
    for _ in range(SOLVE_REPEATS):
        start = time.perf_counter()
        numerics.assemble_and_solve(spec, ident, data, n=n)
        times.append(time.perf_counter() - start)
    return statistics.median(times), iters


def measure():
    out = {}
    for m, r in ((2, 2), (2, 3), (2, 4), (3, 3)):
        out[f"bch_us.free-{m}-{r}"] = bch_us(m, r)
    heis = heisenberg()
    for n in (16, 32, 64):
        seconds, iters = solve(heis, n)
        out[f"cg_iters.heisenberg-{n}"] = iters
        if n == 64:
            out["solve_s.heisenberg-64"] = seconds
    seconds, iters = solve(engel(), 24)
    out["cg_iters.engel-24"] = iters
    out["solve_s.engel-24"] = seconds
    start = time.perf_counter()
    rewrite.termination_sweep(4, 6)
    out["sweep_s.r4-total6"] = time.perf_counter() - start
    return out


def main():
    measured = measure()
    print(f"{'figure':<26}{'measured':>12}{'ROADMAP':>14}  unit  check")
    for key, value in measured.items():
        ref, unit = ROADMAP[key]
        low, high = ref if isinstance(ref, tuple) else (ref, ref)
        off = value < 0.9 * low or value > 1.1 * high
        shown = f"{low}-{high}" if low != high else f"{low}"
        print(f"{key:<26}{value:>12.4g}{shown:>14}  {unit:<5} "
              f"{'DIFFERS by more than a tenth' if off else 'ok'}")
    print(json.dumps(measured))


if __name__ == "__main__":
    main()
