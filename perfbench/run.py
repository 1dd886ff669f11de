"""Benchmark of the carnot package: one workload per run.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30     # all workloads, one table

Run from the repository root; the package is imported from ``src/``.  The
workload is a closed loop with one caller: each pass waits for the one
before it.  With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``, times in reference seconds (see ``ruler.py``); with
``--trace 1`` it reports the per-layer metrics, taken from spans recorded
around the package's public functions, and writes the spans to
``perfbench/traces/``.  The last line of standard output is one JSON
object; the lines before it are a readable table.  ``NOTES.md`` explains
the workloads and the metrics.
"""

import time

T0 = time.perf_counter()    # set-up time starts before the heavy imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
TRACE_DIR = HERE / "traces"

WORKLOAD_NAMES = ("exact", "solve", "estimates")
MIN_PASSES = 2               # untraced passes per run
RULER_SHARE = 0.35           # ruler time after each pass or probe, as a share of it
SETUP_PROBE_SECONDS = 5.0    # probe set-ups per run stop after this long
MIN_SETUP_SAMPLES = 3        # this process and at least two probes
CHILD_TIMEOUT = 170          # seconds, for every process this one starts


def cap_threads():
    """numpy's and scipy's own thread pools get one thread; set before
    numpy is first imported, and inherited by every probe.  A second BLAS
    thread makes no solve faster (NOTES.md, "Noise") and would tie the
    timings to the load on the other core."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def metric_specs():
    with open(SPEC_FILE) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def import_workloads():
    if not (SRC / "carnot" / "__init__.py").is_file():
        fail(f"no carnot package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# set-up samples
# ---------------------------------------------------------------------------

def probe_setup(args):
    """Print this process's set-up time; started by :func:`setup_samples`."""
    workloads = import_workloads()
    setup, _ = workloads.WORKLOADS[args.workload]
    setup(args.seed)
    print(repr(time.perf_counter() - T0))


def setup_samples(args, own, ruler):
    """Set-up time of this process plus that of fresh probe processes,
    started one after the other until ``SETUP_PROBE_SECONDS`` have passed.
    Each probe is followed by ruler units for ``RULER_SHARE`` of its time."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    while (len(samples) < MIN_SETUP_SAMPLES
           or time.perf_counter() - start < SETUP_PROBE_SECONDS):
        probe_start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail(f"set-up probe exited with {done.returncode}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        ruler.measure(RULER_SHARE * (time.perf_counter() - probe_start))
    return samples


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def timed_pass(run_pass, state, seed, index):
    start = time.perf_counter()
    result = run_pass(state, seed, index)
    return time.perf_counter() - start, result


def untraced_passes(run_pass, state, seed, seconds, ruler):
    """Passes, each followed by ruler units for ``RULER_SHARE`` of its
    time, until the next pair would overrun ``seconds`` (at least two)."""
    times, results = [], []
    start = time.perf_counter()
    while True:
        elapsed, result = timed_pass(run_pass, state, seed, len(times))
        times.append(elapsed)
        results.append(result)
        ruler.measure(RULER_SHARE * elapsed)
        used = time.perf_counter() - start
        if len(times) >= MIN_PASSES and used + used / len(times) > seconds:
            return times, results


def paired_passes(run_pass, state, seed, seconds, tracer):
    """Each pass index runs untraced and traced, in alternating order.

    Returns the untraced and traced times, every pass result, and the
    number of pairs whose digests differ (tracing must change no result).
    """
    plain, traced, results = [], [], []
    mismatches = 0
    start = time.perf_counter()
    while True:
        index = len(plain)
        digests = {}
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.trace_id = index + 1
                tracer.install()
            try:
                elapsed, result = timed_pass(run_pass, state, seed, index)
            finally:
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else plain).append(elapsed)
            results.append(result)
            digests[with_trace] = result.digest()
        mismatches += digests[False] != digests[True]
        used = time.perf_counter() - start
        pair = statistics.median(plain) + statistics.median(traced)
        if used + pair > seconds:
            return plain, traced, results, mismatches


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

def layer_metrics(tracer, traced_ids, overhead_frac):
    """Per-layer figures for set-up plus one pass.

    Counts add the set-up trace to the first traced pass, so they repeat
    exactly for a seed; self times add the set-up trace to the median over
    traced passes.
    """
    from spans import TARGETS

    stats = tracer.span_stats()
    first = traced_ids[0]

    def calls(name):
        return sum(stats[t].get(name, (0, 0.0))[0] for t in (0, first))

    def self_s(name):
        per_pass = [stats[t].get(name, (0, 0.0))[1] for t in traced_ids]
        return stats[0].get(name, (0, 0.0))[1] + statistics.median(per_pass)

    def counter(key):
        return sum(tracer.counters.get((t, key), 0) for t in (0, first))

    def share(part, whole):
        return part / whole if whole else 0.0

    out = {}
    for _, _, name, _ in TARGETS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["group.group_law.builds"] = int(counter("group.group_law.builds"))
    for name, misses in (("group.group_law", "group.group_law.builds"),
                         ("fields.left_invariant_field",
                          "fields.left_invariant_field.misses")):
        out[f"{name}.hit_frac"] = share(calls(name) - counter(misses), calls(name))
    for tag in ("free-2-2", "free-2-4", "free-3-3"):
        per_pass = []
        for t in traced_ids:
            n = tracer.counters.get((t, f"group.bch_product.calls.{tag}"), 0)
            if n:
                spent = tracer.counters[(t, f"group.bch_product.time.{tag}")]
                per_pass.append(1e6 * spent / n)
        out[f"group.bch_product.us.{tag}"] = statistics.median(per_pass) if per_pass else 0.0
    out["rewrite.nontrivial_frac"] = share(
        counter("rewrite.nontrivial"), calls("rewrite.verify_rewrite_identity"))
    out["rewrite.sweep.profiles"] = int(counter("rewrite.sweep.profiles"))
    out["rewrite.sweep.max_trace"] = int(max(
        tracer.counters.get((t, "rewrite.sweep.max_trace"), 0) for t in (0, first)))
    for key in ("numerics.cg.iters", "numerics.unknowns", "numerics.nnz",
                "numerics.cg.bytes_moved", "numerics.sample_at.points"):
        out[key] = int(counter(key))
    out["trace.overhead_frac"] = overhead_frac
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(args):
    end_to_end, per_layer = metric_specs()
    workloads = import_workloads()
    setup, run_pass = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        state = setup(args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    own_setup = time.perf_counter() - T0

    if tracer is None:
        from ruler import RULERS

        pass_ruler = RULERS[args.workload]()
        pass_ruler.measure(1.0)                 # warm-up, not counted
        pass_ruler = pass_ruler.fresh()
        setup_ruler = pass_ruler.fresh()
        times, results = untraced_passes(run_pass, state, args.seed, args.seconds,
                                         pass_ruler)
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        setups = setup_samples(args, own_setup, setup_ruler)
        # ratio of means: the passes and the ruler windows interleave, so
        # their totals see the same stretch of the machine's drift
        values = {
            "run_s": pass_ruler.reference_seconds(statistics.fmean(times)),
            "setup_s": setup_ruler.reference_seconds(statistics.median(setups)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = end_to_end
        notes = [f"{len(times)} passes of " + ", ".join(f"{t:.3f}" for t in times)
                 + f" wall s, ruler unit {1e3 * pass_ruler.pace():.2f} ms",
                 "set-ups of " + ", ".join(f"{s:.3f}" for s in setups)
                 + f" wall s, ruler unit {1e3 * setup_ruler.pace():.2f} ms"]
    else:
        plain, traced, results, mismatches = paired_passes(
            run_pass, state, args.seed, args.seconds, tracer)
        # each pair is one more check: the traced pass reproduced the untraced one
        attempted = sum(r.attempted for r in results) + len(plain)
        failed = sum(r.failed for r in results) + mismatches
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        values = layer_metrics(tracer, list(range(1, len(traced) + 1)), overhead)
        wanted = per_layer
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path)
        notes = [f"{len(plain)} untraced/traced pass pairs, "
                 f"{len(tracer.start)} spans written to {trace_path.relative_to(ROOT)}"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics named in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}: " + "; ".join(notes))
    for name, item in metrics.items():
        print(f"  {name:<48} {item['value']:>16.6g} {item['unit']}")
    print(f"  {'fail_frac':<48} {failed / attempted:>16.6g} frac "
          f"({failed} of {attempted} checks failed)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# every workload, one table
# ---------------------------------------------------------------------------

def run_all(args):
    """Run each workload in its own process; print one combined table."""
    rows = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines:
            fail(f"workload {name} printed no result (exit {done.returncode})")
        rows[name] = json.loads(lines[-1])
        status = status or done.returncode
    names = list(rows[WORKLOAD_NAMES[0]]["metrics"]) + ["fail_frac"]
    print(f"{'metric':<48}" + "".join(f"{w:>16}" for w in WORKLOAD_NAMES) + "  unit")
    for metric in names:
        cells, unit = [], "frac"
        for w in WORKLOAD_NAMES:
            row = rows[w]
            if metric == "fail_frac":
                cells.append(row["failed"] / row["attempted"])
            else:
                cells.append(row["metrics"][metric]["value"])
                unit = row["metrics"][metric]["unit"]
        print(f"{metric:<48}" + "".join(f"{c:>16.6g}" for c in cells) + f"  {unit}")
    print(json.dumps(rows))
    return status


def main(argv=None):
    args = parse_args(argv)
    cap_threads()
    if args.setup_probe:
        if args.workload is None:
            fail("--setup-probe needs --workload")
        probe_setup(args)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
