"""The benchmark's span tracer still finds every name it wraps, and its
``exact``, ``solve`` and ``estimates`` passes keep their bits.

``perfbench/spans.py`` re-binds named ``carnot`` functions and methods; a
rename or deletion in the package would otherwise only show up in a traced
benchmark run.  ``perfbench/workloads.py`` digests everything a pass
computes; the digests below pin the exact layers' results, the floats of
the first solve pass and those of the estimate checks.
"""

import importlib
import importlib.util
from pathlib import Path

import carnot.cli  # noqa: F401  (imports every carnot module)
from carnot import numerics
from carnot.algebra import AlgebraElement
from carnot.catalog import heisenberg
from carnot.fields import SystemCoefficients
from carnot.poly import PolyFunction

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_installs_and_restores_every_target():
    spans = _load("spans")
    before = {(mod, attr): _target(mod, attr) for mod, attr, _, _ in spans.TARGETS}
    spec = heisenberg()
    x, y = (AlgebraElement.basis(spec, (1, i)) for i in (1, 2))
    tracer = spans.Tracer()
    try:
        tracer.install()
        for key, original in before.items():
            assert _target(*key) is not original, key
        importlib.import_module("carnot.algebra").bracket(x, y)
        stats = tracer.span_stats()[0]
        assert stats["algebra.bracket"][0] == 1
    finally:
        tracer.uninstall()
    for key, original in before.items():
        assert _target(*key) is original, key


def test_traced_solve_counts_one_cg_call_and_its_iterations():
    # the CG hook reads K as the first positional argument and passes its
    # own iteration callback
    spans = _load("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        report = numerics.assemble_and_solve(
            heisenberg(), SystemCoefficients.identity(1, 2),
            [PolyFunction.variable((1, 1))], n=9,
        ).solve_report
        stats = tracer.span_stats()[0]
    finally:
        tracer.uninstall()
    assert stats["numerics.cg"][0] == 1
    assert tracer.counters[(0, "numerics.cg.iters")] == report["iterations"] > 0


# the PassResult digests (SHA-256) of exact passes 0-2 at seed 1: they hash
# exact results only (Fractions, term counts and sweep reports), so no
# numpy or BLAS build moves them
EXACT_PASS_DIGESTS = [
    "3a0184ef2ed033d7a256ed7bf6f137d0d819e00c7821395fb13901303edc79f9",
    "b9e31303f39907137d7e91e4d035e25e134f3f229c2db58cd43c99e16e7982c6",
    "59be70b03ad90261d48254b07bf3f830f897fe8c0df6b291058c8d2bf1d45dc3",
]


def test_exact_passes_keep_their_digests():
    workloads = _load("workloads")
    state = workloads.exact_setup(1)
    for index, want in enumerate(EXACT_PASS_DIGESTS):
        result = workloads.exact_pass(state, 1, index)
        assert (result.attempted, result.failed) == (1405, 0)
        assert result.digest() == want, index


# the PassResult digest of solve pass 0 at seed 1 (Heisenberg n = 64 and
# Engel n = 24, a few seconds): it hashes each solve's weak residual, unknown
# count and values, so, as below, a numpy or BLAS build may move it
SOLVE_PASS_DIGEST = "4c1b14a469a9d07986224001b62ba8a622f1e0b50c15d6a4dce86644d7e15f69"


def test_solve_pass_keeps_its_digest():
    workloads = _load("workloads")
    result = workloads.solve_pass(workloads.solve_setup(1), 1, 0)
    assert (result.attempted, result.failed) == (4, 0)
    assert result.digest() == SOLVE_PASS_DIGEST


# the PassResult digests of estimates passes 0-2 at seed 1: they hash the
# floats every estimate check reports on one solved Heisenberg field, so a
# numpy or BLAS build may move them without any change to the package
ESTIMATE_PASS_DIGESTS = [
    "bd96f7035f18b99df02be0360bac38ed1794b9645e2bd0e274861054b7e9650f",
    "39445884521a993c081103859ff254c86a33cc390ea216549594c0cfb538414a",
    "439fe30493c6d66ab57c08441cf047b31104bc8ec7ed5c89cc14685ee0f62cf8",
]


def test_estimates_passes_keep_their_digests():
    workloads = _load("workloads")
    state = workloads.estimates_setup(1)
    for index, want in enumerate(ESTIMATE_PASS_DIGESTS):
        result = workloads.estimates_pass(state, 1, index)
        assert (result.attempted, result.failed) == (8, 0)
        assert result.digest() == want, index
