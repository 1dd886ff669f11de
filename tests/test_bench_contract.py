"""The benchmark's span tracer still finds every name it wraps.

``perfbench/spans.py`` re-binds named ``carnot`` functions and methods; a
rename or deletion in the package would otherwise only show up in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import carnot.cli  # noqa: F401  (imports every carnot module)
from carnot.algebra import AlgebraElement
from carnot.catalog import heisenberg

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
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
    spans = _load_spans()
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
