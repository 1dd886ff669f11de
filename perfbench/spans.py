"""Span tracing installed from outside ``carnot``.

A :class:`Tracer` wraps public functions of the ``carnot`` modules.  Each
call through a wrapper records one span: name, start, end, parent span and
trace id (one trace per workload pass, trace 0 for set-up).  Spans are kept
in flat arrays in memory and written out once, when the run ends.

Functions that other ``carnot`` modules import under their own name
(``numerics.group_law``, ``rewrite.field_of_element``, ...) are re-bound
in every module that holds them, so each call is counted exactly once.
Wrappers go down to the ``PolyFunction`` methods and no further: the
``Fraction`` operators are never wrapped.

The self time of a span is its duration minus the durations of its child
spans; calls are strictly nested in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


# -- hooks: counters measured where the work happens -------------------------
#
# A hook replaces the plain call ``fn(*args, **kwargs)`` inside a span; it
# must call ``fn`` exactly once with the same arguments, apart from
# observers such as the CG iteration callback.

def _group_law_hook(tracer, fn, args, kwargs):
    spec = args[0]
    if "law" not in spec._cache:
        tracer.count("group.group_law.builds")
    return fn(*args, **kwargs)


def _field_hook(tracer, fn, args, kwargs):
    spec, label = args[0], tuple(args[1])
    if label not in spec._cache.get("fields", {}):
        tracer.count("fields.left_invariant_field.misses")
    return fn(*args, **kwargs)


def _bch_hook(tracer, fn, args, kwargs):
    # inclusive time per spec, for the per-call figures of the ROADMAP keys
    tag = (args[0].spec.name or "table").replace(":", "-").replace(",", "-")
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    tracer.count(f"group.bch_product.time.{tag}", time.perf_counter() - start)
    tracer.count(f"group.bch_product.calls.{tag}")
    return result


# Per CG iteration, scipy's loop reads the CSR arrays once and makes 25
# passes over n-vectors of 8 bytes: norm(r) 1, diagonal preconditioner 3,
# two dots 4, the p update 5, the matvec's x read and y write 2, and the
# x and r updates 5 each.
CG_VECTOR_PASSES = 25


def _cg_hook(tracer, fn, args, kwargs):
    mat = args[0]
    if "callback" in kwargs:
        raise RuntimeError("numerics already passes a CG callback")
    iters = [0]

    def callback(_xk):
        iters[0] += 1

    result = fn(*args, callback=callback, **kwargs)
    n = mat.shape[0]
    matrix_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    tracer.count("numerics.cg.iters", iters[0])
    tracer.count("numerics.unknowns", n)
    tracer.count("numerics.nnz", mat.nnz)
    tracer.count(
        "numerics.cg.bytes_moved",
        iters[0] * (matrix_bytes + CG_VECTOR_PASSES * 8 * n),
    )
    return result


def _sample_hook(tracer, fn, args, kwargs):
    tracer.count("numerics.sample_at.points", int(np.size(args[1][0])))
    return fn(*args, **kwargs)


def _rewrite_hook(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count("rewrite.nontrivial", int(result["lhs_terms"] > 0))
    return result


def _sweep_hook(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count("rewrite.sweep.profiles", result["profiles"])
    tracer.maximum("rewrite.sweep.max_trace", result["max_trace"])
    return result


# (module, attribute or Class.method, span name, hook)
TARGETS = [
    ("carnot.poly", "PolyFunction.evaluate", "poly.evaluate", None),
    ("carnot.poly", "PolyFunction.evaluate_arrays", "poly.evaluate_arrays", None),
    ("carnot.poly", "PolyFunction.__mul__", "poly.mul", None),
    ("carnot.poly", "PolyFunction.derivative", "poly.derivative", None),
    ("carnot.algebra", "validate_spec", "algebra.validate_spec", None),
    ("carnot.algebra", "bracket", "algebra.bracket", None),
    ("carnot.group", "bch_product", "group.bch_product", _bch_hook),
    ("carnot.group", "group_law", "group.group_law", _group_law_hook),
    ("carnot.group", "ball_volume_estimate", "group.ball_volume_estimate", None),
    ("carnot.fields", "left_invariant_field", "fields.left_invariant_field", _field_hook),
    ("carnot.fields", "field_of_element", "fields.field_of_element", None),
    ("carnot.fields", "VectorFieldOperator.apply", "fields.apply", None),
    ("carnot.fields", "commutator_check", "fields.commutator_check", None),
    ("carnot.rewrite", "verify_rewrite_identity", "rewrite.verify_rewrite_identity",
     _rewrite_hook),
    ("carnot.rewrite", "reduce_to_base", "rewrite.reduce_to_base", None),
    ("carnot.rewrite", "termination_sweep", "rewrite.sweep", _sweep_hook),
    ("carnot.numerics", "assemble_and_solve", "numerics.assemble", None),
    ("carnot.numerics", "coordinate_derivative_matrix",
     "numerics.coordinate_derivative_matrix", None),
    ("carnot.numerics", "_cg", "numerics.cg", _cg_hook),
    ("carnot.numerics", "flow_coordinates", "numerics.flow_coordinates", None),
    ("carnot.numerics", "sample_at", "numerics.sample_at", _sample_hook),
    ("carnot.numerics", "gauge_distance_arrays", "numerics.gauge_distance_arrays", None),
    ("carnot.numerics", "centered_derivative", "numerics.centered_derivative", None),
    ("carnot.numerics", "caccioppoli_check", "numerics.caccioppoli_check", None),
    ("carnot.numerics", "peetre_seminorm", "numerics.peetre_seminorm", None),
    ("carnot.numerics", "hormander_ratio", "numerics.hormander_ratio", None),
    ("carnot.regularity", "excess_decay_check", "regularity.excess_decay_check", None),
    ("carnot.regularity", "blowup_rescale", "regularity.blowup_rescale", None),
    ("carnot.regularity", "sup_estimate_check", "regularity.sup_estimate_check", None),
    ("carnot.regularity", "higher_order_estimate_check",
     "regularity.higher_order_estimate_check", None),
]


class Tracer:
    """Span recorder with wrappers that can be installed and removed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.trace = array("H")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.trace_id = 0
        self.counters = defaultdict(float)   # (trace id, key) -> value
        self._patches = []

    # -- recording ---------------------------------------------------------

    def count(self, key, amount=1):
        self.counters[(self.trace_id, key)] += amount

    def maximum(self, key, value):
        slot = (self.trace_id, key)
        self.counters[slot] = max(self.counters[slot], value)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, hook):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter
        names, parents, traces = self.name, self.parent, self.trace
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(tracer.current)
            traces.append(tracer.trace_id)
            ends.append(0.0)
            tracer.current = idx
            starts.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target; re-bind names imported into other modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "carnot" or key.startswith("carnot.")]
        for modname, attr, name, hook in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patches.append((owner, meth, original))
                setattr(owner, meth, self._wrap(original, name, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        originals = {id(orig) for _, _, orig in self._patches}
        for mod in modules:
            for key, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(f"{mod.__name__}.{key} escaped the tracer")

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reduction ------------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trace": np.frombuffer(self.trace, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def span_stats(self):
        """``{trace id: {span name: (calls, self seconds)}}``."""
        data = self.arrays()
        dur = data["end"] - data["start"]
        parent = data["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        out = defaultdict(dict)
        key = data["trace"].astype(np.int64) * len(self.names) + data["name"]
        calls = np.bincount(key)
        selfs = np.bincount(key, weights=self_time)
        for k in np.flatnonzero(calls):
            trace_id, nid = divmod(int(k), len(self.names))
            out[trace_id][self.names[nid]] = (int(calls[k]), float(selfs[k]))
        return out

    def write(self, path):
        np.savez_compressed(path, **self.arrays())
