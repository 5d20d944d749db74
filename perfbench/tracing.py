"""Span recorders around the public functions of each nangulate layer.

``Tracer.install()`` replaces every module binding of each traced function
(``hom_basis``, ``solve_right`` and ``injective_envelope`` are imported by
name into several modules) and the class attribute of each traced method.
Each call records a span: name, start, end and the index of the enclosing
span.  Spans stay in memory until ``stop()``; ``summary()`` computes self
time as duration minus the time covered by direct child spans, and
``write()`` saves the raw spans.

The recorders also keep the counts named in ``EXTRA_COUNTS`` (matrix cells,
unsolvable systems, accepted memberships...), taken at the same
boundaries as the spans.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

import nangulate.io  # noqa: F401  (not imported by the package itself)
from nangulate import engine

# (layer, qualified name) of every traced function, bottom layer first
TRACED = [
    ("linalg", "Mat.rref"),
    ("linalg", "Mat.inverse"),
    ("linalg", "solve_right"),
    ("linalg", "null_right"),
    ("linalg", "Mat.__matmul__"),
    ("algebras", "hom_basis"),
    ("algebras", "quotient_by_rows"),
    ("algebras", "closure_under_action"),
    ("algebras", "kernel"),
    ("structure", "algebra_radical"),
    ("structure", "primitive_idempotents"),
    ("structure", "projective_cover"),
    ("structure", "injective_envelope"),
    ("bimodules", "bimodule_syzygy"),
    ("bimodules", "detect_twist"),
    ("bimodules", "tensor_module_bimodule"),
    ("complexes", "LinearProblem.solve"),
    ("complexes", "is_exact"),
    ("complexes", "z1"),
    ("engine", "check_membership"),
    ("engine", "resolve"),
    ("engine", "build_context"),
    ("engine", "lift_morphism"),
    ("engine", "complete_first_map"),
    ("engine", "complete_to_chain_map"),
    ("engine", "cone_completion"),
    ("verify", "verify_axioms"),
    ("io", "context_to_json"),
    ("io", "context_from_json"),
    ("io", "dumps"),
]

# engine's traced methods live on AngulationContext; the metric names keep
# the module prefix only, as callers see them
_ENGINE_CLASS = engine.AngulationContext

# counts kept beside the spans, all in unit "count": function -> suffixes
EXTRA_COUNTS = {
    "linalg.Mat.rref": ["cells"],
    "linalg.Mat.inverse": ["cells"],
    "linalg.solve_right": ["cells", "unsolvable"],
    "linalg.null_right": ["cells"],
    "algebras.hom_basis": ["misses", "system_cells"],
    "complexes.LinearProblem.solve": ["rows", "cols", "unsolvable"],
    "engine.check_membership": ["accepted"],
}


def metric_name(layer, qualname):
    return f"{layer}.{qualname}"


def _resolve(layer, qualname):
    """(owner, attribute, original function) for a traced name."""
    module = sys.modules[f"nangulate.{layer}"]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
    elif layer == "engine" and hasattr(_ENGINE_CLASS, qualname):
        owner, attr = _ENGINE_CLASS, qualname
    else:
        owner, attr = module, qualname
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names = [metric_name(layer, q) for layer, q in TRACED]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {f"{n}.{extra}": 0 for n, extras in EXTRA_COUNTS.items() for extra in extras}
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original)
        self.started = None
        self.stopped = None

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        name_id = self.name_ids[name]
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if pre is not None:
                pre(args)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _hooks(self, name, fn):
        c = self.counts
        if name in ("linalg.Mat.rref", "linalg.Mat.inverse", "linalg.null_right"):
            key = f"{name}.cells"

            def pre(args):
                c[key] += args[0].nrows * args[0].ncols

            return pre, None
        if name == "linalg.solve_right":

            def pre(args):
                A, B = args[0], args[1]
                c["linalg.solve_right.cells"] += A.nrows * (A.ncols + B.ncols)

            def post(args, result):
                if result[0] is None:
                    c["linalg.solve_right.unsolvable"] += 1

            return pre, post
        if name == "algebras.hom_basis":
            misses = [0]

            def pre(args):
                misses[0] = fn.cache_info().misses

            def post(args, result):
                if fn.cache_info().misses != misses[0]:
                    M, N = args[0], args[1]
                    c["algebras.hom_basis.misses"] += 1
                    c["algebras.hom_basis.system_cells"] += M.algebra.dim * (M.dim * N.dim) ** 2

            return pre, post
        if name == "complexes.LinearProblem.solve":

            def pre(args):
                prob = args[0]
                c["complexes.LinearProblem.solve.rows"] += sum(rhs.nrows * rhs.ncols for _, rhs in prob.equations)
                c["complexes.LinearProblem.solve.cols"] += sum(len(basis) for _, basis, _ in prob.unknowns)

            def post(args, result):
                if result[0] is None:
                    c["complexes.LinearProblem.solve.unsolvable"] += 1

            return pre, post
        if name == "engine.check_membership":

            def post(args, result):
                if result.verdict:
                    c["engine.check_membership.accepted"] += 1

            return None, post
        return None, None

    def install(self):
        """Patch every traced function and start the clock."""
        for layer, qualname in TRACED:
            name = metric_name(layer, qualname)
            owner, attr, fn = _resolve(layer, qualname)
            pre, post = self._hooks(name, fn)
            traced = self._wrap(name, fn, pre, post)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, traced)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("nangulate"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, traced)
        self.started = time.perf_counter()

    def stop(self):
        """Stop the clock and restore every patched binding."""
        self.stopped = time.perf_counter()
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, start, end

    def summary(self):
        """Per-layer metrics: calls and self time per function, plus the counts."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_by_name = np.bincount(name, weights=self_time, minlength=k)
        out = {}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = (int(calls[i]), "count")
            out[f"{n}.self_s"] = (float(self_by_name[i]), "s")
        for key, value in self.counts.items():
            out[key] = (value, "count")
        hb_calls = int(calls[self.name_ids["algebras.hom_basis"]])
        hb_misses = self.counts["algebras.hom_basis.misses"]
        out["algebras.hom_basis.hit_ratio"] = ((hb_calls - hb_misses) / hb_calls if hb_calls else 0.0, "ratio")
        out["trace.spans"] = (len(dur), "count")
        out["trace.self_s_sum"] = (float(self_time.sum()), "s")
        out["trace.wall_s"] = (self.stopped - self.started, "s")
        return out

    def write(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start - self.started, end=end - self.started)
