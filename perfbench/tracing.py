"""Per-layer tracing from outside the program.

The traced worker replaces module attributes at slspec's public functions
and at the library calls its layers make, so every call through them
records a span (name, start, end, parent, attributes).  Spans stay in
memory and are written out when the run ends.  `eval_potential` runs
hundreds of thousands of times per pass, so it feeds three counters instead
of spans.  Nothing is patched in an untraced run.
"""
from __future__ import annotations

import functools
import importlib
import time

import mpmath
import numpy as np

# (metric name, unit, better); the order in which the traced run reports them
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("potentials.eval_calls", "count", "lower"),
    ("potentials.eval_points", "count", "lower"),
    ("potentials.eval_s", "s", "lower"),
    ("forward.count_states_s", "s", "lower"),
    ("forward.eigenvalues_self_s", "s", "lower"),
    ("forward.characteristic_values_s", "s", "lower"),
    ("forward.ivp_calls", "count", "lower"),
    ("forward.ivp_rhs_evals", "count", "lower"),
    ("forward.ivp_s", "s", "lower"),
    ("forward.brentq_calls", "count", "lower"),
    ("forward.brentq_evals", "count", "lower"),
    ("forward.states", "count", "higher"),
    ("jost.identity_s", "s", "lower"),
    ("jost.series_calls", "count", "lower"),
    ("jost.series_terms", "count", "lower"),
    ("jost.grid_points", "count", "lower"),
    ("glkernel.solve_kernel_s", "s", "lower"),
    ("glkernel.gh_values_s", "s", "lower"),
    ("glkernel.gh_points", "count", "lower"),
    ("glkernel.lu_factor_calls", "count", "lower"),
    ("glkernel.lu_factor_s", "s", "lower"),
    ("glkernel.lu_flops", "flop", "lower"),
    ("glkernel.cond_s", "s", "lower"),
    ("reconstruct.nodes", "count", "higher"),
    ("reconstruct.mp_nodes", "count", "lower"),
    ("reconstruct.mp_share", "share", "lower"),
    ("reconstruct.mp_solve_s", "s", "lower"),
    ("reconstruct.cond_s", "s", "lower"),
    ("reconstruct.self_s", "s", "lower"),
]

_RECONSTRUCT = ("reconstruct_gl0", "reconstruct_glm")


def _lu_flops(args, kwargs, result):
    """Computed from the matrix size, not counted: LU of an n x n matrix
    takes 2/3 n^3 flops in real arithmetic, four times that in complex."""
    a = np.asarray(args[0])
    n = a.shape[0]
    return {"flops": (8.0 if np.iscomplexobj(a) else 2.0) / 3.0 * n ** 3}


def _jost_attrs(args, kwargs, result):
    return {"terms": result.iterations_used, "points": len(result.grid)}


def _gh_attrs(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


def _count_attr(args, kwargs, result):
    return {"n": len(result)}


def _grid_attr(args, kwargs, result):
    return {"n": len(result.grid)}


class Tracer:
    """Spans and counters for one traced worker process."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index, attrs]
        self._stack = []
        self.eval_calls = 0
        self.eval_points = 0
        self.eval_s = 0.0

    # -- recording -------------------------------------------------------
    def _span(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result
        return wrapper

    def _counted_eval(self, fn):
        @functools.wraps(fn)
        def wrapper(p, x, *args, **kwargs):
            t = time.perf_counter()
            out = fn(p, x, *args, **kwargs)
            self.eval_s += time.perf_counter() - t
            self.eval_calls += 1
            self.eval_points += int(np.size(x))
            return out
        return wrapper

    def install(self):
        """Wrap the layer boundaries; module attributes are looked up at call
        time, so calls made inside slspec go through the wrappers too.  The
        modules come from importlib because the package attribute
        `slspec.forward` is the function, not the module."""
        fwd = importlib.import_module("slspec.forward")
        jst = importlib.import_module("slspec.jost")
        glk = importlib.import_module("slspec.glkernel")
        rec = importlib.import_module("slspec.reconstruct")
        pot = importlib.import_module("slspec.potentials")

        for mod in (pot, fwd, jst, rec):
            mod.eval_potential = self._counted_eval(mod.eval_potential)

        fwd.forward = self._span("forward", fwd.forward)
        fwd.eigenvalues = self._span("eigenvalues", fwd.eigenvalues, _count_attr)
        fwd.count_states = self._span("count_states", fwd.count_states)
        fwd.characteristic_values = self._span("characteristic_values",
                                               fwd.characteristic_values)
        fwd.solve_ivp = self._span("solve_ivp", fwd.solve_ivp,
                                   lambda a, k, r: {"nfev": int(r.nfev)})
        fwd.brentq = self._span_brentq(fwd.brentq)

        jst.jost_identity_check = self._span("jost_identity_check",
                                             jst.jost_identity_check)
        jst.jost = self._span("jost", jst.jost, _jost_attrs)

        glk.solve_kernel = self._span("solve_kernel", glk.solve_kernel)
        glk.gh_values = self._span("gh_values", glk.gh_values, _gh_attrs)
        glk.lu_factor = self._span("lu_factor", glk.lu_factor, _lu_flops)

        for name in _RECONSTRUCT:
            setattr(rec, name, self._span(name, getattr(rec, name), _grid_attr))
        np.linalg.cond = self._span("cond", np.linalg.cond)
        mpmath.lu_solve = self._span("mp_lu_solve", mpmath.lu_solve)

    def _span_brentq(self, fn):
        """brentq span whose attribute counts calls of the objective."""
        evals = [0]

        def counted(f, a, b, *args, **kwargs):
            def g(t, *fargs):
                evals[0] += 1
                return f(t, *fargs)
            evals[0] = 0
            return fn(g, a, b, *args, **kwargs)
        return self._span("brentq", counted, lambda a, k, r: {"evals": evals[0]})

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        spans = self.spans
        m = {name: 0 if unit == "count" else 0.0 for name, unit, _ in PER_LAYER}
        m["potentials.eval_calls"] = self.eval_calls
        m["potentials.eval_points"] = self.eval_points
        m["potentials.eval_s"] = self.eval_s

        child_time = {}
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] = child_time.get(rec[3], 0.0) + rec[2] - rec[1]

        def inside(idx, names):
            """Name of the innermost ancestor of span `idx` that is one of
            `names`, or None."""
            p = spans[idx][3]
            while p >= 0:
                if spans[p][0] in names:
                    return spans[p][0]
                p = spans[p][3]
            return None

        for idx, (name, start, end, _, attrs) in enumerate(spans):
            dur = end - start
            attrs = attrs or {}     # a call that raised recorded no attributes
            if name == "count_states":
                m["forward.count_states_s"] += dur
            elif name == "eigenvalues":
                m["forward.eigenvalues_self_s"] += dur - child_time.get(idx, 0.0)
                m["forward.states"] += attrs.get("n", 0)
            elif name == "characteristic_values":
                m["forward.characteristic_values_s"] += dur
            elif name == "solve_ivp":
                m["forward.ivp_calls"] += 1
                m["forward.ivp_rhs_evals"] += attrs.get("nfev", 0)
                m["forward.ivp_s"] += dur
            elif name == "brentq":
                m["forward.brentq_calls"] += 1
                m["forward.brentq_evals"] += attrs.get("evals", 0)
            elif name == "jost_identity_check":
                m["jost.identity_s"] += dur
            elif name == "jost":
                m["jost.series_calls"] += 1
                m["jost.series_terms"] += attrs.get("terms", 0)
                m["jost.grid_points"] += attrs.get("points", 0)
            elif name == "solve_kernel":
                m["glkernel.solve_kernel_s"] += dur
            elif name == "gh_values":
                m["glkernel.gh_values_s"] += dur
                m["glkernel.gh_points"] += attrs.get("points", 0)
            elif name == "lu_factor":
                m["glkernel.lu_factor_calls"] += 1
                m["glkernel.lu_factor_s"] += dur
                m["glkernel.lu_flops"] += attrs.get("flops", 0)
            elif name == "cond":
                # attribute each condition estimate to the innermost layer
                owner = inside(idx, ("solve_kernel",) + _RECONSTRUCT)
                if owner == "solve_kernel":
                    m["glkernel.cond_s"] += dur
                elif owner is not None:
                    m["reconstruct.cond_s"] += dur
            elif name == "mp_lu_solve":
                if inside(idx, _RECONSTRUCT):
                    m["reconstruct.mp_nodes"] += 1
                    m["reconstruct.mp_solve_s"] += dur
            elif name in _RECONSTRUCT:
                m["reconstruct.nodes"] += attrs.get("n", 0)
                m["reconstruct.self_s"] += dur - child_time.get(idx, 0.0)
        if m["reconstruct.nodes"]:
            m["reconstruct.mp_share"] = m["reconstruct.mp_nodes"] / m["reconstruct.nodes"]
        return m
