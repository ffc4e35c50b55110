"""The benchmark's three workloads: their operations and their checks.

A pass runs a workload's fixed list of operations once, in order, each
starting when the previous one returns.  Every operation is checked against
`reference` (closed forms and high-precision evaluations made apart from
slspec) or against a property the method must have.  An operation fails
when it raises or when its output fails a check.
"""
from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
GRID = np.linspace(0.0, 2.0, 81)    # reconstruction grid of both inverse workloads


class Workload:
    """One workload.  Subclasses set `name` and fill `self.ops` with
    label -> operation, where an operation takes the outputs of the pass so
    far.  `rng` drives the random choices of the checks.  The checks import
    `reference` when they run: it imports mpmath, which set-up must not pay
    for, since slspec imports it only on its first escalated node."""

    name = ""

    def __init__(self, rng):
        self.rng = rng
        self.ops = {}

    def run_pass(self) -> list:
        """Run every operation once; return (label, output or exception)."""
        done = {}
        for label, op in self.ops.items():
            try:
                done[label] = op(done)
            except Exception as exc:  # a raising operation counts as failed
                done[label] = exc
        return list(done.items())

    def verdict(self, label, out) -> tuple:
        """(failed check messages, error figure) for one operation output."""
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"], None
        return self.check(label, out)


class Forward(Workload):
    """Bound-state data of q1 on both solver paths, the square well on its
    breakpoint path, and the Jost norming identity."""

    name = "forward"

    def __init__(self, rng):
        super().__init__(rng)
        sl = importlib.import_module("slspec")
        F = importlib.import_module("slspec.forward")
        J = importlib.import_module("slspec.jost")
        q1, sw = sl.builtin("q1"), sl.builtin("square_well")

        def identity(j):
            def op(done):
                sd = done["forward(q1,10)"]
                return J.jost_identity_check(
                    q1, 10.0, j, sd=None if isinstance(sd, Exception) else sd)
            return op

        # module attributes are looked up at call time, so a traced run's
        # wrappers see these calls
        self.ops = {
            "forward(q1,10)": lambda done: F.forward(q1, 10.0),
            "forward(q1,40)": lambda done: F.forward(q1, 40.0),
            "forward(square_well,20)": lambda done: F.forward(sw, 20.0),
            "jost_identity_check(q1,10,3)": identity(3),
            "jost_identity_check(q1,10,4)": identity(4),
        }

    def check(self, label, out):
        from reference import q1_count, q1_threshold_deviation, squarewell_spectrum
        bad = []
        if label.startswith("jost"):
            if not out.residual <= 1e-3:
                bad.append(f"identity residual {out.residual:.3e} > 1e-3")
            return bad, None
        xi, C = np.asarray(out.xi), np.asarray(out.C)
        if not (np.all(np.isfinite(C)) and np.all(C > 0)):
            bad.append("characteristic values not all finite and positive")
        if label == "forward(square_well,20)":
            ref_xi, ref_C = (np.array(v) for v in squarewell_spectrum(20.0))
            if len(xi) != len(ref_xi):
                return bad + [f"count {len(xi)} != closed form {len(ref_xi)}"], None
            dxi = float(np.max(np.abs(xi - ref_xi)))
            dC = float(np.max(np.abs(C - ref_C) / ref_C))
            if not dxi <= 1e-8:
                bad.append(f"max |xi - closed form| {dxi:.3e} > 1e-8")
            if not dC <= 1e-6:
                bad.append(f"max relative C error {dC:.3e} > 1e-6")
            return bad, max(float(np.max(np.abs(xi - ref_xi) / ref_xi)), dC)
        omega = 10.0 if label == "forward(q1,10)" else 40.0
        if len(xi) != q1_count(omega):
            return bad + [f"count {len(xi)} != ceil(nu/2)-1 = {q1_count(omega)}"], None
        dev = q1_threshold_deviation(float(xi[0]), omega, len(xi))
        if not dev <= 1.0 / omega:
            bad.append(f"weakest level off the threshold law by {dev:.3f} > 1/omega")
        return bad, None


class Gl0(Workload):
    """The determinant layer alone: closed-form W entries, most nodes in
    mpmath, no forward or kernel solve."""

    name = "gl0"
    n_checked = 1       # nodes per pass where ln det W is differenced

    def __init__(self, rng):
        super().__init__(rng)
        F = importlib.import_module("slspec.forward")
        R = importlib.import_module("slspec.reconstruct")
        self.sd = F.SpectralData.from_json((DATA / "q1_omega40.json").read_text())
        self.ops = {"reconstruct_gl0(q1,40)": lambda done: R.reconstruct_gl0(self.sd, GRID)}

    def check(self, label, out):
        from reference import logdet_W_derivatives, q1_primitive
        bad = []
        if out.flags.any():
            bad.append(f"{int(out.flags.sum())} nodes flagged")
        scale = 2.0 / self.sd.omega ** 2
        # x = 0 is left out: the five-point stencil would reach x < 0
        for i in sorted(self.rng.sample(range(1, len(GRID)), self.n_checked)):
            d1, d2 = logdet_W_derivatives(self.sd.xi, self.sd.C, GRID[i])
            for what, got, ref in (("Q_int", out.Q_int[i], scale * d1),
                                   ("Q_rec", out.Q_rec[i], scale * d2)):
                rel = abs(got - ref) / abs(ref)
                if not rel <= 1e-8:
                    bad.append(f"{what}(x={GRID[i]:g}) off ln det W differences by {rel:.2e}")
        err = max(abs(q - q1_primitive(x)) for x, q in zip(out.grid, out.Q_int))
        return bad, err


class Glm(Workload):
    """The kernel layer (512 slice LU factorizations) feeding the
    determinant layer with quadrature-built T entries."""

    name = "glm"

    def __init__(self, rng):
        super().__init__(rng)
        F = importlib.import_module("slspec.forward")
        self.R = importlib.import_module("slspec.reconstruct")
        self.sd = F.SpectralData.from_json(
            (DATA / "quartic_rational_omega20.json").read_text())
        self.ops = {"reconstruct_glm(quartic_rational,20)":
                    lambda done: self.R.reconstruct_glm(self.sd, GRID)}

    def check(self, label, out):
        from reference import quartic_rational
        bad = []
        if out.flags.any():
            bad.append(f"{int(out.flags.sum())} nodes flagged")
        if out.grid[0] != 0.0 or not abs(out.Q_rec[0] - self.sd.q0) <= 1e-4:
            bad.append(f"origin identity: |Q_rec(0) - Q(0)| = "
                       f"{abs(out.Q_rec[0] - self.sd.q0):.2e} > 1e-4")
        ref = np.array([quartic_rational(x) for x in out.grid])
        err = float(np.max(np.abs(out.Q_rec - ref)))
        # gl0 on the same data and nodes, outside the timed region
        gl0 = self.R.reconstruct_gl0(self.sd, out.grid)
        err0 = float(np.max(np.abs(gl0.Q_rec - ref)))
        if not err < err0:
            bad.append(f"sup error {err:.3e} not below gl0's {err0:.3e}")
        return bad, err


WORKLOADS = {w.name: w for w in (Forward, Gl0, Glm)}
