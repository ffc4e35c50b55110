"""Strictly positive, strictly decreasing potentials on the half-line.

A potential here is the profile Q in the operator -d^2/dx^2 - omega^2 Q.
Class membership (positivity, strict decrease, derivatives vanishing at 0,
polynomial decay) is what the spectral estimates depend on, so potentials
carry decay metadata and expose a report-style validator rather than
hard failures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class PotentialError(ValueError):
    """Raised for invalid potential construction or evaluation requests."""


@dataclass(frozen=True)
class Decay:
    """Polynomial decay sandwich (1/a) x^-k1 <= Q(x) <= a x^-k2 for x >= x_cut."""

    a: float
    k1: int
    k2: int
    x_cut: float = 2.0

    def __post_init__(self):
        if self.a < 1.0:
            raise PotentialError("decay constant a must be >= 1")
        if self.k2 < 4 or self.k1 < self.k2:
            raise PotentialError("decay exponents must satisfy k1 >= k2 >= 4")


@dataclass(frozen=True)
class Potential:
    kind: str
    q0: float
    q0_derivatives: tuple
    m_smoothness: int
    decay: Optional[Decay] = None
    support_end: Optional[float] = None     # Q identically 0 beyond this point
    breakpoints: tuple = ()                 # interior discontinuities
    x_tail: float = 1e3
    table_x: Optional[np.ndarray] = None
    table_q: Optional[np.ndarray] = None
    extrapolate: bool = True
    _fn: Callable = field(default=None, repr=False, compare=False)
    _dfns: tuple = field(default=(), repr=False, compare=False)


# The order-0 closed forms of the built-in kinds take a float or an array
# and use + - * / and comparisons only: those round identically on a float
# and on an array, where numpy's vectorised pow can differ from the scalar
# one by an ulp.  eval_potential's float path relies on it.

def _q1_fn(x):
    s = 1.0 + x * x
    return 1.0 / (s * s)


def _q1_d1(x):
    return -4.0 * x * (1.0 + x * x) ** -3


def _q1_d2(x):
    return (20.0 * x * x - 4.0) * (1.0 + x * x) ** -4


def _q1_d3(x):
    return (72.0 * x - 120.0 * x**3) * (1.0 + x * x) ** -5


def _square_well_fn(x):
    return (x <= 1.0) * 1.0


def _q4_fn(x):
    x2 = x * x
    return 1.0 / (1.0 + x2 * x2)


def _q4_d1(x):
    x = np.asarray(x, dtype=float)
    return -4.0 * x**3 / (1.0 + x**4) ** 2


def _q4_d2(x):
    x = np.asarray(x, dtype=float)
    return (20.0 * x**6 - 12.0 * x**2) / (1.0 + x**4) ** 3


def make_potential(spec: dict) -> Potential:
    """Build a Potential from a configuration record.

    Recognized kinds: q1_rational (Q = (1+x^2)^-2), square_well (Q = 1 on
    [0,1], 0 beyond), tabulated (monotone-cubic interpolation of strictly
    decreasing positive samples), user_closed_form (callable supplied by
    the caller, with optional derivative callables).
    """
    kind = spec.get("kind")
    params = spec.get("params", {}) or {}
    decay_rec = spec.get("decay")
    decay = None
    if decay_rec is not None:
        decay = Decay(
            a=float(decay_rec["a"]),
            k1=int(decay_rec["k1"]),
            k2=int(decay_rec["k2"]),
            x_cut=float(decay_rec.get("x_cut", 2.0)),
        )
    if kind in ("q1", "q1_rational"):
        return Potential(
            kind="q1_rational",
            q0=1.0,
            q0_derivatives=(0.0, -4.0, 0.0),
            m_smoothness=3,
            decay=decay or Decay(a=2.0, k1=4, k2=4, x_cut=2.0),
            x_tail=float(spec.get("x_tail", 1e3)),
            _fn=_q1_fn,
            _dfns=(_q1_d1, _q1_d2, _q1_d3),
        )
    if kind in ("q4", "quartic_rational"):
        # smooth, strictly decreasing, derivatives through order 3 vanish at
        # the origin: a clean member of the classes the kernel-corrected
        # reconstruction is stated for
        return Potential(
            kind="quartic_rational",
            q0=1.0,
            q0_derivatives=(0.0, 0.0),
            m_smoothness=2,
            decay=decay or Decay(a=2.0, k1=4, k2=4, x_cut=2.0),
            x_tail=float(spec.get("x_tail", 1e3)),
            _fn=_q4_fn,
            _dfns=(_q4_d1, _q4_d2),
        )
    if kind == "square_well":
        return Potential(
            kind="square_well",
            q0=1.0,
            q0_derivatives=(0.0,),
            m_smoothness=0,
            decay=None,
            support_end=1.0,
            breakpoints=(1.0,),
            _fn=_square_well_fn,
        )
    if kind == "tabulated":
        xs = spec.get("table_x")
        qs = spec.get("table_q")
        if xs is None or qs is None:
            raise PotentialError("tabulated potential needs table_x and table_q")
        xs = np.asarray(xs, dtype=float)
        qs = np.asarray(qs, dtype=float)
        if xs.ndim != 1 or xs.shape != qs.shape or len(xs) < 4:
            raise PotentialError("table must be two equal-length 1-d columns")
        if np.any(np.diff(xs) <= 0):
            raise PotentialError("table x must be strictly increasing")
        if np.any(qs <= 0):
            raise PotentialError("table Q must be strictly positive")
        if np.any(np.diff(qs) >= 0):
            raise PotentialError("table Q must be strictly decreasing")
        if decay is None:
            raise PotentialError("tabulated potential needs decay metadata")
        from scipy.interpolate import PchipInterpolator     # tabulated kind only
        interp = PchipInterpolator(xs, qs, extrapolate=False)
        dinterp = interp.derivative()
        return Potential(
            kind="tabulated",
            q0=float(qs[0]) if xs[0] == 0.0 else float(interp(0.0)),
            q0_derivatives=(float(dinterp(0.0)),),
            m_smoothness=1,
            decay=decay,
            x_tail=float(spec.get("x_tail", min(1e3, xs[-1]))),
            table_x=xs,
            table_q=qs,
            extrapolate=bool(spec.get("extrapolate", True)),
            _fn=interp,
            _dfns=(dinterp,),
        )
    if kind == "user_closed_form":
        fn = params.get("fn") or spec.get("fn")
        if fn is None:
            raise PotentialError("user_closed_form needs a callable 'fn'")
        dfns = tuple(spec.get("dfns", ()) or ())
        q0 = float(fn(0.0))
        if q0 <= 0:
            raise PotentialError("Q(0) must be positive")
        q0d = tuple(float(d(0.0)) for d in dfns)
        return Potential(
            kind="user_closed_form",
            q0=q0,
            q0_derivatives=q0d or (0.0,),
            m_smoothness=len(dfns) if dfns else int(spec.get("m_smoothness", 0)),
            decay=decay,
            x_tail=float(spec.get("x_tail", 1e3)),
            _fn=fn,
            _dfns=dfns,
        )
    raise PotentialError(f"unknown potential kind: {kind!r}")


def eval_potential(p: Potential, x, deriv_order: int = 0):
    """Evaluate Q or one of its derivatives at x >= 0 (scalar or array).

    A float x (Python or numpy) with deriv_order 0 on a built-in closed-form
    kind is evaluated in plain float arithmetic; the result is the same float
    the array path gives.  Tabulated and user potentials always take the
    array path, so a user callable receives a 1-element array.
    """
    if (deriv_order == 0 and isinstance(x, float)
            and p.kind in ("q1_rational", "quartic_rational", "square_well")):
        # built-in closed forms skip the array round trip (0.5 against 10 us a
        # call on a 2-core x86), for scalar loops like wkb.turning_point's
        if x < 0:
            raise PotentialError("potentials are defined on x >= 0")
        return p._fn(float(x))
    if deriv_order < 0:
        raise PotentialError("derivative order must be >= 0")
    if deriv_order > p.m_smoothness:
        raise PotentialError(
            f"derivative order {deriv_order} exceeds smoothness {p.m_smoothness}"
        )
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise PotentialError("potentials are defined on x >= 0")
    if p.kind == "tabulated":
        inside = arr <= p.table_x[-1]
        out = np.empty_like(arr)
        fn = p._fn if deriv_order == 0 else p._dfns[deriv_order - 1]
        if np.any(inside):
            lo = arr[inside]
            lo = np.clip(lo, p.table_x[0], p.table_x[-1])
            out[inside] = fn(lo)
        if np.any(~inside):
            if not p.extrapolate:
                raise PotentialError("evaluation beyond table range; extrapolation disabled")
            # power-law tail matched to the last sample
            x_end = p.table_x[-1]
            q_end = p.table_q[-1]
            k2 = p.decay.k2
            tail = q_end * (arr[~inside] / x_end) ** (-k2)
            if deriv_order == 1:
                tail = -k2 * tail / arr[~inside]
            elif deriv_order > 1:
                raise PotentialError("tail extrapolation provides one derivative only")
            out[~inside] = tail
    else:
        if deriv_order == 0:
            out = np.asarray(p._fn(arr), dtype=float)
        else:
            if len(p._dfns) >= deriv_order:
                out = np.asarray(p._dfns[deriv_order - 1](arr), dtype=float)
            else:
                # square well and similar: derivative vanishes a.e.
                out = np.zeros_like(arr)
    return float(out[0]) if scalar else out


def derivative_at_zero(p: Potential, s: int) -> float:
    """Q^(s)(0), analytic when available, else one-sided finite differences."""
    if s == 0:
        return p.q0
    if len(p._dfns) >= s:
        return eval_potential(p, 0.0, s)
    # one-sided stencil of order 4 on the even extension is just the
    # half-line stencil for even s; odd derivatives of the extension are 0
    # at 0 only if the data says so, probe the raw one-sided difference.
    h = 1e-4
    xs = h * np.arange(7)
    qs = eval_potential(p, xs, 0)
    if s == 1:
        return float((-qs[2] + 4 * qs[1] - 3 * qs[0]) / (2 * h))
    if s == 2:
        return float((2 * qs[0] - 5 * qs[1] + 4 * qs[2] - qs[3]) / h**2)
    raise PotentialError("finite-difference probe supports s <= 2")


@dataclass
class ClassCheck:
    name: str
    passed: bool
    detail: str = ""
    value: Optional[float] = None


@dataclass
class ClassReport:
    checks: list
    integrability_truncated: float
    integrability_tail_bound: float

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> ClassCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_class(p: Potential, m: int) -> ClassReport:
    """Report-style membership check for the positive decreasing class.

    Violations are findings, not exceptions: each condition gets a named
    pass/fail entry, a derivative at 0 passing within 1e-8.  The probe points
    and the integrability probe for int (1+t) sqrt(Q) dt end at p.x_tail;
    the analytic tail bound from the decay metadata is reported alongside
    (it is infinite when k2 <= 4, which the report keeps visible instead of
    hiding).
    """
    x_tail = p.x_tail
    checks = []

    xs = np.concatenate([
        np.linspace(0.0, 2.0, 200, endpoint=False),
        np.geomspace(2.0, x_tail, 200),
    ])
    qs = eval_potential(p, xs, 0)

    pos = bool(np.all(qs > 0))
    checks.append(ClassCheck("positivity", pos, value=float(qs.min())))

    diffs = np.diff(qs)
    dec = bool(np.all(diffs < 0))
    detail = ""
    if not dec:
        bad = int(np.argmax(diffs >= 0))
        detail = f"not strictly decreasing near x={xs[bad]:.6g}"
    checks.append(ClassCheck("strict_decrease", dec, detail=detail))

    for s in range(1, m + 1):
        try:
            v = derivative_at_zero(p, s)
        except PotentialError as exc:
            checks.append(ClassCheck(f"derivative_zero_s{s}", False, detail=str(exc)))
            continue
        checks.append(ClassCheck(f"derivative_zero_s{s}", abs(v) <= 1e-8, value=v))

    if p.support_end is not None:
        checks.append(ClassCheck(
            "decay_bounds", True,
            detail="compact support; polynomial sandwich not applicable",
        ))
    elif p.decay is None:
        checks.append(ClassCheck("decay_bounds", False, detail="no decay metadata"))
    else:
        d = p.decay
        far = xs[xs >= d.x_cut]
        qf = eval_potential(p, far, 0)
        lo_ok = np.all(qf >= (1.0 / d.a) * far ** (-float(d.k1)) * (1 - 1e-12))
        hi_ok = np.all(qf <= d.a * far ** (-float(d.k2)) * (1 + 1e-12))
        checks.append(ClassCheck(
            "decay_bounds", bool(lo_ok and hi_ok),
            detail="" if (lo_ok and hi_ok) else "sandwich violated beyond x_cut",
        ))

    # integrability probe: int_0^x_tail (1+t) sqrt(Q) dt plus tail bound
    from .quadrature import gauss_panels
    t, w = gauss_panels(0.0, min(x_tail, p.support_end or x_tail), 64, 12)
    trunc = float(np.dot(w, (1.0 + t) * np.sqrt(eval_potential(p, t, 0))))
    if p.support_end is not None:
        tail_bound = 0.0
    elif p.decay is None:
        tail_bound = math.inf
    else:
        d = p.decay
        half = d.k2 / 2.0
        sa = math.sqrt(d.a)
        # a^(1/2) int_T^inf (1+x) x^-k2/2 dx, divergent unless k2 > 4
        t1 = sa * x_tail ** (1.0 - half) / (half - 1.0) if half > 1 else math.inf
        t2 = sa * x_tail ** (2.0 - half) / (half - 2.0) if half > 2 else math.inf
        tail_bound = t1 + t2
    checks.append(ClassCheck(
        "integrability", math.isfinite(trunc),
        value=trunc,
        detail=f"tail bound {tail_bound:.3g}",
    ))

    return ClassReport(checks, trunc, tail_bound)


def builtin(name: str) -> Potential:
    """Shorthand for the named built-in potentials."""
    return make_potential({"kind": name})
