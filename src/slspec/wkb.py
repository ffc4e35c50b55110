"""Semiclassical estimators: turning points, action, quantization, norming.

For -eps^2 y'' - Q y = -eta^2 y with eps = 1/omega, the levels eta_j solve
the quantization rule  action(eta_j) = (j - 1/2) pi eps, the turning point
x_plus(eta) is the unique root of Q = eta^2, and the norming exponent
theta_plus(eta) = eta x_plus + int_{x_plus}^inf (eta - sqrt(eta^2 - Q))
controls the tail amplitude s_j = exp(theta_plus/eps).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forward import _bracketed_roots
from .potentials import Potential, eval_potential
from .quadrature import gauss_rule, gauss_panels_geometric, integral_with_power_tail


class WkbError(ValueError):
    pass


@dataclass
class WkbProfile:
    epsilon: float
    eta: np.ndarray          # decreasing in j; eta_j = xi_{N-j+1} / omega
    x_plus: np.ndarray
    action_values: np.ndarray
    theta_plus: np.ndarray
    log_s: np.ndarray
    predicted_count: int


def turning_point(p: Potential, eta: float) -> float:
    """Unique x >= 0 with Q(x) = eta^2, by bisection on the monotone profile."""
    q0 = p.q0
    e2 = eta * eta
    if eta <= 0:
        raise WkbError("turning point needs eta > 0")
    if e2 > q0 * (1 + 1e-12):
        raise WkbError(f"eta^2 = {e2:.3g} exceeds Q(0) = {q0:.3g}: no turning point")
    if e2 >= q0:
        return 0.0
    hi = 1.0
    while eval_potential(p, hi, 0) > e2:
        hi *= 2.0
        if hi > 1e12:
            raise WkbError("turning point search exceeded x = 1e12")
    lo = 0.0
    while hi - lo > 1e-14 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if eval_potential(p, mid, 0) > e2:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def action(p: Potential, eta: float) -> float:
    """Whole-line action 2 int_0^{x_plus} sqrt(Q - eta^2) dy.

    The square-root turning-point singularity is removed by the y = x_plus
    sin(theta) substitution; for large x_plus the inner region [0, x_plus/2]
    is integrated on geometric panels first.  eta = 0 uses a truncated
    integral of sqrt(Q) with a fitted power-law tail.
    """
    q0 = p.q0
    if eta < 0 or eta * eta > q0 * (1 + 1e-12):
        raise WkbError("action needs 0 <= eta <= sqrt(Q(0))")
    if eta * eta >= q0:
        return 0.0
    if eta == 0.0:
        f = lambda x: np.sqrt(eval_potential(p, x, 0))
        head, tail = integral_with_power_tail(f, T=max(p.x_tail, 1e4))
        return 2.0 * (head + tail)
    xp = turning_point(p, eta)
    e2 = eta * eta
    gx, gw = gauss_rule(128)

    def theta_part(th_lo, th_hi):
        th = 0.5 * (th_lo + th_hi) + 0.5 * (th_hi - th_lo) * gx
        w = 0.5 * (th_hi - th_lo) * gw
        y = xp * np.sin(th)
        val = np.sqrt(np.maximum(eval_potential(p, y, 0) - e2, 0.0))
        return float(np.dot(w, val * xp * np.cos(th)))

    if xp <= 2.0:
        integral = theta_part(0.0, 0.5 * math.pi)
    else:
        ys, ws = gauss_panels_geometric(0.0, 0.5 * xp, first=0.5, nodes=24)
        inner = float(np.dot(ws, np.sqrt(np.maximum(eval_potential(p, ys, 0) - e2, 0.0))))
        integral = inner + theta_part(math.pi / 6.0, 0.5 * math.pi)
    return 2.0 * integral


def theta_plus(p: Potential, eta: float) -> float:
    """Norming exponent eta x_plus + int_{x_plus}^inf (eta - sqrt(eta^2 - Q))."""
    if eta <= 0:
        raise WkbError("theta_plus needs eta > 0")
    xp = turning_point(p, eta)
    e2 = eta * eta
    gx, gw = gauss_rule(160)
    # y = x_plus / sin(theta) maps (0, pi/2] to [x_plus, inf)
    th = 0.25 * math.pi * (gx + 1.0)
    w = 0.25 * math.pi * gw
    s = np.sin(th)
    y = xp / s
    q = eval_potential(p, y, 0)
    # eta - sqrt(eta^2 - Q), rationalised: the difference cancels on the
    # far tail, where Q << eta^2
    val = q / (eta + np.sqrt(np.maximum(e2 - q, 0.0)))
    jac = xp * np.cos(th) / (s * s)
    return float(eta * xp + np.dot(w, val * jac))


def dirichlet_count(p: Potential, omega: float) -> int:
    """Semiclassical count of the half-line Dirichlet spectrum.

    The quantization rule indexes whole-line levels of the even extension;
    only the odd-parity ones (every second level) vanish at the origin, so
    the count is predicted_count // 2, the length of dirichlet_levels() on
    wkb_spectrum(p, omega).  No Maslov quarter is added: at zero energy a
    potential decaying faster than x^-2 has no turning point.  For q1 this
    is [omega] // 2 against the exact ceil(sqrt(1+omega^2)/2) - 1.  They
    differ only where sqrt(1+omega^2) has passed an even integer that omega
    has not reached, windows of width about 1/(2 omega) (on a 0.1 grid from
    3 to 41, only omega = 3.9)."""
    return predicted_count(p, omega) // 2


def dirichlet_levels(profile: WkbProfile) -> np.ndarray:
    """The odd-parity (Dirichlet) sublevels of a whole-line profile, as
    implied eigenvalues omega * eta in ascending order: every second level
    starting from the second-deepest."""
    eta_even = profile.eta[1::2]
    return (eta_even / profile.epsilon)[::-1]


def predicted_count(p: Potential, omega: float) -> int:
    """floor(action(0) * omega / pi), with a tiny forgiveness for the exact
    integer boundary that built-ins like q1 sit on."""
    return int(math.floor(action(p, 0.0) * omega / math.pi + 1e-9))


def wkb_spectrum(p: Potential, omega: float) -> WkbProfile:
    """Solve the quantization rule for all predicted levels at this omega, in
    one call of the solver's own root-find (_bracketed_roots), each level
    with its own target."""
    if omega < 1:
        raise WkbError("omega must be >= 1")
    n = int(math.floor(action(p, 0.0) * omega / math.pi + 1e-9))
    targets = (np.arange(1, n + 1) - 0.5) * math.pi / omega
    etas, ok = _bracketed_roots(
        lambda e, t: np.array([action(p, v) for v in e]) - t,
        np.full(n, 1e-14), np.full(n, math.sqrt(p.q0) * (1 - 1e-14)),
        xatol=1e-14, xrtol=1e-15, args=(targets,))
    if not ok.all():
        raise WkbError(f"quantization root-find failed for j={int(np.argmin(ok)) + 1}")
    thps = np.array([theta_plus(p, e) for e in etas])
    return WkbProfile(
        epsilon=1.0 / omega,
        eta=etas,
        x_plus=np.array([turning_point(p, e) for e in etas]),
        action_values=targets,
        theta_plus=thps,
        log_s=omega * thps,
        predicted_count=n,
    )


@dataclass
class SpacingReport:
    n_levels: int
    min_eta_gap: Optional[float]
    min_xi_gap: Optional[float]
    max_action_gap_dev: Optional[float]
    empirical_exponent: Optional[float]
    note: str = ""

    @property
    def sufficient(self) -> bool:
        return self.n_levels >= 2


def spacing_check(profile: WkbProfile, omega: float, p: Optional[Potential] = None) -> SpacingReport:
    """Level-spacing diagnostics: gap floor and the action-gap chain pi/omega.

    The decay exponent of the minimal gap in omega is reported empirically
    (from min_gap ~ a * omega^-b with a = sqrt(Q(0)) scale), not asserted.
    """
    n = len(profile.eta)
    if n < 2:
        return SpacingReport(n, None, None, None, None, note="insufficient levels")
    gaps = profile.eta[:-1] - profile.eta[1:]
    min_eta = float(gaps.min())
    min_xi = float(min_eta * omega)
    dev = None
    if p is not None:
        acts = np.array([action(p, e) for e in profile.eta])
        chain = acts[1:] - acts[:-1]
        dev = float(np.max(np.abs(chain - math.pi / omega)))
    # min_xi ~ omega^-b says nothing at omega = 1, where log(omega) = 0
    b_emp = (float(-math.log(min_xi) / math.log(omega))
             if min_xi > 0 and omega != 1 else None)
    return SpacingReport(n, min_eta, min_xi, dev, b_emp)
