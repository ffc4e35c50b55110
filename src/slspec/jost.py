"""Jost function by one inward march, and the norming identity.

The Jost solution behaves like e^{ikx} at infinity; its value at the origin
F(k) = f(k, 0) vanishes exactly at k = i xi_j.  It solves the Volterra
equation

    f(k, x) = e^{ikx} + int_x^inf [sin(k(t-x))/k] V(t) f(k, t) dt,

with V = -omega^2 Q, here in the gauged variable g = f e^{-ikx}, whose
kernel K(d) = (e^{2ikd} - 1)/(2ik) stays bounded for Im k >= 0.  On the
grid, g at a node depends only on g at the nodes to its right, so g is
marched inward from g = 1 at the last node (Linz, Analytical and Numerical
Methods for Volterra Equations, 1985).  The march costs O(m) time and memory
on m nodes: the shift recurrence K(d + h) = e^{2ikh} K(d) + K(h) makes each
row's quadrature sum O(1) work.  The grid's step is local, set by the faster
of |k| and the potential's wavenumber omega sqrt(Q).

Note the integral-equation kernel is sin(k(t-x))/k: with the opposite sign
the equation's solution has zeros that are NOT the eigenvalues (checked
against the square well's closed form).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .forward import _state_profiles, eigenvalues
from .potentials import Potential, eval_potential
from .quadrature import integral_with_power_tail, simpson_weights


class JostError(RuntimeError):
    pass


@dataclass
class JostSample:
    k: complex
    F: complex
    iterations_used: int                                # 1: one solve
    grid: np.ndarray = field(default=None, repr=False)
    g: np.ndarray = field(default=None, repr=False)     # f(k,x) e^{-ikx}

    def f_at(self, x: float) -> complex:
        """Jost solution f(k, x) = e^{ikx} g(x) interpolated on the grid."""
        gr = np.interp(x, self.grid, self.g.real)
        gi = np.interp(x, self.grid, self.g.imag)
        return complex(np.exp(1j * self.k * x) * (gr + 1j * gi))


def _jost_grid(p: Potential, omega: float, k: complex, tol: float) -> np.ndarray:
    """Blocked uniform grid, dense where the phase or the potential moves,
    geometric in block length, truncated where the kernel tail bound dies.

    The first step resolves the faster of the phase e^{2ikx} and the local
    wavenumber omega sqrt(Q) at the origin: it is taken from
    max(1, |k|, omega sqrt(Q(0))), so a strong potential is not stepped at
    the pace of a small |k|.
    """
    kk = max(abs(k), 1e-12)
    wave = max(1.0, kk, omega * math.sqrt(max(float(eval_potential(p, 0.0, 0)), 0.0)))
    if p.support_end is not None:
        X = p.support_end
        h = min(0.05, 0.1 / wave)
        return np.linspace(0.0, X, max(16, int(math.ceil(X / h))) + 1)
    if p.decay is None:
        raise JostError("decay metadata missing: grid truncation undetermined")
    d = p.decay
    om2 = omega * omega
    # tail of int min(t, 1/|k|) |V|:  om^2 a / ((k2-1) |k| X^(k2-1))
    X = (om2 * d.a / ((d.k2 - 1.0) * min(kk, 1.0) * max(tol, 1e-12))) ** (1.0 / (d.k2 - 1.0))
    X = min(max(X, 20.0), 5e4)
    h0 = min(0.05, 0.06 / wave)

    def blocks(h0):
        """(a, b, n): n steps on [a, b], the blocks sharing their ends."""
        out = []
        a, h = 0.0, h0
        while a < X:
            b = min(X, a + max(60 * h, 3.0))
            out.append((a, b, max(8, int(math.ceil((b - a) / h / 2.0)) * 2)))
            a, h = b, 2.0 * h
        return out

    # at most 3200 points: coarsen by counting, and build the grid once
    size = sum(n for _, _, n in blocks(h0)) + 1
    while size > 3200:
        h0 *= size / 3200.0
        size = sum(n for _, _, n in blocks(h0)) + 1
    return np.unique(np.concatenate([np.linspace(a, b, n + 1) for a, b, n in blocks(h0)]))


_TAIL_TOL = 1e-10


def jost(p: Potential, omega: float, k: complex,
         _grid: Optional[np.ndarray] = None) -> JostSample:
    """F(k) = f(k, 0) for Im k >= 0 from the gauged Volterra equation.

    Block-Simpson Nystrom on the grid of _jost_grid, whose tail is cut where
    the kernel's tail bound falls below _TAIL_TOL, marched inward from g = 1
    at the last node in O(m) time and memory.  Row i's weights are composite Simpson
    (3/8-closed for odd counts) on its partial uniform run [i, r], plus the
    saved weights of row r, which starts the run to its right.

    Each row costs O(1) work by the kernel's shift recurrence
    K(d + h) = rho K(d) + K(h), rho = e^{2ikh}: per parity of r - l the run
    carries the sums of K(x_l - x_i) V_l g_l and of V_l g_l over l in (i, r],
    and the 3/8 block's weights near r are applied as corrections.  The run
    to the right enters through two numbers, A = g_r - 1 and
    B = <w_r, V g[r:]>, as e^{2ik(x_r - x_i)} A + K(x_r - x_i) B.  For
    Im k >= 0, |e^{2ikd}| <= 1 and |K(d)| <= d, so nothing overflows at
    k = i xi on grids reaching 5e4.
    """
    k = complex(k)
    if k.imag < -1e-15:
        raise JostError("Jost function needs Im k >= 0")
    grid = _jost_grid(p, omega, k, _TAIL_TOL) if _grid is None else _grid
    # with compact support the grid ends exactly at the support: the final
    # node carries the left-limit value so block-Simpson integrates the
    # piece exactly
    x = grid if p.support_end is None else np.minimum(grid, p.support_end - 1e-12)
    V = (-omega * omega * eval_potential(p, x, 0)).tolist()
    m = len(grid)
    steps = np.diff(grid).tolist()
    # uniform runs (j, r) of the blocked grid, left to right
    runs = []
    j = 0
    while j < m - 1:
        r = j + 1
        while r < m - 1 and abs(steps[r] - steps[j]) < 1e-12 * max(1.0, steps[j]):
            r += 1
        runs.append((j, r))
        j = r
    s = [0j] * m                        # g - 1
    u = [0j] * m                        # V g
    u[m - 1] = complex(V[m - 1])
    A = B = 0j                          # the run to the right, folded at x_r
    for j, r in reversed(runs):
        h = steps[j]
        # K(n h) and e^{2ikn h} for the distances within the run
        if abs(k) < 1e-12:
            kd = (h * np.arange(r - j + 1)).tolist()
            ek = [1.0] * (r - j + 1)
        else:
            z = 2j * k * h * np.arange(r - j + 1)
            kd = (np.expm1(z) / (2j * k)).tolist()
            ek = np.exp(z).tolist()
        rho, kh, h3, h24 = ek[1], kd[1], h / 3.0, h / 24.0
        # per parity of r - l (0: even, 1: odd), over l in (i, r]:
        # P = sum K(x_l - x_i) u_l and Q = sum u_l
        ur = u[r]
        P0, P1, Q0, Q1 = kh * ur, 0j, ur, 0j
        for i in range(r - 1, j - 1, -1):
            n = r - i
            if n & 1 == 0:              # Simpson on [i, r]
                run = h3 * (4.0 * P1 + 2.0 * P0 - kd[n] * ur)
            elif n == 1:                # trapezoid
                run = 0.5 * h * kd[1] * ur
            else:
                # Simpson on [i, r - 3], 3/8 on [r - 3, r]: 24 w / h is 9, 27,
                # 27, 17 at r, ..., r - 3 against the pattern's 32, 16, 32, 16
                run = h3 * (4.0 * P0 + 2.0 * P1) + h24 * (
                    -23.0 * kd[n] * ur + 11.0 * kd[n - 1] * u[r - 1]
                    - 5.0 * kd[n - 2] * u[r - 2]
                    + (kd[n - 3] * u[r - 3] if n >= 5 else 0.0))
            si = run + ek[n] * A + kd[n] * B
            ui = V[i] * (1.0 + si)
            s[i], u[i] = si, ui
            if n & 1:
                Q1 += ui
            else:
                Q0 += ui
            P0 = rho * P0 + kh * Q0
            P1 = rho * P1 + kh * Q1
        A = s[j]
        B += complex(np.dot(simpson_weights(r - j, h), u[j:r + 1]))
    g = 1.0 + np.asarray(s)
    return JostSample(k=k, F=complex(g[0]), iterations_used=1, grid=grid, g=g)


def jost_bound(p: Potential, omega: float) -> float:
    """The growth bound exp(2 sqrt(2) omega^2 int t Q dt) on |F|."""
    if p.support_end is not None:
        x = np.linspace(0, p.support_end, 2001)
        itq = float(np.trapezoid(x * eval_potential(p, x, 0), x))
    else:
        head, tail = integral_with_power_tail(
            lambda x: x * eval_potential(p, x, 0), max(p.x_tail, 1e4))
        itq = head + tail
    return math.exp(2.0 * math.sqrt(2.0) * omega * omega * itq)


@dataclass
class IdentityReport:
    j: int
    xi: float
    lhs: float            # 4 xi^2 / C from the shooting pipeline
    rhs: float            # -s^2 Fdot(i xi)^2 from the Jost pipeline
    residual: float
    h_step: float
    fdot: complex
    f_zero: float         # |F(i xi_j)| (should be ~0: zeros at eigenvalues)


def jost_identity_check(p: Potential, omega: float, j: int,
                        sd=None) -> IdentityReport:
    """Two-pipeline check of 4 xi_j^2 / C_j = -s_j^2 (dF/dk(i xi_j))^2.

    Left side: shooting eigenvalue + normalized-eigenfunction derivative at
    the origin.  Right side: tail amplitude s_j of the same eigenfunction
    matched against the Jost solution, and dF/dk by a Richardson pair of
    central differences of F along the imaginary axis (step well inside
    the gap), all five Jost solves on one shared grid.
    """
    xi = sd.xi if sd is not None else eigenvalues(p, omega)
    if not 1 <= j <= len(xi):
        raise JostError(f"state index {j} outside 1..{len(xi)}")
    x = float(xi[j - 1])
    gaps = np.diff(xi)
    gap = float(min(gaps[max(0, j - 2): j].min() if len(gaps) else x, x))
    h = min(gap / 8.0, x / 100.0)

    prof = _state_profiles(p, omega, np.array([x]))[0]
    # one shared grid for all five evaluations: the discretization bias then
    # differentiates smoothly and the Richardson pair cancels it cleanly
    shared = _jost_grid(p, omega, 1j * (x - h), _TAIL_TOL)
    s0 = jost(p, omega, 1j * x, _grid=shared)

    def central(step):
        sp = jost(p, omega, 1j * (x + step), _grid=shared)
        sm = jost(p, omega, 1j * (x - step), _grid=shared)
        return (sp.F - sm.F) / (2j * step)

    # Richardson pair at h and h/2 (both inside the gap safety margin)
    fdot = (4.0 * central(0.5 * h) - central(h)) / 3.0

    # tail amplitude against the actual Jost solution, not the bare
    # exponential: phi ~ s e^{-xi x} g(x) with g from the same solve
    g_end = s0.f_at(prof.x_stop) * math.exp(x * prof.x_stop)
    log_s = prof.log_s - math.log(abs(g_end.real))
    lhs = 4.0 * x * x / prof.C
    log_rhs = 2.0 * log_s + 2.0 * math.log(abs(fdot))
    rhs = math.exp(log_rhs)
    residual = abs(1.0 - math.exp(log_rhs - math.log(lhs)))
    return IdentityReport(j=j, xi=x, lhs=lhs, rhs=rhs, residual=residual,
                          h_step=h, fdot=complex(fdot), f_zero=abs(s0.F))
