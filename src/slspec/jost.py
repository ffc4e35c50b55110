"""Jost function by one triangular solve, and the norming identity.

The Jost solution behaves like e^{ikx} at infinity; its value at the origin
F(k) = f(k, 0) vanishes exactly at k = i xi_j.  It solves the Volterra
equation

    f(k, x) = e^{ikx} + int_x^inf [sin(k(t-x))/k] V(t) f(k, t) dt,

with V = -omega^2 Q, here in the gauged variable g = f e^{-ikx}, whose
kernel (e^{2ik(t-x)} - 1)/(2ik) stays bounded for Im k >= 0.  On the grid,
the Nystrom matrix M of that equation is strictly upper triangular, so
(I - M) g = 1 is one back-substitution.

Note the integral-equation kernel is sin(k(t-x))/k: with the opposite sign
the equation's solution has zeros that are NOT the eigenvalues (checked
against the square well's closed form).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .forward import SolverOptions, _state_profiles
from .potentials import Potential, eval_potential
from .quadrature import simpson_weights


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
    geometric in block length, truncated where the kernel tail bound dies."""
    kk = max(abs(k), 1e-12)
    if p.support_end is not None:
        X = p.support_end
        h = min(0.05, 0.1 / max(1.0, kk))
        return np.linspace(0.0, X, max(16, int(math.ceil(X / h))) + 1)
    d = p.decay
    om2 = omega * omega
    # tail of int min(t, 1/|k|) |V|:  om^2 a / ((k2-1) |k| X^(k2-1))
    X = (om2 * d.a / ((d.k2 - 1.0) * min(kk, 1.0) * max(tol, 1e-12))) ** (1.0 / (d.k2 - 1.0))
    X = min(max(X, 20.0), 5e4)
    h0 = min(0.05, 0.06 / max(1.0, kk))

    def build(h0):
        blocks = []
        a, h = 0.0, h0
        while a < X:
            b = min(X, a + max(60 * h, 3.0))
            n = max(8, int(math.ceil((b - a) / h / 2.0)) * 2)
            blocks.append(np.linspace(a, b, n + 1))
            a, h = b, 2.0 * h
        return np.unique(np.concatenate(blocks))

    g = build(h0)
    if len(g) > 3200:
        g = build(h0 * len(g) / 3200.0)
    return g


def _row_weights(grid: np.ndarray) -> np.ndarray:
    """w[i, j]: Simpson-type weights for int over [x_i, X] on grid nodes.

    Composite Simpson (3/8-closed for odd counts) on each uniform run of the
    blocked grid.  Row i covers its partial run [i, r] and then the whole
    runs after r, whose weights are row r itself: the rows are filled right
    to left, so that row is done when row i needs it.
    """
    m = len(grid)
    steps = np.diff(grid)
    runs = []
    j = 0
    while j < m - 1:
        r = j + 1
        while r < m - 1 and abs(steps[r] - steps[j]) < 1e-12 * max(1.0, steps[j]):
            r += 1
        runs.append((j, r))
        j = r
    W = np.zeros((m, m))
    tail = np.zeros(1)                # int over [X, X]
    for j, r in reversed(runs):
        for i in range(j, r):
            W[i, i : r + 1] = simpson_weights(r - i, steps[i])
            W[i, r:] += tail
        tail = W[j, j:]
    return W


def jost(p: Potential, omega: float, k: complex, tol: float = 1e-10,
         _grid: Optional[np.ndarray] = None) -> JostSample:
    """F(k) = f(k, 0) for Im k >= 0 from the gauged Volterra equation.

    Block-Simpson Nystrom on the grid of _jost_grid, whose tail is cut where
    the kernel's tail bound falls below tol; (I - M) g = 1 is solved by one
    back-substitution.
    """
    k = complex(k)
    if k.imag < -1e-15:
        raise JostError("Jost function needs Im k >= 0")
    grid = _jost_grid(p, omega, k, tol) if _grid is None else _grid
    # with compact support the grid ends exactly at the support: the final
    # node carries the left-limit value so block-Simpson integrates the
    # piece exactly
    x = grid if p.support_end is None else np.minimum(grid, p.support_end - 1e-12)
    V = -omega * omega * eval_potential(p, x, 0)

    dx = grid[None, :] - grid[:, None]
    np.maximum(dx, 0.0, out=dx)         # t - x above the diagonal, 0 elsewhere
    if abs(k) < 1e-12:
        A = dx.astype(complex)
    else:
        A = np.multiply(2j * k, dx)
        np.exp(A, out=A)
        A -= 1.0
        A /= 2j * k
    del dx
    # above the diagonal I - M = -M, with M = weights * kernel * V
    A *= _row_weights(grid)
    A *= -V
    g = solve_triangular(A, np.ones(len(grid)), unit_diagonal=True)
    return JostSample(k=k, F=complex(g[0]), iterations_used=1, grid=grid, g=g)


def jost_bound(p: Potential, omega: float) -> float:
    """The growth bound exp(2 sqrt(2) omega^2 int t Q dt) on |F|."""
    from .quadrature import integral_with_power_tail
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
                        opts: Optional[SolverOptions] = None,
                        sd=None) -> IdentityReport:
    """Two-pipeline check of 4 xi_j^2 / C_j = -s_j^2 (dF/dk(i xi_j))^2.

    Left side: shooting eigenvalue + normalized-eigenfunction derivative at
    the origin.  Right side: tail amplitude s_j of the same eigenfunction
    matched against the Jost solution, and dF/dk by a Richardson pair of
    central differences of F along the imaginary axis (step well inside
    the gap), all five Jost solves on one shared grid.
    """
    from .forward import eigenvalues

    opts = opts or SolverOptions()
    xi = sd.xi if sd is not None else eigenvalues(p, omega, opts)
    if not 1 <= j <= len(xi):
        raise JostError(f"state index {j} outside 1..{len(xi)}")
    x = float(xi[j - 1])
    gaps = np.diff(xi)
    gap = float(min(gaps[max(0, j - 2): j].min() if len(gaps) else x, x))
    h = min(gap / 8.0, x / 100.0)
    if h > gap / 4.0:
        raise JostError("derivative step exceeds a quarter of the spectral "
                        "gap: neighboring zero would contaminate dF/dk")

    prof = _state_profiles(p, omega, np.array([x]), opts)[0]
    # one shared grid for all five evaluations: the discretization bias then
    # differentiates smoothly and the Richardson pair cancels it cleanly
    shared = _jost_grid(p, omega, 1j * (x - h), 1e-10)
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
