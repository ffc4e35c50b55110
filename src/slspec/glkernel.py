"""Gelfand-Levitan input kernel and the triangular integral-equation solve.

The input kernel built from the shifted continuous spectral density is

    Phi(x, y, w) = int_0^inf (sin kx / k)(sin ky / k) w/(k + sqrt(k^2+w))
                   * (2k/pi) dk,       Re w > 0,

and the transformation kernel A(x, y, w) solves

    A(x, y, w) + int_0^x A(x, s, w) Phi(s, y, w) ds + Phi(x, y, w) = 0

on the triangle 0 <= y <= x.  Everything reduces to two scalar functions of
z = w u^2,

    G(z) = int_0^inf (1 - cos s) / (s (s + sqrt(s^2 + z))) ds,
    H(z) = int_0^inf sin s / (s + sqrt(s^2 + z)) ds,

via Phi(x,y,w) = (w/pi)[(x+y) G(w(x+y)^2) - |x-y| G(w(x-y)^2)] and the
analogous H form for d/dx Phi, so a kernel solve on an n-point grid needs
only O(n) quadratures rather than O(n^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np
from numpy.polynomial.laguerre import laggauss
from scipy.linalg import lu_factor, lu_solve

from .quadrature import gauss_panels, gregory_weights

_N_SERIES = 16
# binomial(1/2, n) for n = 1.., the sqrt(1 + z/s^2) expansion of the tails
_BN = np.array([float(np.prod([(0.5 - i) / (i + 1.0) for i in range(n)]))
                for n in range(1, _N_SERIES + 1)])
_LAG_X, _LAG_W = laggauss(80)


class KernelError(ValueError):
    pass


def _tail_moments(S: float) -> tuple:
    """J_m = int_S^inf (1-cos s) s^-m ds (m even) and K_m = int_S^inf
    sin(s) s^-m ds (m odd), from I_m = int_S^inf e^{is} s^-m ds computed on
    the rotated contour s = S + it (non-oscillatory, Gauss-Laguerre)."""
    base = S + 1j * _LAG_X
    J = np.empty(_N_SERIES + 1)
    K = np.empty(_N_SERIES + 1)
    for n in range(1, _N_SERIES + 1):
        I_even = 1j * np.exp(1j * S) * np.dot(_LAG_W, base ** (-2 * n))
        I_odd = 1j * np.exp(1j * S) * np.dot(_LAG_W, base ** (-(2 * n - 1)))
        J[n] = S ** (1 - 2 * n) / (2 * n - 1) - I_even.real
        K[n] = I_odd.imag
    return J, K


def _gh_single(z: complex, nodes: int = 12) -> tuple:
    """(G(z), H(z)) for one z with Re z >= 0."""
    S = max(24.0, 3.2 * math.sqrt(abs(z)))
    xs, ws = gauss_panels(0.0, S, max(16, int(math.ceil(S / 1.5))), nodes)
    R = np.sqrt(xs * xs + z)
    g_fin = np.dot(ws, (1.0 - np.cos(xs)) / (xs * (xs + R)))
    h_fin = np.dot(ws, np.sin(xs) / (xs + R))
    J, K = _tail_moments(S)
    g_tail = 0.0 + 0.0j
    h_tail = 0.0 + 0.0j
    zp = 1.0 + 0.0j
    for n in range(1, _N_SERIES + 1):
        g_tail += _BN[n - 1] * zp * J[n]
        h_tail += _BN[n - 1] * zp * K[n]
        zp *= z
    return g_fin + g_tail, h_fin + h_tail


def gh_values(z):
    """Vector-friendly (G, H) evaluation; z may be a scalar or array."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(zs.real < -1e-300):
        raise KernelError("G/H need Re z >= 0")
    G = np.empty(zs.shape, dtype=complex)
    H = np.empty(zs.shape, dtype=complex)
    for i, zi in enumerate(zs.ravel()):
        g, h = _gh_single(zi)
        G.ravel()[i] = g
        H.ravel()[i] = h
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(G.ravel()[0]), complex(H.ravel()[0])
    return G, H


def phi_kernel(x: float, y: float, w: complex, tol: float = 1e-8) -> complex:
    """Phi(x, y, w) to absolute accuracy ~tol (the scalar-function route is
    accurate to ~1e-11, verified against a high-cutoff quadrature oracle)."""
    _check_w(w)
    if tol <= 0:
        raise KernelError("tol must be positive")
    if tol < 1e-11:
        raise KernelError("tail not converged at the requested tol: the split "
                          "evaluator guarantees ~1e-11 absolute")
    u_p = x + y
    u_m = abs(x - y)
    (gp, _), (gm, _) = _gh_single(w * u_p * u_p), _gh_single(w * u_m * u_m)
    return (w / math.pi) * (u_p * gp - u_m * gm)


def phi_diag_derivative(x: float, w: complex, tol: float = 1e-8) -> complex:
    """d/dx Phi(x, x, w), valid down to x = 0 where it equals w/2.

    Algebraically this is the two-integral representation
    (2w/pi) int sin^2 k / (k (k + sqrt(k^2 + w x^2))) dk minus the
    (2 w^2 x^2 / pi) term, consolidated into the single H transform.
    """
    _check_w(w)
    _, h = _gh_single(4.0 * w * x * x)
    return (2.0 * w / math.pi) * h


def _check_w(w: complex) -> None:
    if complex(w).real <= 0:
        raise KernelError(f"spectral shift needs Re w > 0, got {w!r}")


def _phi_tables(X: float, w: complex, n: int) -> tuple:
    """Phi(x_i, y_j), dPhi/dx(x_i, y_j) and d/dx Phi(x, x) at x_i on the
    uniform (n+1)-point grid of [0, X], from one G/H table at u = k X/n.

    On the diagonal dPhi/dx takes the one-sided limit from y < x.
    """
    h = X / n
    u = np.arange(2 * n + 1) * h
    G, H = gh_values(w * u * u)
    wpi = w / math.pi
    idx = np.arange(n + 1)
    ip = idx[:, None] + idx[None, :]
    im = np.abs(idx[:, None] - idx[None, :])
    Phi = wpi * (u[ip] * G[ip] - u[im] * G[im])
    sgn = np.sign(idx[:, None] - idx[None, :])
    sgn[sgn == 0] = 1
    dPhi = wpi * (H[ip] - sgn * H[im])
    return Phi, dPhi, (2.0 * wpi) * H[2 * idx]


@dataclass
class KernelField:
    """Solved transformation kernel on a uniform triangular grid."""

    w: complex
    grid: np.ndarray
    A: list                      # A[i] = A(x_i, y_0..i)
    diag: np.ndarray             # A(x_i, x_i)
    diag_deriv: np.ndarray       # d/dx A(x, x) at nodes
    residual: float
    dA_dx: list = field(default=None, repr=False)   # slice derivatives dA/dx
    weights: list = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.grid) - 1

    def slice_weights(self, i: int) -> np.ndarray:
        return self.weights[i]


def solve_kernel(X: float, w: complex, n: int = 128, tol: float = 1e-6) -> KernelField:
    """Nystrom solve of the triangular equation, slice by slice in x.

    Endpoint-corrected trapezoid (Gregory, order 8) weights on uniform
    nodes; each slice solves the dense (I + K) system (well posed by
    coercivity of the measure), and the diagonal derivative comes from the
    differentiated equation rather than from differencing A.  Eighth-order
    weights matter downstream: the reconstruction's determinant stage
    amplifies kernel quadrature error through badly conditioned solves.
    """
    _check_w(w)
    if X <= 0:
        raise KernelError("X must be positive")
    if n < 16:
        raise KernelError("need at least 16 grid intervals")
    h = X / n
    grid = np.linspace(0.0, X, n + 1)
    Phi, dPhi, dphi_diag = _phi_tables(X, w, n)

    A_rows = [np.zeros(1, dtype=complex)]
    B_rows = [np.zeros(1, dtype=complex)]
    diag = np.zeros(n + 1, dtype=complex)
    diag_deriv = np.zeros(n + 1, dtype=complex)
    wts = [np.zeros(1)]
    diag[0] = -Phi[0, 0]
    diag_deriv[0] = -dphi_diag[0]
    residual = 0.0
    for i in range(1, n + 1):
        wt = gregory_weights(i, h)
        wts.append(wt)
        sub = Phi[: i + 1, : i + 1]
        M = np.eye(i + 1, dtype=complex) + sub.T * wt[None, :]
        # dPhi/ds jumps by -w/2 across s = y (one-sided diagonal limits):
        # the Euler-Maclaurin kink term at interior collocation nodes is a
        # diagonal correction -h^2 w/24 * A(x, y_r) that restores the
        # rule's order through the corner
        if i >= 2:
            r = np.arange(1, i)
            M[r, r] -= h * h * w / 24.0
        lu = lu_factor(M)
        rhs = -Phi[i, : i + 1]
        a = lu_solve(lu, rhs)
        res = np.max(np.abs(M @ a - rhs))
        # differentiated equation: (I + K) dA/dx = -(A(x,x) Phi(x,.) + dPhi(x,.))
        rhs_b = -(a[i] * Phi[i, : i + 1] + dPhi[i, : i + 1])
        b = lu_solve(lu, rhs_b)
        A_rows.append(a)
        B_rows.append(b)
        diag[i] = a[i]
        diag_deriv[i] = (-dphi_diag[i] - a[i] * Phi[i, i]
                         - np.dot(wt, b * Phi[: i + 1, i])
                         - np.dot(wt, a * dPhi[i, : i + 1]))
        residual = max(residual, float(res))
    if residual > tol:
        raise KernelError(
            f"discretized solve residual {residual:.3e} above tol {tol:.3e}")
    cond = np.linalg.cond(M)
    if cond > 1.0 / tol:
        raise KernelError(
            f"linear solve ill-conditioned (cond ~ {cond:.2e} > 1/tol): "
            "discretization too coarse or Re w <= 0 leakage")
    return KernelField(w=w, grid=grid, A=A_rows, diag=diag,
                       diag_deriv=diag_deriv, residual=residual,
                       dA_dx=B_rows, weights=wts)


def coercivity_check(X: float, w: complex, trials: int = 100, n: int = 128,
                     seed: int = 0) -> float:
    """min over random h of ||(I + K) h|| / ||h|| in the quadrature norm.

    The continuous operator satisfies ||(I+K) h|| >= ||h||; the discretized
    one should come out >= 1 - O(n^-2).
    """
    _check_w(w)
    rng = np.random.default_rng(seed)
    Phi, _, _ = _phi_tables(X, w, n)
    wt = gregory_weights(n, X / n)
    best = 1.0
    for _ in range(max(trials, 1)):
        hv = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        nh = math.sqrt(float(np.dot(wt, np.abs(hv) ** 2)))
        if nh == 0:
            continue  # ratio defined as 1 by convention
        img = hv + Phi.T @ (wt * hv)
        ni = math.sqrt(float(np.dot(wt, np.abs(img) ** 2)))
        best = min(best, ni / nh)
    return best


def operator_min_singular_value(X: float, w: complex, n: int = 64) -> float:
    """Smallest singular value of the weighted discretized (I + K)."""
    _check_w(w)
    Phi, _, _ = _phi_tables(X, w, n)
    wt = gregory_weights(n, X / n)
    M = np.eye(n + 1, dtype=complex) + Phi.T * wt[None, :]
    root = np.sqrt(wt)
    root[root == 0] = 1e-150
    Mw = (root[:, None] * M) / root[None, :]
    return float(np.linalg.svd(Mw, compute_uv=False)[-1])
