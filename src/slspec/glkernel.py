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
only O(n) quadratures rather than O(n^2).  `gh_values` evaluates all of
them in one array computation.

The n slice systems share one matrix: from slice 16 on each is a leading
block of a fixed matrix plus a rank-7 change in its Gregory end columns.
`solve_kernel` factors that matrix once, without pivoting, and solves every
slice from the factor (two batched triangular sweeps and a 7x7 Woodbury
solve per slice), so the solve costs O(n^3) rather than n separate LU
factorizations, O(n^4).  The conditioning guard is LAPACK's 1-norm estimate
of cond(B) from that same factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.laguerre import laggauss
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve, solve_triangular

from .quadrature import gauss_rule, gregory_weights

_N_SERIES = 16
# binomial(1/2, n) for n = 1.., the sqrt(1 + z/s^2) expansion of the tails
_BN = np.array([float(np.prod([(0.5 - i) / (i + 1.0) for i in range(n)]))
                for n in range(1, _N_SERIES + 1)])
_LAG_X, _LAG_W = laggauss(80)


class KernelError(ValueError):
    pass


def gh_values(z):
    """(G(z), H(z)) for Re z >= 0, every point in one array computation.

    A scalar z gives a (complex, complex) tuple, an array two complex arrays
    of its shape.  Per point: 12-point Gauss panels on [0, S] with
    S = max(24, 3.2 sqrt|z|), and beyond S the series sqrt(1 + z/s^2) =
    sum_n b_n (z/s^2)^n, whose moments J_n = int_S^inf (1-cos s) s^-2n ds
    and K_n = int_S^inf sin(s) s^-(2n-1) ds come from I_m = int_S^inf
    e^{is} s^-m ds on the rotated contour s = S + it (non-oscillatory,
    Gauss-Laguerre).  Real z stays real through the finite part, and there
    G and H come out with imaginary parts exactly 0.

    The node s = d (j + b_l) of panel j, with d = S/npanel and b_l the
    l-th Gauss node mapped to [0, 1], takes its cos and sin by angle
    addition from cos/sin(d j) and cos/sin(d b_l): npanel + 12 angles per
    point instead of 12 npanel, for the same nodes and weights.
    """
    za = np.asarray(z)
    zs = za.ravel() if np.iscomplexobj(za) else za.ravel().astype(float)
    if np.any(zs.real < -1e-300):
        raise KernelError("G/H need Re z >= 0")
    S = np.maximum(24.0, 3.2 * np.sqrt(np.abs(zs)))
    npanel = np.maximum(16, np.ceil(S / 1.5)).astype(int)
    gx, gw = gauss_rule(12)
    b = 0.5 * (1.0 + gx)                 # node offsets in a unit panel
    G = np.empty(zs.shape, dtype=complex)
    H = np.empty(zs.shape, dtype=complex)
    # finite part, one group per panel count: the nodes of a point are its
    # own gauss_panels(0, S, npanel) rule
    for p in np.unique(npanel):
        idx = np.flatnonzero(npanel == p)
        d = S[idx] / p
        a = d[:, None] * np.arange(p)    # panel starts d j
        o = d[:, None] * b               # offsets d b_l
        ca, sa = np.cos(a)[:, :, None], np.sin(a)[:, :, None]
        co, so = np.cos(o)[:, None, :], np.sin(o)[:, None, :]
        xs = a[:, :, None] + o[:, None, :]
        xR = xs + np.sqrt(xs * xs + zs[idx, None, None])
        G[idx] = (0.5 * d) * np.einsum("ijl,l->i", (1.0 - (ca * co - sa * so))
                                       / (xs * xR), gw)
        H[idx] = (0.5 * d) * np.einsum("ijl,l->i", (sa * co + ca * so) / xR, gw)
    # tail moments: M[k-1] = sum_l w_l (S + i t_l)^-k, by running powers
    inv = 1.0 / (S[:, None] + 1j * _LAG_X[None, :])
    pw = np.ones_like(inv)
    M = np.empty((2 * _N_SERIES, len(S)), dtype=complex)
    for k in range(2 * _N_SERIES):
        pw *= inv
        M[k] = pw @ _LAG_W
    eiS = 1j * np.exp(1j * S)
    m = np.arange(1, _N_SERIES + 1)[:, None]
    J = S ** (1 - 2 * m) / (2 * m - 1) - (eiS * M[1::2]).real
    K = (eiS * M[0::2]).imag
    # b_n z^(n-1), rows summed in order n = 1..16
    zp = np.cumprod([np.ones_like(zs)] + [zs] * (_N_SERIES - 1), axis=0)
    bz = _BN[:, None] * zp
    G += (bz * J).sum(axis=0)
    H += (bz * K).sum(axis=0)
    if za.ndim == 0:
        return complex(G[0]), complex(H[0])
    return G.reshape(za.shape), H.reshape(za.shape)


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
    (gp, gm), _ = gh_values(np.array([w * u_p * u_p, w * u_m * u_m]))
    return (w / math.pi) * (u_p * gp - u_m * gm)


def phi_diag_derivative(x: float, w: complex) -> complex:
    """d/dx Phi(x, x, w), valid down to x = 0 where it equals w/2.

    Algebraically this is the two-integral representation
    (2w/pi) int sin^2 k / (k (k + sqrt(k^2 + w x^2))) dk minus the
    (2 w^2 x^2 / pi) term, consolidated into the single H transform.
    """
    _check_w(w)
    _, h = gh_values(4.0 * w * x * x)
    return (2.0 * w / math.pi) * h


def _check_w(w: complex) -> None:
    if complex(w).real <= 0:
        raise KernelError(f"spectral shift needs Re w > 0, got {w!r}")


def _table_w(w: complex):
    """w as the kernel tables take it: a float when its imaginary part is 0,
    so that every table and solve runs in float64, else a complex."""
    w = complex(w)
    return w.real if w.imag == 0 else w


def _hankel_minus_toeplitz(v: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The (n+1)^2 table v[i + j] - t[j - i] for i, j = 0..n, from the
    (2n+1)-vector v, with t[k] = v[|k|] for k <= 0 and upper[k - 1] for
    k > 0.  Both terms are sliding windows over one vector: the Hankel one
    over v, the Toeplitz one, reversed, over t."""
    n = (len(v) - 1) // 2
    t = np.concatenate([v[n::-1], upper])           # t[n + k]
    return (sliding_window_view(v, n + 1)
            - sliding_window_view(t, n + 1)[::-1])


def _phi_tables(X: float, w: complex, n: int) -> tuple:
    """Phi(x_i, y_j), dPhi/dx(x_i, y_j) and d/dx Phi(x, x) at x_i on the
    uniform (n+1)-point grid of [0, X], from one G/H table at u = k X/n.

    The tables are float64 at real w, where G and H are real, and
    complex128 otherwise.  On the diagonal dPhi/dx takes the one-sided limit
    from y < x, that is sgn(0) = +1 in H(u_+) - sgn(x - y) H(u_-).
    """
    w = _table_w(w)
    h = X / n
    u = np.arange(2 * n + 1) * h
    G, H = gh_values(w * u * u)
    if not isinstance(w, complex):
        G, H = G.real, H.real
    wpi = w / math.pi
    g = u * G
    # wpi times the table in place; wpi as the first operand gives the same
    # complex rounding as wpi * table
    Phi = _hankel_minus_toeplitz(g, g[1: n + 1])
    np.multiply(wpi, Phi, out=Phi)
    dPhi = _hankel_minus_toeplitz(H, -H[1: n + 1])
    np.multiply(wpi, dPhi, out=dPhi)
    return Phi, dPhi, (2.0 * wpi) * H[::2]


@dataclass
class KernelField:
    """Solved transformation kernel on a uniform triangular grid."""

    w: complex
    grid: np.ndarray
    A: list                      # A[i] = A(x_i, y_0..i)
    diag: np.ndarray             # A(x_i, x_i)
    diag_deriv: np.ndarray       # d/dx A(x, x) at nodes
    residual: float
    cond: float = math.nan       # 1-norm estimate of cond(B), see solve_kernel
    dA_dx: list = field(default=None, repr=False)   # slice derivatives dA/dx
    weights: list = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.grid) - 1


# slices 1..15 take Simpson weights and are solved densely; from slice 16 on
# the Gregory start corrections are the same for every slice
_FIRST_BATCHED = 16
_CHUNK = 64          # slice columns per Woodbury update and residual block


def _lu_nopivot(a: np.ndarray) -> None:
    """Blocked right-looking LU of the square Fortran-ordered `a` in place,
    without pivoting: the strict lower triangle ends up holding the unit L,
    the rest U, and every leading block is the product of the leading
    blocks of L and U."""
    n, nb = a.shape[0], 64
    for k in range(0, n, nb):
        e = min(k + nb, n)
        for j in range(k, e):
            a[j + 1:, j] /= a[j, j]
            a[j + 1:, j + 1:e] -= np.outer(a[j + 1:, j], a[j, j + 1:e])
        if e < n:
            a[k:e, e:] = solve_triangular(a[k:e, k:e], a[k:e, e:], lower=True,
                                          unit_diagonal=True, check_finite=False)
            a[e:, e:] -= a[e:, k:e] @ a[k:e, e:]


def _slice_matrix(Phi: np.ndarray, wt: np.ndarray, kink: complex) -> np.ndarray:
    """Slice i's Nystrom matrix (I + K) on nodes 0..i, where i = len(wt) - 1."""
    i = len(wt) - 1
    M = Phi[: i + 1, : i + 1].T * wt[None, :]
    M[np.diag_indices(i + 1)] += 1.0
    # dPhi/ds jumps by -w/2 across s = y (one-sided diagonal limits): the
    # Euler-Maclaurin kink term at interior collocation nodes is a diagonal
    # correction -h^2 w/24 * A(x, y_r) that restores the rule's order
    # through the corner
    r = np.arange(1, i)
    M[r, r] -= kink
    return M


def solve_kernel(X: float, w: complex, n: int = 128, tol: float = 1e-6) -> KernelField:
    """Nystrom solve of the triangular equation, slice by slice in x.

    Endpoint-corrected trapezoid (Gregory, order 8) weights on uniform
    nodes; each slice solves the (I + K) system (well posed by coercivity
    of the measure), and the diagonal derivative comes from the
    differentiated equation rather than from differencing A.  Eighth-order
    weights matter downstream: the reconstruction's determinant stage
    amplifies kernel quadrature error through badly conditioned solves.

    Slices 1..15 are solved densely.  From slice 16 on, slice i's matrix is
    the leading block of one fixed matrix B (Gregory start weights, h
    elsewhere, the kink term on every node but 0) plus a change of rank 7
    in columns i-6..i.  B is factored once by LU without pivoting, so its
    leading blocks are factored by the leading blocks of L and U.  That is
    stable when the Hermitian part of B is positive definite, which
    coercivity (Re w > 0) gives on resolved grids (smallest eigenvalue
    ~1); on an under-resolved grid (h sqrt|w| ~ 25) it is indefinite, and
    the factor still showed pivot growth 8 and backward error 9e-16.  Every
    slice then costs its share of one forward and one back triangular
    sweep over all right-hand sides at once, plus a 7x7 Woodbury
    capacitance solve: O(n^3) in total instead of n LU factorizations,
    O(n^4).  The differentiated equation is linear in its
    right-hand side, so dA/dx = A(x, x) A + (I + K)^-1 (-dPhi(x, .)) and
    both right-hand sides are known before the sweep.

    Two guards raise KernelError: the largest slice residual above tol, and
    cond(B) above 1/tol.  cond(B) is LAPACK's 1-norm estimate (gecon) from
    the factor of B, O(n^2); B differs from slice n's matrix only in its
    end columns, and the estimate read 1.0-2.4x the 2-norm cond of that
    matrix on resolved and under-resolved grids.  It is returned as
    KernelField.cond.

    The arithmetic follows w.  At real w (imaginary part 0, as in every
    reconstruction, where w = omega^2 q0) G and H are real, so the tables,
    the factor and the fields A, dA_dx, diag and diag_deriv are float64;
    only imaginary parts that are exactly 0 are dropped.  Any other w runs
    the same code in complex128.  KernelField.w keeps w as it was passed.
    """
    _check_w(w)
    if X <= 0:
        raise KernelError("X must be positive")
    if n < 16:
        raise KernelError("need at least 16 grid intervals")
    h = X / n
    kink = h * h * _table_w(w) / 24.0
    grid = np.linspace(0.0, X, n + 1)
    Phi, dPhi, dphi_diag = _phi_tables(X, w, n)
    dtype = Phi.dtype
    s0 = _FIRST_BATCHED
    cs = gregory_weights(s0, h)[:7]      # Gregory start (and mirrored end) weights
    # from s0 on the start and end corrections do not overlap, and this is
    # gregory_weights(i, h) to the bit
    wts = ([gregory_weights(i, h) for i in range(s0)]
           + [np.concatenate([cs, np.full(i - 13, h), cs[::-1]])
              for i in range(s0, n + 1)])
    dd = cs[::-1] - h                    # end-column weight change, columns i-6..i

    B = _slice_matrix(Phi, np.concatenate([cs, np.full(n - 6, h)]), kink)
    B[n, n] -= kink
    anorm = np.linalg.norm(B, 1)
    _lu_nopivot(B)
    # gecon reads only the L and U factors, so the unpivoted LU is valid input
    rcond, _ = get_lapack_funcs("gecon", (B,))(B, anorm, norm="1")
    # column i of Acol / dAcol holds A / dA_dx of slice i on rows 0..i, so
    # their transposes are row-per-slice arrays and A[i] a view of a row
    Acol = np.zeros((n + 1, n + 1), dtype=dtype, order="F")
    dAcol = np.zeros((n + 1, n + 1), dtype=dtype, order="F")
    # the Woodbury columns of slice s0 reach back to column s0 - 6
    np.negative(Phi[s0 - 6:, :].T, out=Acol[:, s0 - 6:])
    np.negative(dPhi[s0:, :].T, out=dAcol[:, s0:])
    Acol[:, s0 - 6:] = solve_triangular(B, Acol[:, s0 - 6:], lower=True,
                                        unit_diagonal=True, overwrite_b=True,
                                        check_finite=False)
    dAcol[:, s0:] = solve_triangular(B, dAcol[:, s0:], lower=True,
                                    unit_diagonal=True, overwrite_b=True,
                                    check_finite=False)

    # Woodbury: M_i = L_i (U_i + Z V^T) with V = [e_{i-6} .. e_i] and
    # Z = L_i^-1 (columns i-6..i of M_i - B_i); L_i^-1 e_i = e_i, so the
    # capacitance is the trailing 7x7 block of U_i plus that block of Z
    sl = np.arange(s0, n + 1)
    blk = sl[:, None] - 6 + np.arange(7)[None, :]
    cap = np.triu(B[blk[:, :, None], blk[:, None, :]]) \
        - dd[None, None, :] * Acol[blk[:, :, None], blk[:, None, :]]
    cap[:, 6, 6] += kink
    rhs = np.stack([Acol[blk, sl[:, None]], dAcol[blk, sl[:, None]]], axis=-1)
    tail = np.linalg.solve(cap, rhs)      # V^T x for both right-hand sides
    # y - Z (V^T x), in descending column chunks: a chunk reads columns
    # down to 6 below itself, which must still hold the forward sweep
    for lo in reversed(range(s0, n + 1, _CHUNK)):
        hi = min(lo + _CHUNK, n + 1)
        t = tail[lo - s0: hi - s0]
        da = np.zeros((n + 1, hi - lo), dtype=dtype)
        db = np.zeros((n + 1, hi - lo), dtype=dtype)
        for q in range(7):
            src = Acol[:, lo - 6 + q: hi - 6 + q]
            da += src * (dd[q] * t[:, q, 0])
            db += src * (dd[q] * t[:, q, 1])
        Acol[:, lo:hi] += da
        dAcol[:, lo:hi] += db
        c = np.arange(lo, hi)
        Acol[c, c] -= kink * t[:, 6, 0]
        dAcol[c, c] -= kink * t[:, 6, 1]
    below = np.tri(n + 1, k=-1, dtype=bool)
    Acol[below] = 0.0
    dAcol[below] = 0.0
    Acol[:, s0:] = solve_triangular(B, Acol[:, s0:], overwrite_b=True,
                                    check_finite=False)
    dAcol[:, s0:] = solve_triangular(B, dAcol[:, s0:], overwrite_b=True,
                                    check_finite=False)
    del B

    residual = 0.0
    for i in range(1, s0):
        M = _slice_matrix(Phi, wts[i], kink)
        lu = lu_factor(M)
        rhs = -Phi[i, : i + 1]
        a = lu_solve(lu, rhs)
        residual = max(residual, float(np.max(np.abs(M @ a - rhs))))
        # differentiated equation: (I + K) dA/dx = -(A(x,x) Phi(x,.) + dPhi(x,.))
        Acol[: i + 1, i] = a
        dAcol[: i + 1, i] = lu_solve(lu, -(a[i] * Phi[i, : i + 1] + dPhi[i, : i + 1]))
    residual = max(residual, _batched_residual(Phi, Acol, wts, kink, s0))

    A_rows = [Acol[: i + 1, i] for i in range(n + 1)]
    B_rows = [dAcol[: i + 1, i] for i in range(n + 1)]
    diag = np.diagonal(Acol).copy()
    diag[0] = -Phi[0, 0]
    diag_deriv = np.empty(n + 1, dtype=dtype)
    diag_deriv[0] = -dphi_diag[0]
    for i in range(1, n + 1):
        wt, a, b = wts[i], A_rows[i], B_rows[i]
        if i >= s0:
            b += a[i] * a
        diag_deriv[i] = (-dphi_diag[i] - a[i] * Phi[i, i]
                         - np.dot(wt, b * Phi[: i + 1, i])
                         - np.dot(wt, a * dPhi[i, : i + 1]))
    if residual > tol:
        raise KernelError(
            f"discretized solve residual {residual:.3e} above tol {tol:.3e}")
    cond = 1.0 / rcond if rcond > 0 else math.inf
    if cond > 1.0 / tol:
        raise KernelError(
            f"linear solve ill-conditioned (cond ~ {cond:.2e} > 1/tol): "
            "discretization too coarse or Re w <= 0 leakage")
    return KernelField(w=w, grid=grid, A=A_rows, diag=diag,
                       diag_deriv=diag_deriv, residual=residual, cond=cond,
                       dA_dx=B_rows, weights=wts)


def _batched_residual(Phi, Acol, wts, kink, s0) -> float:
    """max over slices i >= s0 of |M_i A_i + Phi(x_i, .)|, each M_i with
    slice i's own weights as `_slice_matrix` builds it, in column chunks."""
    n = Phi.shape[0] - 1
    rows = np.arange(n + 1)
    res = 0.0
    for lo in range(s0, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        c = np.arange(lo, hi)
        a = Acol[:, lo:hi]
        wa = np.zeros_like(a)
        for j, i in enumerate(c):
            wa[: i + 1, j] = wts[i] * a[: i + 1, j]
        r = a + Phi.T @ wa + Phi[lo:hi, :].T
        r[1:] -= kink * a[1:]
        r[c, c - lo] += kink * a[c, c - lo]
        r[rows[:, None] > c[None, :]] = 0.0
        res = max(res, float(np.max(np.abs(r))))
    return res


def coercivity_check(X: float, w: complex, trials: int = 100) -> float:
    """min over random h of ||(I + K) h|| / ||h|| in the quadrature norm, on
    n = 128 intervals with the random generator seeded 0.

    The continuous operator satisfies ||(I+K) h|| >= ||h||; the discretized
    one should come out >= 1 - O(n^-2).
    """
    _check_w(w)
    rng = np.random.default_rng(0)
    n = 128
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
    M = np.eye(n + 1, dtype=Phi.dtype) + Phi.T * wt[None, :]
    root = np.sqrt(wt)
    root[root == 0] = 1e-150
    Mw = (root[:, None] * M) / root[None, :]
    return float(np.linalg.svd(Mw, compute_uv=False)[-1])
