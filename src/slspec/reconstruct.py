"""Inverse maps: determinant and kernel-plus-determinant reconstructions.

Both reconstruction formulas difference exponentially large sinh-family
matrices, so every matrix family is built with the symmetric row/column
factor exp(xi_j x) removed analytically.  All three determinant families
(W for gl0, T for glm, I + G for lax_levermore) are symmetric positive
definite with a rank-one x-derivative, M' = s v v^T, so

    d/dx  ln det M = s v^T M^-1 v,
    d2/dx2 ln det M = 2 s v1^T M^-1 v - (s v^T M^-1 v)^2,   v1 = v',

and one routine, `_rank_one_logdet`, serves them all in float64; only gl0,
whose W entries have a closed form, escalates to an exact solve in the
standard library's decimal arithmetic.  Its entries come from N values
e_s = expm1(-2 xi_s x), built with the extra digits that forming e_r - e_s
costs, and one Cholesky on nested lists of Decimal solves them.
The identities hold verbatim on the scaled entries with v scaled by the same
exp(-xi_j x) (the extracted log-scale is linear in x and drops out of the
second derivative; for the primitive the baseline at x = 0 cancels it
exactly since v(0) = 0 for the sinh families).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from operator import mul
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpocon

from .forward import SpectralData
from . import glkernel
from .potentials import Potential, eval_potential
from .quadrature import gauss_rule


class ReconstructError(RuntimeError):
    pass


class SingularFamilyError(ReconstructError):
    """det crossed zero (or the solve is hopelessly conditioned) at a node."""


@dataclass
class ScaledMatrix:
    """Matrix with per-entry factor exp((xi_row + xi_col) x) removed.

    log|det original| = log|det entries| + log_scale.
    """
    entries: np.ndarray
    log_scale: float

    def slogdet(self) -> tuple:
        sign, ld = np.linalg.slogdet(self.entries)
        return sign, ld + self.log_scale


@dataclass
class ReconstructionResult:
    """Q_rec and its primitive Q_int on grid.  flags marks nodes where the
    determinant family degenerated (their values are 0); escalated marks
    nodes solved in decimal arithmetic on exact entries, which only gl0 has."""
    grid: np.ndarray
    Q_rec: np.ndarray
    Q_int: np.ndarray
    method: str
    sup_error: Optional[float] = None
    L1_error: Optional[float] = None
    sup_error_int: Optional[float] = None
    L1_error_int: Optional[float] = None
    flags: np.ndarray = field(default=None)
    escalated: np.ndarray = field(default=None)
    Q_ref: np.ndarray = field(default=None)
    Q_int_ref: np.ndarray = field(default=None)


def _check_spectral(sd: SpectralData) -> None:
    """Reject data no inverse map can use, such as a malformed JSON file."""
    if not (math.isfinite(sd.omega) and sd.omega > 0):
        raise ReconstructError(f"omega must be finite and positive, got {sd.omega!r}")
    if len(sd.C) != sd.count:
        raise ReconstructError(f"{sd.count} xi but {len(sd.C)} characteristic values")
    if not np.all(np.isfinite(sd.xi) & (sd.xi > 0)):
        raise ReconstructError("xi must be finite and positive")
    if np.any(np.diff(sd.xi) <= 0):
        raise ReconstructError("xi must be strictly increasing (repeated "
                               "values make the difference term singular)")
    if not np.all(np.isfinite(sd.C) & (sd.C > 0)):
        raise ReconstructError("characteristic values must be finite and positive")


def _exp_diff(xi: np.ndarray, x: float) -> np.ndarray:
    """(exp(-2 xi_r x) - exp(-2 xi_s x)) / (xi_s - xi_r), entrywise,
    with the analytic diagonal limit 2x exp(-2 xi x)."""
    n = len(xi)
    d = xi[:, None] - xi[None, :]          # d[s, r] = xi_s - xi_r
    er = np.exp(-2.0 * xi * x)             # e^{-2 xi_r x}
    with np.errstate(divide="ignore", invalid="ignore"):
        out = er[None, :] * -np.expm1(-2.0 * d * x) / d
    idx = np.arange(n)
    out[idx, idx] = 2.0 * x * er
    return out


def build_W(x: float, sd: SpectralData) -> ScaledMatrix:
    """Scaled Gelfand-Levitan matrix W_{s,r}(x).

    W = 2 sh((xi_s+xi_r)x)/(xi_s+xi_r) - (1-delta) 2 sh((xi_s-xi_r)x)/(xi_s-xi_r)
        - delta (2x - 4 xi_r^2/C_r),
    returned with the factor exp((xi_s+xi_r)x) removed entrywise.
    """
    if x < 0:
        raise ReconstructError("x must be >= 0")
    _check_spectral(sd)
    xi = sd.xi
    n = sd.count
    if n == 0:
        return ScaledMatrix(np.empty((0, 0)), 0.0)
    sig = xi[:, None] + xi[None, :]
    sm = ScaledMatrix(np.empty((n, n)), 2.0 * x * float(xi.sum()))
    W = -np.expm1(-2.0 * sig * x) / sig - _exp_diff(xi, x)
    idx = np.arange(n)
    W[idx, idx] = (-np.expm1(-4.0 * xi * x) / (2.0 * xi)
                   - (2.0 * x - 4.0 * xi**2 / sd.C) * np.exp(-2.0 * xi * x))
    sm.entries = W
    return sm


_COND_FLOAT64 = 1e8


def _exact_digits(n: int) -> int:
    """Working digits of the exact solve of an n-state family."""
    return max(50, 30 + int(2.6 * n))


def _exact_cholesky_forms(M: list, v: list, v1: list) -> tuple:
    """(v^T M^-1 v, v1^T M^-1 v) in the working decimal context.

    One Cholesky L L^T = M, row by row on nested lists of Decimal (only the
    upper triangle of M is read), with y = L^-1 v and y1 = L^-1 v1 carried
    along by forward substitution: v^T M^-1 v = y^T y and v1^T M^-1 v = y1^T y.
    A non-positive pivot raises SingularFamilyError.
    """
    L, y, y1 = [], [], []
    for j in range(len(v)):
        Lj = []
        for k in range(j):
            Lj.append((M[k][j] - sum(map(mul, Lj, L[k]))) / L[k][k])
        d = M[j][j] - sum(map(mul, Lj, Lj))
        if not d > 0:
            raise SingularFamilyError(
                "determinant family numerically singular at this node")
        ljj = d.sqrt()
        y.append((v[j] - sum(map(mul, Lj, y))) / ljj)
        y1.append((v1[j] - sum(map(mul, Lj, y1))) / ljj)
        Lj.append(ljj)
        L.append(Lj)
    return sum(map(mul, y, y)), sum(map(mul, y1, y))


def _rank_one_logdet(M: np.ndarray, v: np.ndarray, v1: np.ndarray, s: float,
                     exact_entries=None) -> tuple:
    """(d/dx, d2/dx2) of ln det M for an SPD family with M' = s v v^T and
    M'' = s (v1 v^T + v v1^T):  d1 = s v^T M^-1 v, d2 = 2 s v1^T M^-1 v - d1^2.
    Returns (d1, d2, exact), exact True when the solve ran on exact_entries.

    One Cholesky of the diagonally equilibrated M solves both forms.  Without
    exact_entries that solve is final whatever its conditioning (rounded
    entries hold no more digits); a failed Cholesky or a non-positive diagonal
    raises SingularFamilyError.  Exact entries, exact_entries(prec) -> (M, v,
    v1) as nested lists of Decimal (M symmetric, its upper triangle read),
    escalate the solve when the rcond estimate is below 1/_COND_FLOAT64 or the
    Cholesky fails: the sinh Gramians' conditioning grows like e^(cN), which
    no rescaling repairs, so `_exact_cholesky_forms` runs in a decimal context
    of prec = _exact_digits(N) digits, inside which exact_entries is called;
    it may build its entries with more digits than prec, but not fewer.
    """
    d1 = None
    diag = np.diag(M)
    if np.all(diag > 0):
        r = 1.0 / np.sqrt(diag)
        Me = M * np.outer(r, r)
        try:
            cf = cho_factor(Me)
        except LinAlgError:
            cf = None
        if cf is not None and (exact_entries is None or dpocon(
                cf[0], np.abs(Me).sum(axis=0).max())[0] > 1.0 / _COND_FLOAT64):
            z = cho_solve(cf, v * r)
            d1 = s * float((v * r) @ z)
            d2 = 2.0 * s * float((v1 * r) @ z) - d1 * d1
    exact = d1 is None
    if exact:
        if exact_entries is None:
            raise SingularFamilyError("family not positive definite in float64")
        from decimal import Context, Decimal, localcontext
        with localcontext(Context(prec=_exact_digits(len(v)))) as ctx:
            yy, y1y = _exact_cholesky_forms(*exact_entries(ctx.prec))
            d1m = Decimal(s) * yy
            d1, d2 = float(d1m), float(2 * Decimal(s) * y1y - d1m ** 2)
    # s d1 = s^2 v^T M^-1 v >= 0 while M stays positive definite; a wrong
    # sign means the family degenerated
    if s * d1 < 0:
        raise SingularFamilyError("determinant family lost positivity")
    return d1, d2, exact


def _gl0_node(sd: SpectralData, x: float) -> tuple:
    """(d1, d2, exact) of ln det W at x: W' = 4 v v^T with v = sh(xi x) e^{-xi x}.

    The exact entries come from e_s = expm1(-2 xi_s x), one value per state:

        W_sr = -(e_s + e_r + e_s e_r)/(xi_s + xi_r) - (e_r - e_s)/(xi_s - xi_r),
        W_ss = -(2 e_s + e_s^2)/(2 xi_s) - (2x - 4 xi_s^2/C_s)(1 + e_s),
        v = -e/2,  v1 = xi (2 + e)/2.

    Forming e_r - e_s from rounded e's adds an error of up to about
    8 max(xi)/min(gap) times the rounding of the first term, so the entries
    are built with log10 of that many more digits than the solve uses; they
    are then no less accurate than a per-entry expm1 build at the solve's
    precision.  Decimal has no expm1: exp(y) - 1 loses -log10|y| digits, so
    the exponentials take that many more again for the smallest |y|, xi_0's.
    """
    xi = sd.xi
    n = sd.count
    vh = 0.5 * -np.expm1(-2.0 * xi * x)
    v1h = 0.5 * xi * (1.0 + np.exp(-2.0 * xi * x))
    pad = math.ceil(math.log10(8.0 * xi[-1] / np.diff(xi).min())) if n > 1 else 0

    def build(prec):
        from decimal import Context, Decimal, localcontext
        with localcontext(Context(prec=prec + pad)) as ctx:
            xx = Decimal(float(x))
            xim = [Decimal(t) for t in xi.tolist()]
            extra = max(0, -(2 * xim[0] * xx).adjusted())
            with localcontext(Context(prec=ctx.prec + extra)):
                e = [(-2 * t * xx).exp() - 1 for t in xim]
            W = [[None] * n for _ in range(n)]
            for s in range(n):
                es, xs = e[s], xim[s]
                W[s][s] = (-(2 * es + es * es) / (2 * xs)
                           - (2 * xx - 4 * xs * xs / Decimal(float(sd.C[s]))) * (1 + es))
                for r in range(s + 1, n):
                    er, xr = e[r], xim[r]
                    W[s][r] = W[r][s] = (-(es + er + es * er) / (xs + xr)
                                         - (er - es) / (xs - xr))
            return W, [-t / 2 for t in e], [t * (2 + u) / 2 for t, u in zip(xim, e)]

    return _rank_one_logdet(build_W(x, sd).entries, vh, v1h, 4.0, build)


def _reference_curves(ref: Potential, grid: np.ndarray) -> tuple:
    """Q_ref on the grid and its cumulative integral (per-interval Gauss)."""
    q = eval_potential(ref, grid, 0)
    gx, gw = gauss_rule(16)
    qint = np.zeros_like(grid)
    for i in range(1, len(grid)):
        a, b = grid[i - 1], grid[i]
        t = 0.5 * (a + b) + 0.5 * (b - a) * gx
        qint[i] = qint[i - 1] + 0.5 * (b - a) * float(
            np.dot(gw, eval_potential(ref, t, 0)))
    return q, qint


def _attach_errors(res: ReconstructionResult, ref: Optional[Potential]) -> ReconstructionResult:
    if ref is None:
        return res
    q_ref, qint_ref = _reference_curves(ref, res.grid)
    ok = ~res.flags
    res.Q_ref = q_ref
    res.Q_int_ref = qint_ref
    res.sup_error = float(np.max(np.abs(res.Q_rec - q_ref)[ok]))
    res.L1_error = float(np.trapezoid(np.abs(res.Q_rec - q_ref) * ok, res.grid))
    res.sup_error_int = float(np.max(np.abs(res.Q_int - qint_ref)[ok]))
    res.L1_error_int = float(np.trapezoid(np.abs(res.Q_int - qint_ref) * ok, res.grid))
    return res


def reconstruct_gl0(sd: SpectralData, grid: Sequence,
                    ref: Optional[Potential] = None) -> ReconstructionResult:
    """Determinant-only reconstruction from the discrete data:

        Q0(x) = (2/omega^2) d2/dx2 ln|det W(x)|,

    plus its analytic primitive (2/omega^2) d/dx ln det W (zero baseline,
    since W'(0) = 0).  Nodes where the family degenerates are flagged, not
    interpolated.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ReconstructError("grid must be strictly increasing")
    _check_spectral(sd)
    om2 = sd.omega ** 2
    q = np.zeros_like(grid)
    qint = np.zeros_like(grid)
    flags = np.zeros(len(grid), dtype=bool)
    escalated = np.zeros(len(grid), dtype=bool)
    if sd.count:
        for i, x in enumerate(grid):
            try:
                d1, d2, escalated[i] = _gl0_node(sd, x)
                q[i] = (2.0 / om2) * d2
                qint[i] = (2.0 / om2) * d1
            except SingularFamilyError:
                flags[i] = True
    res = ReconstructionResult(grid=grid, Q_rec=q, Q_int=qint, method="gl0",
                               flags=flags, escalated=escalated)
    return _attach_errors(res, ref)


# ----------------------------------------------------------------------
# kernel-corrected reconstruction

def _scaled_transformed_sinh(sd: SpectralData, kf: glkernel.KernelField) -> tuple:
    """Kernel-corrected sinh data at every kernel node, scaled by e^{-xi t}:

    I_j(t)  = int_0^t A(t,s) sh(xi_j s) ds            (the A-correction),
    F_j(t)  = sh(xi_j t) + I_j(t)                     (transformed solution),
    F_j'(t) = xi ch(xi t) + A(t,t) sh(xi t) + int_0^t dA/dx(t,s) sh(xi_j s) ds.

    Returns (Ih, Fh, F1h).  Keeping I separate lets the T assembly use the
    exact closed form for the pure-sinh Gram block (which is W itself) so
    only the A-corrections are quadratures.
    """
    xi = sd.xi
    nodes = kf.grid
    n = kf.n
    N = len(xi)
    Ih = np.zeros((N, n + 1))
    Fh = np.zeros((N, n + 1))
    F1h = np.zeros((N, n + 1))
    for i, t in enumerate(nodes):
        wt = kf.weights[i]
        ys = nodes[: i + 1]
        a = np.real(kf.A[i])
        b = np.real(kf.dA_dx[i])
        # sh(xi y) e^{-xi t} = (e^{-xi(t-y)} - e^{-xi(t+y)})/2, all decaying
        sh_sc = 0.5 * (np.exp(-xi[:, None] * (t - ys[None, :]))
                       - np.exp(-xi[:, None] * (t + ys[None, :])))
        Ih[:, i] = sh_sc @ (wt * a)
        Fh[:, i] = -0.5 * np.expm1(-2.0 * xi * t) + Ih[:, i]
        ch_sc = 0.5 * xi * (1.0 + np.exp(-2.0 * xi * t))
        F1h[:, i] = (ch_sc + np.real(kf.diag[i]) * -0.5 * np.expm1(-2.0 * xi * t)
                     + sh_sc @ (wt * b))
    return Ih, Fh, F1h


def _t_matrix_at(sd: SpectralData, kf: glkernel.KernelField, i: int,
                 cache: tuple) -> np.ndarray:
    """Scaled T at kernel node i: exact W part plus the A-cross quadratures.

    T = diag(4 xi^2/C) + 4 int (sh+I)(sh+I)^T; the diagonal and the pure
    sinh Gram block are exactly W, so only terms containing I need the
    Nystrom weights, keeping entry error at the kernel's accuracy level
    (the conditioning of these families amplifies any entry noise).
    """
    Ih, _, _ = cache
    xi = sd.xi
    x = kf.grid[i]
    wt = kf.weights[i]
    ts = kf.grid[: i + 1]
    grow = np.exp(xi[:, None] * (ts[None, :] - x))
    p = 0.5 * (grow - np.exp(-xi[:, None] * (ts[None, :] + x)))
    q = Ih[:, : i + 1] * grow
    pw = p * wt[None, :]
    qw = q * wt[None, :]
    cross = 4.0 * (pw @ q.T + qw @ p.T + qw @ q.T)
    return build_W(x, sd).entries + cross


def _check_kernel_field(sd: SpectralData, kf: glkernel.KernelField, x: float) -> None:
    """The kernel field must reach x and be solved at w = omega^2 q0."""
    if kf.grid[-1] < x - 1e-12:
        raise ReconstructError("kernel field grid shorter than x")
    w_expect = sd.omega ** 2 * sd.q0
    if abs(kf.w - w_expect) > 1e-6 * max(1.0, abs(w_expect)):
        raise ReconstructError(
            f"kernel field solved at w={kf.w}, data implies w={w_expect}")


def build_T(x: float, sd: SpectralData, kf: glkernel.KernelField) -> ScaledMatrix:
    """Scaled matrix T_{j,k}(x) = (4 xi_j^2/C_j) delta + 4 int_0^x F_j F_k dt,
    evaluated at a kernel grid node (x must lie on kf.grid)."""
    _check_spectral(sd)
    _check_kernel_field(sd, kf, x)
    i = int(round(x / (kf.grid[1] - kf.grid[0]))) if kf.n else 0
    if not math.isclose(kf.grid[i], x, rel_tol=0, abs_tol=1e-9 * max(1.0, x)):
        raise ReconstructError("build_T wants x on the kernel grid")
    if sd.count == 0:
        return ScaledMatrix(np.empty((0, 0)), 0.0)
    return ScaledMatrix(_t_matrix_at(sd, kf, i, _scaled_transformed_sinh(sd, kf)),
                        2.0 * x * float(sd.xi.sum()))


def default_kernel_n(X: float, w: float) -> int:
    """Kernel grid size so that h sqrt(w) <~ 0.08: the determinant stage
    amplifies kernel entry error, so the solve must resolve the 1/sqrt(w)
    kernel scale to near machine accuracy (Gregory-8 weights assumed)."""
    n = max(128.0, 10.0 * X * math.sqrt(abs(w)))
    return int(2 ** math.ceil(math.log2(n)))


def reconstruct_glm(sd: SpectralData, grid: Sequence, n_kernel: Optional[int] = None,
                    ref: Optional[Potential] = None,
                    kf: Optional[glkernel.KernelField] = None) -> ReconstructionResult:
    """Kernel-plus-determinant reconstruction:

        Q(x) = (2/omega^2) [ -d/dx A(x,x) + d2/dx2 ln|det T(x)| ],

    with the transformation kernel solved at w = omega^2 Q(0).  The grid is
    snapped to the kernel's uniform nodes so the inner integrals reuse the
    Nystrom weights; T'' uses the slice derivative of A from the
    differentiated integral equation, never finite differences.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ReconstructError("grid must be strictly increasing")
    _check_spectral(sd)
    if sd.q0 <= 0:
        raise ReconstructError("reconstruction needs q0 > 0 (Re w > 0)")
    om2 = sd.omega ** 2
    w = om2 * sd.q0
    X = float(grid[-1])
    if kf is None:
        # looked up at call time, so a wrapper on glkernel.solve_kernel sees it
        kf = glkernel.solve_kernel(X, w, n=n_kernel or default_kernel_n(X, w))
    _check_kernel_field(sd, kf, X)
    # evaluate on kernel nodes nearest the requested grid
    snap = np.unique(np.clip(np.round(grid / (kf.grid[1] - kf.grid[0])), 0,
                             kf.n).astype(int))
    xs = kf.grid[snap]
    q = np.zeros(len(xs))
    qint = np.zeros(len(xs))
    flags = np.zeros(len(xs), dtype=bool)
    escalated = np.zeros(len(xs), dtype=bool)
    N = sd.count
    cache = _scaled_transformed_sinh(sd, kf) if N else None
    for k, i in enumerate(snap):
        dd = float(np.real(kf.diag_deriv[i]))
        if N == 0:
            q[k] = (2.0 / om2) * (-dd)
            qint[k] = (2.0 / om2) * (-float(np.real(kf.diag[i])))
            continue
        _, Fh, F1h = cache
        T = _t_matrix_at(sd, kf, i, cache)
        try:
            # entries are float64-accurate only, so the float64 solve is
            # final: an exact solve of rounded entries recovers no digits
            d1, d2, escalated[k] = _rank_one_logdet(T, Fh[:, i], F1h[:, i], 4.0)
            q[k] = (2.0 / om2) * (-dd + d2)
            qint[k] = (2.0 / om2) * (-float(np.real(kf.diag[i])) + d1)
        except SingularFamilyError:
            flags[k] = True
    res = ReconstructionResult(grid=xs, Q_rec=q, Q_int=qint, method="glm",
                               flags=flags, escalated=escalated)
    return _attach_errors(res, ref)


def lax_levermore(eta: Sequence, c: Sequence, epsilon: float,
                  grid: Sequence) -> ReconstructionResult:
    """Small-dispersion determinant profile

        u(x, eps) = -2 eps^2 d2/dx2 ln det(I + G(x, eps)),
        G_jk = eps exp(-(eta_j+eta_k) x/eps) c_j c_k / (eta_j + eta_k);

    the result's Q_rec holds -u so it targets the positive profile the
    discrete data came from.  Exponentials decay for x >= 0: no scaling.
    """
    eta = np.asarray(eta, dtype=float)
    c = np.asarray(c, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ReconstructError(f"epsilon must be finite and positive, got {epsilon!r}")
    if len(eta) != len(c):
        raise ReconstructError("eta and c must pair up")
    if not np.all(np.isfinite(eta) & (eta > 0) & np.isfinite(c) & (c > 0)):
        raise ReconstructError("eta and c must be finite and positive")
    if len(np.unique(eta)) != len(eta):
        # the matrix stays well defined (eta_j + eta_k > 0), but coincident
        # levels mean the norming data is degenerate
        warnings.warn("repeated eta values: degenerate norming", stacklevel=2)
    n = len(eta)
    u = np.zeros_like(grid)
    uint = np.zeros_like(grid)
    flags = np.zeros(len(grid), dtype=bool)
    escalated = np.zeros(len(grid), dtype=bool)
    if n:
        sig = eta[:, None] + eta[None, :]

        def family(x):
            # (I + G)' = -e e^T with e_j = c_j exp(-eta_j x/eps)
            e = c * np.exp(-eta * x / epsilon)
            G = epsilon * np.outer(e, e) / sig
            return np.eye(n) + G, e, -(eta / epsilon) * e

        base = _rank_one_logdet(*family(0.0), -1.0)[0]
        for i, x in enumerate(grid):
            try:
                d1, d2, escalated[i] = _rank_one_logdet(*family(x), -1.0)
                u[i] = -2.0 * epsilon**2 * d2
                uint[i] = -2.0 * epsilon**2 * (d1 - base)
            except SingularFamilyError:
                flags[i] = True
    return ReconstructionResult(grid=grid, Q_rec=-u, Q_int=-uint,
                                method="lax_levermore", flags=flags,
                                escalated=escalated)
