import math

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from numpy.polynomial.laguerre import laggauss

from slspec.glkernel import (KernelError, _phi_tables, _slice_matrix,
                             coercivity_check, gh_values,
                             operator_min_singular_value, phi_diag_derivative,
                             phi_kernel, solve_kernel)
from slspec.quadrature import gauss_panels, gregory_weights

# Frozen oracle values from an independent high-precision quadrature of the
# split representation (finite head + closed-form middle + oscillatory tail,
# 30-digit arithmetic); the production evaluator must sit on top of them.
G_ORACLE = {
    1.0: 0.6466241912530295668,
    4.0: 0.54886752906296401128,
    25.0: 0.38027511978352255359,
    400.0: 0.16336749663390910298,
    6400.0: 0.058155845293432939621,
    1 + 5j: 0.54256258388986842228 - 0.12248715551961293075j,
}
H_ORACLE = {
    4.0: 0.38317775259728758465,
    100.0: 0.098963073425861986603,
    3 + 2j: 0.39586286518447327315 - 0.067786916146578935645j,
}
PHI_111 = 0.34941992141202098601   # brute-force quadrature oracle, cutoff-free


def test_gh_against_oracle():
    for z, ref in G_ORACLE.items():
        g, _ = gh_values(z)
        assert abs(g - ref) < 1e-11
    for z, ref in H_ORACLE.items():
        _, h = gh_values(z)
        assert abs(h - ref) < 1e-11


# the (X, w, n) of test_solve_kernel_matches_dense_slices, plus the glm
# benchmark kernel (quartic_rational at omega 20)
KERNEL_CASES = ([(2.0, w, n) for w in (4.0, 1 + 5j) for n in (16, 17, 23, 128)]
                + [(2.0, 400.0, 128), (5.0, 1e5, 64), (2.0, 400.0, 512)])

_LAG_X, _LAG_W = laggauss(80)
_BN = [float(np.prod([(0.5 - i) / (i + 1.0) for i in range(n)]))
       for n in range(1, 17)]


def _tail_moments_ref(S):
    """Per-point tail moments, one power of the rotated contour at a time."""
    base = S + 1j * _LAG_X
    J = np.empty(17)
    K = np.empty(17)
    for n in range(1, 17):
        I_even = 1j * np.exp(1j * S) * np.dot(_LAG_W, base ** (-2 * n))
        I_odd = 1j * np.exp(1j * S) * np.dot(_LAG_W, base ** (-(2 * n - 1)))
        J[n] = S ** (1 - 2 * n) / (2 * n - 1) - I_even.real
        K[n] = I_odd.imag
    return J, K


def _gh_ref(z):
    """Reference (G(z), H(z)) for one z: the same quadrature as gh_values,
    evaluated point by point."""
    S = max(24.0, 3.2 * math.sqrt(abs(z)))
    xs, ws = gauss_panels(0.0, S, max(16, int(math.ceil(S / 1.5))), 12)
    R = np.sqrt(xs * xs + z)
    g = np.dot(ws, (1.0 - np.cos(xs)) / (xs * (xs + R)))
    h = np.dot(ws, np.sin(xs) / (xs + R))
    J, K = _tail_moments_ref(S)
    zp = 1.0 + 0.0j
    for n in range(1, 17):
        g += _BN[n - 1] * zp * J[n]
        h += _BN[n - 1] * zp * K[n]
        zp *= z
    return g, h


@pytest.mark.parametrize("X, w, n", KERNEL_CASES)
def test_gh_values_matches_per_point_reference(X, w, n):
    u = np.arange(2 * n + 1) * (X / n)
    z = w * u * u
    G, H = gh_values(z)
    assert G.shape == H.shape == z.shape
    ref = np.array([_gh_ref(complex(zi)) for zi in z])
    assert np.max(np.abs(G - ref[:, 0])) <= 1e-14 * np.max(np.abs(ref[:, 0]))
    assert np.max(np.abs(H - ref[:, 1])) <= 1e-14 * np.max(np.abs(ref[:, 1]))


def test_gh_values_scalar_and_domain():
    for z in (4.0, 3 + 2j, 0):
        g, h = gh_values(z)
        assert type(g) is complex and type(h) is complex
        rg, rh = _gh_ref(complex(z))
        assert abs(g - rg) <= 1e-14 and abs(h - rh) <= 1e-14
    with pytest.raises(KernelError):
        gh_values(-1.0)
    with pytest.raises(KernelError):
        gh_values(np.array([4.0, -1e-3 + 2j]))


def test_gh_at_zero():
    g, h = gh_values(0.0)
    assert abs(g - math.pi / 4) < 1e-12
    assert abs(h - math.pi / 4) < 1e-12


def test_h_is_g_plus_2z_gprime():
    # internal consistency: H(z) = G(z) + 2 z G'(z)
    for z in (4.0, 100.0, 3 + 2j):
        dz = 1e-5 * abs(z)
        gp, _ = gh_values(z + dz)
        gm, _ = gh_values(z - dz)
        g, h = gh_values(z)
        assert abs(h - (g + 2 * z * (gp - gm) / (2 * dz))) < 1e-9


def test_phi_kernel_oracle_value():
    assert abs(phi_kernel(1.0, 1.0, 1.0) - PHI_111) < 1e-8


def test_phi_kernel_zero_edge_and_symmetry():
    assert phi_kernel(0.0, 0.7, 2.0) == 0.0
    for (x, y, w) in ((1.3, 0.4, 2.5), (0.2, 1.9, 1 + 5j)):
        assert abs(phi_kernel(x, y, w) - phi_kernel(y, x, w)) < 1e-14


def test_phi_self_similarity():
    # lambda Phi(lx, lx, w/l^2) = Phi(x, x, w)
    base = phi_kernel(1.0, 1.0, 1.0)
    for lam in (0.5, 2.0):
        assert abs(lam * phi_kernel(lam, lam, 1.0 / lam**2) - base) < 1e-12


def test_phi_diag_derivative_origin_and_fd():
    for w in (1.0, 4.0, 1 + 5j, 3.7):
        assert abs(phi_diag_derivative(0.0, w) - w / 2.0) < 1e-8 * abs(w)
    eps = 1e-4
    fd = (phi_kernel(1 + eps, 1 + eps, 2.0) - phi_kernel(1 - eps, 1 - eps, 2.0)) / (2 * eps)
    assert abs(phi_diag_derivative(1.0, 2.0) - fd) < 1e-5


def test_phi_diag_derivative_matches_two_integral_form():
    # literal quadrature of the two-term representation
    from scipy.integrate import quad
    for (x, w) in ((0.7, 2.0), (1.5, 4.0)):
        t1, _ = quad(lambda k: math.sin(k) ** 2 / (k * (k + math.sqrt(k * k + w * x * x))),
                     0, 400.0, limit=2000)
        t1 += 0.25 * (1 / 400.0)  # tail of sin^2 k / (2k^2): mean 1/(2k^2)
        t2, _ = quad(lambda k: math.sin(k) ** 2
                     / (k * math.sqrt(k * k + w * x * x)
                        * (k + math.sqrt(k * k + w * x * x)) ** 2),
                     0, 400.0, limit=2000)
        two_term = (2 * w / math.pi) * t1 - (2 * w * w * x * x / math.pi) * t2
        assert abs(phi_diag_derivative(x, w) - two_term) < 2e-4


def test_phi_rejects_bad_w():
    with pytest.raises(KernelError):
        phi_kernel(1.0, 1.0, -2.0)
    with pytest.raises(KernelError):
        phi_diag_derivative(1.0, 0.0)
    with pytest.raises(KernelError):
        solve_kernel(2.0, -1.0)


@pytest.mark.parametrize("w", [1.0, 4.0, 1 + 5j])
def test_solve_kernel_residual(w):
    kf = solve_kernel(2.0, w, n=128)
    assert kf.residual <= 1e-6
    assert abs(kf.A[0][0]) == 0.0
    assert abs(kf.diag_deriv[0] + w / 2.0) < 1e-10 * max(1.0, abs(w))


def _dense_slices(X, w, n):
    """Reference solve: one pivoted LU of each slice matrix (I + K)."""
    h = X / n
    Phi, dPhi, dphi_diag = _phi_tables(X, w, n)
    A, dA = [np.zeros(1, complex)], [np.zeros(1, complex)]
    diag = np.zeros(n + 1, complex)
    diag_deriv = np.zeros(n + 1, complex)
    diag[0], diag_deriv[0] = -Phi[0, 0], -dphi_diag[0]
    for i in range(1, n + 1):
        wt = gregory_weights(i, h)
        M = np.eye(i + 1, dtype=complex) + Phi[: i + 1, : i + 1].T * wt[None, :]
        r = np.arange(1, i)
        M[r, r] -= h * h * w / 24.0
        lu = lu_factor(M)
        a = lu_solve(lu, -Phi[i, : i + 1])
        b = lu_solve(lu, -(a[i] * Phi[i, : i + 1] + dPhi[i, : i + 1]))
        A.append(a)
        dA.append(b)
        diag[i] = a[i]
        diag_deriv[i] = (-dphi_diag[i] - a[i] * Phi[i, i]
                         - np.dot(wt, b * Phi[: i + 1, i])
                         - np.dot(wt, a * dPhi[i, : i + 1]))
    return A, dA, diag, diag_deriv


def _rel(got, ref):
    got, ref = np.concatenate(got), np.concatenate(ref)
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("X, w, n", [(2.0, w, n) for w in (4.0, 1 + 5j)
                                     for n in (16, 17, 23, 128)]
                         + [(2.0, 400.0, 128), (5.0, 1e5, 64)])
def test_solve_kernel_matches_dense_slices(X, w, n):
    # n = 16, 17, 23 put the first batched slices next to the dense ones;
    # (5, 1e5, 64) is under-resolved (h sqrt(w) ~ 25), and partial pivoting
    # would swap rows of the matrix solve_kernel factors without pivots
    kf = solve_kernel(X, w, n=n)
    A, dA, diag, diag_deriv = _dense_slices(X, w, n)
    assert _rel(kf.A, A) <= 1e-12
    assert _rel(kf.dA_dx, dA) <= 1e-12
    assert _rel([kf.diag], [diag]) <= 1e-12
    assert _rel([kf.diag_deriv], [diag_deriv]) <= 1e-12
    assert [len(a) for a in kf.A] == [len(a) for a in A]
    assert [len(b) for b in kf.dA_dx] == [len(b) for b in dA]


def test_kernel_scaling_identity_and_restriction():
    # Phi(x, y, w) = sqrt(w) Phi(sqrt(w) x, sqrt(w) y, 1), so on grids with
    # the same h sqrt(w) A scales by sqrt(w), dA/dx and d/dx A(x, x) by w
    w = 400.0
    kf = solve_kernel(2.0, w, n=512)
    unit = solve_kernel(40.0, 1.0, n=512)
    r = math.sqrt(w)
    assert _rel(kf.A, [r * a for a in unit.A]) <= 1e-13
    assert _rel(kf.dA_dx, [w * b for b in unit.dA_dx]) <= 1e-13
    assert _rel([kf.diag], [r * unit.diag]) <= 1e-13
    assert _rel([kf.diag_deriv], [w * unit.diag_deriv]) <= 1e-13
    # the slices on [0, 40] of a solve on [0, 80] with the same h are the
    # slices of the solve on [0, 40]
    big = solve_kernel(80.0, 1.0, n=1024)
    assert _rel(big.A[:513], unit.A) <= 1e-13
    assert _rel(big.dA_dx[:513], unit.dA_dx) <= 1e-13
    assert _rel([big.diag[:513]], [unit.diag]) <= 1e-13
    assert _rel([big.diag_deriv[:513]], [unit.diag_deriv]) <= 1e-13


@pytest.mark.parametrize("X, w, n", [(2.0, 4.0, 128), (2.0, 400.0, 128),
                                     (2.0, 400.0, 512)])
def test_real_w_solve_matches_complex_path(X, w, n):
    # w + 1e-300j takes the complex128 path with the same kernel; the
    # under-resolved (5, 1e5, 64) case is left out, because there w and
    # w + 1e-300j already differ by ~1e-10 in dA/dx through round-off
    kr = solve_kernel(X, w, n=n)
    kc = solve_kernel(X, w + 1e-300j, n=n)
    for kf, dtype in ((kr, np.float64), (kc, np.complex128)):
        assert all(a.dtype == dtype for a in kf.A + kf.dA_dx)
        assert kf.diag.dtype == kf.diag_deriv.dtype == dtype
    assert _rel(kr.A, kc.A) <= 1e-13
    assert _rel(kr.dA_dx, kc.dA_dx) <= 1e-13
    assert _rel([kr.diag], [kc.diag]) <= 1e-13
    assert _rel([kr.diag_deriv], [kc.diag_deriv]) <= 1e-13


@pytest.mark.parametrize("w", [4.0, 1 + 5j])
@pytest.mark.parametrize("n", [16, 17, 64])
def test_phi_tables_match_index_gather(n, w):
    X = 2.0
    Phi, dPhi, dphi_diag = _phi_tables(X, w, n)
    assert Phi.dtype == dPhi.dtype == dphi_diag.dtype == (
        np.float64 if w == 4.0 else np.complex128)
    # the index-gather formulas, on the same G/H table
    u = np.arange(2 * n + 1) * (X / n)
    G, H = gh_values(w * u * u)
    wpi = w / math.pi
    idx = np.arange(n + 1)
    ip = idx[:, None] + idx[None, :]
    im = np.abs(idx[:, None] - idx[None, :])
    sgn = np.sign(idx[:, None] - idx[None, :])
    sgn[sgn == 0] = 1
    assert np.array_equal(Phi, wpi * (u[ip] * G[ip] - u[im] * G[im]))
    assert np.array_equal(dPhi, wpi * (H[ip] - sgn * H[im]))
    # the one-sided diagonal, sgn(0) = +1
    assert np.array_equal(np.diagonal(dPhi), wpi * (H[2 * idx] - H[0]))
    assert np.array_equal(dphi_diag, (2.0 * wpi) * H[2 * idx])


def test_slice_weights_are_gregory_weights():
    n, h = 40, 2.0 / 40
    kf = solve_kernel(2.0, 4.0, n=n)
    for i in range(n + 1):
        assert np.array_equal(kf.weights[i], gregory_weights(i, h))


def test_solve_kernel_guards_still_fire():
    # residual ~2e-14 and cond ~20.9 at (2, 400, n=128)
    with pytest.raises(KernelError, match="residual"):
        solve_kernel(2.0, 400.0, n=128, tol=1e-18)
    with pytest.raises(KernelError, match="ill-conditioned"):
        solve_kernel(2.0, 400.0, n=128, tol=0.5)


@pytest.mark.parametrize("X, w, n", KERNEL_CASES)
def test_condition_estimate_tracks_slice_matrix_cond(X, w, n):
    # the guard's 1-norm estimate of cond(B) against the 2-norm cond of
    # slice n's own matrix, which the guard used to compute by SVD
    kf = solve_kernel(X, w, n=n)
    h = X / n
    Phi, _, _ = _phi_tables(X, w, n)
    ref = np.linalg.cond(_slice_matrix(Phi, gregory_weights(n, h), h * h * w / 24.0))
    assert ref / 4.0 <= kf.cond <= 4.0 * ref


def test_kernel_slice_norm_bound():
    # ||A(x, ., w)||_2 <= sqrt(x) sup|Phi(., w)|
    w = 4.0
    kf = solve_kernel(2.0, w, n=64)
    sup_phi = max(abs(phi_kernel(a, b, w))
                  for a in np.linspace(0, 2, 9) for b in np.linspace(0, 2, 9))
    for i in (32, 64):
        wt = kf.weights[i]
        nrm = math.sqrt(float(np.real(np.dot(wt, np.abs(kf.A[i]) ** 2))))
        assert nrm <= math.sqrt(kf.grid[i]) * sup_phi * (1 + 1e-9)


def test_small_w_limit():
    kf = solve_kernel(2.0, 1e-8, n=32)
    assert max(np.max(np.abs(a)) for a in kf.A) <= 1e-6


def test_neumann_iterate_agreement():
    w = 1.0
    kf = solve_kernel(2.0, w, n=64)
    i = 48
    x = kf.grid[i]
    wt = kf.weights[i]
    ys = kf.grid[: i + 1]
    phi_row = np.array([phi_kernel(x, yy, w) for yy in ys])
    phi_mat = np.array([[phi_kernel(ss, yy, w) for yy in ys] for ss in ys])
    second = -phi_row + phi_mat.T @ (wt * phi_row)
    sup_phi = np.abs(phi_mat).max()
    assert np.max(np.abs(kf.A[i] - second)) <= 4.0 * sup_phi**3


def test_grid_refinement_consistency():
    # remaining error is the higher-order kink terms of the diagonal corner
    a = solve_kernel(2.0, 4.0, n=64)
    b = solve_kernel(2.0, 4.0, n=128)
    c = solve_kernel(2.0, 4.0, n=256)
    assert abs(a.diag[-1] - b.diag[-1]) < 3e-5
    assert abs(a.diag_deriv[-1] - b.diag_deriv[-1]) < 2e-4
    # and it shrinks by at least ~8x per doubling (order >= 3)
    assert abs(b.diag[-1] - c.diag[-1]) < abs(a.diag[-1] - b.diag[-1]) / 6


def test_coercivity():
    assert coercivity_check(2.0, 1.0, trials=100) >= 0.999
    assert coercivity_check(2.0, 1 + 5j, trials=100) >= 0.999
    assert coercivity_check(2.0, 1.0, trials=0) == 1.0  # degenerate input convention


def test_min_singular_value_scaling():
    # sigma_min >= 1 - O(n^-2)
    for n in (32, 64):
        s = operator_min_singular_value(2.0, 4.0, n=n)
        assert s >= 1.0 - 25.0 / n**2


def test_holomorphy_cauchy_riemann():
    d = 1e-3
    w0 = 1 + 1j

    def sample(w):
        return solve_kernel(1.0, w, n=32).A[20][10]

    du = (sample(w0 + d) - sample(w0 - d)) / (2 * d)
    dv = (sample(w0 + 1j * d) - sample(w0 - 1j * d)) / (2 * d)
    assert abs(du + 1j * dv) < 1e-4


def test_polynomial_growth_in_w():
    # sup|A| <= C(X)(1+|w|)^alpha with a fitted, |w|-monotone envelope
    sups = []
    ws = (1.0, 4.0, 16.0, 64.0)
    for w in ws:
        kf = solve_kernel(2.0, w, n=128)
        sups.append(max(np.max(np.abs(a)) for a in kf.A))
    assert all(b > a for a, b in zip(sups[:-1], sups[1:]))
    alpha = np.polyfit(np.log1p(ws), np.log(sups), 1)[0]
    assert 0.0 < alpha < 2.0


def test_tolerance_contract_guards():
    with pytest.raises(KernelError):
        phi_kernel(1.0, 1.0, 1.0, tol=1e-14)
    with pytest.raises(KernelError):
        phi_kernel(1.0, 1.0, 1.0, tol=-1.0)
