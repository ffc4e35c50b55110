import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from slspec.jost import (JostError, _jost_grid, jost, jost_bound,
                         jost_identity_check)
from slspec.potentials import eval_potential, make_potential
from slspec.quadrature import simpson_weights


def _sw_jost_exact(omega, xi):
    """Closed-form square-well Jost value F(i xi) = e^-xi (cos nu + (xi/nu) sin nu)."""
    nu = math.sqrt(omega * omega - xi * xi)
    return math.exp(-xi) * (math.cos(nu) + (xi / nu) * math.sin(nu))


def test_square_well_closed_form(sw):
    for xi in (1.0, 2.0):
        s = jost(sw, 3.0, 1j * xi)
        assert abs(s.F.real - _sw_jost_exact(3.0, xi)) < 1e-4
        assert abs(s.F.imag) < 1e-12


def test_nearly_zero_potential_gives_unity():
    tiny = make_potential({
        "kind": "user_closed_form",
        "fn": lambda x: 1e-12 / (1 + np.asarray(x) ** 2) ** 2,
        "decay": {"a": 2.0, "k1": 4, "k2": 4},
        "m_smoothness": 0,
    })
    s = jost(tiny, 1.0, 2.0 + 1.0j)
    assert abs(s.F - 1.0) < 1e-10


def test_reflection_symmetry(q1):
    rng = np.random.default_rng(11)
    for k in rng.uniform(2.0, 14.0, size=20):
        a = jost(q1, 10.0, float(k))
        b = jost(q1, 10.0, -float(k))
        assert abs(b.F - np.conj(a.F)) < 1e-12


def test_converges_to_one_at_infinity(q1):
    # |F - 1| ~ omega^2 int Q / (2 kappa): the 1e-2 level needs kappa ~ 1e4
    vals = [abs(jost(q1, 10.0, 1j * kap).F - 1.0) for kap in (1e2, 1e3, 1e4)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-2


def test_growth_bound(q1):
    bound = jost_bound(q1, 10.0)
    for k in (0.5j, 2.0, 5j):
        assert abs(jost(q1, 10.0, k).F) <= bound


def test_zeros_at_eigenvalues(q1, q1_sd10):
    # mid-spectrum: |F(i xi_j)| well below the |Fdot| * gap scale
    for j in (2, 3, 4):
        s = jost(q1, 10.0, 1j * float(q1_sd10.xi[j]))
        assert abs(s.F) < 1e-5


def test_rejects_lower_half_plane(q1):
    with pytest.raises(JostError):
        jost(q1, 10.0, 1.0 - 0.5j)


def test_identity_mid_spectrum(q1, q1_sd10):
    # two independent pipelines agree on 4 xi^2/C = -s^2 Fdot^2
    mid = [3, 4]
    for j in mid:
        rep = jost_identity_check(q1, 10.0, j, sd=q1_sd10)
        assert rep.residual <= 1e-3
        assert abs(rep.fdot) > 0.0         # zeros are simple
        assert rep.f_zero < 1e-5
        assert rep.h_step <= (q1_sd10.xi[j] - q1_sd10.xi[j - 2]) / 4.0


def test_identity_rejects_out_of_range(q1, q1_sd10):
    with pytest.raises(JostError):
        jost_identity_check(q1, 10.0, 99, sd=q1_sd10)


@pytest.mark.parametrize("omega", [10.0, 20.0])
def test_identity_holds_for_every_state(q1, q1_sd10, q1_sd20, omega):
    # the grid's first step follows the local wavenumber omega sqrt(Q(0)):
    # stepped by |k| alone, j = 1..7 at omega 20 reached residuals up to 20
    sd = {10.0: q1_sd10, 20.0: q1_sd20}[omega]
    res = [jost_identity_check(q1, omega, j, sd=sd).residual
           for j in range(1, sd.count + 1)]
    assert max(res) <= 1e-3


@pytest.mark.parametrize("k", [50.0, 200.0, 100j, 1000j, 1e4j])
def test_grid_keeps_its_point_cap(q1, k):
    assert len(_jost_grid(q1, 10.0, k, 1e-10)) <= 3200


def test_grid_is_sized_before_it_is_built(q1):
    # the unconstrained first grid at k = 1e4 i would have 1,000,591 points
    tracemalloc.start()
    try:
        m = len(_jost_grid(q1, 10.0, 1e4j, 1e-10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m <= 3200
    assert peak <= 1_000_000


def _per_row_weights_afresh(grid):
    """Reference: composite Simpson over [x_i, X], each row found afresh."""
    m = len(grid)
    W = np.zeros((m, m))
    for i in range(m - 1):
        sub = grid[i:]
        w = np.zeros(len(sub))
        j = 0
        while j < len(sub) - 1:
            hstep = sub[j + 1] - sub[j]
            r = j + 1
            while r < len(sub) - 1 and abs((sub[r + 1] - sub[r]) - hstep) < 1e-12 * max(1.0, hstep):
                r += 1
            w[j : r + 1] += simpson_weights(r - j, hstep)
            j = r
        W[i, i:] = w
    return W


def _per_row_weights(grid):
    """Composite Simpson over [x_i, X] for every row i: Simpson on row i's
    first uniform run [x_i, x_r], plus row r's weights from r on, with the
    rows built from the last one back."""
    m = len(grid)
    d = np.diff(grid)
    W = np.zeros((m, m))
    for i in range(m - 2, -1, -1):
        # r: the first node after i whose next step leaves row i's step
        off = np.abs(d[i + 1:] - d[i]) >= 1e-12 * max(1.0, d[i])
        r = i + 1 + int(np.argmax(off)) if off.any() else m - 1
        W[i, i:r + 1] = simpson_weights(r - i, d[i])
        W[i, r:] += W[r, r:]
    return W


def test_per_row_weights_match_afresh_search():
    # runs of 1 to 7 equal steps, with odd and even panel counts, then a
    # stretch where every step differs
    steps = np.concatenate([np.full(n, h) for n, h in
                            ((5, 0.1), (1, 0.3), (4, 0.05), (2, 0.2), (7, 0.01),
                             (3, 1.5), (6, 0.4))] + [0.02 * 1.3 ** np.arange(6)])
    grid = np.concatenate([[0.0], np.cumsum(steps)])
    assert np.array_equal(_per_row_weights(grid), _per_row_weights_afresh(grid))


def _dense_g(p, omega, k, tol=1e-10):
    """Reference: the dense (I - M) g = 1 on jost()'s grid, by one
    back-substitution."""
    grid = _jost_grid(p, omega, k, tol)
    x = grid if p.support_end is None else np.minimum(grid, p.support_end - 1e-12)
    V = -omega * omega * eval_potential(p, x, 0)
    dx = np.maximum(grid[None, :] - grid[:, None], 0.0)
    if abs(k) < 1e-12:
        A = dx.astype(complex)
    else:                       # in place: m reaches 3191 here
        A = np.multiply(2j * k, dx)
        np.exp(A, out=A)
        A -= 1.0
        A /= 2j * k
    del dx
    # above the diagonal I - M = -M, with M = weights * kernel * V
    A *= _per_row_weights(grid)
    A *= -V
    return solve_triangular(A, np.ones(len(grid)), unit_diagonal=True)


@pytest.mark.parametrize("name,omega,k", [
    ("q1", 10.0, 0.5j), ("q1", 10.0, 2.0), ("q1", 10.0, 14.0),
    ("q1", 10.0, 1e4j), ("q1", 20.0, 0.002j), ("q1", 10.0, 0.0),
    ("square_well", 3.0, 1j), ("square_well", 10.0, 2j),
])
def test_march_matches_dense_triangular_solve(name, omega, k, q1, sw):
    p = {"q1": q1, "square_well": sw}[name]
    g = jost(p, omega, k).g
    g_ref = _dense_g(p, omega, k)
    assert np.max(np.abs(g - g_ref)) <= 1e-9 * max(1.0, np.max(np.abs(g_ref)))


def test_march_memory_is_linear_in_grid(q1):
    # a dense m x m complex matrix would take 16 m^2 bytes
    tracemalloc.start()
    try:
        m = len(jost(q1, 10.0, 9j).grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == 1573
    assert peak <= 64 * 16 * m


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
def test_march_matches_extended_precision_solve(q1):
    # the same discrete system back-substituted in long double stands in for
    # a 40-digit solve, which takes seconds even on an 849-point grid
    omega, k = 20.0, 0.002j
    grid = _jost_grid(q1, omega, k, 1e-10)
    W = _per_row_weights(grid)
    x = grid.astype(np.longdouble)
    V = (-omega * omega * eval_potential(q1, grid, 0)).astype(np.longdouble)
    k2 = 2j * np.clongdouble(k)
    g_ref = np.ones(len(grid), dtype=np.clongdouble)
    for i in range(len(grid) - 2, -1, -1):
        K = np.expm1(k2 * (x[i + 1:] - x[i])) / k2
        g_ref[i] = 1.0 + np.sum(W[i, i + 1:] * K * V[i + 1:] * g_ref[i + 1:])
    g = jost(q1, omega, k).g
    assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))


def _series_F(p, omega, k, tol=1e-10):
    """F(k) by successive approximations, g = sum_n M^n 1, on jost()'s grid."""
    grid = _jost_grid(p, omega, k, tol)
    x = grid if p.support_end is None else np.minimum(grid, p.support_end - 1e-12)
    V = -omega * omega * eval_potential(p, x, 0)
    dx = np.maximum(grid[None, :] - grid[:, None], 0.0)
    M = _per_row_weights(grid) * (np.exp(2j * k * dx) - 1.0) / (2j * k) * V[None, :]
    g = np.ones(len(grid), dtype=complex)
    term = g.copy()
    for _ in range(500):
        term = M @ term
        g += term
        if np.max(np.abs(term)) < 0.2 * tol:
            return complex(g[0])
    raise AssertionError("series did not converge")


@pytest.mark.parametrize("name,omega,k", [
    ("q1", 10.0, 0.3j), ("q1", 10.0, 2.5j), ("q1", 10.0, 9j),
    ("q1", 10.0, 2.0), ("q1", 10.0, 3 + 2j),
    ("square_well", 3.0, 1j), ("square_well", 3.0, 2j),
])
def test_triangular_solve_matches_series(name, omega, k, q1, sw):
    p = {"q1": q1, "square_well": sw}[name]
    assert abs(jost(p, omega, k).F - _series_F(p, omega, k)) <= 1e-10
