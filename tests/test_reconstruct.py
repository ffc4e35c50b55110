import math
from decimal import Context, Decimal, localcontext
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, hilbert

import slspec.reconstruct as R
from slspec.forward import SpectralData, squarewell_oracle
from slspec.glkernel import KernelField, solve_kernel
from slspec.reconstruct import (ReconstructError, _rank_one_logdet, build_T,
                                build_W, lax_levermore, reconstruct_gl0,
                                reconstruct_glm)

BENCH_Q1_OMEGA40 = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                    / "q1_omega40.json")


def _sd(xi, C, omega=5.0):
    return SpectralData(omega=omega, xi=np.asarray(xi, float),
                        C=np.asarray(C, float), q0=1.0, q0_derivatives=(0.0,))


def _mp_W(xi, C, x):
    """Unscaled W(x) in the working mpmath precision."""
    n = len(xi)
    x = mp.mpf(x)
    W = mp.zeros(n)
    for s in range(n):
        for r in range(n):
            a = mp.mpf(xi[s]) + mp.mpf(xi[r])
            v = 2 * mp.sinh(a * x) / a
            if s != r:
                d = mp.mpf(xi[s]) - mp.mpf(xi[r])
                v -= 2 * mp.sinh(d * x) / d
            else:
                v -= 2 * x - 4 * mp.mpf(xi[s]) ** 2 / mp.mpf(C[s])
            W[s, r] = v
    return W


def _mp_logdet_W(xi, C, x, dps=60):
    with mp.workdps(dps):
        return float(mp.log(abs(mp.det(_mp_W(xi, C, x)))))


def test_w_at_zero_is_ratio_diagonal():
    sd = squarewell_oracle(10.0)
    sm = build_W(0.0, sd)
    assert sm.log_scale == 0.0
    assert np.allclose(sm.entries, np.diag(4 * sd.xi**2 / sd.C), atol=0, rtol=0)


def test_w_single_state_scalar_form():
    sd = _sd([1.3], [2.0])
    x = 0.8
    sm = build_W(x, sd)
    expect = math.sinh(2 * 1.3 * x) / 1.3 - 2 * x + 4 * 1.3**2 / 2.0
    assert abs(sm.entries[0, 0] * math.exp(2 * 1.3 * x) - expect) < 1e-12 * abs(expect)


def test_scaled_logdet_matches_extended_precision():
    xi = [0.7, 1.9, 4.0]
    C = [2.0, 5.0, 9.0]
    sd = _sd(xi, C)
    for x in (1.0, 5.0):   # xi x up to 20
        sign, ld = build_W(x, sd).slogdet()
        assert sign > 0
        ref = _mp_logdet_W(xi, C, x)
        assert abs(ld - ref) <= 1e-9 * abs(ref)


@given(st.lists(st.floats(min_value=0.2, max_value=8.0), min_size=2, max_size=3,
                unique=True),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_scaled_logdet_random_families(xis, x):
    xis = sorted(xis)
    if min(b - a for a, b in zip(xis[:-1], xis[1:])) < 0.05:
        return
    C = [1.0 + i for i in range(len(xis))]
    sd = _sd(xis, C)
    sign, ld = build_W(x, sd).slogdet()
    ref = _mp_logdet_W(xis, C, x)
    assert abs(ld - ref) <= 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize("xi, C, omega", [
    pytest.param([1.0, 1.0], [2.0, 3.0], 5.0, id="repeated_xi"),
    pytest.param([1.0, 2.0, 3.0], [2.0], 5.0, id="fewer_C_than_xi"),
    pytest.param([1.0, 2.0], [2.0, 3.0], -3.0, id="omega_negative"),
    pytest.param([1.0, 2.0], [2.0, 3.0], math.nan, id="omega_nan"),
    pytest.param([math.nan, 2.0], [2.0, 3.0], 5.0, id="xi_nan"),
    pytest.param([1.0, math.inf], [2.0, 3.0], 5.0, id="xi_inf"),
    pytest.param([0.0, 2.0], [2.0, 3.0], 5.0, id="xi_zero"),
    pytest.param([-1.0, 2.0], [2.0, 3.0], 5.0, id="xi_negative"),
    pytest.param([1.0, 2.0], [2.0, math.nan], 5.0, id="C_nan"),
    pytest.param([1.0, 2.0], [2.0, 0.0], 5.0, id="C_zero"),
    pytest.param([1.0, 2.0], [2.0, -3.0], 5.0, id="C_negative"),
])
def test_build_w_rejects_repeated_xi(xi, C, omega):
    # data read from JSON reaches the inverse maps unchecked otherwise: a
    # short C would broadcast and a bad omega or xi give NaNs or odd errors
    with pytest.raises(ReconstructError):
        build_W(1.0, _sd(xi, C, omega=omega))


def test_w_derivative_is_rank_one():
    # central difference of the unscaled W against W' = 4 sh(xi x) sh(xi x)^T
    sd = _sd([0.5, 1.7, 3.1], [1.0, 2.0, 3.0])
    x, h = 0.9, 1e-5

    def unscaled(t):
        return build_W(t, sd).entries * np.exp(np.add.outer(sd.xi, sd.xi) * t)

    W1 = (unscaled(x + h) - unscaled(x - h)) / (2 * h)
    sh = np.sinh(sd.xi * x)
    assert np.allclose(W1, 4.0 * np.outer(sh, sh), rtol=1e-7, atol=0)


def test_logdet_d2_scalar_families():
    # M = e^{cx} with M' = s v^2: v' = (c/2) v, ln M linear, d2 = 0
    for s, c in ((4.0, 1.3), (-1.0, -1.3)):
        M = math.exp(c * 0.7)
        v = math.sqrt(c * M / s)
        d1, d2, _ = _rank_one_logdet(np.array([[M]]), np.array([v]),
                                     np.array([0.5 * c * v]), s)
        assert abs(d1 - c) < 1e-12
        assert abs(d2) < 1e-12
    # cosh family at x = 1: M' = sinh = 4 v^2, M'' = cosh = 8 v1 v,
    # (ln cosh)'' = sech^2
    v = math.sqrt(math.sinh(1.0) / 4.0)
    d1, d2, _ = _rank_one_logdet(np.array([[math.cosh(1.0)]]), np.array([v]),
                                 np.array([math.cosh(1.0) / (8.0 * v)]), 4.0)
    assert abs(d1 - math.tanh(1.0)) < 1e-12
    assert abs(d2 - 1.0 / math.cosh(1.0) ** 2) < 1e-12


def _mp(t):
    """A Decimal, or nested lists of them, as mpf in the working precision
    (through str, so no digit is lost on the way)."""
    return [_mp(u) for u in t] if isinstance(t, list) else mp.mpf(str(t))


def _mp_cholesky_forms(M, v, v1):
    """Reference (v^T M^-1 v, v1^T M^-1 v) in the working mpmath precision:
    the exact solve's Cholesky, row by row on nested lists of mpf."""
    L, y, y1 = [], [], []
    for j in range(len(v)):
        Lj = []
        for k in range(j):
            Lj.append((M[k][j] - mp.fdot(Lj, L[k])) / L[k][k])
        ljj = mp.sqrt(M[j][j] - mp.fdot(Lj, Lj))
        y.append((v[j] - mp.fdot(Lj, y)) / ljj)
        y1.append((v1[j] - mp.fdot(Lj, y1)) / ljj)
        Lj.append(ljj)
        L.append(Lj)
    return mp.fdot(y, y), mp.fdot(y1, y)


def _mp_fd_logdet(S, v, v1, s, h=1e-5, exact_entries=None):
    """Central differences (d1, d2) at t = 0 of ln det of the rank-one family
    S + s (t v v^T + t^2/2 (v1 v^T + v v1^T)), built in 50-digit mpmath on
    the float64 arrays, or on exact_entries(50) -> (S, v, v1) when given."""
    with mp.workdps(50):
        if exact_entries is None:
            Sm, vm, v1m = mp.matrix(S.tolist()), mp.matrix(v.tolist()), mp.matrix(v1.tolist())
        else:
            with localcontext(Context(prec=50)):
                ents = exact_entries(50)
            Sm, vm, v1m = (mp.matrix(_mp(t)) for t in ents)
        P = vm * vm.T
        Q = v1m * vm.T + vm * v1m.T
        hm = mp.mpf(h)
        ld = [mp.log(mp.det(Sm + s * (t * P + t * t / 2 * Q))) for t in (-hm, 0, hm)]
        return (float((ld[2] - ld[0]) / (2 * hm)),
                float((ld[2] - 2 * ld[1] + ld[0]) / hm ** 2))


def _exact_hilbert(n, u, u1, calls):
    """exact_entries for the Hilbert matrix 1/(i+j+1), exact in the working
    decimal context, with v = H u and v1 = H u1, as nested lists of Decimal;
    each call is logged in calls."""
    def entries(prec):
        calls.append(n)
        H = [[Decimal(1) / (i + j + 1) for j in range(n)] for i in range(n)]
        return (H, [sum(h * Decimal(c) for h, c in zip(row, u.tolist())) for row in H],
                [sum(h * Decimal(c) for h, c in zip(row, u1.tolist())) for row in H])
    return entries


def test_logdet_d2_matches_finite_differences_random():
    # random SPD S and the float64 Hilbert S (rcond ~1e-10 at n = 8, ~1e-16
    # at n = 12) take the float64 Cholesky path; the Hilbert S given exactly
    # through exact_entries take the exact decimal path.  v = S u keeps
    # v^T S^-1 v of order one however ill-conditioned S is
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(6):
        B = rng.standard_normal((4, 4))
        cases.append((B @ B.T + 4 * np.eye(4), rng.standard_normal(4),
                      rng.standard_normal(4), None))
    exact = []
    for n in (8, 12):
        H = hilbert(n)
        u, u1 = rng.standard_normal(n), rng.standard_normal(n)
        cases.append((H, H @ u, H @ u1, None))
        exact.append((H, H @ u, H @ u1, (n, u, u1)))
    for k, (S, v, v1, hu) in enumerate(cases + exact):
        s = (4.0, -1.0)[k % 2]
        calls = []
        entries = None if hu is None else _exact_hilbert(*hu, calls)
        fd1, fd2 = _mp_fd_logdet(S, v, v1, s, exact_entries=entries)
        d1, d2, exact = _rank_one_logdet(S, v, v1, s, entries)
        assert len(calls) == (0 if hu is None else 2)
        assert exact == (hu is not None)
        assert abs(d1 - fd1) < 1e-5
        assert abs(d2 - fd2) < 1e-5


def test_gl0_empty_data_is_zero():
    sd = _sd([], [])
    res = reconstruct_gl0(sd, np.linspace(0, 2, 17))
    assert np.all(res.Q_rec == 0.0)
    assert np.all(res.Q_int == 0.0)


def test_gl0_single_state_matches_fd_of_scalar_log():
    xi, C = 1.3, 2.0
    sd = _sd([xi], [C], omega=5.0)
    grid = np.array([0.4, 0.9, 1.6])
    res = reconstruct_gl0(sd, grid)

    def lnw(x):
        return math.log(math.sinh(2 * xi * x) / xi - 2 * x + 4 * xi * xi / C)

    h = 1e-4
    for x, q, qi in zip(grid, res.Q_rec, res.Q_int):
        fd2 = (lnw(x + h) - 2 * lnw(x) + lnw(x - h)) / (h * h)
        fd1 = (lnw(x + h) - lnw(x - h)) / (2 * h)
        assert abs(q - (2.0 / 25.0) * fd2) < 1e-6
        assert abs(qi - (2.0 / 25.0) * fd1) < 1e-8


def test_gl0_escalates_where_float64_cholesky_fails():
    # 14 states up to xi = 30: at many of these nodes the float64 W entries
    # defeat Cholesky; those nodes must be solved on exact entries, not flagged
    xi = np.linspace(0.5, 30.0, 14)
    C = np.exp(xi)
    sd = _sd(xi, C, omega=40.0)
    grid = np.linspace(1.0, 1.4, 17)
    failed = []
    for i, x in enumerate(grid):
        W = build_W(x, sd).entries
        r = 1.0 / np.sqrt(np.diag(W))
        try:
            cho_factor(W * np.outer(r, r))
        except LinAlgError:
            failed.append(i)
    assert failed
    res = reconstruct_gl0(sd, grid)
    assert not res.flags.any()
    h = mp.mpf("1e-12")
    for i in failed[:3]:
        x, q, qi = grid[i], res.Q_rec[i], res.Q_int[i]
        with mp.workdps(120):
            L = [mp.log(mp.det(_mp_W(xi, C, mp.mpf(x) + k * h))) for k in (-1, 0, 1)]
            d1 = (L[2] - L[0]) / (2 * h)
            d2 = (L[2] - 2 * L[1] + L[0]) / h ** 2
        assert abs(qi - (2.0 / 1600.0) * float(d1)) <= 1e-9 * abs(qi)
        assert abs(q - (2.0 / 1600.0) * float(d2)) <= 1e-8 * abs(q)


def _bench_sd():
    return SpectralData.from_json(BENCH_Q1_OMEGA40.read_text())


def test_gl0_escalation_is_reported():
    # q1 at omega = 40: 68 of the 81 nodes fail the float64 rcond gate and
    # are solved on exact entries; none is flagged
    res = reconstruct_gl0(_bench_sd(), np.linspace(0.0, 2.0, 81))
    assert int(res.escalated.sum()) == 68
    assert not res.flags.any()


def _per_entry_W(mp, xi, C, x):
    """Reference exact entries: each scaled W entry, v and v1 from their own
    expm1/exp calls (2 N^2 of them), as mpmath matrices."""
    n = len(xi)
    xx = mp.mpf(x)
    xim = [mp.mpf(float(t)) for t in xi]
    Wm = mp.zeros(n)
    for s in range(n):
        for r in range(n):
            a = xim[s] + xim[r]
            val = -mp.expm1(-2 * a * xx) / a
            if s != r:
                d = xim[s] - xim[r]
                val -= mp.exp(-2 * xim[r] * xx) * -mp.expm1(-2 * d * xx) / d
            else:
                val -= ((2 * xx - 4 * xim[s] ** 2 / mp.mpf(float(C[s])))
                        * mp.exp(-2 * xim[s] * xx))
            Wm[s, r] = val
    v = mp.matrix([-mp.expm1(-2 * t * xx) / 2 for t in xim])
    v1 = mp.matrix([t * (1 + mp.exp(-2 * t * xx)) / 2 for t in xim])
    return Wm, v, v1


@pytest.mark.parametrize("case", ["q1_omega40", "14_states"])
def test_gl0_exact_entries_and_cholesky_match_references(case, monkeypatch):
    # the entries built from N expm1 values agree with the per-entry build
    # at 40 more digits to all but 10 of the solve's digits, and no worse
    # than the per-entry build at the solve's own precision; the exact
    # Cholesky forms agree with an LU solve of the same entries
    if case == "q1_omega40":
        sd = _bench_sd()
    else:
        xi = np.linspace(0.5, 30.0, 14)
        sd = _sd(xi, np.exp(xi), omega=40.0)
    n = sd.count
    dps = R._exact_digits(n)
    real = R._rank_one_logdet
    built = []

    def spy(M, v, v1, s, exact_entries=None):
        built.append((v, v1, exact_entries))
        return real(M, v, v1, s, exact_entries)

    monkeypatch.setattr(R, "_rank_one_logdet", spy)
    for x in (1e-3, 0.05, 0.325, 1.0, 2.0):
        R._gl0_node(sd, x)
        vh, v1h, build = built.pop()
        with localcontext(Context(prec=dps)):
            entries = build(dps)
        with mp.workdps(dps):
            Wo = _per_entry_W(mp, sd.xi, sd.C, x)[0]
        with mp.workdps(dps + 40):
            W, v, v1 = _mp(list(entries))
            Wr, vr, v1r = _per_entry_W(mp, sd.xi, sd.C, x)
            tol = mp.mpf(10) ** -(dps - 10)
            for s in range(n):
                assert abs(v[s] - vr[s]) <= tol * abs(vr[s])
                assert abs(v1[s] - v1r[s]) <= tol * abs(v1r[s])
                for r in range(n):
                    assert abs(W[s][r] - Wr[s, r]) <= tol * abs(Wr[s, r])
            worst = max(abs(W[s][r] / Wr[s, r] - 1) for s in range(n) for r in range(n))
            worst_old = max(abs(Wo[s, r] / Wr[s, r] - 1) for s in range(n) for r in range(n))
            assert worst <= worst_old
        # a zero diagonal sends the solve to the exact entries
        d1, d2, exact = real(np.zeros((n, n)), vh, v1h, 4.0, build)
        assert exact
        with mp.workdps(dps):
            z = mp.lu_solve(mp.matrix(W), mp.matrix(v))
            d1r = 4 * mp.fdot(v, z)
            d2r = float(8 * mp.fdot(v1, z) - d1r ** 2)
            d1r = float(d1r)
        assert abs(d1 - d1r) <= 1e-14 * abs(d1r)
        assert abs(d2 - d2r) <= 1e-14 * abs(d2r)


@pytest.mark.parametrize("case", ["q1_omega40", "14_states"])
def test_gl0_decimal_cholesky_matches_mpmath(case, monkeypatch):
    # at every escalated node the decimal Cholesky's two forms agree with the
    # mpmath Cholesky's on the same entries at the same digits
    if case == "q1_omega40":
        sd, grid = _bench_sd(), np.linspace(0.0, 2.0, 81)
    else:
        xi = np.linspace(0.5, 30.0, 14)
        sd, grid = _sd(xi, np.exp(xi), omega=40.0), np.linspace(1.0, 1.4, 17)
    real = R._exact_cholesky_forms
    solved = []

    def spy(M, v, v1):
        forms = real(M, v, v1)
        solved.append((M, v, v1, forms))
        return forms

    monkeypatch.setattr(R, "_exact_cholesky_forms", spy)
    res = reconstruct_gl0(sd, grid)
    assert len(solved) == int(res.escalated.sum()) > 0
    with mp.workdps(R._exact_digits(sd.count)):
        for M, v, v1, forms in solved:
            for got, ref in zip(forms, _mp_cholesky_forms(_mp(M), _mp(v), _mp(v1))):
                assert abs(_mp(got) - ref) <= 1e-15 * abs(ref)


def test_gl0_primitive_is_derivative_of_logdet(q1_sd10):
    # Q_int should integrate Q_rec: compare centered differences
    grid = np.linspace(0.0, 2.0, 161)
    res = reconstruct_gl0(q1_sd10, grid)
    h = grid[1] - grid[0]
    mid = slice(1, -1)
    fd = (res.Q_int[2:] - res.Q_int[:-2]) / (2 * h)
    assert np.max(np.abs(fd - res.Q_rec[mid])) < 5e-3


def test_gl0_round_trip_decreases(sw):
    grid = np.linspace(0.0, 2.0, 81)
    errs = []
    for om in (5.0, 10.0, 20.0):
        res = reconstruct_gl0(squarewell_oracle(om), grid, ref=sw)
        errs.append(res.sup_error_int)
    assert errs[0] > errs[1] > errs[2]


def test_sh_product_integral_identity():
    # 4 int_0^x sh(at) sh(bt) dt = 2sh((a+b)x)/(a+b) - 2sh((a-b)x)/(a-b)
    a, b, x = 1.0, 2.0, 1.0
    ts = np.linspace(0, x, 20001)
    lhs = 4 * np.trapezoid(np.sinh(a * ts) * np.sinh(b * ts), ts)
    rhs = 2 * math.sinh((a + b) * x) / (a + b) - 2 * math.sinh((a - b) * x) / (a - b)
    assert abs(lhs - rhs) < 1e-7


def test_build_t_reduces_to_w_when_kernel_vanishes():
    sd = squarewell_oracle(10.0)
    kf = solve_kernel(2.0, 100.0, n=64)
    zero = KernelField(w=kf.w, grid=kf.grid,
                       A=[np.zeros_like(a) for a in kf.A],
                       diag=np.zeros_like(kf.diag),
                       diag_deriv=np.zeros_like(kf.diag_deriv),
                       residual=0.0,
                       dA_dx=[np.zeros_like(b) for b in kf.dA_dx],
                       weights=kf.weights)
    for x in (0.5, 1.0, 2.0):
        T = build_T(x, sd, zero).entries
        W = build_W(x, sd).entries
        assert np.max(np.abs(T - W)) < 1e-14


def test_build_t_diagonal_at_zero_and_symmetry(q1_sd10):
    w = 100.0 * q1_sd10.q0
    kf = solve_kernel(2.0, w, n=64)
    T0 = build_T(0.0, q1_sd10, kf).entries
    assert np.allclose(T0, np.diag(4 * q1_sd10.xi**2 / q1_sd10.C))
    T = build_T(1.0, q1_sd10, kf).entries
    assert np.max(np.abs(T - T.T)) < 1e-12 * np.max(np.abs(T))


def test_glm_origin_identity_and_refinement(q4):
    from slspec.forward import forward
    sd = forward(q4, 10.0)
    grid = np.linspace(0.0, 1.5, 25)
    res = reconstruct_glm(sd, grid, n_kernel=128)
    # Q(0) = q0 through the -w/2 diagonal-derivative identity, O(h^2)
    assert abs(res.Q_rec[0] - sd.q0) < 5e-3
    res2 = reconstruct_glm(sd, grid, n_kernel=256)
    assert abs(res2.Q_rec[0] - sd.q0) < 2e-3
    err1 = abs(res.Q_rec[0] - sd.q0)
    err2 = abs(res2.Q_rec[0] - sd.q0)
    assert err2 <= err1 + 1e-12


def test_glm_profile_stable_under_kernel_doubling(q4):
    from slspec.forward import forward
    sd = forward(q4, 10.0)
    grid = np.linspace(0.0, 1.5, 25)
    a = reconstruct_glm(sd, grid, n_kernel=192)
    b = reconstruct_glm(sd, grid, n_kernel=384)
    common = np.intersect1d(np.round(a.grid, 10), np.round(b.grid, 10))
    ia = np.isin(np.round(a.grid, 10), common)
    ib = np.isin(np.round(b.grid, 10), common)
    assert np.max(np.abs(a.Q_rec[ia] - b.Q_rec[ib])) < 5e-3


def test_glm_and_lax_levermore_never_call_mpmath(q4_sd20, monkeypatch):
    # T and I + G carry float64 entries: an exact solve of rounded entries
    # adds no digits, so both maps solve in float64 alone
    def refuse(*args, **kwargs):
        raise AssertionError("exact solve on float64 entries")

    monkeypatch.setattr(R, "_exact_cholesky_forms", refuse)
    sd = q4_sd20
    grid = np.linspace(0.0, 2.0, 9)
    eps = 1.0 / sd.omega
    for res in (reconstruct_glm(sd, grid, n_kernel=128),
                lax_levermore(sd.xi * eps, sd.C, eps, grid)):
        assert not res.flags.any()
        assert not res.escalated.any()
        assert np.all(np.isfinite(res.Q_rec)) and np.all(np.isfinite(res.Q_int))


def test_glm_rejects_a_kernel_field_that_does_not_fit(q4_sd20):
    # a field short of the grid's end would drop the nodes past it, and one
    # solved at another w would move Q_rec; both must raise, as in build_T
    grid = np.linspace(0.0, 2.0, 9)
    w = q4_sd20.omega ** 2 * q4_sd20.q0
    with pytest.raises(ReconstructError, match="grid shorter than x"):
        reconstruct_glm(q4_sd20, grid, kf=solve_kernel(1.0, w, n=64))
    with pytest.raises(ReconstructError, match="data implies"):
        reconstruct_glm(q4_sd20, grid, kf=solve_kernel(2.0, w / 4, n=64))


def test_glm_empty_data_gives_kernel_baseline():
    sd = _sd([], [], omega=5.0)
    grid = np.linspace(0.0, 1.0, 17)
    res = reconstruct_glm(sd, grid, n_kernel=64)
    assert abs(res.Q_rec[0] - 1.0) < 1e-3   # q0 = 1 at the origin


def test_lax_levermore_empty_and_decay():
    res = lax_levermore([], [], 0.1, np.linspace(0, 3, 31))
    assert np.all(res.Q_rec == 0.0)
    r1 = lax_levermore([1.0], [1.0], 0.2, np.array([0.0, 5.0, 10.0]))
    u = -r1.Q_rec
    assert abs(u[1]) < 1e-3
    assert abs(u[2]) < abs(u[1]) + 1e-15


def test_lax_levermore_one_soliton_matches_fd():
    eta, c, eps = 1.3, 0.8, 0.25
    grid = np.linspace(0.0, 3.0, 61)
    res = lax_levermore([eta], [c], eps, grid)

    def scal(x):
        return math.log(1 + eps * c * c * math.exp(-2 * eta * x / eps) / (2 * eta))

    h = 1e-4
    for x, q in zip(grid, res.Q_rec):
        fd = -2 * eps * eps * (scal(x + h) - 2 * scal(x) + scal(x - h)) / (h * h)
        assert abs(-q - fd) < 1e-6


def test_lax_levermore_validation():
    with pytest.warns(UserWarning):
        lax_levermore([1.0, 1.0], [1.0, 1.0], 0.1, [0.0, 1.0])
    with pytest.raises(ReconstructError):
        lax_levermore([1.0], [-1.0], 0.1, [0.0, 1.0])
    with pytest.raises(ReconstructError):
        lax_levermore([1.0], [1.0], -0.1, [0.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["eta", "c", "epsilon"])
def test_lax_levermore_rejects_non_finite_input(field, bad):
    # NaN passes a sign check, so finiteness is checked on its own
    args = {"eta": [0.5, 1.0], "c": [1.0, 1.0], "epsilon": 0.1}
    args[field] = bad if field == "epsilon" else [0.5, bad]
    with pytest.raises(ReconstructError, match="must be finite"):
        lax_levermore(args["eta"], args["c"], args["epsilon"], [0.0, 1.0])


@pytest.mark.parametrize("method", ["gl0", "glm", "lax_levermore"])
def test_a_singular_node_is_flagged_alone(method, q4, q4_sd20, monkeypatch):
    # the node solve raises at node k only: k is flagged with Q_rec = Q_int
    # = 0, every other node is unchanged, and the errors skip node k
    sd, grid, k = q4_sd20, np.linspace(0.0, 1.0, 9), 3

    def run():
        if method == "gl0":
            return reconstruct_gl0(sd, grid, ref=q4)
        if method == "glm":
            return reconstruct_glm(sd, grid, n_kernel=128, ref=q4)
        eps = 1.0 / sd.omega
        return R._attach_errors(lax_levermore(sd.xi * eps, sd.C, eps, grid), q4)

    clean = run()
    # lax_levermore's first solve is its x = 0 baseline, not a node
    calls, target = [], k + (method == "lax_levermore")
    solve = R._rank_one_logdet

    def failing(*args):
        calls.append(1)
        if len(calls) == target + 1:
            raise R.SingularFamilyError("singular at this node")
        return solve(*args)

    monkeypatch.setattr(R, "_rank_one_logdet", failing)
    res = run()
    assert np.array_equal(clean.grid, res.grid) and not clean.flags.any()
    assert np.flatnonzero(res.flags).tolist() == [k]
    assert res.Q_rec[k] == 0.0 and res.Q_int[k] == 0.0
    others = np.arange(len(res.grid)) != k
    assert np.array_equal(res.Q_rec[others], clean.Q_rec[others])
    assert np.array_equal(res.Q_int[others], clean.Q_int[others])
    err = np.abs(res.Q_rec - res.Q_ref)
    assert res.sup_error == np.max(err[others])
    assert res.L1_error < np.trapezoid(err, res.grid)


def test_scaled_entries_stay_bounded_at_large_xi_x():
    # xi up to 50 at x = 5: raw sinh terms reach e^500, scaled entries stay
    # order one and the extracted log factor is 2 x sum(xi)
    xi = np.array([10.0, 30.0, 50.0])
    C = np.array([1.0, 2.0, 3.0])
    sd = _sd(xi, C, omega=60.0)
    sm = build_W(5.0, sd)
    assert np.max(np.abs(sm.entries)) <= 10.0
    assert abs(sm.log_scale - 2.0 * 5.0 * xi.sum()) < 1e-12
    sign, ld = sm.slogdet()
    assert sign > 0 and math.isfinite(ld)
