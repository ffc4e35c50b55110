"""Acceptance gate: one pass/fail line per criterion, tolerances pinned.

Criterion 2 is the paper's Example 1, Q = (1+x^2)^-2.  Its bound-state
count N = [omega] and its smallest-level bracket
eta_N in [pi^2/256, pi^2/16] omega^-2 come from the whole-line quantization
rule action(eta_j) = (j - 1/2) pi / omega, i.e. from the even extension of Q,
whose levels alternate in parity.  The half-line Dirichlet operator that
`forward` solves binds only the odd-parity levels.  So 2a/2b assert each
stated number, unchanged, on the whole-line object it describes, and check
the exact Dirichlet spectrum against a closed form that holds for q1:

* with nu = sqrt(1 + omega^2), the zero-energy solution vanishing at the
  origin is y0(x) = sqrt(1+x^2) sin(nu arctan x).  Its nodes on (0, inf)
  sit at nu arctan x = k pi with k < nu/2, so by Sturm oscillation the
  Dirichlet count is N = ceil(nu/2) - 1, and 2N = [omega] +- 1 counts both
  parities;
* for large x, y0 ~ x sin(nu pi/2) - nu cos(nu pi/2).  Matching it to the
  decaying tail e^(-xi x) ~ 1 - xi x gives the threshold law
  xi_N ~ tan(pi f) / nu with f = nu/2 - N.  At even omega f ~ 1/(4 omega),
  so the weakest Dirichlet level has eta_N = xi_N/omega ~ pi/(4 omega^3),
  below pi^2/(256 omega^2) once omega > 64/pi.  The bracket therefore
  describes the whole-line last level, not the Dirichlet one.

The repository holds only the paper's abstract (PAPER.md), not the text of
Example 1, so which spectrum the example meant cannot be settled further.
"""
import math
import time

import mpmath as mp
import numpy as np
import pytest

from slspec import (calogero_bounds, characteristic_values,
                    coercivity_check, convergence_report, eigenvalues,
                    forward, jost_identity_check, lax_levermore,
                    phi_diag_derivative, reconstruct_gl0, reconstruct_glm,
                    solve_kernel, squarewell_oracle, vitushkin_c_inf,
                    vitushkin_c_l1, wkb_spectrum)
from slspec.forward import DEFAULT_TOL, SpectralData, _mismatch, _Problem
from slspec.reconstruct import _rank_one_logdet, build_W


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {name}] {tag} {detail}")
    return ok


@pytest.fixture(scope="module")
def q1_sweep(q1):
    out = {}
    for om in (10.0, 20.0, 40.0, 80.0):
        t0 = time.time()
        out[om] = forward(q1, om)
        print(f"  forward(q1, {om:g}): N={out[om].count} [{time.time()-t0:.1f}s]")
    return out


def test_criterion_1_squarewell_oracle_equivalence(sw):
    t0 = time.time()
    ok = True
    detail = []
    for om in (5.0, 10.0, 20.0):
        # phase guard |omega - pi/2 + pi Z| >= 1/5 holds at these omegas
        guard = abs((om - math.pi / 2) % math.pi)
        guard = min(guard, math.pi - guard)
        assert guard >= 0.2
        orc = squarewell_oracle(om)
        xi = eigenvalues(sw, om)
        counts = len(xi) == orc.count
        dxi = float(np.max(np.abs(xi - orc.xi))) if counts else math.inf
        C = characteristic_values(sw, om, xi)
        dC = float(np.max(np.abs(C - orc.C) / orc.C)) if counts else math.inf
        ok &= counts and dxi < 1e-8 and dC < 1e-6
        detail.append(f"om={om:g}: N={orc.count} |dxi|={dxi:.1e} relC={dC:.1e}")
    elapsed = time.time() - t0
    _report("1 square-well oracle", ok, "; ".join(detail) + f" [{elapsed:.1f}s]")
    assert ok
    assert elapsed <= 10.0


def _q1_zero_energy(om: float) -> tuple:
    """(nu, N, f) of q1's zero-energy solution: N = ceil(nu/2) - 1 Dirichlet
    states and the threshold phase f = nu/2 - N in (0, 1]."""
    nu = math.sqrt(1.0 + om * om)
    n = math.ceil(nu / 2.0) - 1
    return nu, n, nu / 2.0 - n


def test_criterion_2a_count_as_stated(q1, q1_sweep):
    # Stated: N(omega) = [omega] +- 1.  That counts both parities of the even
    # extension (the whole-line count); the Dirichlet operator binds the
    # odd-parity half, exactly ceil(nu/2) - 1 states (see module docstring).
    failures = []
    detail = []
    for om in (10.0, 20.0, 40.0):
        n = q1_sweep[om].count
        _, exact, _ = _q1_zero_energy(om)
        whole_line = wkb_spectrum(q1, om).predicted_count
        if n != exact:
            failures.append(f"om={om:g}: Dirichlet count {n} != ceil(nu/2)-1 = {exact}")
        if abs(2 * n - int(om)) > 1:
            failures.append(f"om={om:g}: both parities 2N={2 * n} not [omega]+-1")
        if whole_line != int(om):
            failures.append(f"om={om:g}: whole-line count {whole_line} != [omega]")
        detail.append(f"om={om:g}: N={n} (closed form {exact}), 2N={2 * n}, "
                      f"whole-line {whole_line} vs [omega]={int(om)}")
    _report("2a count = [omega] +- 1 over both parities", not failures,
            "; ".join(detail))
    assert not failures, "; ".join(failures)


def test_criterion_2b_eta_bracket_as_stated(q1, q1_sweep):
    # Stated: eta_N in [pi^2/256, pi^2/16] omega^-2, for the last level of
    # the whole-line quantization rule.  The exact weakest Dirichlet level
    # follows the threshold law xi_N ~ tan(pi f)/nu instead, to O(1/omega).
    failures = []
    detail = []
    devs = []
    for om in (10.0, 20.0, 40.0):
        lo = math.pi**2 / (256 * om * om)
        hi = math.pi**2 / (16 * om * om)
        eta_n = wkb_spectrum(q1, om).eta[-1]
        if not lo <= eta_n <= hi:
            failures.append(f"om={om:g}: whole-line eta_N={eta_n:.3e} "
                            f"outside [{lo:.3e},{hi:.3e}]")
        nu, _, f = _q1_zero_energy(om)
        xi_n = float(q1_sweep[om].xi[0])
        dev = abs(xi_n / (math.tan(math.pi * f) / nu) - 1.0)
        devs.append(dev)
        if dev > 1.0 / om:
            failures.append(f"om={om:g}: threshold-law deviation {dev:.3f} > 1/omega")
        detail.append(f"om={om:g}: whole-line eta_N={eta_n:.3e} in "
                      f"[{lo:.3e},{hi:.3e}]; Dirichlet xi_N={xi_n:.3e} "
                      f"(eta_N om^3={xi_n * om * om:.3f}), law dev={dev:.3f}")
    if not all(b < a for a, b in zip(devs, devs[1:])):
        failures.append(f"threshold-law deviations {devs} do not shrink with omega")
    _report("2b eta_N bracket (whole line) + threshold law (Dirichlet)",
            not failures, "; ".join(detail))
    assert not failures, "; ".join(failures)


def test_criterion_2c_gaps_and_characteristic_bracket(q1_sweep):
    t0 = time.time()
    ok = True
    detail = []
    for om in (10.0, 20.0, 40.0):
        sd = q1_sweep[om]
        gap_ok = bool(np.min(np.diff(sd.xi)) >= 1.0 / (5.0 * om))
        r = 4.0 * sd.xi**2 / sd.C
        lo = -math.log(45.0) - 9 * math.log(om) - 26.0 * om * om
        hi = math.log(22.0) + 2 * math.log(om) + 15.0 * om * om
        br_ok = bool(np.all((np.log(r) >= lo) & (np.log(r) <= hi)))
        ok &= gap_ok and br_ok
        detail.append(f"om={om:g}: gap>=1/(5om)={gap_ok} ratio-bracket={br_ok}")
    _report("2c gap floor + characteristic bracket", ok,
            "; ".join(detail) + f" [{time.time()-t0:.1f}s]")
    assert ok


def test_q1_xi_resolved_to_tol_above_omega_25(q1, q1_sweep):
    # every returned xi lies within 2 tol of a root of the Wronskian mismatch;
    # the roots of an RK4 Pruefer phase at 60 steps per radian are off by up
    # to 4.8e-4 at omega 40 and 5.0e-3 at omega 80
    tol = DEFAULT_TOL
    for om in (40.0, 80.0):
        xi = q1_sweep[om].xi
        w_lo, w_hi = np.split(_mismatch(_Problem(q1, om),
                                        np.concatenate([xi - 2 * tol, xi + 2 * tol])), 2)
        assert np.all(w_lo * w_hi <= 0), (om, np.flatnonzero(w_lo * w_hi > 0))


def test_criterion_3_jost_identity(q1, q1_sweep):
    t0 = time.time()
    sd = q1_sweep[10.0]
    median = (sd.count + 1) // 2           # the middle state (j = 3 of 5)
    mids = [median, min(median + 1, sd.count)]
    res = []
    for j in mids:
        rep = jost_identity_check(q1, 10.0, j, sd=sd)
        res.append(rep.residual)
    ok = all(r <= 1e-3 for r in res)
    elapsed = time.time() - t0
    _report("3 Jost identity", ok,
            f"residuals at j={mids}: {['%.2e' % r for r in res]} [{elapsed:.1f}s]")
    assert ok
    assert elapsed <= 60.0


def test_criterion_4_kernel_correctness():
    t0 = time.time()
    ok = True
    detail = []
    for w in (1.0, 4.0, 1 + 5j):
        kf = solve_kernel(2.0, w, n=128)
        r_ok = kf.residual <= 1e-6
        d_ok = abs(phi_diag_derivative(0.0, w) - w / 2.0) <= 1e-8 * max(1.0, abs(w))
        ok &= r_ok and d_ok
        detail.append(f"w={w}: residual={kf.residual:.1e}")
    c1 = coercivity_check(2.0, 1.0, trials=100)
    c2 = coercivity_check(2.0, 1 + 5j, trials=100)
    ok &= c1 >= 0.999 and c2 >= 0.999
    d = 1e-3
    w0 = 1 + 1j

    def sample(w):
        return solve_kernel(1.0, w, n=32).A[20][10]

    du = (sample(w0 + d) - sample(w0 - d)) / (2 * d)
    dv = (sample(w0 + 1j * d) - sample(w0 - 1j * d)) / (2 * d)
    cr = abs(du + 1j * dv)
    ok &= cr <= 1e-4
    elapsed = time.time() - t0
    _report("4 kernel correctness", ok,
            "; ".join(detail) + f"; coercivity=({c1:.4f},{c2:.4f}) CR={cr:.1e} "
            f"[{elapsed:.1f}s]")
    assert ok
    assert elapsed <= 120.0


def test_criterion_5_gl0_round_trip_rate(q1, q1_sweep):
    t0 = time.time()
    grid = np.linspace(0.0, 2.0, 81)
    errs = []
    for om in (10.0, 20.0, 40.0, 80.0):
        res = reconstruct_gl0(q1_sweep[om], grid, ref=q1)
        errs.append((om, res.sup_error_int))
    decreasing = all(b[1] < a[1] for a, b in zip(errs[:-1], errs[1:]))
    rep = convergence_report(errs, "gl0_rate")
    conj = convergence_report(errs, "glm_rate")  # pure power, informational
    ok = decreasing and rep.fitted_exponent >= 0.5
    elapsed = time.time() - t0
    _report("5 gl0 round-trip rate", ok,
            f"sup|dInt| {['%.4f' % e for _, e in errs]} decreasing={decreasing} "
            f"exponent(log removed)={rep.fitted_exponent:.2f} (>=0.5); "
            f"pure-power exponent {conj.fitted_exponent:.2f} vs conjectured 3 "
            f"(reported, not asserted) [{elapsed:.1f}s]")
    assert ok
    assert elapsed <= 600.0


def test_criterion_6_glm_beats_gl0_on_class_member(q4):
    t0 = time.time()
    sd = forward(q4, 20.0)
    grid = np.linspace(0.0, 2.0, 81)
    r0 = reconstruct_gl0(sd, grid, ref=q4)
    rm = reconstruct_glm(sd, grid, ref=q4)
    ordering = (rm.sup_error < r0.sup_error) and (rm.sup_error_int < r0.sup_error_int)
    origin = abs(rm.Q_rec[0] - sd.q0) <= 1e-4
    ok = ordering and origin
    elapsed = time.time() - t0
    _report("6 glm beats gl0 + origin identity", ok,
            f"glm supQ={rm.sup_error:.2e} < gl0 supQ={r0.sup_error:.2e}; "
            f"glm supInt={rm.sup_error_int:.2e} < gl0 supInt={r0.sup_error_int:.2e}; "
            f"|Q(0)-q0|={abs(rm.Q_rec[0]-sd.q0):.1e} [{elapsed:.1f}s]")
    assert ok
    assert elapsed <= 600.0


def test_criterion_7_determinant_machinery():
    t0 = time.time()
    # scaled log-determinant against 60-digit direct evaluation, xi x <= 20
    xi = [0.7, 1.9, 4.0]
    C = [2.0, 5.0, 9.0]
    sd = SpectralData(omega=5.0, xi=np.array(xi), C=np.array(C), q0=1.0)
    worst = 0.0
    for x in (1.0, 3.0, 5.0):
        sign, ld = build_W(x, sd).slogdet()
        with mp.workdps(60):
            W = mp.zeros(3)
            for s in range(3):
                for r in range(3):
                    a = mp.mpf(xi[s]) + xi[r]
                    v = 2 * mp.sinh(a * x) / a
                    if s != r:
                        d = mp.mpf(xi[s]) - xi[r]
                        v -= 2 * mp.sinh(d * x) / d
                    else:
                        v -= 2 * x - 4 * mp.mpf(xi[r]) ** 2 / C[r]
                    W[s, r] = v
            ref = float(mp.log(abs(mp.det(W))))
        worst = max(worst, abs(ld - ref) / abs(ref))
    scaled_ok = worst <= 1e-9

    # rank-one families S + s (t v v^T + t^2/2 (v1 v^T + v v1^T)), s = 4 as
    # for W and T, s = -1 as for I + G, differenced in 50-digit arithmetic
    rng = np.random.default_rng(3)
    fd_worst = 0.0
    for k in range(4):
        B = rng.standard_normal((4, 4))
        S = B @ B.T + 4 * np.eye(4)
        v = rng.standard_normal(4)
        v1 = rng.standard_normal(4)
        sgn = (4, -1)[k % 2]
        with mp.workdps(50):
            vm, v1m = mp.matrix(v.tolist()), mp.matrix(v1.tolist())
            P = vm * vm.T
            Q = v1m * vm.T + vm * v1m.T
            h = mp.mpf("1e-5")
            lds = [mp.log(mp.det(mp.matrix(S.tolist()) + sgn * (t * P + t * t / 2 * Q)))
                   for t in (-h, 0, h)]
            fd2 = float((lds[2] - 2 * lds[1] + lds[0]) / h ** 2)
        fd_worst = max(fd_worst, abs(_rank_one_logdet(S, v, v1, sgn)[1] - fd2))
    rank_one_ok = fd_worst <= 1e-5

    eta, c, eps = 1.3, 0.8, 0.25
    g = np.linspace(0.0, 3.0, 61)
    res = lax_levermore([eta], [c], eps, g)

    def scal(x):
        return math.log(1 + eps * c * c * math.exp(-2 * eta * x / eps) / (2 * eta))

    h = 1e-4
    ll_worst = max(abs(-q - (-2 * eps * eps
                             * (scal(x + h) - 2 * scal(x) + scal(x - h)) / h**2))
                   for x, q in zip(g, res.Q_rec))
    ll_ok = ll_worst <= 1e-6
    ok = scaled_ok and rank_one_ok and ll_ok
    elapsed = time.time() - t0
    _report("7 determinant machinery", ok,
            f"scaled-det rel={worst:.1e} (<=1e-9); rank-one-vs-FD={fd_worst:.1e} "
            f"(<=1e-5); one-soliton={ll_worst:.1e} (<=1e-6) [{elapsed:.1f}s]")
    assert ok
    assert elapsed <= 30.0


def test_criterion_8_constants():
    t0 = time.time()
    worst = 0.0
    for (l, s) in ((2.0, 1), (2.0, 2), (1.5, 1), (3.0, 2), (4.0, 1)):
        with mp.workdps(50):
            m1 = int(mp.ceil(l))
            ref_inf = 1 / (mp.sqrt(s) * mp.mpf(2) ** (l + 1)
                           * mp.mpf(8) ** (mp.mpf(l) / s) * mp.mpf(m1) ** m1
                           * (4 * (1 + mp.e)) ** (s * m1))
            m = m1 - 1
            ref_l1 = (mp.factorial(m1) ** (2 * s)
                      / (5 * mp.sqrt(s) * mp.mpf(2) ** (l + 2)
                         * mp.mpf(18) ** (mp.mpf(l) / s) * mp.mpf(m1) ** m1
                         * mp.factorial(2 * m + 3) ** s * (1 + mp.e) ** (s * m1)))
        worst = max(worst,
                    abs(vitushkin_c_inf(l, s) - float(ref_inf)) / float(ref_inf),
                    abs(vitushkin_c_l1(l, s) - float(ref_l1)) / float(ref_l1))
    quarter = all(2.0 ** l * vitushkin_c_inf(float(l), 1) <= 0.25
                  for l in np.arange(1.0, 6.0 + 1e-9, 0.1))
    ok = worst <= 1e-12 and quarter
    elapsed = time.time() - t0
    _report("8 constants", ok,
            f"worst rel dev={worst:.1e} (<=1e-12); 2^l C_inf <= 1/4: {quarter} "
            f"[{elapsed:.2f}s]")
    assert ok
    assert elapsed <= 1.0
