import importlib
import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from slspec.forward import (BracketError, ForwardError, SolverOptions,
                            SpectralData, calogero_bounds,
                            characteristic_values, count_above, count_states,
                            eigenvalues, forward, squarewell_oracle,
                            _state_profiles)
from slspec.jost import JostError, jost
from slspec.potentials import builtin, eval_potential, make_potential
from slspec.quadrature import simpson_weights

# the module: the package attribute slspec.forward is the function
fwd = importlib.import_module("slspec.forward")


def test_calogero_square_well(sw):
    lo, hi = calogero_bounds(sw, 10.0)
    assert abs(lo - (10.0 / math.pi - 0.5)) < 1e-6
    assert abs(hi - 20.0 / math.pi) < 1e-6


def test_calogero_q1(q1):
    lo, hi = calogero_bounds(q1, 10.0)
    # int Q1 = pi/4 and int sqrt(Q1) = pi/2 on the half-line
    assert abs(hi - 10.0) < 1e-6
    assert abs(lo - (10.0 / 4.0 - 0.5)) < 1e-6


def test_calogero_linear_in_omega(q1):
    lo1, hi1 = calogero_bounds(q1, 7.0)
    lo2, hi2 = calogero_bounds(q1, 14.0)
    assert abs(hi2 - 2 * hi1) < 1e-9
    assert abs((lo2 + 0.5) - 2 * (lo1 + 0.5)) < 1e-9


@pytest.mark.parametrize("omega", [5.0, 10.0, 20.0])
def test_squarewell_oracle_equivalence(sw, omega):
    orc = squarewell_oracle(omega)
    xi = eigenvalues(sw, omega)
    assert len(xi) == orc.count
    assert np.max(np.abs(xi - orc.xi)) < 1e-8
    C = characteristic_values(sw, omega, xi)
    assert np.max(np.abs(C - orc.C) / orc.C) < 1e-6


def test_squarewell_oracle_structure():
    sd = squarewell_oracle(10.0)
    assert np.all(sd.xi < 10.0)
    assert np.all(np.diff(sd.xi) > 0)
    assert np.all(sd.C > 0)
    # residual-bound region: the top root stays below sqrt(99/100) omega
    assert sd.xi[-1] <= math.sqrt(0.99) * 10.0


def test_phase_guarded_ratio_bounds():
    # |omega - pi/2 + pi Z| >= 1/5 keeps 4 xi^2/C inside [1/(5 om^2), 220 om^2]
    for om in (10.0, 20.0):
        sd = squarewell_oracle(om)
        r = 4.0 * sd.xi**2 / sd.C
        assert np.all(r >= 1.0 / (5.0 * om * om))
        assert np.all(r <= 220.0 * om * om)


def test_count_bracket_and_ordering(q1, q1_sd10):
    lo, hi = calogero_bounds(q1, 10.0)
    assert math.floor(lo) <= q1_sd10.count <= math.ceil(hi)
    assert np.all(np.diff(q1_sd10.xi) > 0)
    assert q1_sd10.xi[0] > 0
    assert q1_sd10.xi[-1] <= 10.0 * math.sqrt(q1.q0) + 1e-9


def test_spectral_gap_floor(q1_sd10, q1_sd20):
    for sd in (q1_sd10, q1_sd20):
        gaps = np.diff(sd.xi)
        assert gaps.min() >= 1.0 / (5.0 * sd.omega)


def test_counts_match_zero_energy_oscillation(q1, sw):
    assert count_states(q1, 10.0) == 5
    assert count_states(sw, 10.0) == 3
    assert count_states(sw, 5.0) == 2
    assert count_above(q1, 10.0, 2.0) == 3


def test_empty_spectrum_below_threshold(sw):
    # no bound state survives at tiny coupling for the well read at omega=1
    # (nu cot nu = -xi has no root with 0 < xi < omega when omega < pi/2)
    xi = eigenvalues(sw, 1.0)
    assert len(xi) == 0


def test_characteristic_values_positive(q1, q1_sd10):
    assert np.all(q1_sd10.C > 0)


def test_profiles_match_square_well_closed_form(sw):
    sd = squarewell_oracle(10.0)
    profs = _state_profiles(sw, 10.0, sd.xi)
    for p, xi, C in zip(profs, sd.xi, sd.C):
        assert abs(p.C - C) / C < 1e-8
        # tail amplitude: phi = sqrt(2 xi/(1+xi)) e^xi sin(nu) e^(-xi x)
        nu = math.sqrt(100.0 - xi * xi)
        s_exact = math.sqrt(2 * xi / (1 + xi)) * math.exp(xi) * abs(math.sin(nu))
        assert abs(p.log_s - math.log(s_exact)) < 1e-7


@pytest.mark.parametrize("omega", [10.0, 20.0])
def test_propagator_is_exact_on_the_square_well(sw, omega):
    # Q is constant on every cell, so the Magnus cells are the exact
    # propagator and the norm integral from their energy derivative is exact
    sd = squarewell_oracle(omega)
    for p, xi, C in zip(_state_profiles(sw, omega, sd.xi), sd.xi, sd.C):
        nu = math.sqrt(omega * omega - xi * xi)
        log_s = math.log(math.sqrt(2 * xi / (1 + xi)) * math.exp(xi) * abs(math.sin(nu)))
        assert abs(p.C / C - 1) <= 1e-12
        assert abs(p.log_s / log_s - 1) <= 1e-12


def test_mismatch_converges_at_fourth_order(q1):
    # the Richardson step (16 W_{h/2} - W_h) / 15 relies on an h^4 error:
    # successive differences over h, h/2 and h/4 must shrink about 16-fold
    prob = fwd._Problem(q1, 40.0)
    xi = np.array(_RECORDED["q1", 40.0][0])
    for probe in (xi, 0.5 * (xi[:-1] + xi[1:])):
        w = [fwd._mismatch_on(prob, probe, level) for level in (0, 1, 2)]
        ratio = (w[0] - w[1]) / (w[1] - w[2])
        assert np.all((ratio >= 12) & (ratio <= 20)), ratio


def test_forward_packaging(q1, q1_sd10):
    assert q1_sd10.q0 == 1.0
    assert q1_sd10.q0_derivatives[0] == 0.0
    assert q1_sd10.count == len(q1_sd10.C)


def test_spectral_json_roundtrip(q1_sd10):
    text = q1_sd10.to_json()
    back = SpectralData.from_json(text)
    assert back.omega == q1_sd10.omega
    assert np.array_equal(back.xi, q1_sd10.xi)
    assert np.array_equal(back.C, q1_sd10.C)
    doc = json.loads(text)
    assert doc["version"] == 1
    doc["version"] = 99
    with pytest.raises(ForwardError):
        SpectralData.from_json(json.dumps(doc))


def test_truncation_sensitivity_passes(monkeypatch, q1, q1_sd10):
    # the mismatch at the weakest level must not move when the tail margin
    # past the truncation's turning point doubles (xi = 5e-4 at omega 40)
    for omega, xi0 in ((10.0, q1_sd10.xi[0]), (40.0, eigenvalues(q1, 40.0)[0])):
        prob = fwd._Problem(q1, omega)
        w1 = fwd._mismatch(prob, xi0)
        with monkeypatch.context() as m:
            m.setattr(fwd, "_EFOLDS", 2 * fwd._EFOLDS)
            w2 = fwd._mismatch(prob, xi0)
        assert abs(w2 - w1) <= 1e-6


@pytest.mark.parametrize("omega", [10.0, 20.0])
def test_count_above_across_breakpoints_matches_oracle(sw, omega):
    # the left leg restarts at the well's edge and drops the zero at x = 0;
    # the count must match the closed form on both sides of every level
    levels = squarewell_oracle(omega).xi
    probes = np.concatenate([0.5 * (levels[:-1] + levels[1:]),
                             levels * (1 - 1e-6), levels * (1 + 1e-6),
                             [0.01, 0.999 * omega]])
    for s in probes:
        assert count_above(sw, omega, s) == int(np.sum(levels > s)), s


def test_missing_decay_metadata_raises():
    bare = make_potential({
        "kind": "user_closed_form",
        "fn": lambda x: (1 + np.asarray(x) ** 2) ** -2,
        "m_smoothness": 0,
    })
    with pytest.raises(ForwardError):
        calogero_bounds(bare, 10.0)
    with pytest.raises(ForwardError):
        forward(bare, 10.0)
    with pytest.raises(JostError):
        jost(bare, 10.0, 1j)


def _sweep_step_loop(grid, xi, x_stop, rhs="bracket"):
    """The Pruefer sweep as a plain per-step loop over every state.

    rhs="bracket" evaluates theta' as the sweep does, 1 + (q - xi^2 - 1) sin^2;
    rhs="cos" as cos^2 + (q - xi^2) sin^2, the same function rounded otherwise.
    """
    xi2 = xi * xi
    theta = np.zeros_like(xi)
    frozen = np.zeros_like(xi)
    freeze_at = np.searchsorted(grid.ends, x_stop * (1 - 1e-12), side="left")
    freeze_at = np.minimum(freeze_at, len(grid.xs) - 1)

    def f(q, th):
        s = np.sin(th)
        if rhs == "cos":
            c = np.cos(th)
            return c * c + (q - xi2) * s * s
        return 1.0 + (q - (xi2 + 1.0)) * s * s

    for i in range(int(freeze_at.max()) + 1):
        h = grid.hs[i]
        k1 = f(grid.qa[i], theta)
        k2 = f(grid.qm[i], theta + 0.5 * h * k1)
        k3 = f(grid.qm[i], theta + 0.5 * h * k2)
        k4 = f(grid.qb[i], theta + h * k3)
        theta = theta + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        frozen = np.where(freeze_at == i, theta, frozen)
    return frozen


@pytest.mark.parametrize("kind,omega", [("q1", 10.0), ("square_well", 7.0)])
def test_pruefer_sweep_matches_step_loop(kind, omega):
    # the sweep drops states from its vectors as they freeze; the arithmetic
    # per state is unchanged, so the phases must agree bit for bit
    prob = fwd._Problem(builtin(kind), omega)
    grid = prob.build_grid(float(prob.x_stop(0.05)))
    rng = np.random.default_rng(3)
    xi = np.concatenate([rng.uniform(0.05, prob.xi_max, 40), [0.05, 0.05]])
    x_stop = np.minimum(prob.x_stop(xi), grid.x_max)
    theta = fwd._pruefer_sweep(grid, xi, x_stop)
    assert np.array_equal(theta, _sweep_step_loop(grid, xi, x_stop))
    # the cos^2 form of the right-hand side differs by round-off only
    assert np.max(np.abs(theta - _sweep_step_loop(grid, xi, x_stop, rhs="cos"))) <= 1e-13


def test_phase_count_not_closing_raises(monkeypatch, sw):
    # a phase count still at or above zero at xi_max means the count and the
    # phase disagree; the first K-section sweep must report it
    sweep = fwd._pruefer_sweep

    def lifted(grid, xi, x_stop):
        theta = sweep(grid, xi, x_stop)
        return np.where(xi >= 0.999 * 10.0, theta + 2 * math.pi, theta)

    monkeypatch.setattr(fwd, "_pruefer_sweep", lifted)
    with pytest.raises(BracketError, match="phase count does not close"):
        eigenvalues(sw, 10.0)


# xi_j and C_j of earlier solvers; the solver may differ from them by the
# search tolerance only.  q1 at omega 10 and the square well are the bisection
# search's, before it became a K-section; the weakest state's C on q1 at
# omega 10 is the one computed since its tail integral became an ODE component
# (the Simpson rule it replaced was off by 3e-9 relative).  q1 at omega 40 is
# the per-state brentq polish of the mismatch and the C of those xi: the
# sweep's own roots there are off by up to 4.8e-4
_RECORDED = {
    ("q1", 10.0): (
        [0.00835526596300303, 0.994103002398904, 2.889800726337032,
         5.281488915908835, 7.936122720831987],
        [0.01903274567420483, 9.644293109876363, 38.91762504221155,
         73.47101299013077, 86.933882270451]),
    ("q1", 40.0): (
        [0.000500189601397751, 0.25853394003607766, 0.850087188218203,
         1.7543358852180488, 2.9434631956797515, 4.385733081522592,
         6.048733023944982, 7.9016795587310185, 9.916738972325604,
         12.069565386893789, 14.33932335885839, 16.708424504693056,
         19.162138493346283, 21.688175393224057, 24.276290656020734,
         26.91793530636008, 29.605957673567644, 32.33435475752474,
         35.098067735866756, 37.89281504728527],
        [0.0010386247196038396, 2.8162827627068463, 16.280736981325646,
         46.9561421071014, 98.78822198458647, 173.0021634731194,
         268.5022663126809, 382.46977144144444, 510.92504057561564,
         649.1408919892093, 791.8830633885182, 933.4933828066878,
         1067.8339034411883, 1188.089878564978, 1286.387664708846,
         1353.0995694539229, 1375.5036039283332, 1334.853099081741,
         1198.5253873217248, 889.9302345455619]),
    ("square_well", 20.0): (
        [9.202826053122482, 13.37505563384512, 16.054193980638903,
         17.8805520445714, 19.085198945706026, 19.775014245432626],
        [568.8080134458627, 411.4530562194055, 267.84209012245844,
         152.06710793403096, 67.95001119331977, 17.036125669000434]),
}


@pytest.mark.parametrize("kind,omega", list(_RECORDED))
def test_ksection_matches_recorded_values_in_few_sweeps(monkeypatch, kind, omega):
    sweeps = []
    sweep = fwd._pruefer_sweep

    def counted(*args):
        sweeps.append(1)
        return sweep(*args)

    monkeypatch.setattr(fwd, "_pruefer_sweep", counted)
    p = builtin(kind)
    opts = SolverOptions()
    xi = eigenvalues(p, omega, opts)
    # bisection needed 29 (q1, 10), 41 (q1, 40) and 30 (square well) sweeps
    assert len(sweeps) <= 20
    xi_ref, C_ref = (np.array(v) for v in _RECORDED[kind, omega])
    assert len(xi) == len(xi_ref)
    assert np.max(np.abs(xi - xi_ref)) <= 2 * opts.tol
    C = characteristic_values(p, omega, xi)
    assert np.max(np.abs(C - C_ref) / C_ref) <= 1e-9


def test_polish_without_sign_change_warns(monkeypatch, sw):
    # a mismatch that never changes sign leaves every state at its sweep
    # value; that loss of digits must be reported, not silent
    monkeypatch.setattr(fwd, "_mismatch",
                        lambda prob, xi, with_nodes=False: np.ones(np.shape(xi)))
    with pytest.warns(RuntimeWarning, match=r"node count \d+ on \[.*width") as rec:
        xi = eigenvalues(sw, 10.0)
    assert len(rec) == len(xi) == 3
    # the sweep's own discretization error, about 3e-6 here
    assert np.max(np.abs(xi - squarewell_oracle(10.0).xi)) < 1e-5


@pytest.mark.parametrize("kind,omega", list(_RECORDED))
def test_batched_profiles_match_per_state_profiles(kind, omega):
    # every state's legs share one propagator pass; a state's result must
    # not depend on which other states ride along
    p = builtin(kind)
    xi = np.array(_RECORDED[kind, omega][0])
    batched = _state_profiles(p, omega, xi)
    for j, b in enumerate(batched):
        s = _state_profiles(p, omega, xi[j:j + 1])[0]
        assert abs(b.C / s.C - 1) <= 1e-9
        assert abs(b.log_s - s.log_s) <= 1e-9


def _weak_state_reference_C(p, omega, xi, x_m, x_stop):
    """C of one state as the old profile path computed it, tightened: both
    legs at rtol 1e-13 and the tail integral by Simpson on 600 points per
    unit length of the right leg's dense solution."""
    om2 = omega * omega

    def Q(x):
        return eval_potential(p, x, 0)

    left = solve_ivp(lambda x, w: [w[1], (xi * xi - om2 * Q(x)) * w[0], w[0] * w[0]],
                     (0.0, x_m), [0.0, 1.0, 0.0], method="DOP853", rtol=1e-13, atol=1e-14)
    y_m, _, z_l = left.y[:, -1]
    kap2 = xi * xi - om2 * Q(x_stop)
    u0 = -math.sqrt(max(kap2, 0.25 * xi * xi)) + om2 * eval_potential(p, x_stop, 1) / (4.0 * kap2)
    right = solve_ivp(lambda x, w: [xi * xi - om2 * Q(x) - w[0] * w[0], w[0]],
                      (x_stop, x_m), [u0, 0.0], method="DOP853", rtol=1e-13, atol=1e-14,
                      dense_output=True)
    l_m = right.y[1, -1]
    n = int(600 * (x_stop - x_m))
    n += n % 2
    ts = np.linspace(x_m, x_stop, n + 1)
    m_hat = float(np.dot(simpson_weights(n, ts[1] - ts[0]),
                         np.exp(2.0 * (right.sol(ts)[1] - l_m))))
    return 1.0 / (z_l + y_m * y_m * (m_hat + math.exp(-2.0 * l_m) / (2.0 * xi)))


def test_weakest_state_C_matches_fine_quadrature(q1):
    # q1's weakest state at omega 10 has its tail on [41.5, 1597]; the tail
    # integral must be resolved there (the 801-point Simpson rule gave 3.1e-9)
    xi = np.array(_RECORDED["q1", 10.0][0])
    prof = _state_profiles(q1, 10.0, xi)[0]
    C_ref = _weak_state_reference_C(q1, 10.0, xi[0], prof.x_match, prof.x_stop)
    assert abs(prof.C / C_ref - 1) <= 1e-9


def test_every_state_C_matches_fine_quadrature(q1):
    # the propagator's norm integrals against the independent DOP853 legs and
    # Simpson tail of the reference, state by state
    xi = np.array(_RECORDED["q1", 10.0][0])
    for x, prof in zip(xi, _state_profiles(q1, 10.0, xi)):
        C_ref = _weak_state_reference_C(q1, 10.0, x, prof.x_match, prof.x_stop)
        assert abs(prof.C / C_ref - 1) <= 1e-9, x


@pytest.mark.parametrize("name", ["find_root", "brentq"])
def test_solver_calls_go_through_module_names(monkeypatch, sw, name):
    # a tracer counts the solver's scipy calls by wrapping these names
    calls = [0]
    inner = getattr(fwd, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(fwd, name, counted)
    if name == "brentq":
        squarewell_oracle(10.0)
    else:
        forward(sw, 10.0)
    assert calls[0] > 0
