import importlib
import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from slspec.forward import (BracketError, DEFAULT_TOL, ForwardError,
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
    # q1's zero-energy solution is sqrt(1 + x^2) sin(nu arctan x) with
    # nu = sqrt(1 + omega^2), so it has ceil(nu / 2) - 1 interior zeros; the
    # omegas include ones whose last zero lies far out in the linear tail
    for omega in (3.3, 5.0, 7.8, 9.9, 10.0, 11.7, 20.0, 33.3, 40.0, 80.0, 160.0):
        assert count_states(q1, omega) == math.ceil(math.sqrt(1 + omega**2) / 2) - 1, omega


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


@pytest.mark.parametrize("kind,omega", [pytest.param("square_well", 10.0, id="10.0"),
                                        pytest.param("square_well", 20.0, id="20.0"),
                                        pytest.param("q1", 40.0, id="q1-40.0")])
def test_count_above_across_breakpoints_matches_oracle(kind, omega):
    # the left leg restarts at the well's edge and drops the zero at x = 0;
    # the count must match the closed form (the recorded levels for q1, whose
    # weakest lies at 5e-4) on both sides of every level
    p = builtin(kind)
    levels = (squarewell_oracle(omega).xi if kind == "square_well"
              else np.array(_RECORDED[kind, omega][0]))
    probes = np.concatenate([0.5 * (levels[:-1] + levels[1:]),
                             levels * (1 - 1e-6), levels * (1 + 1e-6),
                             [0.01, 0.999 * omega]])
    for s in probes:
        assert count_above(p, omega, s) == int(np.sum(levels > s)), s


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


def test_count_not_closing_raises(monkeypatch, sw):
    # a count still above zero at xi_max means the count and the spectrum
    # disagree; the eigenvalue search must report it before it starts
    counts = fwd._node_counts

    def lifted(prob, lam, x_m):
        n, y, v = counts(prob, lam, x_m)
        return np.where(lam >= (0.999 * 10.0) ** 2, n + 2, n), y, v

    monkeypatch.setattr(fwd, "_node_counts", lifted)
    with pytest.raises(BracketError, match="count does not close"):
        eigenvalues(sw, 10.0)


# xi_j and C_j of earlier solvers; the solver may differ from them by the
# search tolerance only.  q1 at omega 10 and the square well are the bisection
# search's, before it became a K-section; the weakest state's C on q1 at
# omega 10 is the one computed since its tail integral became an ODE component
# (the Simpson rule it replaced was off by 3e-9 relative).  q1 at omega 40 is
# the per-state brentq polish of the mismatch and the C of those xi: an RK4
# Pruefer phase at 60 steps per radian put its roots off by up to 4.8e-4
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
    calls = []
    counts = fwd._node_counts

    def counted(*args):
        calls.append(1)
        return counts(*args)

    monkeypatch.setattr(fwd, "_node_counts", counted)
    p = builtin(kind)
    xi = eigenvalues(p, omega)
    # one count of all points per pass, plus the zero-energy count and the
    # count at the ends; 4 (q1, 10), 6 (q1, 40) and 4 (square well) calls
    assert len(calls) <= 8
    xi_ref, C_ref = (np.array(v) for v in _RECORDED[kind, omega])
    assert len(xi) == len(xi_ref)
    assert np.max(np.abs(xi - xi_ref)) <= 2 * DEFAULT_TOL
    C = characteristic_values(p, omega, xi)
    assert np.max(np.abs(C - C_ref) / C_ref) <= 1e-9


def test_mismatch_without_sign_change_raises(monkeypatch, sw):
    # the count isolates every state, so a root-find that sees no sign change
    # is a fault; it must raise, never return fewer digits silently
    mismatch = fwd._mismatch

    def unsigned(prob, xi, with_nodes=False):
        return mismatch(prob, xi, True) if with_nodes else np.abs(mismatch(prob, xi))

    monkeypatch.setattr(fwd, "_mismatch", unsigned)
    with pytest.raises(BracketError, match=r"node count \d+ on \["):
        eigenvalues(sw, 10.0)


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


def test_match_inside_the_allowed_region_raises(monkeypatch, q1):
    # a turning point placed too low puts deep states' x_match where
    # omega^2 Q > xi^2; the profiles refuse rather than return their C
    xi = np.array(_RECORDED["q1", 10.0][0])
    half = fwd._Problem.x_plus
    monkeypatch.setattr(fwd._Problem, "x_plus", lambda self, xi: 0.5 * half(self, xi))
    with pytest.raises(BracketError, match="not past the turning point"):
        characteristic_values(q1, 10.0, xi)


@pytest.mark.parametrize("name", ["brentq"])
def test_solver_calls_go_through_module_names(monkeypatch, name):
    # a tracer counts the solver's scipy calls by wrapping these names
    calls = [0]
    inner = getattr(fwd, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(fwd, name, counted)
    squarewell_oracle(10.0)
    assert calls[0] > 0


def test_bracketed_roots_step_as_scipy_find_root(q1):
    # Chandrupatla's method as scipy takes it: the same roots to the bit,
    # from the same number of mismatch calls
    from scipy.optimize.elementwise import find_root

    tols = dict(xatol=1e-14, xrtol=1e-14)
    xi = np.array(_RECORDED["q1", 40.0][0])
    pad = 0.3 * np.minimum(np.diff(xi, prepend=0.0), np.diff(xi, append=np.inf))
    lo, hi = xi - pad, xi + pad
    prob = fwd._Problem(q1, 40.0)
    calls = []

    def f(t):
        calls.append(t.size)
        return fwd._mismatch(prob, t)

    x, ok = fwd._bracketed_roots(f, lo, hi, **tols)
    ours, calls[:] = list(calls), []
    res = find_root(f, (lo, hi), tolerances=dict(tols, fatol=0.0, frtol=0.0))
    assert ok.all() and np.all(res.status == 0)
    assert np.array_equal(x, res.x)
    assert ours == calls

    # the mismatch is nearly linear; t^9 - 2 is curved enough that
    # Chandrupatla's test turns some interpolation steps into bisections
    lo, hi = np.linspace(-3.0, 0.9, 40), np.linspace(1.3, 30.0, 40)
    x, ok = fwd._bracketed_roots(lambda t: t ** 9 - 2.0, lo, hi, **tols)
    res = find_root(lambda t: t ** 9 - 2.0, (lo, hi),
                    tolerances=dict(tols, fatol=0.0, frtol=0.0))
    assert ok.all() and np.array_equal(x, res.x)

    # no sign change: not ok; a zero at a bracket end: that end, no step
    _, ok = fwd._bracketed_roots(lambda t: (t - 1.0) ** 2 + 1.0, [0.0], [2.0], **tols)
    assert not ok.any()
    calls[:] = []

    def line(t):
        calls.append(t.size)
        return t - 1.0

    x, ok = fwd._bracketed_roots(line, [1.0, 0.0], [3.0, 1.0], **tols)
    assert ok.all() and list(x) == [1.0, 1.0] and calls == [2, 2]
