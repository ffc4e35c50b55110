import math

import numpy as np
import pytest
from scipy.integrate import quad

from slspec import wkb
from slspec.forward import eigenvalues
from slspec.potentials import make_potential
from slspec.wkb import (WkbError, action, dirichlet_count, dirichlet_levels,
                        predicted_count, spacing_check, theta_plus,
                        turning_point, wkb_spectrum)


def test_turning_point_closed_form(q1):
    # Q1(x) = eta^2 at x = sqrt(1/eta - 1)
    for eta in (0.9, 0.5, 0.1, 0.013):
        assert abs(turning_point(q1, eta) - math.sqrt(1.0 / eta - 1.0)) < 1e-10
    assert turning_point(q1, 1.0) == 0.0
    assert abs(turning_point(q1, 0.5) - 1.0) < 1e-10


def test_turning_point_rejects_eta_above_peak(q1):
    with pytest.raises(WkbError):
        turning_point(q1, 1.5)


def test_action_endpoints(q1):
    # whole-line action at eta = 0 is int dx/(1+x^2) over the line = pi
    assert abs(action(q1, 0.0) - math.pi) < 1e-9
    assert action(q1, 1.0) == 0.0
    mid = action(q1, 0.5)
    assert 0.0 < mid < math.pi


def test_action_against_adaptive_quadrature(q1):
    for eta in (0.7, 0.3, 0.05):
        xp = turning_point(q1, eta)
        ref, _ = quad(lambda y: math.sqrt(max((1 + y * y) ** -2 - eta * eta, 0.0)),
                      0.0, xp, limit=400)
        assert abs(action(q1, eta) - 2 * ref) < 1e-7


def test_action_monotone_decreasing(q1):
    etas = np.linspace(0.01, 0.99, 25)
    vals = [action(q1, e) for e in etas]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))


def test_theta_plus_against_adaptive_quadrature(q1):
    for eta in (0.6, 0.2):
        xp = turning_point(q1, eta)
        tail, _ = quad(lambda y: eta - math.sqrt(max(eta * eta - (1 + y * y) ** -2, 0.0)),
                       xp, 2000.0, limit=800)
        assert abs(theta_plus(q1, eta) - (eta * xp + tail)) < 1e-6


def test_theta_plus_is_smooth_in_eta(q1):
    # the far-tail integrand eta - sqrt(eta^2 - Q) cancels; rationalised it
    # keeps theta_plus within 1e-14 relative over 8 ulps of eta at the
    # omega-10 levels 3 and 6 (the cancelling form spread 3.7e-12, 4.5e-12)
    prof = wkb_spectrum(q1, 10.0)
    for j in (3, 6):
        etas = [prof.eta[j - 1]]
        for _ in range(7):
            etas.append(np.nextafter(etas[-1], 2.0))
        vals = np.array([theta_plus(q1, e) for e in etas])
        assert np.ptp(vals) <= 1e-14 * np.max(np.abs(vals))


def test_predicted_count_matches_integer_part(q1):
    # action(0) = pi exactly for this profile, so the count is [omega]
    for om in (10.0, 20.0, 40.0):
        assert predicted_count(q1, om) == int(om)


def test_wkb_spectrum_structure(q1):
    prof = wkb_spectrum(q1, 10.0)
    assert prof.predicted_count == 10
    assert len(prof.eta) == 10
    # eta decreasing in j, turning points increasing, s >= 1
    assert np.all(np.diff(prof.eta) < 0)
    assert np.all(np.diff(prof.x_plus) > 0)
    assert np.all(prof.log_s >= 0)
    assert prof.eta[0] <= math.sqrt(q1.q0)
    # quantization residual: recomputing the action at the solved levels
    targets = (np.arange(1, 11) - 0.5) * math.pi / 10.0
    for eta, t in zip(prof.eta, targets):
        assert abs(action(q1, eta) - t) < 1e-9


def test_wkb_norming_bound(q1):
    # s_n <= exp((4/pi) omega^2 + (pi/2) omega) for this profile
    for om in (10.0, 20.0):
        prof = wkb_spectrum(q1, om)
        bound = (4.0 / math.pi) * om * om + 0.5 * math.pi * om
        assert np.all(prof.log_s <= bound)
        assert np.all(prof.log_s >= 0.0)


def test_wkb_eta_smallest_bracket(q1):
    # the last quantized level sits inside [pi^2/256, pi^2/16] / omega^2
    for om in (10.0, 20.0, 40.0):
        prof = wkb_spectrum(q1, om)
        eta_n = prof.eta[-1]
        assert math.pi**2 / (256 * om * om) <= eta_n <= math.pi**2 / (16 * om * om)


def test_theta_plus_upper_bound(q1):
    prof = wkb_spectrum(q1, 10.0)
    int_sqrt_q = math.pi / 2  # half-line integral of sqrt(Q1)
    cap = prof.x_plus[-1] + int_sqrt_q
    assert np.all(prof.theta_plus <= cap + 1e-9)


def test_dirichlet_count_matches_q1_closed_form(q1):
    # exact half-line count ceil(nu/2) - 1, nu = sqrt(1 + omega^2), from the
    # nodes of the zero-energy solution sqrt(1+x^2) sin(nu arctan x); these
    # omega include ones where omega mod 2 lies in (1.5, 2)
    for om in (7.8, 9.9, 10.0, 11.7, 20.0):
        nu = math.sqrt(1.0 + om * om)
        assert dirichlet_count(q1, om) == math.ceil(nu / 2) - 1
        assert dirichlet_count(q1, om) == len(dirichlet_levels(wkb_spectrum(q1, om)))


def test_dirichlet_sublevels_match_shooting(q1, q1_sd10):
    # only the odd-parity whole-line levels restrict to the half line; they
    # track the shooting eigenvalues at relative error <= C/omega for the
    # middle of the spectrum (C frozen from a one-time fit)
    C_FROZEN = 0.5
    for om, sd in ((10.0, q1_sd10),):
        prof = wkb_spectrum(q1, om)
        lvl = dirichlet_levels(prof)
        assert dirichlet_count(q1, om) == sd.count
        n = min(len(lvl), sd.count)
        mid = slice(n // 3, 2 * n // 3 + 1)
        rel = np.abs(lvl[-n:][mid] - sd.xi[-n:][mid]) / sd.xi[-n:][mid]
        assert np.all(rel <= C_FROZEN / om)


def test_spacing_check_reports(q1):
    prof = wkb_spectrum(q1, 10.0)
    rep = spacing_check(prof, 10.0, q1)
    assert rep.sufficient
    assert rep.max_action_gap_dev < 1e-6
    assert rep.min_xi_gap >= 1.0 / (5 * 10.0)
    one = wkb.WkbProfile(epsilon=0.1, eta=prof.eta[:1], x_plus=prof.x_plus[:1],
                         action_values=prof.action_values[:1],
                         theta_plus=prof.theta_plus[:1], log_s=prof.log_s[:1],
                         predicted_count=1)
    rep1 = spacing_check(one, 10.0)
    assert not rep1.sufficient
    assert rep1.note == "insufficient levels"
    # a wide well has 10 levels at omega = 1, where min_xi ~ omega^-b has no
    # exponent to report
    wide = make_potential({"kind": "user_closed_form",
                           "fn": lambda x: 1.0 / (1.0 + np.asarray(x) ** 2 / 100.0) ** 2,
                           "decay": {"a": 1e4, "k1": 4, "k2": 4}})
    prof = wkb_spectrum(wide, 1.0)
    rep = spacing_check(prof, 1.0, wide)
    assert rep.n_levels == 10 and rep.sufficient
    assert rep.empirical_exponent is None
    assert rep.max_action_gap_dev < 1e-6


def test_wkb_spectrum_raises_on_a_failed_level(monkeypatch, q1):
    # a constant action changes sign on no level's bracket: the first level
    # is named rather than returned as NaN
    monkeypatch.setattr(wkb, "action", lambda p, eta: math.pi)
    with pytest.raises(WkbError, match="j=1"):
        wkb_spectrum(q1, 10.0)
