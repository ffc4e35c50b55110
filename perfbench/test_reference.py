"""Tests of the benchmark's own reference computations.

    python3 -m pytest perfbench/test_reference.py -q

Each reference is checked against a second derivation that shares no code
with it: the eigencondition at high precision, the normalization integral,
and the scalar closed form of the one-state determinant.
"""
import math
import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as R  # noqa: E402


@pytest.mark.parametrize("omega", [1.7, 5.0, 20.0, 33.3])
def test_squarewell_roots_solve_the_eigencondition(omega):
    xi, C = R.squarewell_spectrum(omega)
    # one level per interval ((k - 1/2) pi, min(k pi, omega))
    assert len(xi) == math.floor(omega / math.pi + 0.5)
    assert all(a < b for a, b in zip(xi, xi[1:]))
    with mp.workdps(40):
        for x in xi:
            def h(t):
                nu = mp.sqrt(omega ** 2 - t ** 2)
                return t * mp.sin(nu) + nu * mp.cos(nu)
            assert abs(x - float(mp.findroot(h, (x, x - 1e-9)))) <= 1e-12 * omega


@pytest.mark.parametrize("omega", [5.0, 20.0])
def test_squarewell_C_is_the_normalized_derivative(omega):
    """phi = A sin(nu x) on [0, 1] and A sin(nu) e^(-xi (x - 1)) beyond;
    C = phi'(0)^2 = A^2 nu^2 with A fixed by the L2 norm."""
    xi, C = R.squarewell_spectrum(omega)
    with mp.workdps(30):
        for x, c in zip(xi, C):
            nu = mp.sqrt(omega ** 2 - mp.mpf(x) ** 2)
            inner = mp.quad(lambda t: mp.sin(nu * t) ** 2, [0, 1])
            outer = mp.sin(nu) ** 2 * mp.quad(lambda t: mp.exp(-2 * x * (t - 1)), [1, mp.inf])
            assert abs(c / float(nu ** 2 / (inner + outer)) - 1) <= 1e-12


@pytest.mark.parametrize("x", [0.03, 0.5, 2.0])
def test_logdet_differences_match_the_one_state_closed_form(x):
    """For one state W = sh(2 xi x)/xi - 2x + 4 xi^2/C, W' = 4 sh(xi x)^2 and
    W'' = 4 xi sh(2 xi x)."""
    xi, C = 3.7, 11.0
    d1, d2 = R.logdet_W_derivatives([xi], [C], x)
    W = math.sinh(2 * xi * x) / xi - 2 * x + 4 * xi * xi / C
    w1 = 4 * math.sinh(xi * x) ** 2
    w2 = 4 * xi * math.sinh(2 * xi * x)
    assert d1 == pytest.approx(w1 / W, rel=1e-14)
    assert d2 == pytest.approx(w2 / W - (w1 / W) ** 2, rel=1e-13)


def test_q1_primitive_matches_quadrature():
    for x in (0.1, 1.0, 2.0):
        assert R.q1_primitive(x) == pytest.approx(float(mp.quad(R.q1, [0, x])), rel=1e-14)


@pytest.mark.parametrize("omega", [3.0, 10.0, 40.0])
def test_q1_count_counts_zero_energy_nodes(omega):
    """Nodes of sqrt(1+x^2) sin(nu arctan x) on (0, inf): nu arctan x runs
    over (0, nu pi/2), so the sine changes sign at k pi for k < nu/2."""
    nu = math.sqrt(1 + omega * omega)
    ts = [k * 1e-4 * math.pi / 2 for k in range(1, 10000)]   # arctan x in (0, pi/2)
    s = [math.sin(nu * t) for t in ts]
    assert sum(1 for a, b in zip(s, s[1:]) if a * b < 0) == R.q1_count(omega)
