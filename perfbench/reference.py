"""Reference computations the benchmark checks slspec against.

Nothing here imports slspec: every value is a closed form, a root of a
closed-form condition, or a high-precision evaluation of a closed-form
matrix, so a fault in the program cannot also be a fault in its reference.
"""
from __future__ import annotations

import math

import mpmath as mp


def q1(x: float) -> float:
    """Example 1's potential (1 + x^2)^-2."""
    return (1.0 + x * x) ** -2


def q1_primitive(x: float) -> float:
    """int_0^x (1 + t^2)^-2 dt = x / (2 (1 + x^2)) + arctan(x) / 2."""
    return 0.5 * x / (1.0 + x * x) + 0.5 * math.atan(x)


def quartic_rational(x: float) -> float:
    """The clean class member (1 + x^4)^-1."""
    return 1.0 / (1.0 + x ** 4)


def q1_count(omega: float) -> int:
    """Dirichlet bound-state count of q1: the zero-energy solution
    sqrt(1+x^2) sin(nu arctan x), nu = sqrt(1 + omega^2), has ceil(nu/2) - 1
    nodes on (0, inf)."""
    nu = math.sqrt(1.0 + omega * omega)
    return math.ceil(nu / 2.0) - 1


def q1_threshold_deviation(xi_weakest: float, omega: float, count: int) -> float:
    """|xi_N / (tan(pi f) / nu) - 1| with f = nu/2 - N: the weakest level's
    distance from q1's threshold law, which is O(1/omega)."""
    nu = math.sqrt(1.0 + omega * omega)
    f = nu / 2.0 - count
    return abs(xi_weakest / (math.tan(math.pi * f) / nu) - 1.0)


def squarewell_spectrum(omega: float) -> tuple:
    """(xi, C) of the unit square well Q = 1 on [0, 1], weakest first.

    The levels are the roots of xi sin(nu) + nu cos(nu) = 0 with
    nu = sqrt(omega^2 - xi^2).  In nu that is tan(nu) = -nu/xi, whose
    right side is increasing, so each interval ((k - 1/2) pi, min(k pi, omega))
    holds exactly one root; bisection runs to adjacent floats.  The
    characteristic value is C = 2 xi (omega^2 - xi^2) / (1 + xi).
    """
    def h(nu):
        return math.sqrt(omega * omega - nu * nu) * math.sin(nu) + nu * math.cos(nu)

    xis = []
    k = 1
    while (k - 0.5) * math.pi < omega:
        a, b = (k - 0.5) * math.pi, min(k * math.pi, omega)
        fa = h(a)
        while True:
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            fm = h(m)
            if fm == 0.0:
                a = b = m
                break
            if (fm > 0) == (fa > 0):
                a, fa = m, fm
            else:
                b = m
        nu = 0.5 * (a + b)
        xis.append(math.sqrt((omega - nu) * (omega + nu)))
        k += 1
    xis.sort()
    cs = [2.0 * x * (omega * omega - x * x) / (1.0 + x) for x in xis]
    return xis, cs


def _logdet_W(xi, C, x, dps: int):
    """ln det W(x) for the unscaled Gelfand-Levitan sinh matrix

        W_sr = 2 sh((xi_s+xi_r) x)/(xi_s+xi_r)
               - (1 - delta_sr) 2 sh((xi_s-xi_r) x)/(xi_s-xi_r)
               - delta_sr (2x - 4 xi_r^2 / C_r),

    evaluated with `dps` digits."""
    n = len(xi)
    with mp.workdps(dps):
        W = mp.matrix(n, n)
        for s in range(n):
            for r in range(n):
                a = xi[s] + xi[r]
                val = 2 * mp.sinh(a * x) / a
                if s != r:
                    d = xi[s] - xi[r]
                    val -= 2 * mp.sinh(d * x) / d
                else:
                    val -= 2 * x - 4 * xi[r] ** 2 / C[r]
                W[s, r] = val
        return mp.log(mp.det(W))


def logdet_W_derivatives(xi, C, x: float, dps: int = 120) -> tuple:
    """(d/dx, d2/dx2) of ln det W at x by five-point central differences.

    The step 10^(-dps/4) keeps both the O(h^4) truncation and the
    10^-dps / h^2 cancellation some 60 digits below float64, so the pair is
    exact to double precision for the given (xi, C).
    """
    with mp.workdps(dps):
        xim = [mp.mpf(float(t)) for t in xi]
        Cm = [mp.mpf(float(t)) for t in C]
        x0 = mp.mpf(float(x))
        h = mp.mpf(10) ** (-(dps // 4))
        f = {k: _logdet_W(xim, Cm, x0 + k * h, dps) for k in (-2, -1, 0, 1, 2)}
        d1 = (f[-2] - 8 * f[-1] + 8 * f[1] - f[2]) / (12 * h)
        d2 = (-f[-2] + 16 * f[-1] - 30 * f[0] + 16 * f[1] - f[2]) / (12 * h * h)
        return float(d1), float(d2)
