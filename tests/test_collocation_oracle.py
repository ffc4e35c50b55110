"""forward against an independent oracle: mapped Chebyshev collocation.

The oracle shares only eval_potential with forward.  It maps Chebyshev
points t in [-1, 1] to x = c(1+t)/(1-t+2c/L) in [0, L], imposes Dirichlet
at both ends, and takes the bound states of -y'' - omega^2 Q y from one
dense eig of the interior block.  C = y'(0)^2 / int y^2, the integral by
Clenshaw-Curtis weights times dx/dt.

Its near-threshold states are unreliable (the domain does not reach the
weakest state's decay length, and spurious states with xi ~ 1e-4 and
C < 1e-9 appear at some N), so only forward's states 1..n-1 are compared,
with the oracle's n - 1 deepest, n = count_states; the oracle's own
check is that N = 400 agrees with N = 800.
"""
import numpy as np
import pytest
from scipy.linalg import eig

from slspec.forward import count_states, forward
from slspec.potentials import builtin, eval_potential, make_potential

_C_MAP, _L = 4.0, 1e6
_XI_RTOL, _C_RTOL = 1e-9, 1e-8


def _clenshaw_curtis(n):
    """Weights at t_k = cos(pi k / n), k = 0..n (n even)."""
    theta = np.pi * np.arange(1, n) / n
    k = np.arange(1, n // 2)[:, None]
    v = (1.0 - 2.0 * (np.cos(2 * k * theta) / (4 * k * k - 1)).sum(axis=0)
         - np.cos(n * theta) / (n * n - 1))
    w = np.empty(n + 1)
    w[0] = w[n] = 1.0 / (n * n - 1)
    w[1:n] = 2.0 * v / n
    return w


def collocation_states(p, omega, n):
    """(xi, C) of every negative eigenvalue of the mapped collocation, xi
    ascending."""
    t = np.cos(np.pi * np.arange(n + 1) / n)          # t[0] = 1: x = L
    sign = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    c = np.ones(n + 1)
    c[0] = c[n] = 2.0
    c *= sign
    dt = t[:, None] - t[None, :]
    D = np.outer(c, 1.0 / c) / (dt + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    a = 1.0 + 2.0 * _C_MAP / _L
    x = _C_MAP * (1.0 + t) / (a - t)
    x[0] = _L
    dxdt = _C_MAP * (a + 1.0) / (a - t) ** 2
    t1 = _C_MAP * (a + 1.0) / (x + _C_MAP) ** 2                  # dt/dx
    t2 = -2.0 * _C_MAP * (a + 1.0) / (x + _C_MAP) ** 3           # d2t/dx2
    d2 = t1[:, None] ** 2 * (D @ D) + t2[:, None] * D
    A = -d2 - np.diag(omega ** 2 * eval_potential(p, x, 0))
    lam, vec = eig(A[1:n, 1:n])
    lam = lam.real
    bound = np.flatnonzero(lam < 0)
    y = np.zeros((n + 1, bound.size))
    y[1:n] = vec[:, bound].real
    dy0 = t1[n] * (D[n] @ y)                                   # x = 0 is t[n]
    C = dy0 ** 2 / ((_clenshaw_curtis(n) * dxdt) @ (y * y))
    xi = np.sqrt(-lam[bound])
    order = np.argsort(xi)
    return xi[order], C[order]


def _sextic():
    return make_potential({
        "kind": "user_closed_form",
        "fn": lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 6),
        "decay": {"a": 2.0, "k1": 6, "k2": 6},
    })


def _rel(a, b):
    return np.max(np.abs(a - b) / np.abs(b))


@pytest.mark.parametrize("kind", ["q1", "quartic_rational", "sextic"])
@pytest.mark.parametrize("omega", [40.0, 80.0])
def test_forward_matches_collocation(kind, omega):
    # a flat top at large omega (quartic_rational at 80, 1/(1+x^6) at 40) is
    # where a coarse turning point puts x_match in the allowed region, and a
    # pole of the mismatch passes for a deep state
    p = _sextic() if kind == "sextic" else builtin(kind)
    n = count_states(p, omega)
    sd = forward(p, omega)
    assert sd.count == n
    fine = [a[-(n - 1):] for a in collocation_states(p, omega, 800)]
    coarse = [a[-(n - 1):] for a in collocation_states(p, omega, 400)]
    assert _rel(coarse[0], fine[0]) <= _XI_RTOL
    assert _rel(coarse[1], fine[1]) <= _C_RTOL
    assert _rel(sd.xi[1:], fine[0]) <= _XI_RTOL
    assert _rel(sd.C[1:], fine[1]) <= _C_RTOL
