"""Shared quadrature helpers: composite Gauss panels and decay-split tails."""
from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

_RULE_CACHE: dict = {}


def gauss_rule(n: int):
    if n not in _RULE_CACHE:
        _RULE_CACHE[n] = leggauss(n)
    return _RULE_CACHE[n]


def gauss_panels(a: float, b: float, npanel: int, nodes: int = 12):
    """Nodes and weights for composite Gauss-Legendre on [a, b]."""
    gx, gw = gauss_rule(nodes)
    edges = np.linspace(a, b, npanel + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * gx[None, :]).ravel(), (half * gw[None, :]).ravel()


def gauss_panels_geometric(a: float, b: float, first: float, nodes: int = 16):
    """Composite Gauss on panels that double in length, first panel [a, a+first]."""
    edges = [a]
    step = first
    while edges[-1] + step < b:
        edges.append(edges[-1] + step)
        step *= 2.0
    edges.append(b)
    edges = np.asarray(edges)
    gx, gw = gauss_rule(nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * gx[None, :]).ravel(), (half * gw[None, :]).ravel()


def integral_with_power_tail(f, T: float):
    """int_0^inf f with f eventually ~ x^-p: quadrature on [0, T] plus a
    local-power-law tail estimate  f(T) * T / (p - 1)  with p fitted at T.

    The local exponent comes from a log-derivative finite difference, so the
    tail error is one power of T better than using declared decay bounds.
    """
    x, w = gauss_panels_geometric(0.0, T, first=0.5)
    head = float(np.dot(w, f(x)))
    fT = float(f(np.asarray([T]))[0])
    if fT <= 0:
        return head, 0.0
    f1 = float(f(np.asarray([T * (1 + 1e-3)]))[0])
    p = -np.log(f1 / fT) / np.log1p(1e-3)
    if p <= 1.0001:
        return head, np.inf
    tail = fT * T / (p - 1.0)
    return head, tail


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n+1 uniform nodes (spacing h).

    Odd panel counts close with a 3/8 block; n == 1 falls back to trapezoid.
    """
    w = np.zeros(n + 1)
    if n == 0:
        return w
    if n == 1:
        w[:] = h / 2.0
        return w
    if n % 2 == 0:
        w[0] = w[-1] = h / 3.0
        w[1:-1:2] = 4.0 * h / 3.0
        w[2:-1:2] = 2.0 * h / 3.0
        return w
    if n == 3:
        w[:] = np.array([3, 9, 9, 3]) * h / 8.0
        return w
    w[: n - 2] = simpson_weights(n - 3, h)[: n - 2]
    w[n - 3] += 3.0 * h / 8.0
    w[n - 2 :] += np.array([9, 9, 3]) * h / 8.0
    return w


_GREGORY_L = (1.0 / 12, 1.0 / 24, 19.0 / 720, 3.0 / 160, 863.0 / 60480,
              275.0 / 24192)


def gregory_weights(n: int, h: float) -> np.ndarray:
    """Endpoint-corrected trapezoid (Gregory) weights of order 8 (six end
    corrections) on n+1 uniform nodes; Simpson's below 16 intervals, where
    the two ends' stencils do not fit.  The weights are positive.
    """
    if n < 16:
        return simpson_weights(n, h)
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    from math import comb
    for j, L in enumerate(_GREGORY_L, start=1):
        for k in range(j + 1):
            c = h * L * (-1.0) ** k * comb(j, k)
            w[k] -= c
            w[n - k] -= c
    return w
