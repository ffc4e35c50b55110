"""Exact discrete spectral data of -d^2/dx^2 - omega^2 Q on the half-line.

Dirichlet condition at 0, decaying tail at infinity.  Eigenvalues are the
xi_j with lambda_j = -xi_j^2; the characteristic value C_j = phi_j'(0)^2 of
the L2-normalized eigenfunction completes the inverse problem's data.

The solver uses the Pruefer phase representation so eigenvalue indices come
from integer phase counts (no root can be missed): a vectorized fixed-grid
RK4 sweep narrows every state's bracket at once, K-fold per sweep, by
evaluating the phase count at K - 1 interior points of each bracket
(K-section).  Near-threshold states,
whose truncation domains are thousands of length units, are finished on a
Wronskian-mismatch functional instead (the phase representation compresses
their information exponentially, the mismatch keeps it well conditioned),
and the same mismatch powers the high-accuracy polish at moderate omega.

Both the mismatch and the state profiles match two legs at a point past the
turning point: the left leg integrates the linear equation from the origin,
the right leg the Riccati equation of the decaying solution's log-derivative
back from the truncation point.  The mismatch runs them as scalar solves,
one state at a time.  The profiles run every state's legs in one vector
solve, each state joining and leaving the vector at its own end points, and
carry the norm integrals as ODE components: z' = y^2 on the left, and on the
right R(x) = int_x^{x_stop} (y(t)/y(x))^2 dt through R' = -1 - 2 u R.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .potentials import Potential, eval_potential
from .quadrature import integral_with_power_tail

SCHEMA_VERSION = 1


class ForwardError(RuntimeError):
    pass


class BracketError(ForwardError):
    """Eigenvalue bracket failure, reported with the oscillation-count diagnostic."""


@dataclass
class SolverOptions:
    """Settings of the eigenvalue search.

    tol is the xi tolerance of the mismatch refinement.  polish turns the
    mismatch polish of the sweep's states on or off; None turns it on for
    omega <= 25.  Without the polish, xi carries the Pruefer sweep's
    discretization bias (up to 4.8e-4 on q1 at omega 40), not tol.
    """
    tol: float = 1e-10
    polish: Optional[bool] = None


# Pruefer grid resolution: steps per radian of the local oscillation
_POINTS_PER_RADIAN = 60.0
# decay margin, in e-folds of the level, past the truncation's turning point
_EFOLDS = 13.0
# no truncation point lies beyond this x
_X_INF_CAP = 1e8
# rtol of the legs.  The mismatch keeps 1e-12: at 1e-11 its xi moves C of
# q1's weakest state at omega 40 by 1.0e-9 relative.  The profiles keep
# 1e-11: 1e-12 there takes about 25% longer on q1 at omega 40.
_MISMATCH_RTOL = 1e-12
_PROFILE_RTOL = 1e-11


@dataclass
class SpectralData:
    omega: float
    xi: np.ndarray
    C: np.ndarray
    q0: float
    q0_derivatives: tuple = ()
    potential_id: str = ""

    @property
    def count(self) -> int:
        return len(self.xi)

    def to_json(self) -> str:
        return json.dumps({
            "version": SCHEMA_VERSION,
            "omega": self.omega,
            "potential_id": self.potential_id,
            "xi": [float(v) for v in self.xi],
            "C": [float(v) for v in self.C],
            "q0": self.q0,
            "q0_derivatives": [float(v) for v in self.q0_derivatives],
        }, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "SpectralData":
        doc = json.loads(text)
        version = doc.get("version")
        if version != SCHEMA_VERSION:
            raise ForwardError(f"unsupported spectral schema version: {version!r}")
        return cls(
            omega=float(doc["omega"]),
            xi=np.asarray(doc["xi"], dtype=float),
            C=np.asarray(doc["C"], dtype=float),
            q0=float(doc["q0"]),
            q0_derivatives=tuple(doc.get("q0_derivatives", ())),
            potential_id=doc.get("potential_id", ""),
        )


def calogero_bounds(p: Potential, omega: float) -> tuple:
    """Bound-state count bracket (lower, upper) from int Q and int sqrt(Q)."""
    if p.support_end is not None:
        T = p.support_end
        x = np.linspace(0, T, 4001)
        q = eval_potential(p, x, 0)
        int_q = float(np.trapezoid(q, x))
        int_sq = float(np.trapezoid(np.sqrt(q), x))
    else:
        if p.decay is None:
            raise ForwardError("decay metadata missing: quadrature tail undetermined")
        T = max(p.x_tail, 1e4)
        h1, t1 = integral_with_power_tail(lambda x: eval_potential(p, x, 0), T)
        h2, t2 = integral_with_power_tail(lambda x: np.sqrt(eval_potential(p, x, 0)), T)
        if not (math.isfinite(t1) and math.isfinite(t2)):
            raise ForwardError("divergent quadrature: potential decays too slowly")
        int_q, int_sq = h1 + t1, h2 + t2
    lower = omega / (math.pi * math.sqrt(p.q0)) * int_q - 0.5
    upper = 2.0 * omega / math.pi * int_sq
    return lower, upper


# ----------------------------------------------------------------------
# per-(potential, omega) context and the vectorized Pruefer sweep

# K of the eigenvalue search's K-section: one sweep over the K - 1 interior
# points of every open bracket cuts each bracket K-fold; sweep cost grows
# slowly with the vector length, so K well above 2 pays
_KSECT = 12

@dataclass
class _ShootGrid:
    xs: np.ndarray        # step left endpoints
    hs: np.ndarray        # step sizes
    qa: np.ndarray        # omega^2 Q at the three RK4 stage points
    qm: np.ndarray
    qb: np.ndarray
    ends: np.ndarray
    x_max: float


class _Problem:
    """Turning-point table, truncation rule, and grids for one (Q, omega)."""

    def __init__(self, p: Potential, omega: float):
        self.p = p
        self.omega = omega
        self.sq0 = math.sqrt(p.q0)
        self.xi_max = omega * self.sq0
        self.xi_floor = 1e-4 / omega
        self._xplus_table = self._build_xplus_table()

    def _build_xplus_table(self):
        if self.p.support_end is not None:
            return None
        etas = np.geomspace(1e-12 / self.omega ** 2, self.sq0 * (1 - 1e-13), 320)
        lo = np.zeros_like(etas)
        hi = np.ones_like(etas)
        e2 = etas * etas
        for _ in range(60):
            mask = eval_potential(self.p, hi, 0) > e2
            if not mask.any():
                break
            hi = np.where(mask, 2 * hi, hi)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            inside = eval_potential(self.p, mid, 0) > e2
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return etas, 0.5 * (lo + hi)

    def x_plus(self, xi):
        """Turning point of the level at xi (vectorized, from the table)."""
        if self._xplus_table is None:
            return np.zeros_like(np.asarray(xi, dtype=float)) + self.p.support_end
        etas, xps = self._xplus_table
        eta = np.clip(np.asarray(xi, dtype=float) / self.omega, etas[0], etas[-1])
        return np.interp(np.log(eta), np.log(etas), xps)

    def x_stop(self, xi):
        """Right truncation: just past the turning point of the slightly
        lowered level, plus an e-fold margin that suppresses the residual
        boundary-condition error of y'/y = -xi exponentially."""
        xi = np.asarray(xi, dtype=float)
        if self.p.support_end is not None:
            return np.full_like(xi, self.p.support_end)
        base = self.x_plus(0.7 * xi)
        return np.minimum(base + _EFOLDS / np.maximum(xi, 1e-300), _X_INF_CAP)

    def x_match(self, xi: float) -> float:
        """Matching point for the two-sided solves: a little past the turning
        point, capped at a few e-folds so the forward (unstable) leg stays
        clean of growing-solution admixture."""
        if self.p.support_end is not None:
            return self.p.support_end
        xp = float(self.x_plus(xi))
        x_stop = float(self.x_stop(xi))
        if xp <= 0:
            return min(1.0, x_stop)
        pad = min(max(0.5, 0.2 * xp), 4.0 / xi)
        return min(xp + pad, 0.5 * (xp + x_stop))

    def build_grid(self, x_max: float) -> _ShootGrid:
        om2 = self.omega ** 2
        bps = sorted(b for b in self.p.breakpoints if 0 < b < x_max)
        bps.append(x_max)
        xs, hs = [], []
        x = 0.0
        nxt = iter(bps)
        bp = next(nxt)
        xi_max2 = om2 * self.p.q0
        while x < x_max - 1e-15:
            q = eval_potential(self.p, x + 1e-12, 0)
            # oscillation resolution plus an explicit-RK4 stability bound:
            # the phase Jacobian is at most 1 + |om^2 Q - xi^2| over the
            # states still active at x (deep ones freeze just past their
            # turning point, far-tail ones have xi ~ efolds/x)
            q_ahead = eval_potential(self.p, 0.9 * x + 1e-12, 0)
            xi_act = min(math.sqrt(xi_max2),
                         max(1.5 * math.sqrt(om2 * q_ahead),
                             _EFOLDS / (0.3 * max(x, 0.1))))
            jac = 1.0 + om2 * q + xi_act * xi_act
            h = min(1.0 / (_POINTS_PER_RADIAN * math.sqrt(om2 * q) + 1.0), 2.5 / jac, 0.8)
            if x + h >= bp - 1e-14:
                h = bp - x
                try:
                    bp = next(nxt)
                except StopIteration:
                    pass
            xs.append(x)
            hs.append(h)
            x += h
        xs = np.asarray(xs)
        hs = np.asarray(hs)
        nudge = 1e-12 * np.maximum(hs, 1e-6)
        qa = om2 * eval_potential(self.p, xs + nudge, 0)
        qm = om2 * eval_potential(self.p, xs + 0.5 * hs, 0)
        qb = om2 * eval_potential(self.p, xs + hs - nudge, 0)
        return _ShootGrid(xs, hs, qa, qm, qb, xs + hs, x_max)

    def count_grid_extent(self) -> float:
        """x beyond which the remaining zero-energy phase is negligible."""
        if self.p.support_end is not None:
            return self.p.support_end
        d = self.p.decay
        half = d.k2 / 2.0
        X = (self.omega * math.sqrt(d.a) / (0.02 * (half - 1.0))) ** (1.0 / (half - 1.0))
        return min(max(X, 10.0), 1e6)


def _pruefer_sweep(grid: _ShootGrid, xi: np.ndarray, x_stop: np.ndarray) -> np.ndarray:
    """Integrate theta' = cos^2 + (omega^2 Q - xi^2) sin^2 for all xi at once.

    The right-hand side is evaluated as 1 + (omega^2 Q - xi^2 - 1) sin^2, with
    the bracket formed once per step: one sine and two multiply-adds a stage.
    Each state's phase is captured at its own truncation point; whatever the
    (unstable, discarded) values do past that point never feeds the result.
    """
    freeze_at = np.searchsorted(grid.ends, x_stop * (1 - 1e-12), side="left")
    freeze_at = np.minimum(freeze_at, len(grid.xs) - 1)
    # states ordered by falling freeze step: those still moving after step i
    # are the first keep[i], so the vectors shrink as states freeze
    order = np.argsort(-freeze_at, kind="stable")
    steps = np.arange(int(freeze_at.max()) + 1)
    keep = np.searchsorted(-freeze_at[order], -steps, side="left").tolist()
    shift = (xi * xi + 1.0)[order]
    theta = np.zeros_like(shift)
    frozen = np.empty_like(shift)

    def f(g, th):
        s = np.sin(th)
        return 1.0 + g * s * s

    n = len(shift)
    for i, h, qa, qm, qb in zip(steps.tolist(), grid.hs.tolist(), grid.qa.tolist(),
                                grid.qm.tolist(), grid.qb.tolist()):
        gm = qm - shift
        k1 = f(qa - shift, theta)
        k2 = f(gm, theta + 0.5 * h * k1)
        k3 = f(gm, theta + 0.5 * h * k2)
        k4 = f(qb - shift, theta + h * k3)
        theta = theta + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        m = keep[i]
        if m < n:
            frozen[m:n] = theta[m:]
            theta, shift, n = theta[:m], shift[:m], m
    out = np.empty_like(frozen)
    out[order] = frozen
    return out


def _phase_count_fn(prob: _Problem, grid: _ShootGrid):
    def P(xi_vec: np.ndarray) -> np.ndarray:
        xs = np.asarray(xi_vec, dtype=float)
        th = _pruefer_sweep(grid, xs, prob.x_stop(xs))
        return th + np.arctan(1.0 / xs) - math.pi
    return P


# ----------------------------------------------------------------------
# scalar two-sided machinery (the two legs, Wronskian mismatch, node counts)

def _left_leg(prob: _Problem, xi: float, x_m: float, count_nodes: bool = False):
    """Integrate y'' = (xi^2 - om^2 Q) y from (0, 1) at the origin to x_m,
    one solve per breakpoint segment.

    Returns (y(x_m), y'(x_m), nodes); nodes counts the interior zeros of y
    when count_nodes is set and is 0 otherwise.
    """
    om2 = prob.omega ** 2
    p = prob.p

    # z' = y^2 rides along unread: it takes part in the step-size control,
    # and without it xi moves by up to 5.5e-13 and the legs take up to 5%
    # more RHS evaluations
    def rhs(x, y):
        return [y[1], (xi * xi - om2 * eval_potential(p, x, 0)) * y[0], y[0] * y[0]]

    def node(x, y):
        return y[0]

    segs = [0.0] + [b for b in p.breakpoints if 0 < b < x_m] + [x_m]
    y = np.array([0.0, 1.0, 0.0])
    nodes = 0
    for a, b in zip(segs[:-1], segs[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=_MISMATCH_RTOL,
                        atol=1e-14, events=node if count_nodes else None)
        y = sol.y[:, -1]
        if count_nodes:
            # the Dirichlet zero at x = 0 is not a node
            nodes += int(np.count_nonzero(sol.t_events[0] > 1e-9))
    return float(y[0]), float(y[1]), nodes


def _right_leg(prob: _Problem, xi: float, x_m: float, x_stop: float) -> float:
    """u(x_m) of the decaying solution's log-derivative u = y'/y (Riccati:
    u' = xi^2 - om^2 Q - u^2), integrated back from u(x_stop) = -xi.

    With x_stop at or before x_m nothing is integrated and -xi is returned.
    """
    if x_stop <= x_m * (1 + 1e-12):
        return -xi
    om2 = prob.omega ** 2
    p = prob.p

    # L' = u rides along unread, for the step-size control (see _left_leg)
    def rhs(x, u):
        return [xi * xi - om2 * eval_potential(p, x, 0) - u[0] * u[0], u[0]]

    sol = solve_ivp(rhs, (x_stop, x_m), [-xi, 0.0], method="DOP853",
                    rtol=_MISMATCH_RTOL, atol=1e-14)
    return float(sol.y[0, -1])


def _mismatch(prob: _Problem, xi: float, with_nodes: bool = False):
    """Matching residual W(xi) = y_L'(x_m) - u_R(x_m) y_L(x_m), normalized.

    Zero exactly at eigenvalues; its sign together with the node count of
    y_L below x_m gives the exact number of eigenvalues above xi.  The right
    leg starts on y'/y = -xi at the truncation point.
    """
    x_m = prob.x_match(xi)
    y, v, nodes = _left_leg(prob, xi, x_m, with_nodes)
    u_r = _right_leg(prob, xi, x_m, float(prob.x_stop(xi)))
    w = (v - u_r * y) / math.hypot(y, v)
    if with_nodes:
        # one extra zero of y_L beyond x_m exactly when the growing-branch
        # coefficient (proportional to w) opposes the local sign of y
        return w, nodes + (1 if w * y < 0 else 0)
    return w


def count_above(p: Potential, omega: float, xi_star: float, _prob=None) -> int:
    """Exact number of eigenvalues with xi > xi_star (Sturm oscillation)."""
    prob = _prob or _Problem(p, omega)
    _, n = _mismatch(prob, xi_star, with_nodes=True)
    return n


def count_states(p: Potential, omega: float, _prob=None) -> int:
    """Number of bound states, from the oscillation count of the zero-energy
    Dirichlet solution (each interior zero binds exactly one state).

    The fractional phase decides whether the asymptotically linear tail
    contributes one more zero; knife-edge cases (threshold states) are
    re-decided by the well-conditioned two-sided counter at a tiny xi.
    """
    prob = _prob or _Problem(p, omega)
    grid = prob.build_grid(prob.count_grid_extent())
    theta = _pruefer_sweep(grid, np.array([0.0]), np.array([grid.x_max]))[0]
    n, frac = divmod(theta / math.pi, 1.0)
    if abs(frac - 0.5) < 1e-3 and p.support_end is None:
        return count_above(p, omega, prob.xi_floor, _prob=prob)
    return int(n) + (1 if frac > 0.5 else 0)


def eigenvalues(p: Potential, omega: float, opts: Optional[SolverOptions] = None) -> np.ndarray:
    """All xi_j of the Dirichlet problem, strictly increasing.

    Oscillation counting isolates each index; K-section on the Pruefer phase
    (one vectorized sweep over the _KSECT - 1 interior points of every open
    bracket per pass, each bracket narrowed to the adjacent pair of points
    that straddles its target count) handles every state whose truncation
    fits the common grid; near-threshold states are finished on the Wronskian
    mismatch; for moderate omega the mismatch polish brings everything to
    opts.tol.  A polish that finds no sign change keeps the sweep value and
    says so with a RuntimeWarning.
    """
    opts = opts or SolverOptions()
    if not (math.isfinite(omega) and omega > 0):
        raise ForwardError(f"omega must be finite and positive, got {omega!r}")
    if not (math.isfinite(opts.tol) and opts.tol > 0):
        raise ForwardError(f"tol must be finite and positive, got {opts.tol!r}")
    prob = _Problem(p, omega)
    n_states = count_states(p, omega, _prob=prob)
    if n_states == 0:
        return np.empty(0)
    lo0 = prob.xi_floor
    if p.support_end is None and count_above(p, omega, lo0, _prob=prob) < n_states:
        raise BracketError(
            f"weakest of {n_states} states lies below the resolvable floor "
            f"xi = {lo0:.3g}")

    # vector grid serves states down to xi_split; weaker ones go scalar
    xi_split = max(_EFOLDS / 600.0, 1.2 * lo0)
    x_cap = float(prob.x_stop(min(xi_split, prob.xi_max / 4)))
    grid = prob.build_grid(x_cap)
    P = _phase_count_fn(prob, grid)

    targets = math.pi * np.arange(n_states)
    top = prob.xi_max * (1 - 1e-13)
    lo = np.full(n_states, lo0)
    hi = np.full(n_states, top)
    do_polish = opts.polish if opts.polish is not None else (omega <= 25)
    bisect_tol = max(opts.tol, 1e-7) if do_polish else opts.tol
    reach = grid.x_max * (1 + 1e-9)
    frac = np.arange(_KSECT + 1) / _KSECT
    cols = np.arange(_KSECT + 1)
    rows = np.arange(n_states)
    for sweep in range(200):
        # columns: lo, the K - 1 interior points, hi
        pts = lo[:, None] + (hi - lo)[:, None] * frac
        pts[:, -1] = hi
        # interior points below the vector grid's reach are left to the
        # scalar pass
        use = (prob.x_stop(pts) <= reach) & (hi - lo >= bisect_tol)[:, None]
        use[:, [0, -1]] = False
        if sweep and not use.any():
            break
        r, c = np.nonzero(use)
        # the first sweep also checks that the phase count closes at xi_max
        phase = P(np.append(pts[r, c], [top] if sweep == 0 else []))
        if sweep == 0 and phase[-1] >= 0:
            raise BracketError(
                f"phase count does not close at xi_max: P={phase[-1]:.3g} "
                f"(expected < 0)")
        above = np.zeros(pts.shape, dtype=bool)
        above[:, 0] = True
        above[r, c] = phase[:len(r)] > targets[r]
        known = use.copy()
        known[:, [0, -1]] = True
        # new bracket: the first known point whose phase count is at or below
        # the target, and the last known point before it whose count is above
        first = (known & ~above).argmax(axis=1)
        last = np.where(known & above & (cols < first[:, None]), cols, 0).max(axis=1)
        lo, hi = pts[rows, last], pts[rows, first]
    xi = 0.5 * (lo + hi)

    # scalar mismatch refinement for states the vector grid could not reach
    refined = np.zeros(n_states, dtype=bool)
    for i in range(n_states):
        if prob.x_stop(xi[i]) <= reach and hi[i] - lo[i] < 2 * bisect_tol:
            continue
        a, b = lo[i], hi[i]
        wa = _mismatch(prob, a)
        wb = _mismatch(prob, b)
        if wa * wb > 0:
            raise BracketError(
                f"mismatch bracket failed for state with node count {i} on "
                f"[{a:.3g}, {b:.3g}]: W = ({wa:.3g}, {wb:.3g})")
        xi[i] = brentq(lambda t: _mismatch(prob, t), a, b,
                       xtol=max(opts.tol * max(1.0, xi[i]), 1e-14), rtol=1e-15)
        refined[i] = True

    if do_polish:
        srt = np.sort(xi)
        min_gap = float(np.diff(srt).min()) if n_states > 1 else float(srt[0])
        for i in range(n_states):
            if refined[i]:
                continue
            # the sweep root can be biased by phase discretization; expand the
            # polish bracket past that bias but never into a neighboring root
            pad = min(1e-4 * (1.0 + xi[i]), 0.2 * min_gap)
            a = max(lo0, xi[i] - pad)
            b = min(top, xi[i] + pad)
            wa = _mismatch(prob, a)
            wb = _mismatch(prob, b)
            tries = 0
            while wa * wb > 0 and tries < 5:
                pad = min(2 * pad, 0.45 * min_gap)
                a = max(lo0, xi[i] - pad)
                b = min(top, xi[i] + pad)
                wa = _mismatch(prob, a)
                wb = _mismatch(prob, b)
                tries += 1
            if wa * wb <= 0:
                xi[i] = brentq(lambda t: _mismatch(prob, t), a, b,
                               xtol=opts.tol, rtol=1e-15)
            else:
                warnings.warn(
                    f"polish found no sign change of the mismatch for the state "
                    f"with node count {i} on [{a:.17g}, {b:.17g}]; xi keeps the "
                    f"midpoint of the sweep bracket [{lo[i]:.17g}, {hi[i]:.17g}] "
                    f"(width {hi[i] - lo[i]:.3g}), accurate only to the phase "
                    f"sweep's discretization, not to tol = {opts.tol:.3g}",
                    RuntimeWarning, stacklevel=2)
    return np.sort(xi)


@dataclass
class StateProfile:
    xi: float
    C: float
    log_s: float
    x_match: float
    x_stop: float
    mismatch: float


def _vector_legs(rhs, start: np.ndarray, end: np.ndarray, w0: np.ndarray,
                 cuts: Sequence = ()) -> np.ndarray:
    """Integrate every state j from start[j] to end[j] in one solve_ivp vector.

    All legs run the same way.  A state joins the vector at its start with
    the values w0[j] and leaves it at its end; the solve restarts at every
    start, end and cut point (cuts lie inside the legs' span).  rhs(idx)
    returns the right-hand side of the states idx, whose vector holds
    component k of state idx[i] at k * len(idx) + i.  Returns the
    (states, components) values at the ends.
    """
    out = np.array(w0, dtype=float)
    pts = np.unique(np.concatenate([start, end, cuts]))
    if np.any(end < start):
        pts = pts[::-1]
    idx = np.empty(0, dtype=int)
    for a, b in zip(pts[:-1], pts[1:]):
        idx = np.concatenate([idx, np.flatnonzero(start == a)])
        if idx.size:
            sol = solve_ivp(rhs(idx), (a, b), out[idx].T.ravel(), method="DOP853",
                            rtol=_PROFILE_RTOL, atol=1e-14)
            out[idx] = sol.y[:, -1].reshape(-1, idx.size).T
        idx = idx[end[idx] != b]
    return out


def _state_profiles(p: Potential, omega: float, xi: np.ndarray) -> list:
    """Normalization data per state: C_j, tail amplitude log s_j, diagnostics.

    Each state is matched across the turning point by two legs, and every
    state's leg runs in one vector solve.  The left legs carry (y, y', z),
    z the norm integral, from the origin to x_m.  The right legs carry
    (u, L, R) back from the truncation point: the Riccati log-derivative
    u = y'/y of the decaying solution, the log-amplitude L = int_{x_stop}^x u
    and the tail norm R(x) = int_x^{x_stop} e^{2(L(t) - L(x))} dt through
    R' = -1 - 2 u R, so R(x_m) is the norm integral of y / y(x_m) over
    [x_m, x_stop].  Deep states never overflow, and the normalization adds
    the analytic exponential tail beyond the truncation.
    """
    prob = _Problem(p, omega)
    om2 = omega * omega
    xi = np.asarray(xi, dtype=float)
    n = xi.size
    if n == 0:
        return []
    x_m = np.array([prob.x_match(x) for x in xi])
    x_stop = prob.x_stop(xi)
    u0 = -xi
    if p.support_end is None:
        # amplitude extraction is first-order sensitive to the truncation
        # boundary condition (no e-fold suppression, unlike the eigenvalue),
        # so push the truncation to omega^2 Q <= 1e-4 xi^2 and start the
        # right leg on the WKB-corrected log-derivative
        x_stop = np.maximum(x_stop, prob.x_plus(1e-2 * xi))
        kap2 = xi * xi - om2 * eval_potential(p, x_stop, 0)
        u0 = -np.sqrt(np.maximum(kap2, 0.25 * xi * xi))
        if p.m_smoothness >= 1:
            u0 = u0 + om2 * eval_potential(p, x_stop, 1) / (4.0 * kap2)

    def left(idx):
        xi2, k = xi[idx] ** 2, idx.size

        def rhs(x, w):
            y = w[:k]
            return np.concatenate([w[k:2 * k],
                                   (xi2 - om2 * eval_potential(p, x, 0)) * y, y * y])
        return rhs

    def right(idx):
        xi2, k = xi[idx] ** 2, idx.size

        def rhs(x, w):
            u, R = w[:k], w[2 * k:]
            return np.concatenate([xi2 - om2 * eval_potential(p, x, 0) - u * u,
                                   u, -1.0 - 2.0 * u * R])
        return rhs

    cuts = [b for b in p.breakpoints if 0 < b < x_m.max()]
    y_m, v_m, z_l = _vector_legs(left, np.zeros(n), x_m,
                                 np.tile([0.0, 1.0, 0.0], (n, 1)), cuts).T
    # L(x) grows positive toward x_m (the decaying branch is integrated
    # against the orientation); a truncation at or before x_m integrates
    # nothing
    w_r = np.column_stack([u0, np.zeros(n), np.zeros(n)])
    run = x_stop > x_m * (1 + 1e-12)
    if run.any():
        w_r[run] = _vector_legs(right, x_stop[run], x_m[run], w_r[run])
    u_m, l_m, m_hat = w_r.T
    tail = np.exp(-2.0 * l_m) / (2.0 * xi)
    norm2 = z_l + y_m * y_m * (m_hat + tail)
    log_s = np.log(np.abs(y_m)) - l_m + xi * x_stop - 0.5 * np.log(norm2)
    with np.errstate(divide="ignore"):
        mism = np.where(y_m != 0, np.abs(v_m / y_m - u_m), np.inf)
    return [StateProfile(*map(float, row))
            for row in zip(xi, 1.0 / norm2, log_s, x_m, x_stop, mism)]


def characteristic_values(p: Potential, omega: float, xi: Sequence) -> np.ndarray:
    """C_j = phi_j'(0)^2 for the L2-normalized Dirichlet eigenfunctions.

    The normalization integral is computed on [0, X_stop] plus the analytic
    exponential tail C e^{-2 xi x} beyond it.
    """
    profs = _state_profiles(p, omega, np.asarray(xi, dtype=float))
    return np.array([s.C for s in profs])


def forward(p: Potential, omega: float, opts: Optional[SolverOptions] = None,
            potential_id: str = "") -> SpectralData:
    """eigenvalues + characteristic_values packaged as SpectralData."""
    xi = eigenvalues(p, omega, opts)
    C = characteristic_values(p, omega, xi) if len(xi) else np.empty(0)
    return SpectralData(
        omega=omega, xi=xi, C=C, q0=p.q0,
        q0_derivatives=tuple(p.q0_derivatives), potential_id=potential_id or p.kind,
    )


def squarewell_oracle(omega: float, scan_per_pi: int = 48) -> SpectralData:
    """Exact square-well spectrum from the transcendental eigencondition.

    Roots of  xi sin(nu) + nu cos(nu) = 0  with nu = sqrt(omega^2 - xi^2),
    located by a nu-uniform scan plus bisection; C from the closed form
    2 xi (omega^2 - xi^2) / (1 + xi).  Independent of the shooting path.
    """
    if omega < 1:
        raise ForwardError("squarewell_oracle needs omega >= 1")

    def h(nu):
        x2 = omega * omega - nu * nu
        xi = math.sqrt(max(x2, 0.0))
        return xi * math.sin(nu) + nu * math.cos(nu)

    nus = np.linspace(1e-9, omega * (1 - 1e-12), max(8, int(scan_per_pi * omega / math.pi)))
    vals = np.array([h(v) for v in nus])
    roots = []
    for a, b, fa, fb in zip(nus[:-1], nus[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0:
            roots.append(brentq(h, a, b, xtol=1e-14, rtol=1e-15))
    xi = np.array(sorted(math.sqrt(omega * omega - nu * nu) for nu in roots))
    xi = xi[xi > 1e-9]
    C = 2.0 * xi * (omega * omega - xi * xi) / (1.0 + xi)
    return SpectralData(omega=omega, xi=xi, C=C, q0=1.0, q0_derivatives=(0.0,),
                        potential_id="square_well")
