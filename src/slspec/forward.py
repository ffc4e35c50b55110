"""Exact discrete spectral data of -d^2/dx^2 - omega^2 Q on the half-line.

Dirichlet condition at 0, decaying tail at infinity.  Eigenvalues are the
xi_j with lambda_j = -xi_j^2; the characteristic value C_j = phi_j'(0)^2 of
the L2-normalized eigenfunction completes the inverse problem's data.

The solver uses the Pruefer phase representation so eigenvalue indices come
from integer phase counts (no root can be missed): a vectorized fixed-grid
RK4 sweep narrows every state's bracket at once, K-fold per sweep, by
evaluating the phase count at K - 1 interior points of each bracket
(K-section), down to a fixed width.  The sweep's roots carry its
discretization bias, so every state is then finished on a Wronskian-mismatch
functional, all states in one vectorized bracketing root-find (Chandrupatla's
method).  Near-threshold states, whose truncation domains are thousands of
length units, lie beyond the sweep's grid and start the root-find from the
bracket the phase count isolates (the phase representation compresses their
information exponentially, the mismatch keeps it well conditioned).

Both the mismatch and the state profiles match two legs at a point past the
turning point: the left leg integrates the linear equation from the origin,
the right leg the Riccati equation of the decaying solution's log-derivative
back from the truncation point.  Every state's legs run in one vector solve,
each state joining and leaving the vector at its own end points, and carry
the norm integrals as ODE components: z' = y^2 on the left, and on the right
R(x) = int_x^{x_stop} (y(t)/y(x))^2 dt through R' = -1 - 2 u R.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .potentials import Potential, eval_potential
from .quadrature import integral_with_power_tail

SCHEMA_VERSION = 1


# scipy's ODE and root-finding code loads on the first solve, so importing
# this module (for SpectralData, say) costs no more than numpy.  The solver
# calls these module-level names, which a tracer may wrap.

def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def find_root(*args, **kwargs):
    """scipy.optimize.elementwise.find_root."""
    from scipy.optimize.elementwise import find_root
    return find_root(*args, **kwargs)


def brentq(*args, **kwargs):
    """scipy.optimize.brentq."""
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


class ForwardError(RuntimeError):
    pass


class BracketError(ForwardError):
    """Eigenvalue bracket failure, reported with the oscillation-count diagnostic."""


@dataclass
class SolverOptions:
    """Settings of the eigenvalue search: tol is the xi tolerance of the
    mismatch root-find that finishes every state."""
    tol: float = 1e-10


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
# bracket width at which the K-section stops: well below the gaps, and the
# sweep's discretization bias (5e-3 on q1 at omega 80) is left to the
# mismatch root-find anyway
_KSECT_WIDTH = 1e-5

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
        if p.support_end is None and p.decay is None:
            raise ForwardError("decay metadata missing: truncation rule undetermined")
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

    def x_match(self, xi):
        """Matching point for the two-sided solves (vectorized): a little past
        the turning point, capped at a few e-folds so the forward (unstable)
        leg stays clean of growing-solution admixture."""
        xi = np.asarray(xi, dtype=float)
        if self.p.support_end is not None:
            return np.full_like(xi, self.p.support_end)
        xp = self.x_plus(xi)
        x_stop = self.x_stop(xi)
        pad = np.minimum(np.maximum(0.5, 0.2 * xp), 4.0 / xi)
        return np.where(xp <= 0, np.minimum(1.0, x_stop),
                        np.minimum(xp + pad, 0.5 * (xp + x_stop)))

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
# two-sided machinery (the two legs, Wronskian mismatch, node counts)

def _vector_legs(rhs, start: np.ndarray, end: np.ndarray, w0: np.ndarray,
                 cuts: Sequence = (), rtol: float = _PROFILE_RTOL) -> tuple:
    """Integrate every state j from start[j] to end[j] in one solve_ivp vector.

    All legs run the same way.  A state joins the vector at its start with
    the values w0[j] and leaves it at its end; the solve restarts at every
    start, end and cut point (cuts lie inside the legs' span).  rhs(idx)
    returns the right-hand side of the states idx, whose vector holds
    component k of state idx[i] at k * len(idx) + i.  Returns the
    (states, components) values at the ends, and per state the number of
    sign changes of component 0 between accepted steps (the same step end
    points that solve_ivp's event detection compares).
    """
    out = np.array(w0, dtype=float)
    signs = np.zeros(len(out), dtype=int)
    pts = np.unique(np.concatenate([start, end, cuts]))
    if np.any(end < start):
        pts = pts[::-1]
    idx = np.empty(0, dtype=int)
    for a, b in zip(pts[:-1], pts[1:]):
        idx = np.concatenate([idx, np.flatnonzero(start == a)])
        if idx.size:
            sol = solve_ivp(rhs(idx), (a, b), out[idx].T.ravel(), method="DOP853",
                            rtol=rtol, atol=1e-14)
            out[idx] = sol.y[:, -1].reshape(-1, idx.size).T
            y = sol.y[:idx.size]
            signs[idx] += np.count_nonzero(y[:, :-1] * y[:, 1:] < 0, axis=1)
        idx = idx[end[idx] != b]
    return out, signs


def _left_rhs(p: Potential, om2: float, xi: np.ndarray):
    """rhs(idx) factory of the left legs (y, y', z): y'' = (xi^2 - om^2 Q) y
    and the norm integral z' = y^2."""
    def make(idx):
        xi2, k = xi[idx] ** 2, idx.size

        def rhs(x, w):
            y = w[:k]
            return np.concatenate([w[k:2 * k],
                                   (xi2 - om2 * eval_potential(p, x, 0)) * y, y * y])
        return rhs
    return make


def _right_rhs(p: Potential, om2: float, xi: np.ndarray):
    """rhs(idx) factory of the right legs (u, L, R): the Riccati
    log-derivative u' = xi^2 - om^2 Q - u^2, the log-amplitude L' = u and
    the tail norm R' = -1 - 2 u R."""
    def make(idx):
        xi2, k = xi[idx] ** 2, idx.size

        def rhs(x, w):
            u, R = w[:k], w[2 * k:]
            return np.concatenate([xi2 - om2 * eval_potential(p, x, 0) - u * u,
                                   u, -1.0 - 2.0 * u * R])
        return rhs
    return make


def _mismatch(prob: _Problem, xi, with_nodes: bool = False):
    """Matching residual W(xi) = y_L'(x_m) - u_R(x_m) y_L(x_m) for a scalar
    or an array of xi (every state's legs in one vector solve).

    Zero exactly at eigenvalues; its sign together with the node count of
    y_L below x_m gives the exact number of eigenvalues above xi.  The right
    leg starts on y'/y = -xi at the truncation point; a truncation at or
    before x_m integrates nothing.  W is left unnormalized: with the left leg
    started on (y, y') = (0, 1) it is proportional to the growing-branch
    coefficient of y_L, so nearly linear in xi, and the root-find's
    interpolation steps converge fast.  (Around q1's xi_j = 16.7 at omega
    40, W / (xi - xi_j) stays within 4e-4 relative for |xi - xi_j| <= 0.018;
    W / |(y_L, y_L')| changes it sixfold.)
    """
    xi = np.asarray(xi, dtype=float)
    flat = xi.ravel()
    n = flat.size
    om2 = prob.omega ** 2
    x_m = prob.x_match(flat)
    x_stop = prob.x_stop(flat)
    cuts = [b for b in prob.p.breakpoints if 0 < b < x_m.max()]
    w_l, nodes = _vector_legs(_left_rhs(prob.p, om2, flat), np.zeros(n), x_m,
                              np.tile([0.0, 1.0, 0.0], (n, 1)), cuts, _MISMATCH_RTOL)
    y, v = w_l[:, 0], w_l[:, 1]
    u = -flat
    run = x_stop > x_m * (1 + 1e-12)
    if run.any():
        w_r = np.column_stack([u[run], np.zeros((run.sum(), 2))])
        u[run] = _vector_legs(_right_rhs(prob.p, om2, flat[run]), x_stop[run],
                              x_m[run], w_r, rtol=_MISMATCH_RTOL)[0][:, 0]
    w = (v - u * y).reshape(xi.shape)
    if with_nodes:
        # one extra zero of y_L beyond x_m exactly when the growing-branch
        # coefficient (proportional to w) opposes the local sign of y; the
        # Dirichlet zero at x = 0 is no sign change, so it is not counted
        return w, (nodes + (w.ravel() * y < 0)).reshape(xi.shape)
    return w


def count_above(p: Potential, omega: float, xi_star: float, _prob=None) -> int:
    """Exact number of eigenvalues with xi > xi_star (Sturm oscillation)."""
    prob = _prob or _Problem(p, omega)
    _, n = _mismatch(prob, xi_star, with_nodes=True)
    return int(n)


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
    that straddles its target count) narrows every state whose truncation
    fits the common grid to _KSECT_WIDTH.  One vectorized root-find of the
    Wronskian mismatch then brings every state to opts.tol: a swept state
    from its sweep bracket, padded past the sweep's discretization bias, and
    a near-threshold state from the bracket the phase count isolates.  A
    swept state whose padded bracket never shows a sign change keeps its
    sweep midpoint and says so with a RuntimeWarning.
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

    # vector grid serves states down to xi_split; weaker ones start the
    # mismatch root-find from the bracket the phase count isolates
    xi_split = max(_EFOLDS / 600.0, 1.2 * lo0)
    x_cap = float(prob.x_stop(min(xi_split, prob.xi_max / 4)))
    grid = prob.build_grid(x_cap)
    P = _phase_count_fn(prob, grid)

    targets = math.pi * np.arange(n_states)
    top = prob.xi_max * (1 - 1e-13)
    lo = np.full(n_states, lo0)
    hi = np.full(n_states, top)
    reach = grid.x_max * (1 + 1e-9)
    frac = np.arange(_KSECT + 1) / _KSECT
    cols = np.arange(_KSECT + 1)
    rows = np.arange(n_states)
    for sweep in range(200):
        # columns: lo, the K - 1 interior points, hi
        pts = lo[:, None] + (hi - lo)[:, None] * frac
        pts[:, -1] = hi
        # interior points below the vector grid's reach are left to the
        # mismatch
        use = (prob.x_stop(pts) <= reach) & (hi - lo >= _KSECT_WIDTH)[:, None]
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

    # one bracket per state: a swept state's sweep bracket, padded past the
    # sweep's bias but never into a neighboring root, or the isolating
    # bracket of a state beyond the grid's reach.  Brackets without a sign
    # change widen (swept) or fail (unreached); the rest are done.
    swept = (prob.x_stop(xi) <= reach) & (hi - lo < 2 * _KSECT_WIDTH)
    srt = np.sort(xi)
    min_gap = float(np.diff(srt).min()) if n_states > 1 else float(srt[0])
    pad = np.minimum(1e-3 * (1.0 + xi), 0.2 * min_gap)
    tolerances = dict(xatol=1e-14, xrtol=1e-2 * opts.tol, fatol=0.0, frtol=0.0)
    todo = np.arange(n_states)
    for _ in range(6):
        a = np.where(swept, np.maximum(lo0, xi - pad), lo)[todo]
        b = np.where(swept, np.minimum(top, xi + pad), hi)[todo]
        res = find_root(lambda t: _mismatch(prob, t), (a, b), tolerances=tolerances)
        if np.any(res.status < -1):
            raise ForwardError(f"mismatch root-find failed with status "
                               f"{res.status.min()} for states {todo[res.status < -1]}")
        done = res.status == 0
        xi[todo[done]] = res.x[done]
        fail = ~done & ~swept[todo]
        if fail.any():
            k = int(np.argmax(fail))
            wa, wb = (f[k] for f in res.f_bracket)
            raise BracketError(
                f"mismatch bracket failed for state with node count {todo[k]} on "
                f"[{a[k]:.3g}, {b[k]:.3g}]: W = ({wa:.3g}, {wb:.3g})")
        todo, a, b = todo[~done], a[~done], b[~done]
        if not todo.size:
            break
        pad[todo] = np.minimum(2 * pad[todo], 0.45 * min_gap)
    for i, ai, bi in zip(todo, a, b):
        warnings.warn(
            f"the mismatch shows no sign change for the state with node count "
            f"{i} on [{ai:.17g}, {bi:.17g}]; xi keeps the midpoint of the "
            f"sweep bracket [{lo[i]:.17g}, {hi[i]:.17g}] (width "
            f"{hi[i] - lo[i]:.3g}), accurate only to the phase sweep's "
            f"discretization, not to tol = {opts.tol:.3g}",
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
    x_m = prob.x_match(xi)
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

    cuts = [b for b in p.breakpoints if 0 < b < x_m.max()]
    y_m, v_m, z_l = _vector_legs(_left_rhs(p, om2, xi), np.zeros(n), x_m,
                                 np.tile([0.0, 1.0, 0.0], (n, 1)), cuts)[0].T
    # L(x) grows positive toward x_m (the decaying branch is integrated
    # against the orientation); a truncation at or before x_m integrates
    # nothing
    w_r = np.column_stack([u0, np.zeros(n), np.zeros(n)])
    run = x_stop > x_m * (1 + 1e-12)
    if run.any():
        w_r[run] = _vector_legs(_right_rhs(p, om2, xi[run]), x_stop[run], x_m[run],
                                w_r[run])[0]
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
