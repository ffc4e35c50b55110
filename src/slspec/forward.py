"""Exact discrete spectral data of -d^2/dx^2 - omega^2 Q on the half-line.

Dirichlet condition at 0, decaying tail at infinity.  Eigenvalues are the
xi_j with lambda_j = -xi_j^2; the characteristic value C_j = phi_j'(0)^2 of
the L2-normalized eigenfunction completes the inverse problem's data.

The eigenvalue search counts: the node count of the left leg and the sign of
the Wronskian mismatch give the exact number of eigenvalues above any xi, so
no root can be missed.  K-section on that count (every open bracket cut
K-fold per pass, all brackets' interior points counted at once) narrows each
state's bracket until it holds that state alone, and one vectorized
bracketing root-find of the mismatch (Chandrupatla's method) then finishes
every state.  The count changes only where the mismatch changes sign, so
every isolating bracket holds a sign change, down to the near-threshold
states whose truncation domains are thousands of length units.

Both the mismatch and the state profiles match two legs at a point past the
turning point: the left leg runs from the origin, the right leg back from the
truncation point.  Every leg of every state runs on one fourth-order Magnus
propagator: closed-form 2x2 cell matrices (two Gauss points per cell, det 1)
on one mesh per (Q, omega), with breakpoints as nodes, each leg clipped to its
own interval, and Richardson extrapolation over the mesh and its bisection.
Node counts are sign changes of y at cell ends, and the norm integrals come
from the energy derivative of the same cells, int y^2 = y dy' - y' dy with
dots for d/d(xi^2), so no leg needs a quadrature or an ODE solver.
The constant-reference-potential propagators of MATSLISE (Ledoux, Van Daele
& Vanden Berghe, ACM TOMS 2005) rest on the same closed-form cells.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .potentials import Potential, eval_potential
from .quadrature import integral_with_power_tail

SCHEMA_VERSION = 1


# scipy loads on the first call of these, which a tracer may wrap;
# squarewell_oracle calls brentq, and no forward path calls solve_ivp.

def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def brentq(*args, **kwargs):
    """scipy.optimize.brentq."""
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


class ForwardError(RuntimeError):
    pass


class BracketError(ForwardError):
    """Eigenvalue bracket failure, reported with the oscillation-count diagnostic."""


# default xi tolerance of the mismatch root-find that finishes every state
DEFAULT_TOL = 1e-10


# decay margin, in e-folds of the level, past the truncation's turning point
_EFOLDS = 13.0
# no truncation point lies beyond this x
_X_INF_CAP = 1e8


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
# per-(potential, omega) context

# K of the eigenvalue search's K-section: one count over the K - 1 interior
# points of every open bracket cuts each bracket K-fold; the count's cost
# grows slowly with the number of points, so K well above 2 pays
_KSECT = 12


class _Problem:
    """Turning points (one tabulation of Q in x, exact to one table cell),
    truncation rule, and propagator meshes for one (Q, omega)."""

    def __init__(self, p: Potential, omega: float):
        if p.support_end is None and p.decay is None:
            raise ForwardError("decay metadata missing: truncation rule undetermined")
        self.p = p
        self.omega = omega
        self.xi_max = omega * math.sqrt(p.q0)
        self.xi_floor = 1e-4 / omega
        self._xplus_table = self._build_xplus_table()
        self._meshes = []
        self._mesh_extent = -1.0

    def _build_xplus_table(self):
        if self.p.support_end is not None:
            return None
        # 256 uniform cells on [0, 1), then ratio 1.01 out to _X_INF_CAP, cut
        # one node past the lowest level _state_profiles asks for
        n_geo = math.ceil(math.log(_X_INF_CAP) / math.log(1.01)) + 1
        xs = np.append(np.arange(256) / 256.0, np.geomspace(1.0, _X_INF_CAP, n_geo))
        q = eval_potential(self.p, xs, 0)
        keep = np.append(True, q[:-1] >= (1e-2 * self.xi_floor / self.omega) ** 2)
        return -np.log(q[keep]), xs[keep]

    def x_plus(self, xi):
        """x with Q(x) = (xi/omega)^2 (decaying Q only), linear in -ln Q
        between table nodes.  Q is monotone, so it lies in the table cell of
        the true turning point: off by at most 1/256 on [0, 1] and 1% relative
        beyond.  np.interp clamps levels outside the table to its ends."""
        return np.interp(-2.0 * np.log(xi / self.omega), *self._xplus_table)

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

    def gauss_q(self, x: np.ndarray, h: np.ndarray) -> tuple:
        """omega^2 Q at the two Gauss points of the cells [x, x + h]."""
        om2 = self.omega ** 2
        return (om2 * eval_potential(self.p, x + (0.5 - _GAUSS) * h, 0),
                om2 * eval_potential(self.p, x + (0.5 + _GAUSS) * h, 0))

    def mesh(self, extent: float, level: int = 0) -> "_Mesh":
        """The propagator mesh on [0, extent], bisected level times.

        A node's place depends on the potential and omega alone: panel ends
        are a fixed sequence, and extending the mesh adds nodes past the old
        extent without moving any below it.  Q is evaluated at cells that
        end at or before extent only.
        """
        if extent > self._mesh_extent:
            n = int(math.log1p(extent) / math.log(_PANEL_GROWTH)) + 2
            ends = np.cumprod(np.full(n, _PANEL_GROWTH)) - 1.0
            ends = np.union1d(np.append(ends, 0.0),
                              [b for b in self.p.breakpoints if b > 0])
            left, right = ends[:-1], ends[1:]
            keep = left < extent
            left, right = left[keep], right[keep]
            density = (_CELLS_PER_RADIAN * self.omega * np.sqrt(eval_potential(self.p, left, 0))
                       + _CELLS_NEAR / (1.0 + left))
            counts = np.maximum(np.ceil((right - left) * density), 1).astype(int)
            panel = np.repeat(np.arange(len(left)), counts)
            j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            nodes = left[panel] + (right - left)[panel] * (j / counts[panel])
            nodes = np.append(nodes, right[-1])
            self._meshes = [_Mesh(self, nodes[nodes <= extent])]
            self._mesh_extent = extent
        while len(self._meshes) <= level:
            self._meshes.append(self._meshes[-1].bisect(self))
        return self._meshes[level]

    def count_grid_extent(self) -> float:
        """x beyond which the remaining zero-energy phase is negligible."""
        if self.p.support_end is not None:
            return self.p.support_end
        d = self.p.decay
        half = d.k2 / 2.0
        X = (self.omega * math.sqrt(d.a) / (0.02 * (half - 1.0))) ** (1.0 / (half - 1.0))
        return min(max(X, 10.0), 1e6)


# ----------------------------------------------------------------------
# two-sided machinery: the Magnus propagator, the Wronskian mismatch, node
# counts

# Propagator mesh density, cells per unit length:
# _CELLS_PER_RADIAN omega sqrt(Q) + _CELLS_NEAR / (1 + x).  Cells are uniform
# within panels whose ends are (_PANEL_GROWTH^i - 1) and the breakpoints, and
# take the density at the panel's left end.
_CELLS_PER_RADIAN = 8.0
_CELLS_NEAR = 128.0
_PANEL_GROWTH = 17.0 / 16.0
# cells per block of the propagator, which bounds its (cells x legs)
# temporaries
_BLOCK = 256
# the Gauss points of a cell [x, x + h] lie at x + (1/2 -+ _GAUSS) h
_GAUSS = math.sqrt(3.0) / 6.0


class _Mesh:
    """Cell ends on [0, extent] and omega^2 Q at every cell's Gauss points."""

    def __init__(self, prob: "_Problem", nodes: np.ndarray):
        self.nodes = nodes
        self.h = np.diff(nodes)
        self.qa, self.qb = prob.gauss_q(nodes[:-1], self.h)

    def bisect(self, prob: "_Problem") -> "_Mesh":
        nodes = np.empty(2 * len(self.nodes) - 1)
        nodes[0::2] = self.nodes
        nodes[1::2] = self.nodes[:-1] + 0.5 * self.h
        return _Mesh(prob, nodes)


def _cells(h, qa, qb, lam, deriv: bool) -> np.ndarray:
    """Fourth-order Magnus cell matrices of y'' = (lam - omega^2 Q) y.

    Over a cell of width h with omega^2 Q = qa, qb at its Gauss points, the
    propagator of (y, y') is exp(Omega), Omega = [[a, h], [h fbar, -a]] with
    fbar = lam - (qa + qb)/2 and a = (sqrt(3)/12) h^2 (qb - qa).  Omega^2 =
    t I with t = a^2 + h^2 fbar, so exp(Omega) = c I + s Omega with c, s =
    cosh, sinh(sqrt t)/sqrt t (cos, sin for t < 0), and det = 1.  A cell of
    width 0 is the identity.  Returns the entries (m11, m12, m21, m22) along
    the first axis, followed by their lam-derivatives when deriv is set.
    """
    fbar = lam - 0.5 * (qa + qb)
    a = (math.sqrt(3.0) / 12.0) * h * h * (qb - qa)
    hf = h * fbar
    t = a * a + h * hf
    r = np.sqrt(np.abs(t))
    pos = t > 0
    c = np.where(pos, np.cosh(r), np.cos(r))
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(r > 0, np.where(pos, np.sinh(r), np.sin(r)) / r, 1.0)
    out = [c + s * a, s * h, s * hf, c - s * a]
    if deriv:
        # dt/dlam = h^2, dc/dt = s/2 and ds/dt = (c - s)/(2t), whose series
        # 1/6 + t/60 + t^2/1680 + t^3/90720 avoids the cancellation at small t
        with np.errstate(invalid="ignore", divide="ignore"):
            g = np.where(np.abs(t) < 1e-2,
                         1 / 6 + t * (1 / 60 + t * (1 / 1680 + t / 90720)),
                         (c - s) / (2.0 * t))
        h2 = h * h
        dc, ds = 0.5 * h2 * s, h2 * g
        out += [dc + ds * a, ds * h, ds * hf + s * h, dc - ds * a]
    return np.stack(np.broadcast_arrays(*out))


# row indices of a 2x2 product a @ b, entries (m11, m12, m21, m22); with
# lam-derivatives in rows 4..7, the rows of (a @ b, a' @ b, a @ b')
_PRODUCT = {4: ([0, 0, 2, 2], [0, 1, 0, 1], [1, 1, 3, 3], [2, 3, 2, 3]),
            8: ([0, 0, 2, 2, 4, 4, 6, 6, 0, 0, 2, 2], [0, 1, 0, 1, 0, 1, 0, 1, 4, 5, 4, 5],
                [1, 1, 3, 3, 5, 5, 7, 7, 1, 1, 3, 3], [2, 3, 2, 3, 2, 3, 2, 3, 6, 7, 6, 7])}


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, and its lam-derivative a' b + a b' when the stacks carry one."""
    i1, j1, i2, j2 = _PRODUCT[len(a)]
    p = a[i1] * b[j1] + a[i2] * b[j2]
    if len(a) == 8:
        p[4:8] += p[8:]
        p = p[:8]
    return p


def _rescale(m: np.ndarray, e: np.ndarray) -> tuple:
    """m / 2^k and e + k, with k making the largest matrix entry about 1.
    A derivative is scaled with its matrix, so (m, m') keep their ratio."""
    k = np.frexp(np.abs(m[:4]).max(axis=0))[1]
    return np.ldexp(m, -k), e + k


def _reduce(m: np.ndarray, e: np.ndarray) -> tuple:
    """Product of the matrices along axis 1, later ones on the left, as a
    pairwise tree; m is scaled by 2^-e."""
    while m.shape[1] > 1:
        n = m.shape[1] - m.shape[1] % 2
        p, f = _rescale(_mul(m[:, 1:n:2], m[:, 0:n:2]), e[1:n:2] + e[0:n:2])
        m, e = np.concatenate([p, m[:, n:]], axis=1), np.concatenate([f, e[n:]])
    return m[:, 0], e[0]


def _legs(prob: _Problem, lam: np.ndarray, xa: np.ndarray, xb: np.ndarray,
          level: int = 0, deriv: bool = False) -> tuple:
    """Transfer matrices of y'' = (lam_j - omega^2 Q) y over [xa_j, xb_j].

    Every leg runs on the one mesh of prob, bisected level times: its full
    cells are the mesh's, and the partial cells at its two ends are split in
    2^level equal parts, so that every cell of the leg is bisected from one
    level to the next.  Blocks of _BLOCK cells, aligned to the mesh, are
    multiplied out for the legs that reach them, so a leg's result does not
    depend on which other legs run with it.  Returns (m, e): the matrix
    entries of every leg (rows as in _cells) scaled by 2^-e.
    """
    n = lam.size
    extent = float(xb.max())
    nodes = np.append(prob.mesh(extent).nodes, np.inf)
    mesh = prob.mesh(extent, level)
    ka = np.searchsorted(nodes, xa, side="left")
    kb = np.searchsorted(nodes, xb, side="right") - 1
    head_end = np.minimum(nodes[ka], xb)
    tail_start = np.maximum(nodes[kb], head_end)
    k0 = np.minimum(ka, kb) << level
    k1 = kb << level

    def partial(x0, x1):
        # the cells [x0, x1] of every leg, in 2^level equal parts
        parts = 1 << level
        h = (x1 - x0) / parts
        x = x0 + h * np.arange(parts)[:, None]
        qa, qb = prob.gauss_q(x, h)
        return _reduce(_cells(h, qa, qb, lam, deriv), np.zeros((parts, n), dtype=int))

    m, e = partial(xa, head_end)
    first = int(k0.min()) // _BLOCK * _BLOCK
    for b0 in range(first, int(k1.max()), _BLOCK):
        b1 = min(b0 + _BLOCK, len(mesh.h))
        act = np.flatnonzero((k0 < b1) & (k1 > b0))
        if not act.size:
            continue
        k = np.arange(b0, b1)[:, None]
        h = np.where((k >= k0[act]) & (k < k1[act]), mesh.h[b0:b1, None], 0.0)
        blk, f = _reduce(_cells(h, mesh.qa[b0:b1, None], mesh.qb[b0:b1, None],
                                lam[act], deriv),
                         np.zeros((b1 - b0, act.size), dtype=int))
        m[:, act], e[act] = _rescale(_mul(blk, m[:, act]), e[act] + f)
    tm, te = partial(tail_start, xb)
    return _rescale(_mul(tm, m), e + te)


def _node_counts(prob: _Problem, lam: np.ndarray, x_m: np.ndarray) -> tuple:
    """Zeros of y on (0, x_m] for y(0) = 0, y'(0) = 1, counted as sign
    changes between the ends of the level-0 cells, and (y, y')(x_m) up to a
    positive factor.

    Blocks of cells are scanned by prefix products; the vector (y, y')
    carried from block to block is rescaled, which keeps its signs.
    """
    mesh = prob.mesh(float(x_m.max()))
    nodes = mesh.nodes
    kb = np.searchsorted(nodes, x_m, side="right") - 1
    n = lam.size
    y, v = np.zeros(n), np.ones(n)
    count = np.zeros(n, dtype=int)
    for b0 in range(0, int(kb.max()), _BLOCK):
        b1 = min(b0 + _BLOCK, len(mesh.h))
        act = np.flatnonzero(kb > b0)
        k = np.arange(b0, b1)[:, None]
        h = np.where(k < kb[act], mesh.h[b0:b1, None], 0.0)
        p = _cells(h, mesh.qa[b0:b1, None], mesh.qb[b0:b1, None], lam[act], False)
        step = 1
        while step < p.shape[1]:
            p[:, step:] = _mul(p[:, step:], p[:, :-step])
            step *= 2
        ys = p[0] * y[act] + p[1] * v[act]
        prev = np.concatenate([y[act][None], ys[:-1]])
        count[act] += np.count_nonzero(prev * ys < 0, axis=0)
        y[act], v[act] = ys[-1], p[2, -1] * y[act] + p[3, -1] * v[act]
        size = np.maximum(np.abs(y[act]), np.abs(v[act]))
        y[act], v[act] = y[act] / size, v[act] / size
    x0 = nodes[kb]
    h = x_m - x0
    qa, qb = prob.gauss_q(x0, h)
    p = _cells(h, qa, qb, lam, False)
    y_m = p[0] * y + p[1] * v
    return count + (y * y_m < 0), y_m, p[2] * y + p[3] * v


def _richardson(coarse, fine):
    """(16 F_{h/2} - F_h) / 15: the fourth-order error of the propagator
    cancels between the mesh and its bisection."""
    return (16.0 * fine - coarse) / 15.0


def _mismatch_on(prob: _Problem, xi: np.ndarray, level: int) -> np.ndarray:
    """The mismatch of _mismatch for the 1-d array xi, on the propagator's
    mesh bisected level times."""
    n = xi.size
    x_m = prob.x_match(xi)
    x_stop = np.maximum(prob.x_stop(xi), x_m)
    lam = np.concatenate([xi, xi]) ** 2
    m, e = _legs(prob, lam, np.concatenate([np.zeros(n), x_m]),
                 np.concatenate([x_m, x_stop]), level)
    # the right leg's y(x_m) is adj(P) (1, u0) for its transfer matrix P
    u = (m[0, n:] * -xi - m[2, n:]) / (m[3, n:] - m[1, n:] * -xi)
    return np.ldexp(m[3, :n] - u * m[1, :n], e[:n])


def _mismatch(prob: _Problem, xi, with_nodes: bool = False):
    """Matching residual W(xi) = y_L'(x_m) - u_R(x_m) y_L(x_m) for a scalar
    or an array of xi.

    Zero exactly at eigenvalues; its sign together with the node count of
    y_L below x_m gives the exact number of eigenvalues above xi.  The left
    leg runs from (y, y') = (0, 1) at the origin to x_m, the right leg back
    from y'/y = u_R = -xi at the truncation point, both on the Magnus
    propagator (a truncation at or before x_m leaves u_R = -xi), and W is
    Richardson-extrapolated over the mesh and its bisection.  W is left
    unnormalized: it is proportional to the growing-branch coefficient of
    y_L, so nearly linear in xi, and the root-find's interpolation steps
    converge fast.  (Around q1's xi_j = 16.7 at omega 40, W / (xi - xi_j)
    stays within 4e-4 relative for |xi - xi_j| <= 0.018; W / |(y_L, y_L')|
    changes it sixfold.)
    """
    xi = np.asarray(xi, dtype=float)
    flat = xi.ravel()
    w = _richardson(*(_mismatch_on(prob, flat, level) for level in (0, 1)))
    if with_nodes:
        # one extra zero of y_L beyond x_m exactly when the growing-branch
        # coefficient (proportional to w) opposes the local sign of y; the
        # Dirichlet zero at x = 0 is no sign change, so it is not counted
        nodes, y_m, _ = _node_counts(prob, flat * flat, prob.x_match(flat))
        return w.reshape(xi.shape), (nodes + (w * np.sign(y_m) < 0)).reshape(xi.shape)
    return w.reshape(xi.shape)


def count_above(p: Potential, omega: float, xi_star: float, _prob=None) -> int:
    """Exact number of eigenvalues with xi > xi_star (Sturm oscillation)."""
    prob = _prob or _Problem(p, omega)
    _, n = _mismatch(prob, xi_star, with_nodes=True)
    return int(n)


def count_states(p: Potential, omega: float, _prob=None) -> int:
    """Number of bound states, from the oscillation count of the zero-energy
    Dirichlet solution (each interior zero binds exactly one state).

    The zeros are counted on the propagator out to count_grid_extent(); the
    fractional phase atan2(y, y') mod pi at that point decides whether the
    asymptotically linear tail contributes one more zero.  Knife-edge cases
    (threshold states) are re-decided by the well-conditioned two-sided
    counter at a tiny xi.
    """
    prob = _prob or _Problem(p, omega)
    n, y, v = _node_counts(prob, np.zeros(1), np.array([prob.count_grid_extent()]))
    frac = (math.atan2(y[0], v[0]) % math.pi) / math.pi
    if abs(frac - 0.5) < 1e-3 and p.support_end is None:
        return count_above(p, omega, prob.xi_floor, _prob=prob)
    return int(n[0]) + (1 if frac > 0.5 else 0)


# step cap of _bracketed_roots; the mismatch root-finds take 5 to 10 steps
_ROOT_MAXITER = 100


def _bracketed_roots(f, lo, hi, xatol: float, xrtol: float) -> tuple:
    """Chandrupatla's bracketing root-find (Adv. Eng. Softw. 28, 1997, 145)
    of the elementwise f on [lo, hi], with the steps of scipy's vectorized
    version at fatol = frtol = 0; f sees the open brackets only.  Returns
    (x, ok); ok is False where f(lo), f(hi) share a sign or the bracket is
    not done in _ROOT_MAXITER steps."""
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f1, f2 = f(x1), f(x2)
    x3, f3 = x2, f2  # fails Chandrupatla's test, so the first step bisects
    root, ok = np.full(x1.size, np.nan), np.zeros(x1.size, dtype=bool)
    todo = np.arange(x1.size)
    for step in range(_ROOT_MAXITER + 1):
        # done: f = 0 at x_best (the end of smaller |f|), or dx below tol
        better = np.abs(f1) < np.abs(f2)
        xb, fb = np.where(better, x1, x2), np.where(better, f1, f2)
        dx, tol = np.abs(x2 - x1), np.abs(xb) * xrtol + xatol
        signed = np.sign(f1) * np.sign(f2) < 0
        done = (fb == 0) | (signed & (dx < tol))
        stop = done | ~signed
        root[todo[stop]], ok[todo[stop]] = xb[stop], done[stop]
        if step == _ROOT_MAXITER or stop.all():
            break
        todo, x1, x2, x3, f1, f2, f3, dx, tol = (
            v[~stop] for v in (todo, x1, x2, x3, f1, f2, f3, dx, tol))
        # inverse quadratic step where Chandrupatla's test accepts it
        with np.errstate(divide="ignore", invalid="ignore"):
            xi1, phi1 = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            t = np.where(((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1)),
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
        x = x1 + np.clip(t, 0.5 * tol / dx, 1 - 0.5 * tol / dx) * (x2 - x1)
        fx = f(x)
        # x1 is the new point, x2 the end across the sign change from it
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
    return root, ok


def eigenvalues(p: Potential, omega: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All xi_j of the Dirichlet problem, strictly increasing.

    The state with node count i is the one eigenvalue between a point where
    the exact count of eigenvalues above xi (the mismatch's sign and the left
    leg's nodes) is i + 1 and one where it is i.  K-section on that count
    (one count over the _KSECT - 1 interior points of every open bracket per
    pass, each bracket narrowed to the adjacent pair of points that straddles
    its state) runs until every state's bracket holds that state alone.  One
    vectorized root-find of the mismatch then brings every state to tol.
    The count changes only where the mismatch changes sign, so a root-find
    that does not converge is a fault, reported as a BracketError.
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ForwardError(f"omega must be finite and positive, got {omega!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ForwardError(f"tol must be finite and positive, got {tol!r}")
    prob = _Problem(p, omega)
    n_states = count_states(p, omega, _prob=prob)
    if n_states == 0:
        return np.empty(0)
    lo0 = prob.xi_floor
    top = prob.xi_max * (1 - 1e-13)
    _, (n_floor, n_top) = _mismatch(prob, np.array([lo0, top]), with_nodes=True)
    if n_floor < n_states:
        raise BracketError(
            f"weakest of {n_states} states lies below the resolvable floor "
            f"xi = {lo0:.3g}")
    if n_top != 0:
        raise BracketError(
            f"count does not close at xi_max: {n_top} states above "
            f"xi = {top:.17g}")

    # state i's bracket: the count is n_lo >= i + 1 at lo and n_hi <= i at hi
    states = np.arange(n_states)
    lo, hi = np.full(n_states, lo0), np.full(n_states, top)
    n_lo, n_hi = np.full(n_states, n_floor), np.zeros(n_states, dtype=int)
    frac = np.arange(_KSECT + 1) / _KSECT
    for _ in range(64):
        todo = np.flatnonzero((n_lo != states + 1) | (n_hi != states))
        if not todo.size:
            break
        # columns: lo, the K - 1 interior points, hi; states that share a
        # bracket share its points, so each distinct point is counted once
        pts = lo[todo, None] + (hi - lo)[todo, None] * frac
        pts[:, -1] = hi[todo]
        inner, where = np.unique(pts[:, 1:-1], return_inverse=True)
        counts = np.empty(pts.shape, dtype=int)
        counts[:, 0], counts[:, -1] = n_lo[todo], n_hi[todo]
        _, inner_counts = _mismatch(prob, inner, with_nodes=True)
        counts[:, 1:-1] = inner_counts[where.reshape(-1, _KSECT - 1)]
        # new bracket: the first point whose count is at or below i, and the
        # point before it
        first = (counts <= states[todo, None]).argmax(axis=1)
        rows = np.arange(todo.size)
        lo[todo], n_lo[todo] = pts[rows, first - 1], counts[rows, first - 1]
        hi[todo], n_hi[todo] = pts[rows, first], counts[rows, first]
    else:
        raise BracketError(f"the count does not isolate the states with node "
                           f"counts {todo.tolist()}")

    xi, ok = _bracketed_roots(lambda t: _mismatch(prob, t), lo, hi,
                              xatol=1e-14, xrtol=1e-4 * tol)
    if not ok.all():
        k = int(np.argmin(ok))
        wa, wb = _mismatch(prob, np.array([lo[k], hi[k]]))
        raise BracketError(
            f"mismatch root-find failed for the state with node count {k} on "
            f"[{lo[k]:.17g}, {hi[k]:.17g}]: W = ({wa:.3g}, {wb:.3g})")
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

    Each state is matched across the turning point by two legs on the Magnus
    propagator, every state's legs in one pass: the left leg from (y, y') =
    (0, 1) at the origin to x_m, the right leg back from the truncation
    point, where y = 1 and y'/y = u0.  The norm integrals need no
    quadrature: with dots for d/d(xi^2), (y dy' - y' dy)' = y^2, so
    int_0^{x_m} y^2 = (y dy' - y' dy)(x_m) on the left and int_{x_m}^{x_stop}
    y^2 = -(y dy' - y' dy)(x_m) on the right (no derivative at the fixed
    start), and each cell's derivative is in closed form.  The right leg's
    values at x_m come from its transfer matrix P as adj(P) (1, u0), scaled
    by a power of 2, so deep states never overflow.  The normalization adds
    the analytic exponential tail beyond the truncation, and C, log s and
    the mismatch are Richardson-extrapolated over the mesh and its
    bisection.
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
    x_stop = np.maximum(x_stop, x_m)

    lam = np.concatenate([xi, xi]) ** 2
    xa, xb = np.concatenate([np.zeros(n), x_m]), np.concatenate([x_m, x_stop])
    out = []
    for level in (0, 1):
        m, e = _legs(prob, lam, xa, xb, level, deriv=True)
        y, v, dy, dv = m[[1, 3, 5, 7], :n]
        r = m[:, n:]
        # right leg at x_m: (y, y') = adj(P) (1, u0), likewise its derivative,
        # all scaled by 2^-e
        yr, vr = r[3] - r[1] * u0, r[0] * u0 - r[2]
        dyr, dvr = r[7] - r[5] * u0, r[4] * u0 - r[6]
        l_m = e[n:] * math.log(2.0) + np.log(np.abs(yr))
        m_hat = (vr * dyr - yr * dvr) / (yr * yr)
        tail = np.exp(-2.0 * l_m) / (2.0 * xi)
        # the left leg's norm in units of 2^(2e)
        norm2 = y * dv - v * dy + y * y * (m_hat + tail)
        log_s = np.log(np.abs(y)) - l_m + xi * x_stop - 0.5 * np.log(norm2)
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append((np.ldexp(1.0 / norm2, -2 * e[:n]), log_s, v / y - vr / yr))
    C, log_s, mism = (_richardson(a, b) for a, b in zip(*out))
    if p.support_end is None:
        # a posteriori: every match lies past its turning point, and C is a norm
        bad = (om2 * eval_potential(p, x_m, 0) >= xi * xi) | ~(np.isfinite(C) & (C > 0))
        if bad.any():
            k = int(np.argmax(bad))
            raise BracketError(
                f"state {k + 1} of {n} (xi = {xi[k]:.17g}): x_match = {x_m[k]:.6g} "
                f"is not past the turning point or C = {C[k]:.3g} is not a norm")
    mism = np.where(np.isfinite(mism), np.abs(mism), np.inf)
    return [StateProfile(*map(float, row))
            for row in zip(xi, C, log_s, x_m, x_stop, mism)]


def characteristic_values(p: Potential, omega: float, xi: Sequence) -> np.ndarray:
    """C_j = phi_j'(0)^2 for the L2-normalized Dirichlet eigenfunctions.

    The normalization integral is computed on [0, X_stop] plus the analytic
    exponential tail C e^{-2 xi x} beyond it.
    """
    profs = _state_profiles(p, omega, np.asarray(xi, dtype=float))
    return np.array([s.C for s in profs])


def forward(p: Potential, omega: float, tol: float = DEFAULT_TOL,
            potential_id: str = "") -> SpectralData:
    """eigenvalues (xi to tol) + characteristic_values packaged as SpectralData."""
    xi = eigenvalues(p, omega, tol)
    C = characteristic_values(p, omega, xi) if len(xi) else np.empty(0)
    return SpectralData(
        omega=omega, xi=xi, C=C, q0=p.q0,
        q0_derivatives=tuple(p.q0_derivatives), potential_id=potential_id or p.kind,
    )


def squarewell_oracle(omega: float) -> SpectralData:
    """Exact square-well spectrum from the transcendental eigencondition.

    Roots of  xi sin(nu) + nu cos(nu) = 0  with nu = sqrt(omega^2 - xi^2),
    located by a nu-uniform scan (48 points per pi) plus bisection; C from
    the closed form 2 xi (omega^2 - xi^2) / (1 + xi).  Independent of the
    shooting path.
    """
    if omega < 1:
        raise ForwardError("squarewell_oracle needs omega >= 1")

    def h(nu):
        x2 = omega * omega - nu * nu
        xi = math.sqrt(max(x2, 0.0))
        return xi * math.sin(nu) + nu * math.cos(nu)

    nus = np.linspace(1e-9, omega * (1 - 1e-12), max(8, int(48 * omega / math.pi)))
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
