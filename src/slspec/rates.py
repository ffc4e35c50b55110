"""Explicit approximation-theory constants, bound envelopes, and rate fits.

The closed-form constants C_inf(l, s) and C_L1(l, s) are the lower-bound
prefactors for approximating the Hoelder class by polynomially parametrized
families; [l] is interpreted as ceil(l) - 1 so that [l] + 1 matches the
class convention at integer l.  The (omega ln omega)^-(m+1) envelope is a
worst-case floor over a function class, so benchmark fits report it
informationally and never assert it per potential.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .forward import SpectralData


class RateError(ValueError):
    pass


def _bracket_l(l: float) -> int:
    return int(math.ceil(l)) - 1


def vitushkin_c_inf(l: float, s: int) -> float:
    """C_inf(l, s) = 1 / (sqrt(s) 2^(l+1) 8^(l/s) ([l]+1)^([l]+1)
    (4(1+e))^(s([l]+1)))."""
    if l <= 0 or s < 1:
        raise RateError("need l > 0 and integer s >= 1")
    m1 = _bracket_l(l) + 1
    return 1.0 / (math.sqrt(s) * 2.0 ** (l + 1) * 8.0 ** (l / s)
                  * float(m1) ** m1 * (4.0 * (1.0 + math.e)) ** (s * m1))


def vitushkin_c_l1(l: float, s: int) -> float:
    """C_L1(l, s) = (([l]+1)!)^(2s) / (5 sqrt(s) 2^(l+2) 18^(l/s)
    ([l]+1)^([l]+1) ((2[l]+3)!)^s (1+e)^(s([l]+1)))."""
    if l <= 0 or s < 1:
        raise RateError("need l > 0 and integer s >= 1")
    m = _bracket_l(l)
    m1 = m + 1
    return (math.factorial(m1) ** (2 * s)
            / (5.0 * math.sqrt(s) * 2.0 ** (l + 2) * 18.0 ** (l / s)
               * float(m1) ** m1 * math.factorial(2 * m + 3) ** s
               * (1.0 + math.e) ** (s * m1)))


def lower_envelope(omega: float, m: int, case: str = "mp1") -> float:
    """(omega ln omega)^-3 for case 'm1', (omega ln omega)^-(m+1) for 'mp1'."""
    if omega <= math.e:
        raise RateError("envelope needs omega > e (log must be positive)")
    if case == "m1":
        p = 3
    elif case == "mp1":
        p = m + 1
    else:
        raise RateError(f"unknown envelope case {case!r}")
    return (omega * math.log(omega)) ** (-p)


@dataclass
class MarginReport:
    j: int
    xi: float
    ratio_C: float          # 4 xi^2 / C_j
    xi_low_margin: float    # xi_j / lower envelope
    xi_high_margin: float   # upper envelope / xi_j
    log_ratio: float        # ln(4 xi^2/C)


@dataclass
class SpectralEstimateReport:
    omega: float
    passed: bool
    margins: list
    alpha_fit: float        # fitted prefactor of |ln(4 xi^2/C)| <= beta w^gamma + ln alpha
    beta_fit: float
    gamma_range: tuple = (1.0, 2.0)

    @property
    def vacuous(self) -> bool:
        return not self.margins


def spectral_estimate_check(sd: SpectralData, compact: dict) -> SpectralEstimateReport:
    """Verify the compact-class eigenvalue bracket and report the fitted
    characteristic-value growth.

    Checks xi_j in [(pi^2/256) / a / omega^(k1/(k2-2)), omega sqrt(Q(0))]
    and records the per-state margins.  The bracket bounds xi = omega eta
    itself, not eta.  The exponential bound on 4 xi^2/C has proved
    existence but unspecified constants, so (alpha, beta) are reported from
    the data with gamma treated as lying in [1, 2].
    """
    a = float(compact.get("a", 1.0))
    k1 = float(compact.get("k1", 4))
    k2 = float(compact.get("k2", 4))
    q0 = float(compact.get("q0", sd.q0))
    om = sd.omega
    if sd.count == 0:
        return SpectralEstimateReport(om, True, [], 0.0, 0.0)
    # the existence proof leaves its prefactor unspecified; pi^2/256 is the
    # worked-example constant and the decay ratio only weakens it
    lo = (math.pi ** 2 / 256.0) / a / om ** (k1 / (k2 - 2.0))
    hi = om * math.sqrt(q0)
    margins = []
    ok = True
    logs = []
    for j, (x, c) in enumerate(zip(sd.xi, sd.C), start=1):
        r = 4.0 * x * x / c
        margins.append(MarginReport(
            j=j, xi=float(x), ratio_C=float(r),
            xi_low_margin=float(x / lo), xi_high_margin=float(hi / x * (1 + 1e-12)),
            log_ratio=float(math.log(r)),
        ))
        ok = ok and (x >= lo * (1 - 1e-12)) and (x <= hi * (1 + 1e-9))
        logs.append(abs(math.log(r)))
    # |ln(4 xi^2/C)| <= beta omega^gamma + ln(alpha): fit with gamma = 2
    beta = max(logs) / om ** 2
    alpha = math.exp(max(0.0, max(logs) - beta * om ** 2))
    return SpectralEstimateReport(om, ok, margins, alpha, beta)


@dataclass
class RateReport:
    samples: list                  # (omega, error) pairs
    fitted_exponent: float
    fitted_log_factor: float       # ln K of the fitted prefactor
    envelope_kind: str             # neg_lower_bound | gl0_rate | glm_rate
    passed: bool
    fit_residual: float
    monotone: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "samples": [[float(a), float(b)] for a, b in self.samples],
            "fitted_exponent": float(self.fitted_exponent),
            "fitted_log_factor": float(self.fitted_log_factor),
            "envelope_kind": self.envelope_kind,
            "pass": bool(self.passed),
            "fit_residual": float(self.fit_residual),
            "monotone": bool(self.monotone),
            "note": self.note,
        }


def _tls_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """Total-least-squares line y ~ a + b x via the SVD of centered data."""
    xc = x - x.mean()
    yc = y - y.mean()
    A = np.column_stack([xc, yc])
    _, _, vt = np.linalg.svd(A, full_matrices=False)
    nx, ny = vt[-1]
    if abs(ny) < 1e-300:
        raise RateError("degenerate fit (vertical line)")
    b = -nx / ny
    a = y.mean() - b * x.mean()
    resid = float(np.sqrt(np.mean((y - a - b * x) ** 2)))
    return a, b, resid


def convergence_report(samples: Sequence, envelope_kind: str, m: int = 1) -> RateReport:
    """Fit the decay exponent of benchmark errors and judge the envelope.

    gl0_rate removes the guaranteed ln(omega) factor before fitting and
    passes when the exponent reaches 1/2 - 0.02; glm_rate fits a pure power and
    passes on any genuine decay (the stated 1/omega^m constant is not
    desk-reproducible); neg_lower_bound compares against the worst-case
    floor (omega ln omega)^-(m+1) informationally and always passes.
    """
    pts = [(float(a), float(b)) for a, b in samples]
    if len(pts) < 3:
        raise RateError("insufficient samples: need at least 3 (omega, error) pairs")
    om = np.array([p[0] for p in pts])
    er = np.array([p[1] for p in pts])
    if np.any(np.diff(om) <= 0):
        raise RateError("omega values must be strictly increasing")
    if np.any(er <= 0):
        raise RateError("errors must be positive")
    monotone = bool(np.all(np.diff(er) < 0))

    if envelope_kind == "gl0_rate":
        y = np.log(er) - np.log(np.log(om))
        a, b, resid = _tls_fit(np.log(om), y)
        expo = -b
        passed = monotone and expo >= 0.5 - 0.02
        note = "exponent after removing the ln(omega) factor; floor 0.5"
    elif envelope_kind == "glm_rate":
        a, b, resid = _tls_fit(np.log(om), np.log(er))
        expo = -b
        passed = monotone and expo > 0.0
        note = f"pure power fit; stated class rate would be {m}"
    elif envelope_kind == "neg_lower_bound":
        y = np.log(er)
        a, b, resid = _tls_fit(np.log(om * np.log(om)), y)
        expo = -b
        passed = True
        note = (f"worst-case floor exponent would be {m + 1}; informational "
                "only (the floor is over a class, not per potential)")
    else:
        raise RateError(f"unknown envelope kind {envelope_kind!r}")
    return RateReport(samples=pts, fitted_exponent=float(expo),
                      fitted_log_factor=float(a), envelope_kind=envelope_kind,
                      passed=passed, fit_residual=resid, monotone=monotone,
                      note=note)
