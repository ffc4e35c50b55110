"""Forward and inverse spectral toolkit for -y'' - omega^2 Q y = lambda y.

Forward side: bound-state data (xi_j, C_j) of the half-line Dirichlet
operator, semiclassical (WKB) estimates, Jost function and the norming
identity.  Inverse side: determinant and kernel-plus-determinant
reconstructions of Q from the data, the small-dispersion determinant
profile, and a benchmark harness for convergence rates.

Importing the package loads numpy and scipy.linalg; the Jost names load
slspec.jost, and with it scipy's ODE and root-finding code, on first access.
"""

import importlib
import sys
import types

from .potentials import (Decay, Potential, PotentialError, builtin,
                         eval_potential, make_potential, validate_class)
from .forward import (BracketError, ForwardError, SolverOptions, SpectralData,
                      calogero_bounds, characteristic_values, count_above,
                      count_states, eigenvalues, forward, squarewell_oracle)
from .wkb import (WkbError, WkbProfile, action, predicted_count,
                  spacing_check, theta_plus, turning_point, wkb_spectrum)
from .glkernel import (KernelError, KernelField, coercivity_check, gh_values,
                       phi_diag_derivative, phi_kernel, solve_kernel)
from .reconstruct import (ReconstructError, ReconstructionResult, ScaledMatrix,
                          SingularFamilyError, build_T, build_W, lax_levermore,
                          reconstruct_gl0, reconstruct_glm)
from .rates import (RateError, RateReport, SpectralEstimateReport,
                    convergence_report, lower_envelope, spectral_estimate_check,
                    vitushkin_c_inf, vitushkin_c_l1)

__version__ = "0.1.0"

_JOST_NAMES = ("JostError", "JostSample", "jost", "jost_bound", "jost_identity_check")


def __getattr__(name):
    """The Jost names, loaded on first access (PEP 562)."""
    if name in _JOST_NAMES:
        # not `from . import jost`: its hasattr check would land back here
        return getattr(importlib.import_module(".jost", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Package(types.ModuleType):
    """Importing a submodule binds it as a package attribute; where a public
    function shares the submodule's name (forward, jost), keep the function."""

    def __setattr__(self, name, value):
        if name in __all__ and isinstance(value, types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = [
    "Decay", "Potential", "PotentialError", "builtin", "eval_potential",
    "make_potential", "validate_class",
    "BracketError", "ForwardError", "SolverOptions", "SpectralData",
    "calogero_bounds", "characteristic_values", "count_above", "count_states",
    "eigenvalues", "forward", "squarewell_oracle",
    "WkbError", "WkbProfile", "action", "predicted_count", "spacing_check",
    "theta_plus", "turning_point", "wkb_spectrum",
    "KernelError", "KernelField", "coercivity_check", "gh_values",
    "phi_diag_derivative", "phi_kernel", "solve_kernel",
    "JostError", "JostSample", "jost", "jost_bound", "jost_identity_check",
    "ReconstructError", "ReconstructionResult", "ScaledMatrix", "build_T",
    "build_W", "lax_levermore", "reconstruct_gl0", "reconstruct_glm",
    "SingularFamilyError",
    "RateError", "RateReport", "SpectralEstimateReport", "convergence_report",
    "lower_envelope", "spectral_estimate_check", "vitushkin_c_inf",
    "vitushkin_c_l1",
    "__version__",
]
