"""Forward and inverse spectral toolkit for -y'' - omega^2 Q y = lambda y.

Forward side: bound-state data (xi_j, C_j) of the half-line Dirichlet
operator, semiclassical (WKB) estimates, Jost function and the norming
identity.  Inverse side: determinant and kernel-plus-determinant
reconstructions of Q from the data, the small-dispersion determinant
profile, and a benchmark harness for convergence rates.

Importing the package loads numpy only.  The forward side is imported
eagerly.  The inverse side (glkernel, reconstruct) needs scipy.linalg, so
its names and the two submodules resolve on first access; scipy.linalg
loads then, or on importing slspec.glkernel or slspec.reconstruct.  No
forward solve or Jost identity check loads scipy; only wkb_spectrum and
squarewell_oracle load scipy.optimize, for brentq.  The package attributes
forward and jost are the functions, not the submodules.
"""

import importlib

from .potentials import (Decay, Potential, PotentialError, builtin,
                         eval_potential, make_potential, validate_class)
from .forward import (BracketError, ForwardError, SpectralData, calogero_bounds,
                      characteristic_values, count_above, count_states,
                      eigenvalues, forward, squarewell_oracle)
from .wkb import (WkbError, WkbProfile, action, predicted_count,
                  spacing_check, theta_plus, turning_point, wkb_spectrum)
from .jost import JostError, JostSample, jost, jost_bound, jost_identity_check
from .rates import (RateError, RateReport, SpectralEstimateReport,
                    convergence_report, lower_envelope, spectral_estimate_check,
                    vitushkin_c_inf, vitushkin_c_l1)

__version__ = "0.1.0"

__all__ = [
    "Decay", "Potential", "PotentialError", "builtin", "eval_potential",
    "make_potential", "validate_class",
    "BracketError", "ForwardError", "SpectralData",
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

# inverse-side name -> the submodule that defines it; a submodule maps to itself
_LAZY = {
    **dict.fromkeys(("glkernel", "KernelError", "KernelField", "coercivity_check",
                     "gh_values", "phi_diag_derivative", "phi_kernel",
                     "solve_kernel"), "glkernel"),
    **dict.fromkeys(("reconstruct", "ReconstructError", "ReconstructionResult",
                     "ScaledMatrix", "SingularFamilyError", "build_T", "build_W",
                     "lax_levermore", "reconstruct_gl0", "reconstruct_glm"),
                    "reconstruct"),
}


def __getattr__(name):
    """Import the submodule behind an inverse-side name on its first use."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
