"""Schrodinger-system potentials on quadrature grids.

Solves phi(x) Int g(x,y) psi(y) dy = omega1(x), psi(y) Int g(x,y) phi(x) dx
= omega2(y) for a bounded positive kernel g via Fortet's truncated
fixed-point scheme, cross-checked by an independent Sinkhorn scaling
baseline and, for Gaussian instances, a closed-form oracle.  Also exposes
Hilbert projective-metric diagnostics and bridge-level outputs (coupling,
KL objective, entropic time marginals).

Attribute access is lazy so the command-line entry point can configure
BLAS threading before numpy is first imported.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # quadrature
    "QuadratureGrid": "quadrature", "build_grid": "quadrature",
    # problem setup and feasibility
    "DensityField": "problem", "density_field": "problem",
    "gaussian_density": "problem", "MarginalPair": "problem",
    "KernelOperator": "problem", "gaussian_kernel": "problem",
    "table_kernel": "problem",
    "pushforward": "problem", "transition_normalized": "problem",
    "swapped_marginals": "problem", "check_assumptions": "problem",
    "condition_star": "problem", "bernstein_gaussian_condition": "problem",
    "bernstein_multivariate_condition": "problem",
    "difference_kernel_tails": "problem", "full_report": "problem",
    "FeasibilityReport": "problem",
    # fixed-point solver
    "FortetOptions": "fortet", "FortetSolution": "fortet",
    "IterationState": "fortet", "StepLog": "fortet",
    "omega_map": "fortet", "fortet_step": "fortet", "run_fortet": "fortet",
    "verify_uniqueness": "fortet",
    # scaling baseline
    "ScalingPair": "sinkhorn", "run_sinkhorn": "sinkhorn",
    "sinkhorn_trace_hilbert": "sinkhorn", "HilbertTrace": "sinkhorn",
    # projective metric
    "hilbert_distance": "hilbert", "projective_diameter": "hilbert",
    "birkhoff_contraction": "hilbert",
    "homogeneous_map_contraction_check": "hilbert",
    # bridge outputs
    "Coupling": "bridge", "build_coupling": "bridge",
    "kl_objective": "bridge", "prior_coupling": "bridge",
    "entropic_interpolation": "bridge", "gaussian_oracle": "bridge",
    "GaussianBridgeSolution": "bridge",
    # configuration
    "load_config": "config", "resolve_config": "config",
    "build_problem": "config", "load_problem": "config",
    "problem_hash": "config", "Problem": "config",
    # errors
    "FortetBridgeError": "errors", "GridError": "errors",
    "FeasibilityError": "errors", "KernelSupportError": "errors",
    "InfeasibleParametersError": "errors", "NonConvergenceError": "errors",
    "ConfigError": "errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
