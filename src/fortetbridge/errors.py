"""Exception types shared across the solver modules."""

from __future__ import annotations


class FortetBridgeError(Exception):
    """Base class for all library errors."""


class GridError(FortetBridgeError):
    """Invalid grid construction or a non-finite grid function."""


class FeasibilityError(FortetBridgeError):
    """A hard hypothesis check failed (or a suspected-divergent instance
    was passed to a solver without force=True)."""


class KernelSupportError(FortetBridgeError):
    """An inner integral against the kernel vanished where the target
    marginal is positive, so the system cannot be balanced."""


class InfeasibleParametersError(FortetBridgeError):
    """The analytic Gaussian pair does not exist for these parameters."""


class NonConvergenceError(FortetBridgeError):
    """Iteration cap reached without any termination trigger, or a Fortet
    solve whose marginal residuals exceed its bound (run_fortet).

    trace carries a Fortet run's step record, its fortet.StepLog of the
    steps taken (None from other solvers), so the caller can still write
    diagnostics (the CLI does exactly that before exiting with code 3).
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ConfigError(FortetBridgeError):
    """Malformed problem configuration or unreadable input file."""
