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
    """Iteration cap reached without any termination trigger.

    Carries the run's step record, one StepRecord of scalars per step, so
    the caller can still write diagnostics (the CLI does exactly that before
    exiting with code 3).
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class ConfigError(FortetBridgeError):
    """Malformed problem configuration or unreadable input file."""
