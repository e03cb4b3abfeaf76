"""Sinkhorn / iterative-proportional-fitting baseline.

Solves the same weighted scaling system as the fixed-point solver,

    u(x) * Int g(x,y) v(y) w2(y) dy = omega1(x)
    v(y) * Int g(x,y) u(x) w1(x) dx = omega2(y)

by alternating exact row and column fits.  (u, v) coincides with (phi, psi)
up to the ray rescaling, which makes this an independent cross-check of the
fixed-point path: the two share only the kernel, the quadrature weights and
the marginals' fit (DensityField.over), which the fixed-point map also takes.
One stabilized loop serves every kernel: a scaling that leaves a window
around 1 is folded into a dense kernel exp(log g + log u + log v) (Schmitzer,
SIAM J. Sci. Comput. 2019, section 3), so its log stays finite far outside
float range.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import FeasibilityError, NonConvergenceError
from .hilbert import ContractionBound, ProjectiveDiameter, projective_diameter
from .problem import MASS_TOL, KernelOperator, MarginalPair
from .quadrature import Frozen

#: a sweep that leaves |log u| or |log v| above this folds both scalings
#: into the kernel and restarts them at 1
ABSORB_LOG = 100.0


class ScalingPair(Frozen):
    """Scalings on the ray where max(u) = 1 on the omega1 support, and their
    logs, finite on the supports where u or v leaves float range.
    hilbert_steps holds d_H(u_k, u_(k+1)) on the omega1 support for each
    sweep after the first."""

    def __init__(self, u: np.ndarray, v: np.ndarray, log_u: np.ndarray,
                 log_v: np.ndarray, iterations: int, hilbert_steps: Tuple[float, ...]):
        self._store(u=u, v=v, log_u=log_u, log_v=log_v, iterations=iterations,
                    hilbert_steps=hilbert_steps)

    @property
    def phi(self) -> np.ndarray:
        return self.u

    @property
    def psi(self) -> np.ndarray:
        return self.v


def _on_ray(u, v, a, b, m1) -> Tuple[np.ndarray, ...]:
    """(u e^a, v e^b) and their logs, rescaled so that u e^a peaks at 1 on
    the omega1 support.  The peak is found without leaving float range, and
    while nothing is absorbed (a = b = 0 on the supports) the pair is
    exactly (u / max u, v * max u)."""
    s = np.flatnonzero(m1)
    k = s[np.argmax(u[s] * np.exp(a[s] - a[s].max()))]
    return (np.exp(a - a[k]) * (u / u[k]), np.exp(b + a[k]) * (v * u[k]),
            a - a[k] + np.log(u / u[k]), b + a[k] + np.log(v * u[k]))


def _folded(kernel: KernelOperator, log_kernel: np.ndarray, a: np.ndarray,
            b: np.ndarray) -> KernelOperator:
    """The dense kernel exp(log_kernel + a (+) b) on kernel's grids, built in
    one buffer."""
    e = np.add(log_kernel, a[:, None])
    e += b[None, :]
    return KernelOperator((np.exp(e, out=e),), kernel.grid1, kernel.grid2, math.inf)


def _support_log(x: np.ndarray, name: str, sweep: int) -> Tuple[np.ndarray, float]:
    """(log x, max |log x|) of a scaling on its support.  An inf there is a
    scaling that overflowed: folded into the kernel, its log adds -inf + inf
    into the entries, whose NaN the fits read as 1, so that the sweeps run
    on to the cap; NonConvergenceError names it at the sweep it appears.  A
    0 (log -inf) folds a row or column of zeros, whose integral the next
    sweep's fit refuses with KernelSupportError."""
    log = np.log(x)
    top = float(np.max(np.abs(log)))
    if not math.isfinite(top) and not float(np.max(log)) < math.inf:
        raise NonConvergenceError(f"sinkhorn scaling {name} overflowed at sweep "
                                  f"{sweep}: its log is +inf on its support, and "
                                  "would fold NaN (-inf + inf) into the kernel")
    return log, top


@np.errstate(all="ignore")
def run_sinkhorn(kernel: KernelOperator, marginals: MarginalPair,
                 tol: float = 1e-10, max_iter: int = 10000) -> ScalingPair:
    """Alternate u and v fits until both sup-log changes fall below tol.

    The fits run on op, the kernel with the log-scalings (a, b) folded in,
    so the true scalings are u e^a and v e^b; op is the kernel itself until
    a scaling leaves the ABSORB_LOG window.  On exit the pair is normalized
    to max(u) = 1 (the products u_i * v_j, and hence the residuals, are
    unaffected).  Each sweep's Hilbert step is max - min of the change in
    log u that the stopping rule reads; an absorption restarts that change
    from 0, so it stays the change of the true scalings.  Each fit is the
    marginal's own (DensityField.over), which raises KernelSupportError
    when its integral vanishes at a support node; NonConvergenceError at
    the cap, or at the first sweep whose u or v overflows on its support
    (_support_log).  Marginals whose masses differ by more than MASS_TOL
    relative are refused up front with FeasibilityError: a fit matches one
    marginal's mass exactly, so no sweep count fits both.  The call runs
    under one np.errstate that ignores every float exception, its helpers'
    included: an inf kernel entry against a 0 makes an integral NaN, which
    its fit reads, and the logs of 0 scalings read -inf.
    """
    omega1, omega2 = marginals.omega1, marginals.omega2
    mass1, mass2 = omega1.mass(), omega2.mass()
    if not abs(mass1 - mass2) <= MASS_TOL * max(mass1, mass2):
        raise FeasibilityError(f"marginal masses differ ({mass1!r} against "
                               f"{mass2!r}): no scaling fits both")
    m1, m2 = omega1.support, omega2.support
    a = np.where(m1, 0.0, -np.inf)
    b = np.where(m2, 0.0, -np.inf)
    op, log_kernel = kernel, None
    v = np.ones(m2.shape)
    prev: Optional[Tuple[np.ndarray, np.ndarray]] = None
    steps = []
    for it in range(1, max_iter + 1):
        u = omega1.over(op.apply(v), "row integral", "omega1 > 0")
        log_u, top_u = _support_log(u[m1], "u", it)
        v = omega2.over(op.apply_T(u), "column integral", "omega2 > 0")
        log_v, top_v = _support_log(v[m2], "v", it)
        change = math.inf
        if prev is not None:
            du, dv = log_u - prev[0], log_v - prev[1]
            change = max(float(np.max(np.abs(du))), float(np.max(np.abs(dv))))
            steps.append(float(du.max() - du.min()))
        prev = log_u, log_v
        if change < tol:
            return ScalingPair(*_on_ray(u, v, a, b, m1), it, tuple(steps))
        if max(top_u, top_v) > ABSORB_LOG:
            if log_kernel is None:
                log_kernel = kernel.log_values
            a[m1] += log_u
            b[m2] += log_v
            op = None  # frees the last folded kernel before the next is built
            op = _folded(kernel, log_kernel, a, b)
            v = m2.astype(float)
            prev = np.zeros_like(log_u), np.zeros_like(log_v)
    raise NonConvergenceError(f"sinkhorn did not converge in {max_iter} iterations")


class HilbertTrace(NamedTuple):
    """Successive step sizes d_H(u_k, u_{k+1}) of the u-iterates on the
    omega1 support, their consecutive ratios, and the Birkhoff bound
    tanh(max(diam_rows, diam_cols)/4), guaranteed to dominate the ratios
    when both diameters are finite and exact (one full sweep composes two
    kernel applications, each a tanh(diam/4)-contraction;
    ContractionBound.of).  The two diameters are kept for callers that
    report them."""

    distances: Tuple[float, ...]
    ratios: Tuple[float, ...]
    bound: float
    guaranteed: bool
    iterations: int
    diameter_columns: ProjectiveDiameter
    diameter_rows: ProjectiveDiameter


def sinkhorn_trace_hilbert(kernel: KernelOperator, marginals: MarginalPair,
                           tol: float = 1e-10, max_iter: int = 10000) -> HilbertTrace:
    """Run the scaling iteration and read the projective path of u from its
    Hilbert steps.

    ratios[k] = distances[k+1] / distances[k]; pairs whose denominator has
    already collapsed to the roundoff floor are skipped (the step sequence
    ends in exact zeros once the iterates go bitwise stationary).
    """
    pair = run_sinkhorn(kernel, marginals, tol=tol, max_iter=max_iter)
    distances = pair.hilbert_steps
    floor = 1e-300
    ratios = []
    for a, b in zip(distances, distances[1:]):
        if math.isfinite(a) and a > floor:
            ratios.append(b / a)
    d_col = projective_diameter(kernel.values)
    d_row = projective_diameter(kernel.values.T)
    c = ContractionBound.of(ProjectiveDiameter(max(d_col.value, d_row.value),
                                               d_col.exact and d_row.exact))
    return HilbertTrace(distances, tuple(ratios), c.ratio,
                        c.guaranteed, pair.iterations, d_col, d_row)
