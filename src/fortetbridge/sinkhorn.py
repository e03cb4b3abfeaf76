"""Sinkhorn / iterative-proportional-fitting baseline.

Solves the same weighted scaling system as the fixed-point solver,

    u(x) * Int g(x,y) v(y) w2(y) dy = omega1(x)
    v(y) * Int g(x,y) u(x) w1(x) dx = omega2(y)

by alternating exact row and column fits.  (u, v) coincides with (phi, psi)
up to the ray rescaling, which makes this an independent cross-check of the
fixed-point path: the two share only the kernel matrix and the quadrature
weights.  Switches itself to log-domain arithmetic (logsumexp) when the
kernel's dynamic range cannot be represented directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.special import logsumexp

from .errors import KernelSupportError, NonConvergenceError
from .hilbert import ProjectiveDiameter, hilbert_distance, projective_diameter
from .problem import KernelOperator, MarginalPair

#: kernel entries below max_entry * LOG_DOMAIN_RATIO force log-domain updates
LOG_DOMAIN_RATIO = 1e-300


@dataclass(frozen=True)
class ScalingPair:
    u: np.ndarray
    v: np.ndarray
    iterations: int
    log_domain: bool
    final_change: float

    def __post_init__(self):
        self.u.setflags(write=False)
        self.v.setflags(write=False)

    @property
    def phi(self) -> np.ndarray:
        return self.u

    @property
    def psi(self) -> np.ndarray:
        return self.v


def _needs_log_domain(K: np.ndarray) -> bool:
    mx = float(K.max())
    if mx <= 0:
        return False
    positive = K[K > 0]
    return bool(positive.min() < LOG_DOMAIN_RATIO * mx) or bool(np.any(K == 0))


def _sup_log_change(new: np.ndarray, old: Optional[np.ndarray], mask: np.ndarray) -> float:
    if old is None:
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.abs(np.log(new[mask]) - np.log(old[mask]))
    return float(d.max()) if d.size else 0.0


def run_sinkhorn(kernel: KernelOperator, marginals: MarginalPair,
                 tol: float = 1e-10, max_iter: int = 10000,
                 collect_u: Optional[List[np.ndarray]] = None) -> ScalingPair:
    """Alternate u and v fits until both sup-log changes fall below tol.

    On exit the pair is normalized to max(u) = 1 (the products u_i * v_j,
    and hence the residuals, are unaffected).  Raises KernelSupportError
    when a denominator vanishes against a positive marginal node, and
    NonConvergenceError at the iteration cap.
    """
    om1 = marginals.omega1.values
    om2 = marginals.omega2.values
    m1 = om1 > 0
    m2 = om2 > 0
    K = kernel.values

    if _needs_log_domain(K):
        with np.errstate(divide="ignore"):
            logK = np.where(K > 0, np.log(np.where(K > 0, K, 1.0)), -np.inf)
            lw1, lw2 = np.log(kernel.grid1.weights), np.log(kernel.grid2.weights)
            lom1 = np.where(m1, np.log(np.where(m1, om1, 1.0)), -np.inf)
            lom2 = np.where(m2, np.log(np.where(m2, om2, 1.0)), -np.inf)
        lv = np.zeros(om2.shape)
        prev_lu: Optional[np.ndarray] = None
        prev_lv: Optional[np.ndarray] = None
        for it in range(1, max_iter + 1):
            den_u = logsumexp(logK + (lv + lw2)[None, :], axis=1)
            if np.any(np.isneginf(den_u) & m1):
                raise KernelSupportError("row integral vanished where omega1 > 0")
            lu = np.where(m1, lom1 - den_u, -np.inf)
            den_v = logsumexp(logK.T + (lu + lw1)[None, :], axis=1)
            if np.any(np.isneginf(den_v) & m2):
                raise KernelSupportError("column integral vanished where omega2 > 0")
            lv_new = np.where(m2, lom2 - den_v, -np.inf)
            if collect_u is not None:
                collect_u.append(np.where(m1, np.exp(lu - lu[m1].max()), 0.0))
            if prev_lu is None:
                change = math.inf
            else:
                change = max(float(np.max(np.abs(lu[m1] - prev_lu[m1]))),
                             float(np.max(np.abs(lv_new[m2] - prev_lv[m2]))))
            prev_lu, prev_lv = lu, lv_new
            lv = lv_new
            if change < tol:
                shift = lu[m1].max()
                with np.errstate(over="ignore", under="ignore"):
                    u = np.where(m1, np.exp(lu - shift), 0.0)
                    v = np.where(m2, np.exp(lv + shift), 0.0)
                return ScalingPair(u, v, it, True, change)
        raise NonConvergenceError(f"sinkhorn did not converge in {max_iter} iterations")

    u = np.zeros(om1.shape)
    v = np.ones(om2.shape)
    prev_u: Optional[np.ndarray] = None
    prev_v: Optional[np.ndarray] = None
    for it in range(1, max_iter + 1):
        den_u = kernel.apply(v)
        if np.any((den_u == 0) & m1):
            raise KernelSupportError("row integral vanished where omega1 > 0")
        u = np.where(m1, om1 / np.where(den_u > 0, den_u, 1.0), 0.0)
        den_v = kernel.apply_T(u)
        if np.any((den_v == 0) & m2):
            raise KernelSupportError("column integral vanished where omega2 > 0")
        v_new = np.where(m2, om2 / np.where(den_v > 0, den_v, 1.0), 0.0)
        if collect_u is not None:
            collect_u.append(u / u[m1].max())
        change = max(_sup_log_change(u, prev_u, m1),
                     _sup_log_change(v_new, prev_v, m2))
        prev_u, prev_v = u, v_new
        v = v_new
        if change < tol:
            scale = u[m1].max()
            return ScalingPair(u / scale, v * scale, it, False, change)
    raise NonConvergenceError(f"sinkhorn did not converge in {max_iter} iterations")


@dataclass(frozen=True)
class HilbertTrace:
    """Successive step sizes d_H(u_k, u_{k+1}) of the u-iterates on the
    omega1 support, their consecutive ratios, and the Birkhoff bound
    tanh(max(diam_rows, diam_cols)/4) that dominates the ratios when the
    diameters are finite (one full sweep composes two kernel applications,
    each a tanh(diam/4)-contraction).  The two diameters are kept for
    callers that report them."""

    distances: Tuple[float, ...]
    ratios: Tuple[float, ...]
    bound: float
    guaranteed: bool
    iterations: int
    diameter_columns: ProjectiveDiameter
    diameter_rows: ProjectiveDiameter


def sinkhorn_trace_hilbert(kernel: KernelOperator, marginals: MarginalPair,
                           tol: float = 1e-10, max_iter: int = 10000) -> HilbertTrace:
    """Run the scaling iteration recording the projective path of u.

    ratios[k] = distances[k+1] / distances[k]; pairs whose denominator has
    already collapsed to the roundoff floor are skipped (the step sequence
    ends in exact zeros once the iterates go bitwise stationary).
    """
    iterates: List[np.ndarray] = []
    pair = run_sinkhorn(kernel, marginals, tol=tol, max_iter=max_iter,
                        collect_u=iterates)
    m1 = marginals.omega1.values > 0
    distances = []
    for a, b in zip(iterates, iterates[1:]):
        am, bm = a[m1], b[m1]
        if np.any(am <= 0) or np.any(bm <= 0):
            distances.append(math.inf)
        elif np.array_equal(am, bm):
            distances.append(0.0)
        else:
            distances.append(hilbert_distance(am, bm))
    floor = 1e-300
    ratios = []
    for a, b in zip(distances, distances[1:]):
        if math.isfinite(a) and a > floor:
            ratios.append(b / a)
    d_col = projective_diameter(kernel.values)
    d_row = projective_diameter(kernel.values.T)
    worst = max(d_col.value, d_row.value)
    if math.isfinite(worst):
        bound, guaranteed = math.tanh(worst / 4.0), d_col.exact and d_row.exact
    else:
        bound, guaranteed = 1.0, False
    return HilbertTrace(tuple(distances), tuple(ratios), bound,
                        guaranteed, pair.iterations, d_col, d_row)
