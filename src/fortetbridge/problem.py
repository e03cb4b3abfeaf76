"""Kernels, marginals, and feasibility checks for the Schrodinger system.

The solvable instance is a bounded positive kernel g(x, y) on a product of
quadrature grids plus two nonnegative unit-mass marginals (omega1, omega2).
This module validates the standing hypotheses (nonnegativity, boundedness,
row/column positivity, continuity smoke checks), evaluates the integrability
condition that gates the fixed-point existence argument, and screens
difference kernels U(x - y) for the monotone-tail property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import FeasibilityError, GridError, KernelSupportError
from .quadrature import GridFunction, QuadratureGrid, integrate

MASS_TOL = 1e-8
#: tail-slope above this (per unit |y|^2) flags the integrability estimate
#: as suspected-divergent; slopes within +/- the tolerance count as flat.
TAIL_SLOPE_TOL = 1e-8
#: minimum fraction of the profile span a monotone tail must cover before
#: we accept a truncated difference kernel as having monotone tails.
MIN_TAIL_FRACTION = 0.2


# --------------------------------------------------------------------------
# data types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityField:
    """Nonnegative sampled density on a grid.

    Marginals are renormalized to unit mass on construction (the helper
    `density_field` does it); intermediate products like interpolation
    marginals may carry renormalize=False and any mass.
    """

    grid: QuadratureGrid
    values: np.ndarray
    renormalized: bool = True

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_nodes,):
            raise GridError("density values must match grid node count")
        if not np.all(np.isfinite(values)):
            raise GridError("density contains non-finite values")
        if np.any(values < 0):
            idx = int(np.flatnonzero(values < 0)[0])
            raise FeasibilityError(f"density negative at node {idx}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def mass(self) -> float:
        return integrate(GridFunction(self.grid, self.values))

    @cached_property
    def support(self) -> np.ndarray:
        """The nodes where the density is positive (read-only)."""
        support = self.values > 0
        support.setflags(write=False)
        return support

    def over(self, integral: np.ndarray, what: str, where: str) -> np.ndarray:
        """values / integral on the support and 0 off it: the fit of one
        marginal equation f * integral = values, which both solvers take.

        An integral of 0 at a support node cannot be fitted: it raises
        KernelSupportError, "<what> vanished at nodes [...] where <where>",
        naming the first 8 such nodes.  One neither positive nor 0 (NaN,
        negative) reads as 1.
        """
        S = self.support
        if not (integral[S] > 0).all():
            bad = np.flatnonzero(S & (integral == 0))
            if bad.size:
                raise KernelSupportError(f"{what} vanished at nodes "
                                         f"{bad[:8].tolist()} where {where}")
            integral = np.where(integral > 0, integral, 1.0)
        with np.errstate(over="ignore", under="ignore"):
            return np.divide(self.values, integral, out=np.zeros(S.shape), where=S)


def density_field(grid: QuadratureGrid, values, renormalize: bool = True) -> DensityField:
    values = np.asarray(values, dtype=float)
    if renormalize:
        m = float(np.sum(grid.weights * values))
        if m <= 0:
            raise FeasibilityError("cannot renormalize a density with zero mass")
        values = values / m
    return DensityField(grid, values, renormalized=renormalize)


def gaussian_density(grid: QuadratureGrid, sigma) -> DensityField:
    """Centered Gaussian marginal, renormalized to unit quadrature mass."""
    if grid.dim == 1:
        s = float(sigma)
        if s <= 0:
            raise FeasibilityError("sigma must be positive")
        vals = np.exp(-grid.nodes ** 2 / (2.0 * s * s)) / math.sqrt(2.0 * math.pi * s * s)
    else:
        cov = np.atleast_2d(np.asarray(sigma, dtype=float))
        if cov.shape == (1, 1):
            cov = np.eye(grid.dim) * cov[0, 0]
        _require_spd(cov, "marginal covariance")
        prec = np.linalg.inv(cov)
        q = np.einsum("ni,ij,nj->n", grid.nodes, prec, grid.nodes)
        vals = np.exp(-0.5 * q) / math.sqrt((2.0 * math.pi) ** grid.dim * np.linalg.det(cov))
    return density_field(grid, vals, renormalize=True)


@dataclass(frozen=True)
class MarginalPair:
    omega1: DensityField
    omega2: DensityField


@dataclass(frozen=True)
class KernelOperator:
    """Discretized kernel g(x_i, y_j) with its uniform upper bound.

    heat_sigma is sigma when this is the analytic heat kernel N(y - x;
    sigma^2 I) and None for any other kernel; is_difference marks kernels of
    the form U(x - y), which is what the monotone-tail screen and the
    heat-kernel interpolation need.

    factors are what apply / apply_T contract and what the hypothesis checks
    read.  A dense kernel has one factor, the n1 x n2 matrix.  The heat
    kernel on two tensor grids has one nonnegative 1-D factor per grid axis,
    in the axes' order, and the kernel is their Kronecker product: a product
    then costs one small matrix product per axis instead of a pass over the
    n1 x n2 matrix.  values is that matrix, reduce(np.kron, factors); for a
    product kernel it is built on first read and cached, and solving never
    reads it.
    """

    factors: Tuple[np.ndarray, ...]
    grid1: QuadratureGrid
    grid2: QuadratureGrid
    sigma_bound: float
    heat_sigma: Optional[float] = None
    is_difference: bool = False

    def __post_init__(self):
        factors = tuple(np.asarray(a, dtype=float) for a in self.factors)
        if len(factors) == 1:
            if factors[0].shape != (self.grid1.n_nodes, self.grid2.n_nodes):
                raise GridError("kernel matrix shape must be (n1, n2)")
        else:
            if not factors or [a.shape for a in factors] != [
                    (len(a1), len(a2)) for a1, a2 in zip(self.grid1.axes, self.grid2.axes)]:
                raise GridError("kernel factors must be (n1, n2) per grid axis")
            # the checks read a product's row maxima as the product of the
            # factors' row maxima, which needs nonnegative factors
            if not all(np.all(a >= 0) for a in factors):
                raise GridError("kernel factors must be nonnegative")
        for a in factors:
            a.setflags(write=False)
        object.__setattr__(self, "factors", factors)

    @cached_property
    def values(self) -> np.ndarray:
        """The n1 x n2 kernel matrix; a dense kernel's one factor itself."""
        values = reduce(np.kron, self.factors)
        values.setflags(write=False)
        return values

    @property
    def log_values(self) -> np.ndarray:
        """log of the kernel matrix.  For the heat kernel it is the formula
        -|x - y|^2 / 2 sigma^2 - (d/2) log(2 pi sigma^2), finite where
        values underflows to 0; for any other kernel it is log(values)."""
        s = self.heat_sigma
        if s is None:
            with np.errstate(divide="ignore"):
                return np.log(self.values)
        d = self.grid1.dim
        x, y = (g.nodes.reshape(g.n_nodes, d) for g in (self.grid1, self.grid2))
        # in one buffer (and one more per further axis), rounded as
        # -sum_k (x_k - y_k)**2 / (2 s^2) - (d/2) log(2 pi s^2) rounds
        e = np.subtract.outer(x[:, 0], y[:, 0])
        np.square(e, out=e)
        for k in range(1, d):
            t = np.subtract.outer(x[:, k], y[:, k])
            e += np.square(t, out=t)
        np.negative(e, out=e)
        e /= 2.0 * s * s
        e -= 0.5 * d * math.log(2.0 * math.pi * s * s)
        return e

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Int g(x, y) f(y) dy: the kernel against grid2's quadrature weights."""
        return _contract(self.factors, self.grid2.weights * f)

    def apply_T(self, f: np.ndarray) -> np.ndarray:
        """Int g(x, y) f(x) dx: the transposed kernel against grid1's weights."""
        return _contract([a.T for a in self.factors], self.grid1.weights * f)

    def swapped(self) -> "KernelOperator":
        return KernelOperator(tuple(a.T.copy() for a in self.factors),
                              self.grid2, self.grid1, self.sigma_bound,
                              self.heat_sigma, self.is_difference)


def _contract(factors: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """(A_1 kron ... kron A_d) @ x, one matrix product per factor.

    x is flat in 'ij' order (last axis fastest).  Each product contracts the
    leading axis and its transpose rotates that axis to the back, so after d
    products the axes are back in order; for d = 2 this is A_1 @ X @ A_2.T.
    """
    if len(factors) == 1:
        return factors[0] @ x
    # x is rebound before each product, so the contiguous copy that reshape
    # makes of a transposed product never coexists with that product
    for a in factors:
        x = x.reshape(a.shape[1], -1)
        x = (a @ x).T
    return x.reshape(-1)


def swapped_marginals(marginals: MarginalPair) -> MarginalPair:
    return MarginalPair(marginals.omega2, marginals.omega1)


def _heat_factor(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """1-D heat kernel N(b - a; s^2) between two coordinate arrays."""
    peak = 1.0 / math.sqrt(2.0 * math.pi * s * s)
    # in one buffer, rounded as peak * exp(-(a - b)**2 / (2 s^2)) rounds.
    # At numpy's default buffer size the broadcast difference also allocates
    # two 64 KiB ufunc buffers; at the smallest size, 16 elements, ~1.5 kB
    bufsize = np.setbufsize(16)
    try:
        e = np.subtract.outer(a, b)
    finally:
        np.setbufsize(bufsize)
    np.square(e, out=e)
    np.negative(e, out=e)
    e /= 2.0 * s * s
    np.exp(e, out=e)
    e *= peak
    return e


def gaussian_kernel(grid1: QuadratureGrid, grid2: QuadratureGrid, sigma: float) -> KernelOperator:
    """Heat kernel g(x, y) = N(y - x; sigma^2) evaluated pointwise.

    The isotropic kernel is the product of 1-D kernels, one per coordinate.
    On two grids with axes that is a Kronecker product of per-axis factors,
    which the operator keeps; a grid without axes gets one dense factor.
    """
    s = float(sigma)
    if s <= 0:
        raise FeasibilityError("kernel sigma must be positive")
    if grid1.dim != grid2.dim:
        raise GridError("kernel grids must share dimension")
    d = grid1.dim
    if grid1.axes and grid2.axes:
        factors = tuple(_heat_factor(a, b, s) for a, b in zip(grid1.axes, grid2.axes))
    else:
        x = grid1.nodes.reshape(grid1.n_nodes, d)
        y = grid2.nodes.reshape(grid2.n_nodes, d)
        vals = 1.0
        for k in range(d):
            vals = vals * _heat_factor(x[:, k], y[:, k], s)
        factors = (vals,)
    # strict upper bound: the sup is attained on the diagonal, so pad it
    peak = 1.0 / math.sqrt((2.0 * math.pi * s * s) ** d)
    bound = peak * (1.0 + 1e-9)
    return KernelOperator(factors, grid1, grid2, bound, heat_sigma=s,
                          is_difference=True)


def gaussian_multivariate_kernel(grid1: QuadratureGrid, grid2: QuadratureGrid,
                                 Sigma) -> KernelOperator:
    cov = np.atleast_2d(np.asarray(Sigma, dtype=float))
    _require_spd(cov, "kernel covariance")
    d = grid1.dim
    if cov.shape != (d, d):
        raise GridError("kernel covariance must be d x d")
    prec = np.linalg.inv(cov)
    delta = grid1.nodes[:, None, :] - grid2.nodes[None, :, :]
    q = np.einsum("nmi,ij,nmj->nm", delta, prec, delta)
    peak = 1.0 / math.sqrt((2.0 * math.pi) ** d * np.linalg.det(cov))
    vals = peak * np.exp(-0.5 * q)
    bound = peak * (1.0 + 1e-9)
    return KernelOperator((vals,), grid1, grid2, bound, is_difference=True)


def table_kernel(grid1: QuadratureGrid, grid2: QuadratureGrid, values) -> KernelOperator:
    vals = np.asarray(values, dtype=float)
    vmax = float(vals.max()) if vals.size else 0.0
    bound = vmax * (1.0 + 1e-9) if vmax > 0 else 1.0
    return KernelOperator((vals,), grid1, grid2, bound,
                          is_difference=_detect_difference_structure(grid1, grid2, vals))


def pushforward(kernel: KernelOperator, omega1: DensityField) -> DensityField:
    """Kernel image of omega1: omega2(y) = sum_x w1(x) g(x, y) omega1(x).

    Grid-exact by construction: the solver's inner integral reproduces these
    values bitwise when started at the constant function, which is what makes
    the pushforward instance terminate immediately.
    """
    return DensityField(kernel.grid2, kernel.apply_T(omega1.values), renormalized=False)


def transition_normalized(kernel: KernelOperator) -> KernelOperator:
    """Rescale each x-row so its quadrature mass over y equals exactly 1."""
    row_mass = kernel.apply(np.ones(kernel.grid2.n_nodes))
    if np.any(row_mass <= 0):
        raise FeasibilityError("cannot row-normalize: a kernel row has zero mass")
    vals = kernel.values / row_mass[:, None]
    bound = float(vals.max()) * (1.0 + 1e-9)
    return KernelOperator((vals,), kernel.grid1, kernel.grid2, bound)


# --------------------------------------------------------------------------
# hypothesis checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    status: str          # "pass" | "fail" | "best-effort-pass" | "best-effort-fail" | "skipped"
    detail: str = ""
    offending_nodes: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "best-effort-pass", "skipped")


@dataclass(frozen=True)
class ConditionStar:
    """Truncated-grid estimate of integral of omega2 / (g * omega1).

    The underlying condition is about an improper integral, which a finite
    grid cannot decide; the verdict is the estimate plus a tail-slope
    heuristic (log-integrand slope against |y|^2 over the outer 20% of the
    grid), never a proof.
    """

    estimate: float
    verdict: str              # "finite" | "suspected-divergent"
    tail_exponent: float
    zero_denominator_nodes: Tuple[int, ...] = ()


@dataclass(frozen=True)
class DifferenceKernelResult:
    status: str               # "pass" | "fail" | "not-applicable"
    condition: Optional[int] = None    # 1 = unimodal-type tails, 2 = mirrored
    T1: Optional[float] = None
    T2: Optional[float] = None
    detail: str = ""


@dataclass(frozen=True)
class FeasibilityReport:
    hypotheses: Dict[str, CheckResult]
    condition_star: Optional[ConditionStar] = None
    swap_recommended: bool = False
    difference_kernel: Optional[DifferenceKernelResult] = None

    @property
    def hard_checks_pass(self) -> bool:
        return all(r.ok for r in self.hypotheses.values())

    @property
    def solver_admissible(self) -> bool:
        if not self.hard_checks_pass:
            return False
        if self.condition_star is not None:
            return self.condition_star.verdict == "finite"
        return True


def _require_spd(mat: np.ndarray, what: str) -> None:
    if mat.shape[0] != mat.shape[1] or not np.allclose(mat, mat.T, atol=1e-12):
        raise FeasibilityError(f"{what} must be symmetric")
    if np.linalg.eigvalsh(mat).min() <= 0:
        raise FeasibilityError(f"{what} must be positive definite")


def _smoothness_smoke(values: np.ndarray) -> CheckResult:
    """Crude first-difference screen: flags near-discontinuities only."""
    if values.ndim != 1:
        return CheckResult("skipped", "continuity smoke check is 1-D only")
    scale = float(np.max(np.abs(values)))
    if scale == 0:
        return CheckResult("best-effort-pass", "identically zero")
    jumps = np.abs(np.diff(values))
    worst = float(jumps.max()) / scale
    if worst > 0.5:
        idx = int(np.argmax(jumps))
        return CheckResult("best-effort-fail",
                           f"jump of {worst:.2g} x scale between nodes {idx} and {idx + 1}",
                           (idx,))
    return CheckResult("best-effort-pass", f"max relative jump {worst:.2g}")


def _extremes(kernel: KernelOperator, extreme: np.ufunc, axis: int) -> np.ndarray:
    """extreme.reduce (np.maximum, np.fmax or np.fmin) over every row
    (axis=1) or column (axis=0) of the kernel matrix.  A row of a Kronecker
    product is the product of one row per factor, and for nonnegative
    factors the extreme of those products is the product of the extremes,
    exactly, because rounding is monotone.  A one-factor kernel is reduced
    directly."""
    return reduce(np.kron, [extreme.reduce(a, axis=axis) for a in kernel.factors])


def _row(kernel: KernelOperator, i: int) -> np.ndarray:
    """Row i of the kernel matrix, from one row per factor."""
    index = np.unravel_index(i, [a.shape[0] for a in kernel.factors])
    return reduce(np.kron, [a[k] for a, k in zip(kernel.factors, index)])


def _hits(kernel: KernelOperator, rows: np.ndarray, hit):
    """Row-major (i, j) of the kernel entries where hit holds, lazily; rows
    flags the rows that hold one, and only those rows are built."""
    for i in np.flatnonzero(rows):
        for j in np.flatnonzero(hit(_row(kernel, i))):
            yield int(i), int(j)


def check_assumptions(kernel: KernelOperator, marginals: MarginalPair) -> FeasibilityReport:
    """Exact grid checks for the standing hypotheses; continuity best-effort.

    Reads the kernel's factors and never builds its matrix: row and column
    extremes come from per-factor extremes, and only a row that holds an
    offending entry is built.  Never raises on a failed check: the report
    lists offending node indices and the caller decides (solvers refuse
    inadmissible instances unless forced).
    """
    checks: Dict[str, CheckResult] = {}
    # a NaN entry is neither negative nor positive, so those two checks
    # reduce with fmin / fmax, which skip it; it does breach the bound
    neg = list(_hits(kernel, _extremes(kernel, np.fmin, axis=1) < 0, lambda r: r < 0))
    checks["kernel_nonnegative"] = (
        CheckResult("pass") if not neg else
        CheckResult("fail", f"{len(neg)} negative entries", neg[0])
    )
    bound = kernel.sigma_bound
    over = next(_hits(kernel, ~(_extremes(kernel, np.maximum, axis=1) < bound),
                      lambda r: ~(r < bound)), None)
    checks["kernel_bounded"] = (
        CheckResult("pass", f"bound {bound:.6g}") if over is None else
        CheckResult("fail", f"entries reach the stated bound {bound:.6g}", over)
    )

    for name, dens in (("marginal1", marginals.omega1), ("marginal2", marginals.omega2)):
        bad = np.flatnonzero(dens.values < 0)
        checks[f"{name}_nonnegative"] = (
            CheckResult("pass") if bad.size == 0 else
            CheckResult("fail", "negative density values", tuple(int(i) for i in bad[:8]))
        )
        m = dens.mass()
        checks[f"{name}_unit_mass"] = (
            CheckResult("pass", f"mass {m!r}") if abs(m - 1.0) <= MASS_TOL else
            CheckResult("fail", f"mass {m!r} deviates from 1 by {abs(m - 1.0):.3g}")
        )

    row_ok = _extremes(kernel, np.fmax, axis=1) > 0
    col_ok = _extremes(kernel, np.fmax, axis=0) > 0
    checks["kernel_rows_positive"] = (
        CheckResult("pass") if row_ok.all() else
        CheckResult("fail", "all-zero kernel rows",
                    tuple(int(i) for i in np.flatnonzero(~row_ok)[:8]))
    )
    checks["kernel_columns_positive"] = (
        CheckResult("pass") if col_ok.all() else
        CheckResult("fail", "all-zero kernel columns",
                    tuple(int(j) for j in np.flatnonzero(~col_ok)[:8]))
    )

    # best-effort smoke checks (full continuity is not grid-decidable)
    if kernel.grid1.dim == 1:
        g = kernel.values  # a 1-D kernel is its one factor
        checks["kernel_continuity"] = _smoothness_smoke(g[:, g.shape[1] // 2])
    else:
        checks["kernel_continuity"] = CheckResult("skipped", "dim > 1")
    checks["marginal1_continuity"] = _smoothness_smoke(marginals.omega1.values)
    checks["marginal2_continuity"] = _smoothness_smoke(marginals.omega2.values)

    return FeasibilityReport(hypotheses=checks)


def condition_star(kernel: KernelOperator, marginals: MarginalPair) -> ConditionStar:
    """Evaluate the integrability estimate and its tail-growth heuristic."""
    # pushforward's integral without its DensityField validation: a negative
    # or unbounded kernel must still get a report, not a raise
    denom = kernel.apply_T(marginals.omega1.values)
    omega2 = marginals.omega2
    zero_nodes = tuple(int(j) for j in np.flatnonzero((denom == 0) & omega2.support))
    if zero_nodes:
        return ConditionStar(math.inf, "suspected-divergent", math.inf, zero_nodes)

    integrand = omega2.over(denom, "integral of g*omega1", "omega2 > 0")
    estimate = float(np.sum(kernel.grid2.weights * integrand))

    # tail behavior: slope of log(integrand) against |y|^2 over the outer
    # 20% of the grid (by radius); positive slope means the truncated
    # integrand is still growing at the boundary.
    y = kernel.grid2.nodes
    r2 = y ** 2 if kernel.grid2.dim == 1 else np.sum(y * y, axis=1)
    rmax = float(np.max(np.sqrt(r2)))
    outer = (np.sqrt(r2) >= 0.8 * rmax) & (integrand > 0)
    if outer.sum() < 3:
        # no positive tail samples: the integrand died before the boundary,
        # which is the opposite of divergence
        return ConditionStar(estimate, "finite", -math.inf)
    slope = float(np.polyfit(r2[outer], np.log(integrand[outer]), 1)[0])
    verdict = "suspected-divergent" if slope > TAIL_SLOPE_TOL else "finite"
    return ConditionStar(estimate, verdict, slope)


def bernstein_gaussian_condition(sigma: float, sigma1: float, sigma2: float) -> bool:
    """Scalar Gaussian existence condition: sigma^2 + sigma1^2 - sigma2^2 > 0.

    Strict inequality; the boundary case (exact free evolution of the
    variance) is excluded.
    """
    if min(sigma, sigma1, sigma2) <= 0:
        raise FeasibilityError("standard deviations must be positive")
    return sigma * sigma + sigma1 * sigma1 - sigma2 * sigma2 > 0


def bernstein_multivariate_condition(S, S1, S2) -> bool:
    """Matrix form: all eigenvalues of S2^{-1} - (S + S1)^{-1} positive."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    S1 = np.atleast_2d(np.asarray(S1, dtype=float))
    S2 = np.atleast_2d(np.asarray(S2, dtype=float))
    for mat, what in ((S, "S"), (S1, "S1"), (S2, "S2")):
        _require_spd(mat, what)
    M = np.linalg.inv(S2) - np.linalg.inv(S + S1)
    return bool(np.linalg.eigvalsh((M + M.T) / 2.0).min() > 0)


# --------------------------------------------------------------------------
# difference-kernel monotone-tail screen
# --------------------------------------------------------------------------

def _detect_difference_structure(grid1: QuadratureGrid, grid2: QuadratureGrid,
                                 vals: np.ndarray) -> bool:
    if grid1.dim != 1 or grid2.dim != 1:
        return False
    dx = np.diff(grid1.nodes)
    dy = np.diff(grid2.nodes)
    if dx.size == 0 or dy.size == 0:
        return False
    if not (np.allclose(dx, dx[0], rtol=1e-9) and np.allclose(dy, dx[0], rtol=1e-9)):
        return False
    a = vals[1:, 1:]
    b = vals[:-1, :-1]
    scale = float(np.max(np.abs(vals))) or 1.0
    return bool(np.max(np.abs(a - b)) <= 1e-9 * scale)


def _difference_profile(kernel: KernelOperator) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Sampled (t, U(t)) with t ascending, or None if not a difference kernel."""
    if kernel.grid1.dim != 1:
        return None
    x = kernel.grid1.nodes
    y = kernel.grid2.nodes
    s = kernel.heat_sigma
    if s is not None:
        span = float(x.max() - y.min())
        t = np.linspace(-span, span, 4 * max(len(x), len(y)) + 1)
        return t, np.exp(-t * t / (2 * s * s)) / math.sqrt(2 * math.pi * s * s)
    if kernel.is_difference:
        # uniform shared spacing: t-values from the first row and first column
        ts = np.concatenate([x[0] - y[::-1], x[1:] - y[0]])
        us = np.concatenate([kernel.values[0, ::-1], kernel.values[1:, 0]])
        order = np.argsort(ts)
        return ts[order], us[order]
    return None


def _monotone_prefix_end(u: np.ndarray, atol: float) -> int:
    """Last index of the maximal non-decreasing prefix (tolerance -atol)."""
    drops = np.flatnonzero(np.diff(u) < -atol)
    return int(drops[0]) if drops.size else len(u) - 1


def difference_kernel_tails(kernel: KernelOperator) -> DifferenceKernelResult:
    """Screen a difference kernel U(x - y) for monotone tails.

    Condition 1: U non-decreasing left of some T1 and non-increasing right of
    some T2 >= T1; condition 2 is the mirror image.  On a truncated grid the
    quantifiers degenerate, so we accept either a unimodal profile (the two
    monotone runs overlap) or monotone runs that each cover at least
    MIN_TAIL_FRACTION of the sampled span.
    """
    prof = _difference_profile(kernel)
    if prof is None:
        return DifferenceKernelResult("not-applicable", detail="kernel is not of difference form")
    t, u = prof
    atol = 1e-12 * (float(np.max(np.abs(u))) or 1.0)
    span = t[-1] - t[0]

    def tails(vals):
        """(prefix-end index, suffix-start index) for non-decr/non-incr runs."""
        i_star = _monotone_prefix_end(vals, atol)
        j_star = len(vals) - 1 - _monotone_prefix_end(vals[::-1], atol)
        return i_star, j_star

    # condition 1: rising left tail, falling right tail
    i1, j1 = tails(u)
    if i1 >= j1:
        # unimodal: pick the peak as the common threshold
        return DifferenceKernelResult("pass", 1, float(t[j1]), float(t[i1]),
                                      "unimodal profile")
    if (t[i1] - t[0]) >= MIN_TAIL_FRACTION * span and (t[-1] - t[j1]) >= MIN_TAIL_FRACTION * span:
        return DifferenceKernelResult("pass", 1, float(t[i1]), float(t[j1]),
                                      "monotone tails beyond the thresholds")
    # condition 2: falling left tail, rising right tail (mirror)
    i2, j2 = tails(-u)
    if i2 >= j2:
        return DifferenceKernelResult("pass", 2, float(t[j2]), float(t[i2]),
                                      "unimodal valley profile")
    if (t[i2] - t[0]) >= MIN_TAIL_FRACTION * span and (t[-1] - t[j2]) >= MIN_TAIL_FRACTION * span:
        return DifferenceKernelResult("pass", 2, float(t[i2]), float(t[j2]),
                                      "monotone tails beyond the thresholds (mirrored)")
    return DifferenceKernelResult("fail", detail="no monotone-tail pattern found "
                                                 "(oscillatory or too-short runs)")


def full_report(kernel: KernelOperator, marginals: MarginalPair) -> FeasibilityReport:
    """Hypothesis checks + integrability estimate + swap advice + tail screen."""
    base = check_assumptions(kernel, marginals)
    cs = condition_star(kernel, marginals)
    swap = False
    if cs.verdict == "suspected-divergent":
        cs_swapped = condition_star(kernel.swapped(), swapped_marginals(marginals))
        swap = cs_swapped.verdict == "finite"
    diff = difference_kernel_tails(kernel)
    return FeasibilityReport(hypotheses=base.hypotheses, condition_star=cs,
                             swap_recommended=swap, difference_kernel=diff)
