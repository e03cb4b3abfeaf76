"""Bridge-level outputs: coupling, KL objective, entropic interpolation,
and the closed-form Gaussian oracle used to validate the iterative solvers.

The coupling density pi(x, y) = phi(x) g(x, y) psi(y) is the static bridge;
its time marginals rho_t come from propagating phi forward and psi backward
with the heat kernel at the interpolated scale.  For centered Gaussian
marginals and a Gaussian difference kernel everything is solvable in closed
form (two coupled scalar equations), which pins the potentials up to the
usual ray rescaling and gives machine-checkable reference values.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import FortetBridgeError, InfeasibleParametersError
from .problem import KernelOperator, MarginalPair, gaussian_from_scales, gaussian_kappa
from .quadrature import Frozen, QuadratureGrid

#: interpolated densities whose raw quadrature mass drifts from 1 by more
#: than this indicate a too-coarse grid or a too-small truncation radius
#: and are refused
MASS_DRIFT_TOL = 1e-4


class Coupling(Frozen):
    """The static bridge pi(x, y) = phi(x) g(x, y) psi(y), a density
    against dx x dy on grid1 x grid2.

    It is kept as its potentials, its kernel and its two marginal
    integrals, row = Int pi dy = phi * apply(psi) and col = Int pi dx =
    psi * apply_T(phi): the residuals, the mass and the KL objective read
    only these, so all four are locked against writes.  Each integral is 0
    wherever its potential is, also where the kernel's image is inf there
    (0 * inf would read NaN).  A residual is inf at a node where it is NaN
    (an inf potential against a vanishing integral).  The (n1, n2) array pi
    is built on first read, under the same rule.
    """

    def __init__(self, phi, psi, kernel: KernelOperator, marginals: MarginalPair):
        phi = np.asarray(phi, dtype=float)
        psi = np.asarray(psi, dtype=float)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            row, col = kernel.apply(psi), kernel.apply_T(phi)
            row[phi == 0] = 0.0
            col[psi == 0] = 0.0
            row *= phi
            col *= psi
        for value in (phi, psi, row, col):
            value.setflags(write=False)
        vars(self).update(phi=phi, psi=psi, kernel=kernel, marginals=marginals,
                          row=row, col=col)

    @property
    def grid1(self) -> QuadratureGrid:
        return self.kernel.grid1

    @property
    def grid2(self) -> QuadratureGrid:
        return self.kernel.grid2

    @property
    def row_marginal_resid(self) -> float:
        """sup | Int pi dy - omega1 |"""
        return _sup_resid(self.row, self.marginals.omega1.values)

    @property
    def col_marginal_resid(self) -> float:
        """sup | Int pi dx - omega2 |"""
        return _sup_resid(self.col, self.marginals.omega2.values)

    @property
    def mass(self) -> float:
        return float(self.grid1.weights @ self.row)

    @cached_property
    def pi(self) -> np.ndarray:
        """phi g psi, 0 in the rows and columns where phi or psi is 0, as
        row and col are there, also against an inf kernel entry."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            pi = self.phi[:, None] * self.kernel.values * self.psi[None, :]
        pi[self.phi == 0] = 0.0
        pi[:, self.psi == 0] = 0.0
        pi.setflags(write=False)
        return pi


def _sup_resid(integral: np.ndarray, omega: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):
        r = np.abs(integral - omega)
    return float(np.max(np.where(np.isnan(r), math.inf, r)))


def build_coupling(phi, psi, kernel: KernelOperator,
                   marginals: MarginalPair) -> Coupling:
    """The coupling pi = phi * g * psi with its marginal integrals: two
    kernel applies, and no (n1, n2) array until pi is read."""
    return Coupling(phi, psi, kernel, marginals)


def prior_coupling(kernel: KernelOperator, marginals: MarginalPair) -> np.ndarray:
    """Reference coupling omega1(x) g(x, y): the source marginal pushed
    through one kernel step.  The solved bridge minimizes KL against it."""
    return marginals.omega1.values[:, None] * kernel.values


class KLObjective(NamedTuple):
    value: float
    absolutely_continuous: bool       # False => pi charges a reference-null cell


def kl_objective(coupling: Coupling) -> KLObjective:
    """Quadrature KL divergence of pi against the prior coupling omega1 g.

    On every cell pi charges, log(pi / (omega1 g)) = log phi - log omega1 +
    log psi, so the sum of w1 w2 pi log(pi / (omega1 g)) is
    sum w1 row (log phi - log omega1) + sum w2 col log psi, over the nodes
    where row > 0 and col > 0 (0 log 0 = 0).  The two logs are taken apart:
    phi / omega1 can overflow where both are finite.  Mass is taken as given
    (no normalization); a positive row over omega1 = 0 charges a
    reference-null cell, which makes the divergence +inf and clears the
    absolute-continuity flag.
    """
    omega1 = coupling.marginals.omega1
    r = coupling.row > 0
    if np.any(r & ~omega1.support):
        return KLObjective(math.inf, False)
    om1 = omega1.values
    c = coupling.col > 0
    w1 = coupling.grid1.weights
    w2 = coupling.grid2.weights
    value = (float(np.sum(w1[r] * coupling.row[r]
                          * (np.log(coupling.phi[r]) - np.log(om1[r]))))
             + float(np.sum(w2[c] * coupling.col[c] * np.log(coupling.psi[c]))))
    return KLObjective(value, True)


class Interpolation(Frozen):
    """The time marginals: densities is (n_times, n_nodes), each row scaled
    to unit mass, and masses holds their raw quadrature masses before that."""

    def __init__(self, times: Tuple[float, ...], densities: np.ndarray,
                 masses: Tuple[float, ...]):
        densities.setflags(write=False)
        vars(self).update(times=times, densities=densities, masses=masses)


def entropic_interpolation(phi, psi, kernel: KernelOperator,
                           times: Sequence[float]) -> Interpolation:
    """Time marginals rho_t = (g_t * phi) x (g_{1-t} * psi), g_t = N(y - x;
    t Sigma) for the kernel g = N(y - x; Sigma): the kernel of g's (scales,
    white) with every scale times sqrt(t) (gaussian_from_scales), each
    slice built and freed in turn.

    Endpoints use the solved potentials directly (the t -> 0 and t -> 1
    kernels degenerate to point evaluation), so rho_0 and rho_1 reproduce
    the marginal-equation products exactly.  Refuses a kernel that is not
    Gaussian, and slices whose raw mass drifts by more than MASS_DRIFT_TOL:
    a grid spacing above the slice's width, the kernel's narrowest standard
    deviation times sqrt(min(t, 1 - t)) (times 1 at an endpoint),
    under-resolves it, and otherwise the truncation is the cause; the message
    names the two lengths.
    """
    if kernel.gaussian is None:
        raise FortetBridgeError("interpolation needs a Gaussian kernel")
    scales, white = kernel.gaussian
    grid, grid2 = kernel.grid1, kernel.grid2
    if grid.dim != grid2.dim or not all(map(np.array_equal, grid.axes, grid2.axes)):
        raise FortetBridgeError("interpolation needs matching x and y grids")
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    w = grid.weights

    out = np.empty((len(times), grid.n_nodes))
    masses = []
    for k, t in enumerate(times):
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise FortetBridgeError("interpolation times must lie in [0, 1]")
        if t == 0.0:
            forward = phi
            backward = kernel.apply(psi)
        elif t == 1.0:
            forward = kernel.apply_T(phi)
            backward = psi
        else:
            forward = gaussian_from_scales(
                grid, grid, [s * math.sqrt(t) for s in scales], white).apply(phi)
            backward = gaussian_from_scales(
                grid, grid, [s * math.sqrt(1.0 - t) for s in scales], white).apply(psi)
        rho = forward * backward
        m = float(np.sum(w * rho))
        if abs(m - 1.0) > MASS_DRIFT_TOL:
            width = _narrowest_scale(scales, white) * (
                math.sqrt(min(t, 1.0 - t)) if 0.0 < t < 1.0 else 1.0)
            raise FortetBridgeError(f"interpolant mass at t={t} drifted to {m!r}; "
                                    + _drift_hint(grid, width))
        masses.append(m)
        out[k] = rho / m
    return Interpolation(tuple(float(t) for t in times), out, tuple(masses))


def _narrowest_scale(scales: Sequence[float], white: Optional[np.ndarray]) -> float:
    """sqrt(lambda_min(Sigma)) of the Gaussian kernel N(y - x; Sigma) of the
    pair (scales, white), from Sigma^-1 = white diag(scales^-2) white^T: the
    least scale when white is None, where Sigma is diagonal."""
    if white is None:
        return min(scales)
    inverse = (white / np.square(scales)) @ white.T
    return 1.0 / math.sqrt(float(np.linalg.eigvalsh(inverse)[-1]))


def _drift_hint(grid: QuadratureGrid, width: float) -> str:
    """What an interpolant's mass drift points to: the grid spacing (the
    largest gap between neighbouring node coordinates on any axis) against
    the width of the slice's narrower heat kernel."""
    spacing = max(float(np.diff(a).max(initial=0.0)) for a in grid.axes)
    if width < spacing:
        return (f"the slice's heat kernel width {width:.3g} is below the grid "
                f"spacing {spacing:.3g}, which under-resolves it: add grid points")
    return (f"the slice's heat kernel width {width:.3g} is resolved at the grid "
            f"spacing {spacing:.3g}: enlarge the truncation radius")


# --------------------------------------------------------------------------
# closed-form Gaussian reference solution
# --------------------------------------------------------------------------

class GaussianBridgeSolution(NamedTuple):
    """Exact potentials for centered Gaussian marginals and Gaussian kernel.

    phi(x) = c_phi exp(-a x^2 / 2), psi(y) = c_psi exp(-b y^2 / 2) with the
    ray fixed by c_psi = 1.  kappa = 1/sigma2^2 - 1/(sigma1^2 + sigma^2)
    (problem.gaussian_kappa) is the tail margin of the fixed-point scheme's
    integrability condition in this orientation, and scheme_feasible reads
    kappa > 0, as problem.bernstein_gaussian_condition does (otherwise the
    scheme needs the swapped orientation, even though the system itself is
    solvable both ways).
    """

    sigma: float
    sigma1: float
    sigma2: float
    a: float
    b: float
    c_phi: float
    c_psi: float
    kappa: float
    scheme_feasible: bool
    swap_scheme_feasible: bool

    def log_phi(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return math.log(self.c_phi) - self.a * x * x / 2.0

    def log_psi(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return math.log(self.c_psi) - self.b * y * y / 2.0

    def phi(self, x) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(self.log_phi(x))

    def psi(self, y) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(self.log_psi(y))


def _exponent(sigma, s1, s2):
    """u = 1 + sigma^2 b and the exponent b on the s2 side.  u is the
    positive root of u^2 - (sigma/s2)^2 u - (s1/s2)^2 = 0, and b = (u - 1) /
    sigma^2 is taken as (u + (s1 - s2)(s1 + s2)/sigma^2) / (s2^2 (u + 1)),
    free of the cancellation in u - 1."""
    p = (sigma / s2) ** 2
    u = (p + np.hypot(p, 2.0 * s1 / s2)) / 2.0
    return u, (u + (s1 - s2) * (s1 + s2) / sigma ** 2) / (s2 ** 2 * (u + 1.0))


def gaussian_oracle(sigma: float, sigma1: float, sigma2: float) -> GaussianBridgeSolution:
    """The potential exponents of the Gaussian system, in closed form.

    With A(b) = 1/sigma1^2 - b/(1 + sigma^2 b), the exponent b solves
    b + A(b)/(1 + sigma^2 A(b)) = 1/sigma2^2 and a = A(b).  In u = 1 +
    sigma^2 b this is a quadratic whose positive root is the only admissible
    one, and a solves it with sigma1 and sigma2 exchanged.  The ray c_psi = 1
    makes c_phi = u^(1/2) / sqrt(2 pi sigma1^2).  Parameters that are not
    finite and positive, or exponents that leave float range, raise
    InfeasibleParametersError.
    """
    if not all(math.isfinite(s) and s > 0 for s in (sigma, sigma1, sigma2)):
        raise InfeasibleParametersError("sigma, sigma1, sigma2 must be finite and positive")
    with np.errstate(all="ignore"):
        # numpy scalars: overflow and 0/0 give inf and nan, checked below
        sigma, sigma1, sigma2 = (np.float64(s) for s in (sigma, sigma1, sigma2))
        u, b = _exponent(sigma, sigma1, sigma2)
        _, a = _exponent(sigma, sigma2, sigma1)
        c_phi = np.sqrt(u) / (math.sqrt(2.0 * math.pi) * sigma1)
        kappa = gaussian_kappa(sigma, sigma1, sigma2)
        kappa_swapped = gaussian_kappa(sigma, sigma2, sigma1)
    if not np.all(np.isfinite([u, a, b, c_phi, kappa, kappa_swapped])):
        raise InfeasibleParametersError("the exponents leave float range")
    return GaussianBridgeSolution(
        sigma=float(sigma), sigma1=float(sigma1), sigma2=float(sigma2),
        a=float(a), b=float(b), c_phi=float(c_phi), c_psi=1.0,
        kappa=kappa, scheme_feasible=kappa > 0.0,
        swap_scheme_feasible=kappa_swapped > 0.0)
