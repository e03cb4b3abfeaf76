"""Kernels, marginals, and feasibility checks for the Schrodinger system.

The solvable instance is a bounded positive kernel g(x, y) on a product of
quadrature grids plus two nonnegative unit-mass marginals (omega1, omega2).
This module validates the standing hypotheses (nonnegativity, boundedness,
row/column positivity, continuity smoke checks) and evaluates the
integrability condition that gates the fixed-point existence argument.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FeasibilityError, GridError, KernelSupportError
from .quadrature import Frozen, QuadratureGrid

MASS_TOL = 1e-8
#: tail-slope above this (per unit |y|^2) flags the integrability estimate
#: as suspected-divergent; slopes within +/- the tolerance count as flat.
TAIL_SLOPE_TOL = 1e-8
#: float64's smallest normal number; a heat factor stores entries below it as 0
TINY = float(np.finfo(float).tiny)
#: every finite float64 is below 2**MAX_EXP
MAX_EXP = int(np.finfo(float).maxexp)
#: entries of a heat factor whose flush to 0 one mask covers
FLUSH_BLOCK = 4096
#: the refusal of a Gaussian whose scales fail _in_range
OUT_OF_RANGE = "outside float range: each s^2 and the product of 2 pi s^2 must be normal floats"


# --------------------------------------------------------------------------
# data types
# --------------------------------------------------------------------------

class DensityField(Frozen):
    """Nonnegative sampled density on a grid.

    Marginals are scaled to unit mass before construction (the helper
    `density_field` does it); intermediate products like a pushforward may
    carry any mass.  The values are read-only, so their support and peak,
    which every fit reads, are computed once and cached.
    """

    def __init__(self, grid: QuadratureGrid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_nodes,):
            raise GridError("density values must match grid node count")
        if not np.all(np.isfinite(values)):
            raise GridError("density contains non-finite values")
        if np.any(values < 0):
            idx = int(np.flatnonzero(values < 0)[0])
            raise FeasibilityError(f"density negative at node {idx}")
        values.setflags(write=False)
        vars(self).update(grid=grid, values=values)

    def mass(self) -> float:
        """The quadrature sum of the values over the grid's weights."""
        return float(np.sum(self.grid.weights * self.values))

    @cached_property
    def peak(self) -> float:
        """The largest value."""
        return float(self.values[self.values.argmax()])

    @cached_property
    def support(self) -> np.ndarray:
        """The nodes where the density is positive (read-only)."""
        support = self.values > 0
        support.setflags(write=False)
        return support

    def over(self, integral: np.ndarray, what: str, where: str,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """values / integral on the support and 0 off it: the fit of one
        marginal equation f * integral = values, which both solvers take.

        Where integral > 0 at every node and no quotient can overflow, this
        is the plain quotient (values is 0 off the support), written into out
        if given, which may be integral itself; its underflow is the caller's
        np.errstate's, which numpy's default ignores.  The overflow test
        reads the values' peak, which is cached with the field, and the
        integral's least entry, one argmin a fit.

        Otherwise an integral of 0 at a support node cannot be fitted: it
        raises KernelSupportError, "<what> vanished at nodes [...] where
        <where>", naming the first 8 such nodes.  One neither positive nor 0
        (NaN, negative) reads as 1.
        """
        # argmin reads a NaN as the least entry, as min does, in fewer
        # passes; a quotient is at most peak / low, in float range below 2**1023
        low = float(integral[integral.argmin()])
        if low > 0 and self.peak / low < 2.0 ** 1023:
            return np.divide(self.values, integral, out=out)
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
    return DensityField(grid, values)


def _in_range(variances, norm: float) -> bool:
    """Whether each variance s^2 and norm = 1 / peak^2, the product of
    2 pi s^2 ((2 pi)^d det Sigma), are normal floats: else a Gaussian's
    exponent or peak leaves float range (OUT_OF_RANGE)."""
    return TINY <= norm < math.inf and all(v >= TINY for v in variances)


def gaussian_density(grid: QuadratureGrid, sigma) -> DensityField:
    """Centered Gaussian marginal, scaled to unit quadrature mass.

    Raises FeasibilityError naming sigma unless each variance (s^2, or the
    covariance's diagonal) and (2 pi)^d det Sigma are normal floats
    (_in_range, the rule the kernel's scales meet)."""
    if grid.dim == 1:
        s = float(sigma)
        if s <= 0:
            raise FeasibilityError("sigma must be positive")
        if not _in_range((s * s,), 2.0 * math.pi * s * s):
            raise FeasibilityError(f"marginal sigma {s!r} is {OUT_OF_RANGE}")
        # an exponent beyond float range is -inf, and its entry 0: both exact
        with np.errstate(over="ignore"):
            vals = np.exp(-grid.nodes ** 2 / (2.0 * s * s)) / math.sqrt(2.0 * math.pi * s * s)
    else:
        cov = np.atleast_2d(np.asarray(sigma, dtype=float))
        if cov.shape == (1, 1):
            cov = np.eye(grid.dim) * cov[0, 0]
        _require_spd(cov, "marginal covariance")
        with np.errstate(over="ignore", under="ignore"):
            norm = (2.0 * math.pi) ** grid.dim * np.linalg.det(cov)
        if not _in_range(np.diagonal(cov), norm):
            raise FeasibilityError(f"marginal covariance {cov.tolist()} is {OUT_OF_RANGE}")
        prec = np.linalg.inv(cov)
        # x P x over the 'ij' mesh from the broadcast axes, no node mesh:
        # the terms (x_i P_ij) x_j summed in einsum("ni,ij,nj->n")'s order
        x = np.ix_(*grid.axes)
        vals = np.zeros([len(ax) for ax in grid.axes])
        for i in range(grid.dim):
            for j in range(grid.dim):
                vals += (x[i] * prec[i, j]) * x[j]
        vals *= -0.5
        np.exp(vals, out=vals)
        vals /= math.sqrt(norm)
        vals = vals.reshape(-1)
    return density_field(grid, vals, renormalize=True)


class MarginalPair(NamedTuple):
    omega1: DensityField
    omega2: DensityField


class KernelOperator(Frozen):
    """Discretized kernel g(x_i, y_j) with its uniform upper bound.

    gaussian is (scales, white) for the Gaussian kernel N(y - x; Sigma) of
    gaussian_kernel, and None for any other kernel: the product over the
    coordinates k of the nodes (times white, if not None) of the 1-D heat
    kernels at the scales scales[k].  log_values reads it, and so does the
    interpolation, whose slice at time t is the kernel of the same pair
    with every scale times sqrt(t) (gaussian_from_scales).

    factors are what apply / apply_T contract and what the hypothesis checks
    read.  A dense kernel has one factor, the n1 x n2 matrix.  The heat
    kernel on two tensor grids has one nonnegative 1-D factor per grid axis,
    in the axes' order, and the kernel is their Kronecker product: a product
    then costs one small matrix product per axis instead of a pass over the
    n1 x n2 matrix.  A banded kernel has one 1-D factor, a symmetric band of
    2b + 1 entries (b <= n - 1) on two grids of n nodes: the matrix is
    symmetric Toeplitz, entry (i, j) the band's entry at offset i - j and 0
    beyond b, and a product is one np.convolve (_band_product).  values is
    the matrix, reduce(np.kron, matrices); for a product or banded kernel it
    is built on first read and cached, and solving never reads it.
    """

    def __init__(self, factors: Sequence[np.ndarray], grid1: QuadratureGrid,
                 grid2: QuadratureGrid, sigma_bound: float,
                 gaussian: Optional[Tuple[Tuple[float, ...], Optional[np.ndarray]]] = None):
        factors = tuple(np.asarray(a, dtype=float) for a in factors)
        n = grid1.n_nodes
        if len(factors) == 1 and factors[0].ndim == 1:
            band = factors[0]
            if not (grid2.n_nodes == n and band.size % 2 == 1
                    and band.size < 2 * n and np.array_equal(band, band[::-1])):
                raise GridError("a kernel band must be symmetric, of odd length "
                                "below 2n, on two grids of n nodes")
        elif len(factors) == 1:
            if factors[0].shape != (n, grid2.n_nodes):
                raise GridError("kernel matrix shape must be (n1, n2)")
        else:
            if not factors or [a.shape for a in factors] != [
                    (len(a1), len(a2)) for a1, a2 in zip(grid1.axes, grid2.axes)]:
                raise GridError("kernel factors must be (n1, n2) per grid axis")
            # the checks read a product's row maxima as the product of the
            # factors' row maxima, which needs nonnegative factors
            if not all(np.all(a >= 0) for a in factors):
                raise GridError("kernel factors must be nonnegative")
        for a in factors:
            a.setflags(write=False)
        vars(self).update(factors=factors, grid1=grid1, grid2=grid2, sigma_bound=sigma_bound,
                          gaussian=gaussian)

    @property
    def banded(self) -> bool:
        """Whether the one factor is a band (see the class docstring)."""
        return self.factors[0].ndim == 1

    @property
    def matrices(self) -> Tuple[np.ndarray, ...]:
        """The factors as matrices: a band's is a read-only view of n x n
        windows on it (_band_matrix), with no n x n array behind it."""
        if self.banded:
            return (_band_matrix(self.factors[0], self.grid1.n_nodes),)
        return self.factors

    @cached_property
    def values(self) -> np.ndarray:
        """The n1 x n2 kernel matrix; a dense kernel's one factor itself."""
        values = reduce(np.kron, self.matrices)
        if self.banded:
            values = np.array(values)
        values.setflags(write=False)
        return values

    @cached_property
    def apply_headroom(self) -> Optional[int]:
        """The power of two that apply scales an f with max|f| < 1 by, or
        None if sigma_bound is not finite.

        With B = n2 * max(1, sigma_bound) * max(1, largest grid2 weight),
        every product and partial sum that apply forms, between factors
        too, is at most B * max|f|, for factors whose entries are at most
        sigma_bound^(1/d), as the heat kernel's are.  The headroom keeps
        that below 2^(MAX_EXP - 1), where rounding cannot reach overflow,
        and the scaled weights below it too."""
        bound = (self.grid2.n_nodes * max(1.0, self.sigma_bound)
                 * max(1.0, float(self.grid2.weights.max())))
        return MAX_EXP - 1 - math.frexp(bound)[1] if bound < math.inf else None

    @cached_property
    def apply_floor(self) -> float:
        """A floor that min f times bounds below every nonzero product and
        partial sum that apply forms unscaled, or 0 where none is kept.

        It is half the smallest grid2 weight times, per factor, min(1, its
        smallest positive entry): each entry of weights * f is at least the
        weight times min f, and each product with a factor entry, and each
        sum of such nonnegative products, at least that times the entry.
        The half covers the rounding of those products and of this one.  It
        is 0 (apply then keeps its scale) for a dense factor, whose n1 x n2
        scan is not worth it, for a factor with a negative or non-finite
        entry, and where it is below TINY, where its own rounding is no
        longer relative."""
        if len(self.factors) == 1 and not self.banded:
            return 0.0
        floor = 0.5 * float(self.grid2.weights.min())
        for a in self.factors:
            if not (np.isfinite(a).all() and a.min() >= 0):
                return 0.0
            floor *= min(1.0, float(a.min(initial=math.inf, where=a > 0)))
        return floor if floor >= TINY else 0.0

    @property
    def log_values(self) -> np.ndarray:
        """log of the kernel matrix: for a Gaussian kernel the sum over its
        coordinates of their heat exponents (_exponent) plus the log peak,
        finite where values underflows to 0 (a band's at its lattice
        offsets, as its entries are); for any other kernel log(values)."""
        if self.gaussian is None:
            with np.errstate(divide="ignore"):
                return np.log(self.values)
        scales, white = self.gaussian
        log_peak = -0.5 * sum(math.log(2.0 * math.pi * s * s) for s in scales)
        if self.banded:
            e = _exponent(_lattice(self.grid1.axes[0]), scales[0])
            e += log_peak
            return np.array(_band_matrix(np.concatenate((e[:0:-1], e)), e.size))
        # in one buffer, and one more per further coordinate
        x, y = (_whitened(g, white) for g in (self.grid1, self.grid2))
        e = _exponent(np.subtract.outer(x[:, 0], y[:, 0]), scales[0])
        for k in range(1, len(scales)):
            e += _exponent(np.subtract.outer(x[:, k], y[:, k]), scales[k])
        e += log_peak
        return e

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Int g(x, y) f(y) dy: the kernel against grid2's quadrature weights.

        Where min f > 0, min f * apply_floor >= TINY and max f <
        2^apply_headroom, it is the plain product: no operand, product or
        partial sum it forms is then subnormal or overflows, so any scale
        2^k would commute with every rounding and give the same bits.

        Otherwise it is taken on f * 2^k and scaled back with np.ldexp(.,
        -k), where k is apply_headroom less the binary exponent of max|f|
        where that is positive, so that no product or partial sum can
        overflow.  A power of two scales a normal number exactly, so the
        result is bitwise the unscaled one wherever that formed no
        subnormal intermediate, and closer to the exact sum where it did.
        A fit such as Fortet's omega2 / G or an extracted psi reaches
        4.9e-324 in a tail, and each subnormal operand costs a microcode
        assist on x86.  An f holding a NaN or an inf, an all-zero f and one
        too large for k > 0 are applied unscaled.  max f and min f are read
        at the argmax and argmin, the same values, NaN included.
        """
        k = self.apply_headroom
        if k is not None:
            low, top = float(f[f.argmin()]), float(f[f.argmax()])
            plain = low > 0 and low * self.apply_floor >= TINY and top < 2.0 ** k
            top = max(top, -low)
            if not plain and 0.0 < top < math.inf:
                k -= max(0, math.frexp(top)[1])
                if k > 0:
                    # weights * 2^k is exact, so each f * (weights * 2^k) is
                    # rounded once; no name holds it, so _contract frees it
                    # after its first product, as it frees weights * f
                    out = _contract(self.factors, f * (self.grid2.weights * 2.0 ** k))
                    return np.ldexp(out, -k, out=out)
        return _contract(self.factors, self.grid2.weights * f)

    def apply_T(self, f: np.ndarray) -> np.ndarray:
        """Int g(x, y) f(x) dx: the transposed kernel against grid1's weights."""
        return _contract([a.T for a in self.factors], self.grid1.weights * f)

    def swapped(self) -> "KernelOperator":
        """The kernel g(y, x) on (grid2, grid1).  A Gaussian on one grid is
        this kernel itself, bit for bit: a band is symmetric, and entry (i, j)
        of any other factor is formed from (a_i - a_j)^2 = (a_j - a_i)^2."""
        if self.gaussian is not None and self.grid1 is self.grid2:
            return self
        return KernelOperator(tuple(a.T.copy() for a in self.factors),
                              self.grid2, self.grid1, self.sigma_bound, self.gaussian)


def _contract(factors: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """(A_1 kron ... kron A_d) @ x, one matrix product per factor.

    x is flat in 'ij' order (last axis fastest).  Each product contracts the
    leading axis and its transpose rotates that axis to the back, so after d
    products the axes are back in order; for d = 2 this is A_1 @ X @ A_2.T.
    A band is applied by _band_product.
    """
    if len(factors) == 1:
        a = factors[0]
        return a @ x if a.ndim == 2 else _band_product(a, x)
    # x is rebound before each product, so the contiguous copy that reshape
    # makes of a transposed product never coexists with that product
    for a in factors:
        x = x.reshape(a.shape[1], -1)
        x = (a @ x).T
    return x.reshape(-1)


def _band_product(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The band's symmetric Toeplitz matrix @ x: entry i is np.convolve(x,
    band)[i + b], one dot product over the band's taps that meet x.  Only
    those n entries are formed: mode 'same' when the band is no longer than
    x, 'valid' when it spans every offset (b = n - 1)."""
    b, n = band.size // 2, x.size
    if 2 * b < n:
        return np.convolve(x, band, "same")
    if b == n - 1:
        return np.convolve(x, band, "valid")
    return np.convolve(x, band)[b:b + n]


def _padded(band: np.ndarray, n: int) -> np.ndarray:
    """The band padded with zeros to 2n - 1 entries, offsets -(n - 1) ...
    n - 1; a band that spans every offset is returned as it is."""
    pad = n - 1 - band.size // 2
    if not pad:
        return band
    out = np.zeros(2 * n - 1)
    out[pad:pad + band.size] = band
    return out


def _band_matrix(band: np.ndarray, n: int) -> np.ndarray:
    """The n x n symmetric Toeplitz matrix of a band as a read-only view:
    row i is the window of n entries that starts i entries before the
    middle of the band, padded with zeros to 2n - 1 entries."""
    return sliding_window_view(_padded(band, n), n)[::-1]


def _band_row(band: np.ndarray, n: int, i: int) -> np.ndarray:
    """Row i of _band_matrix(band, n), which is also its column i."""
    return _padded(band, n)[n - 1 - i:2 * n - 1 - i]


def _window_extremes(band: np.ndarray, n: int, extreme: np.ufunc) -> np.ndarray:
    """extreme.reduce over each row of _band_matrix(band, n), which is
    also its column, in O(n) (van Herk 1992; Gil & Werman 1993).

    Row i of the padded band p is p[n - 1 - i : n] followed by p[n : 2n -
    1 - i]: a suffix of the block p[:n] and a prefix of the block p[n:].
    One accumulate over each block, the first from its end, gives every
    such suffix's and prefix's extreme, and the row's is the extreme of
    its two.  np.maximum, np.fmax and np.fmin are associative and
    commutative, NaN rule included, so this is the windows' reduction
    exactly (a 0.0 tied with a -0.0 may read as the other)."""
    p = _padded(band, n)
    rows = extreme.accumulate(p[n - 1::-1])
    extreme(rows[:-1], extreme.accumulate(p[n:])[::-1], out=rows[:-1])
    return rows


def swapped_marginals(marginals: MarginalPair) -> MarginalPair:
    return MarginalPair(marginals.omega2, marginals.omega1)


def _lattice(axis: np.ndarray) -> np.ndarray:
    """The offsets k h, 0 <= k < n, of a uniform axis of n nodes, h the step
    np.linspace takes."""
    return np.arange(axis.size) * ((axis[-1] - axis[0]) / (axis.size - 1))


def _exponent(d: np.ndarray, s: float) -> np.ndarray:
    """The heat exponent -d^2 / (2 s^2) at scale s, in place of the
    differences d, rounded as the formula rounds.  An exponent beyond
    float range is -inf, its exact limit."""
    np.square(d, out=d)
    np.negative(d, out=d)
    with np.errstate(over="ignore"):
        d /= 2.0 * s * s
    return d


def _entries(e: np.ndarray, s: float) -> np.ndarray:
    """The 1-D heat kernel's entries peak * exp(e) at scale s, in place of
    the contiguous exponents e, with those below float64's smallest normal,
    TINY, stored as 0: such an entry holds fewer than 52 significant bits,
    each product with it is a subnormal operand (a microcode assist on x86),
    and flushed it moves a kernel integral by less than TINY times the
    weighted argument at its node, which no integral in float range sees
    unless the argument spans more than float range across one row.  The
    flush takes FLUSH_BLOCK entries at a time, so that its masks stay small,
    and a block takes exp only where the exponent is at least log(TINY /
    peak) - 1: below it the entry is below TINY, and exp's underflow path
    costs ~13x its normal one."""
    peak = 1.0 / math.sqrt(2.0 * math.pi * s * s)
    # exp(x) * peak is below TINY where x < log(TINY) - log(peak), to rounding
    cut = math.log(TINY) - math.log(peak) - 1.0
    flat = e.reshape(-1)
    for i in range(0, flat.size, FLUSH_BLOCK):
        block = flat[i:i + FLUSH_BLOCK]
        # the exponents left in place are negative, and flush with the
        # rest, also where times peak they overflow to -inf
        np.exp(block, out=block, where=block >= cut)
        with np.errstate(over="ignore"):
            block *= peak
        block[block < TINY] = 0.0
    return e


def _heat_factor(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """1-D heat kernel N(b - a; s^2) between two coordinate arrays, in one
    buffer, with the entries below TINY stored as 0 (_entries)."""
    # at numpy's default buffer size the broadcast difference also allocates
    # two 64 KiB ufunc buffers; at the smallest size, 16 elements, ~1.5 kB
    bufsize = np.setbufsize(16)
    try:
        e = np.subtract.outer(a, b)
    finally:
        np.setbufsize(bufsize)
    return _entries(_exponent(e, s), s)


def _heat_band(axis: np.ndarray, s: float) -> np.ndarray:
    """The band of the 1-D heat kernel N(y - x; s^2) on a uniform axis: its
    entries (_entries) at the offsets k h (_lattice), |k| <= b, b the last
    offset whose entry is not stored as 0 (at most n - 1)."""
    e = _entries(_exponent(_lattice(axis), s), s)
    # the entries fall with |k|, so the nonzero ones come first
    half = e[:max(1, np.count_nonzero(e))]
    return np.concatenate((half[:0:-1], half))


def _whitened(grid: QuadratureGrid, white: Optional[np.ndarray]) -> np.ndarray:
    """The (n, d) node coordinates of grid, times white unless it is None."""
    x = grid.nodes.reshape(grid.n_nodes, grid.dim)
    return x if white is None else x @ white


def _uniform(axis: np.ndarray) -> bool:
    """Whether axis is the uniform lattice np.linspace builds on its span."""
    return np.array_equal(axis, np.linspace(axis[0], axis[-1], axis.size))


def gaussian_kernel(grid1: QuadratureGrid, grid2: QuadratureGrid, sigma) -> KernelOperator:
    """Gaussian kernel g(x, y) = N(y - x; Sigma), for a scale sigma (Sigma =
    sigma^2 I, the heat kernel) or a d x d SPD Sigma, read into the pair
    (scales, white) that gaussian_from_scales builds.  A diagonal Sigma is
    a product of 1-D kernels at the scales sqrt(Sigma_kk), and white is
    None; any other is a product of 1-D kernels on the whitened nodes x
    white, white = C / C_kk, at the scales 1 / C_kk (C C^T = Sigma^-1, C
    lower triangular)."""
    if grid1.dim != grid2.dim:
        raise GridError("kernel grids must share dimension")
    d = grid1.dim
    cov, white = np.asarray(sigma, dtype=float), None
    if cov.ndim == 0:
        if cov <= 0:
            raise FeasibilityError("kernel sigma must be positive")
        scales = [float(cov)] * d
    else:
        _require_spd(cov, "kernel covariance")
        if cov.shape != (d, d):
            raise GridError("kernel covariance must be d x d")
        scales = np.sqrt(np.diagonal(cov)).tolist()
        if np.any(cov[~np.eye(d, dtype=bool)]):
            C = np.linalg.cholesky(np.linalg.inv(cov))
            white, scales = C / np.diagonal(C), (1.0 / np.diagonal(C)).tolist()
    return gaussian_from_scales(grid1, grid2, scales, white)


def gaussian_from_scales(grid1: QuadratureGrid, grid2: QuadratureGrid,
                         scales: Sequence[float],
                         white: Optional[np.ndarray]) -> KernelOperator:
    """The Gaussian kernel of the pair (scales, white) (gaussian_kernel) on
    two grids of one dimension, which keeps the pair as its gaussian.

    With white None it is a product of 1-D kernels at the scales: the band
    (_heat_band: O(n) memory, one convolution per product, entries at the
    lattice offsets k h) on one uniform 1-D axis that both grids share, and
    otherwise one factor per axis (_heat_factor), built once for each
    distinct (grid1 axis, grid2 axis, scale) and held, read-only, at every
    axis that repeats it; axes compare by identity, and build_grid passes
    one axis array for every dimension, so an isotropic kernel holds one
    factor.  Otherwise it is one dense factor, the product of the
    per-coordinate factors on the whitened nodes, with entries below TINY
    stored as 0.

    Raises FeasibilityError unless each s^2 and the product of 2 pi s^2
    (1 / peak^2) are normal floats (_in_range).
    """
    norm = math.prod(2.0 * math.pi * s * s for s in scales)
    if not _in_range((s * s for s in scales), norm):
        raise FeasibilityError(f"kernel scales {list(scales)} are {OUT_OF_RANGE}")
    if (grid1.dim == 1 and _uniform(grid1.axes[0])
            and np.array_equal(grid1.axes[0], grid2.axes[0])):
        factors = (_heat_band(grid1.axes[0], scales[0]),)
    elif white is None:
        built, factors = {}, []
        for a, b, s in zip(grid1.axes, grid2.axes, scales):
            key = (id(a), id(b), s)
            if key not in built:
                built[key] = _heat_factor(a, b, s)
            factors.append(built[key])
    else:
        x, y = (_whitened(g, white) for g in (grid1, grid2))
        vals = _heat_factor(x[:, 0], y[:, 0], scales[0])
        for k in range(1, len(scales)):
            vals *= _heat_factor(x[:, k], y[:, k], scales[k])
        vals[vals < TINY] = 0.0
        factors = (vals,)
    # strict upper bound: the sup is attained on the diagonal, so pad it
    peak = 1.0 / math.sqrt(norm)
    return KernelOperator(factors, grid1, grid2, peak * (1.0 + 1e-9),
                          (tuple(scales), white))


def table_kernel(grid1: QuadratureGrid, grid2: QuadratureGrid, values) -> KernelOperator:
    vals = np.asarray(values, dtype=float)
    vmax = float(vals.max()) if vals.size else 0.0
    bound = vmax * (1.0 + 1e-9) if vmax > 0 else 1.0
    return KernelOperator((vals,), grid1, grid2, bound)


def pushforward(kernel: KernelOperator, omega1: DensityField) -> DensityField:
    """Kernel image of omega1: omega2(y) = sum_x w1(x) g(x, y) omega1(x).

    Grid-exact by construction: the solver's inner integral reproduces these
    values bitwise when started at the constant function, which is what makes
    the pushforward instance terminate immediately.
    """
    return DensityField(kernel.grid2, kernel.apply_T(omega1.values))


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

class CheckResult(NamedTuple):
    status: str          # "pass" | "fail" | "best-effort-pass" | "best-effort-fail" | "skipped"
    detail: str = ""
    offending_nodes: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "best-effort-pass", "skipped")


class ConditionStar(NamedTuple):
    """Truncated-grid estimate of integral of omega2 / (g * omega1).

    The underlying condition is about an improper integral, which a finite
    grid cannot decide; the verdict is the estimate plus a tail-slope
    heuristic (log-integrand slope against |y|^2 over the outer 20% of the
    grid, each column's integral over its grid mass), never a proof.
    """

    estimate: float
    verdict: str              # "finite" | "suspected-divergent"
    tail_exponent: float
    zero_denominator_nodes: Tuple[int, ...] = ()


class FeasibilityReport(NamedTuple):
    hypotheses: Dict[str, CheckResult]
    condition_star: Optional[ConditionStar] = None
    swap_recommended: bool = False

    @property
    def refusal(self) -> Optional[str]:
        """Why Fortet's scheme may not run on this instance, or None: the
        hypothesis checks that failed, else, where the report carries an
        integrability estimate, its suspected divergence (with a hint when
        swapping the marginals looks feasible).  The solvers raise it as a
        FeasibilityError unless forced."""
        failed = [k for k, v in self.hypotheses.items() if not v.ok]
        cs = self.condition_star
        if failed:
            why = f"hypothesis checks failed: {', '.join(failed)}"
        elif cs is not None and cs.verdict != "finite":
            why = "integrability estimate is suspected-divergent" + (
                "; swapping the marginals looks feasible" if self.swap_recommended else "")
        else:
            return None
        return why + " (pass force=True to run anyway)"

    @property
    def solver_admissible(self) -> bool:
        return self.refusal is None


def _require_spd(mat: np.ndarray, what: str) -> None:
    if mat.shape != (len(mat),) * 2 or not np.allclose(mat, mat.T, atol=1e-12):
        raise FeasibilityError(f"{what} must be symmetric")
    if np.linalg.eigvalsh(mat).min() <= 0:
        raise FeasibilityError(f"{what} must be positive definite")


def _smoothness_smoke(mesh: np.ndarray) -> CheckResult:
    """Crude first-difference screen: flags near-discontinuities only.
    mesh holds a function's values on a grid's 'ij' mesh, one array axis
    per grid axis, and a jump is taken between neighbours along one axis,
    never across the end of a row.  The axes are screened last first, and
    the first largest jump is kept; it is named by its flat node indices."""
    scale = float(np.max(np.abs(mesh)))
    if scale == 0:
        return CheckResult("best-effort-pass", "identically zero")
    top = None
    for k in reversed(range(mesh.ndim)):
        jumps = np.abs(np.diff(mesh, axis=k))
        worst = jumps.max()
        if top is None or worst > top[0]:
            at = np.unravel_index(jumps.argmax(), jumps.shape)
            top = worst, k, int(np.ravel_multi_index(at, mesh.shape))
    worst, k, idx = float(top[0]) / scale, top[1], top[2]
    if worst > 0.5:
        step = math.prod(mesh.shape[k + 1:])
        return CheckResult("best-effort-fail",
                           f"jump of {worst:.2g} x scale between nodes {idx} and {idx + step}",
                           (idx,))
    return CheckResult("best-effort-pass", f"max relative jump {worst:.2g}")


def _extremes(kernel: KernelOperator, extreme: np.ufunc, axis: int) -> np.ndarray:
    """extreme.reduce (np.maximum, np.fmax or np.fmin) over every row
    (axis=1) or column (axis=0) of the kernel matrix.  A row of a Kronecker
    product is the product of one row per factor, and for nonnegative
    factors the extreme of those products is the product of the extremes,
    exactly, because rounding is monotone.  A one-factor kernel is reduced
    directly; a band's rows are its windows, read in O(n) by
    _window_extremes, and its columns are its rows."""
    if kernel.banded:
        return _window_extremes(kernel.factors[0], kernel.grid1.n_nodes, extreme)
    return reduce(np.kron, [extreme.reduce(a, axis=axis) for a in kernel.factors])


def _row(kernel: KernelOperator, i: int) -> np.ndarray:
    """Row i of the kernel matrix, from one row per factor."""
    matrices = kernel.matrices
    index = np.unravel_index(i, [a.shape[0] for a in matrices])
    return reduce(np.kron, [a[k] for a, k in zip(matrices, index)])


def _hits(kernel: KernelOperator, rows: np.ndarray, hit):
    """Row-major (i, j) of the kernel entries where hit holds, lazily; rows
    flags the rows that hold one, and only those rows are built."""
    for i in np.flatnonzero(rows):
        for j in np.flatnonzero(hit(_row(kernel, i))):
            yield int(i), int(j)


def check_assumptions(kernel: KernelOperator, marginals: MarginalPair) -> FeasibilityReport:
    """Exact grid checks for the standing hypotheses; continuity best-effort.

    Reads the kernel's factors and never builds its matrix: row and column
    extremes come from per-factor extremes (a band's from its windows, in
    O(n), with no window view), the continuity smoke reads a band's middle
    column as a slice of it, and only a row that holds an offending entry
    is built.  Never raises on a failed check: the report lists offending
    node indices and the caller decides (solvers refuse inadmissible
    instances unless forced).
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
        (g,) = kernel.factors  # a 1-D kernel has one factor
        n = kernel.grid2.n_nodes
        column = _band_row(g, n, n // 2) if kernel.banded else g[:, n // 2]
        checks["kernel_continuity"] = _smoothness_smoke(column)
    else:
        checks["kernel_continuity"] = CheckResult("skipped", "dim > 1")
    for name, dens in (("marginal1", marginals.omega1), ("marginal2", marginals.omega2)):
        shape = [len(ax) for ax in dens.grid.axes]
        checks[f"{name}_continuity"] = _smoothness_smoke(dens.values.reshape(shape))

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
    # integrand is still growing at the boundary.  Near the boundary a
    # kernel column has mass off the grid, which truncates the integral of
    # g * omega1 and lifts even a decaying integrand there, so the fit
    # divides that integral by the column's grid mass, apply_T(1).  An inf
    # kernel entry gives 0 * inf = NaN, which the fit skips as it skips 0
    with np.errstate(invalid="ignore"):
        integrand *= kernel.apply_T(np.ones(kernel.grid1.n_nodes))
    r2 = reduce(np.add.outer, [a * a for a in kernel.grid2.axes]).ravel()
    rmax = float(np.max(np.sqrt(r2)))
    outer = (np.sqrt(r2) >= 0.8 * rmax) & (integrand > 0)
    if outer.sum() < 3:
        # no positive tail samples: the integrand died before the boundary,
        # which is the opposite of divergence
        return ConditionStar(estimate, "finite", -math.inf)
    slope = float(np.polyfit(r2[outer], np.log(integrand[outer]), 1)[0])
    verdict = "suspected-divergent" if slope > TAIL_SLOPE_TOL else "finite"
    return ConditionStar(estimate, verdict, slope)


def gaussian_kappa(sigma, sigma1, sigma2) -> float:
    """Bernstein's margin kappa = 1/sigma2^2 - 1/(sigma1^2 + sigma^2) of a
    Gaussian kernel (sigma) between Gaussian marginals (sigma1, sigma2),
    in float64: an overflow or a division by 0 reads inf or NaN, where
    Python floats would raise."""
    with np.errstate(all="ignore"):
        s, s1, s2 = (np.float64(v) for v in (sigma, sigma1, sigma2))
        return float(1.0 / s2 ** 2 - 1.0 / (s1 ** 2 + s ** 2))


def bernstein_gaussian_condition(sigma: float, sigma1: float, sigma2: float) -> bool:
    """Scalar Gaussian existence condition: gaussian_kappa > 0, that is
    sigma^2 + sigma1^2 > sigma2^2.

    Strict inequality: at kappa = 0 (exact free evolution of the variance)
    the integral of omega2 / (g * omega1) is the integral of 1, which
    diverges.
    """
    if min(sigma, sigma1, sigma2) <= 0:
        raise FeasibilityError("standard deviations must be positive")
    return gaussian_kappa(sigma, sigma1, sigma2) > 0


def bernstein_multivariate_condition(S, S1, S2) -> bool:
    """Matrix form: all eigenvalues of S2^{-1} - (S + S1)^{-1} positive."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    S1 = np.atleast_2d(np.asarray(S1, dtype=float))
    S2 = np.atleast_2d(np.asarray(S2, dtype=float))
    for mat, what in ((S, "S"), (S1, "S1"), (S2, "S2")):
        _require_spd(mat, what)
    M = np.linalg.inv(S2) - np.linalg.inv(S + S1)
    return bool(np.linalg.eigvalsh((M + M.T) / 2.0).min() > 0)


def full_report(kernel: KernelOperator, marginals: MarginalPair) -> FeasibilityReport:
    """Hypothesis checks + integrability estimate + swap advice."""
    base = check_assumptions(kernel, marginals)
    cs = condition_star(kernel, marginals)
    swap = False
    if cs.verdict == "suspected-divergent":
        cs_swapped = condition_star(kernel.swapped(), swapped_marginals(marginals))
        swap = cs_swapped.verdict == "finite"
    return FeasibilityReport(hypotheses=base.hypotheses, condition_star=cs,
                             swap_recommended=swap)
