"""Kernels, marginals, and feasibility checks for the Schrodinger system.

The solvable instance is a bounded positive kernel g(x, y) on a product of
quadrature grids plus two nonnegative unit-mass marginals (omega1, omega2).
This module checks the standing hypotheses that a grid can decide (the
kernel's nonnegativity, bound and row/column positivity, the marginals'
unit mass) and evaluates the integrability condition that gates the
fixed-point existence argument.  Continuity is a hypothesis of the
continuum system, which no set of sampled values can violate, so no check
reads it.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FeasibilityError, GridError, KernelSupportError
from .quadrature import TINY, Frozen, QuadratureGrid, _bottom, _top, read_only

MASS_TOL = 1e-8
#: tail-slope above this (per unit |y|^2) flags the integrability estimate
#: as suspected-divergent; slopes within +/- the tolerance count as flat.
TAIL_SLOPE_TOL = 1e-8
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
    which every fit reads, are computed once and cached.  gaussian is the
    diagonal of the covariance of a centered Gaussian that gaussian_density
    sampled with a diagonal covariance, one variance per axis, and None
    for any other density.
    """

    def __init__(self, grid: QuadratureGrid, values,
                 gaussian: Optional[Tuple[float, ...]] = None):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_nodes,):
            raise GridError("density values must match grid node count")
        if not np.all(np.isfinite(values)):
            raise GridError("density contains non-finite values")
        if np.any(values < 0):
            idx = int(np.flatnonzero(values < 0)[0])
            raise FeasibilityError(f"density negative at node {idx}")
        self._store(grid=grid, values=values, gaussian=gaussian)

    def mass(self) -> float:
        """The quadrature sum of the values over the grid's weights."""
        return float(np.sum(self.grid.weighted(self.values)))

    @cached_property
    def peak(self) -> float:
        """The largest value."""
        return _top(self.values)

    @cached_property
    def support(self) -> np.ndarray:
        """The nodes where the density is positive (read-only)."""
        return read_only(self.values > 0)

    def over(self, integral: np.ndarray, what: str, where: str,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """values / integral on the support and 0 off it: the fit of one
        marginal equation f * integral = values, both solvers' fit for both.

        Where integral > 0 at every node and no quotient can overflow, this
        is the plain quotient (values is 0 off the support, 0 / inf too),
        written into out if given, which may be integral itself; its
        underflow is the caller's np.errstate's, which numpy's default
        ignores.  The overflow test reads the cached peak and the
        integral's least entry (_bottom).

        Otherwise it is taken on the support alone, into zeros, so a NaN
        off the support reads 0; an integral of 0 at a support node raises
        KernelSupportError, "<what> vanished at nodes [...] where <where>",
        naming the first 8, and one neither positive nor 0 reads as 1.
        """
        # a quotient is at most peak / low, in float range below 2**1023
        low = _bottom(integral)
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


def node_index(mask: np.ndarray):
    """The index of mask's nodes: slice(None) where it holds at every node,
    so that an array is read and written in place (a view, not a masked
    copy), and the mask itself otherwise."""
    return slice(None) if mask.all() else mask


def density_field(grid: QuadratureGrid, values, renormalize: bool = True,
                  gaussian: Optional[Tuple[float, ...]] = None) -> DensityField:
    values = np.asarray(values, dtype=float)
    if renormalize:
        m = float(np.sum(grid.weighted(values)))
        if m <= 0:
            raise FeasibilityError("cannot renormalize a density with zero mass")
        values = values / m
    return DensityField(grid, values, gaussian)


def _in_range(variances, norm: float) -> bool:
    """Whether each variance s^2 and norm = 1 / peak^2, the product of
    2 pi s^2 ((2 pi)^d det Sigma), are normal floats: else a Gaussian's
    exponent or peak leaves float range (OUT_OF_RANGE)."""
    return TINY <= norm < math.inf and all(v >= TINY for v in variances)


def gaussian_density(grid: QuadratureGrid, sigma) -> DensityField:
    """Centered Gaussian marginal, scaled to unit quadrature mass.  A
    diagonal covariance (any in 1-D) is kept as the field's gaussian, its
    variances (s^2, or the diagonal), which the feasibility verdict reads.

    Raises GridError unless a covariance is d x d, and FeasibilityError
    naming sigma unless each variance and (2 pi)^d det Sigma are normal
    floats (_in_range, the rule the kernel's scales meet)."""
    if grid.dim == 1:
        s = float(sigma)
        if s <= 0:
            raise FeasibilityError("sigma must be positive")
        if not _in_range((s * s,), 2.0 * math.pi * s * s):
            raise FeasibilityError(f"marginal sigma {s!r} is {OUT_OF_RANGE}")
        # an exponent beyond float range is -inf, and its entry 0: both exact
        with np.errstate(over="ignore"):
            vals = np.exp(-grid.nodes ** 2 / (2.0 * s * s)) / math.sqrt(2.0 * math.pi * s * s)
        diagonal = (s * s,)
    else:
        cov = np.atleast_2d(np.asarray(sigma, dtype=float))
        if cov.shape == (1, 1):
            cov = np.eye(grid.dim) * cov[0, 0]
        _require_spd(cov, "marginal covariance")
        if cov.shape != (grid.dim, grid.dim):
            raise GridError("marginal covariance must be d x d")
        with np.errstate(over="ignore", under="ignore"):
            norm = (2.0 * math.pi) ** grid.dim * np.linalg.det(cov)
        if not _in_range(np.diagonal(cov), norm):
            raise FeasibilityError(f"marginal covariance {cov.tolist()} is {OUT_OF_RANGE}")
        prec = np.linalg.inv(cov)
        # x P x over the 'ij' mesh from the broadcast axes, no node mesh:
        # the terms (x_i P_ij) x_j summed in einsum("ni,ij,nj->n")'s order
        x = np.ix_(*grid.axes)
        vals = np.zeros(grid.shape)
        for i in range(grid.dim):
            for j in range(grid.dim):
                vals += (x[i] * prec[i, j]) * x[j]
        vals *= -0.5
        np.exp(vals, out=vals)
        vals /= math.sqrt(norm)
        vals = vals.reshape(-1)
        diagonal = None if np.any(cov[~np.eye(grid.dim, dtype=bool)]) else \
            tuple(np.diagonal(cov).tolist())
    return density_field(grid, vals, renormalize=True, gaussian=diagonal)


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
    with every scale times sqrt(t) (gaussian_from_scales).  white is
    read-only, as the factors are (quadrature.Frozen).

    factors are what the hypothesis checks read; apply and
    apply_T contract _operands (below).  A dense kernel has one factor, the
    n1 x n2 matrix.  The heat kernel on two tensor grids has one
    nonnegative factor per grid axis, in the axes' order, its shape the two
    grids' node counts on that axis (QuadratureGrid.shape), and the kernel
    is their Kronecker product: a product then costs one small matrix
    product per axis instead of a pass over the n1 x n2 matrix.  A banded
    kernel has one 1-D factor, a symmetric band of 2b + 1 entries (b <= n -
    1), its taps at the offsets k h, as the heat kernel has on one 1-D
    lattice of n nodes, and both grids must be that one lattice (their
    lattices equal): the matrix is symmetric Toeplitz, entry (i,
    j) the band's entry at offset i - j and 0 beyond b, and a product is one
    np.correlate (_band_product).  Either direction weights its argument
    through its grid's weighted, in the one buffer it returns.  A band is
    narrow or full: one of at most n taps is kept as given, and a wider one
    is stored padded with zeros to all 2n - 1 offsets (_padded), so that it
    spans every offset, reads a product's argument last node first, and
    _reversed says so.  numpy's
    correlation copies any input it cannot write, so the kernel keeps a
    private writeable copy of the band, _operands, and factors[0] is a
    read-only view of it; the caller's band is not frozen.  For any other
    kernel _operands is factors.  swapped() transposes by view: its factors
    are these factors' transposes.  values is the matrix, reduce(np.kron,
    matrices), C-contiguous; for a product or banded kernel, or a
    transposed view, it is built on first read and cached, and solving
    never reads it.
    """

    def __init__(self, factors: Sequence[np.ndarray], grid1: QuadratureGrid,
                 grid2: QuadratureGrid, sigma_bound: float,
                 gaussian: Optional[Tuple[Tuple[float, ...], Optional[np.ndarray]]] = None):
        factors = tuple(np.asarray(a, dtype=float) for a in factors)
        operands = factors
        n = grid1.n_nodes
        if len(factors) == 1 and factors[0].ndim == 1:
            band = factors[0]
            if not (grid1.dim == 1 and grid2.lattices == grid1.lattices and band.size % 2 == 1
                    and band.size < 2 * n and np.array_equal(band, band[::-1])):
                raise GridError("a kernel band must be symmetric, of odd length "
                                "below 2n, on one 1-D lattice of n nodes")
            operands = (_padded(band, n) if band.size > n else band.copy(),)
            factors = (operands[0].view(),)
        elif len(factors) == 1:
            if factors[0].shape != (n, grid2.n_nodes):
                raise GridError("kernel matrix shape must be (n1, n2)")
        else:
            if [a.shape for a in factors] != list(zip(grid1.shape, grid2.shape)):
                raise GridError("kernel factors must be (n1, n2) per grid axis")
            # the checks read a product's row maxima as the product of the
            # factors' row maxima, which needs nonnegative factors
            if not all(np.all(a >= 0) for a in factors):
                raise GridError("kernel factors must be nonnegative")
        self._store(factors=factors, _operands=operands,
                    _reversed=operands[0].ndim == 1 and operands[0].size > n,
                    grid1=grid1, grid2=grid2, sigma_bound=sigma_bound, gaussian=gaussian)

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
        """The n1 x n2 kernel matrix, C-contiguous: a dense kernel's one
        factor itself unless that is a transposed view (swapped)."""
        return read_only(np.ascontiguousarray(reduce(np.kron, self.matrices)))

    @cached_property
    def apply_headroom(self) -> Optional[int]:
        """The power of two that apply and apply_T scale an f with max|f| <
        1 by, or None if sigma_bound is not finite.

        With B = max(n1, n2) * max(1, sigma_bound) * max(1, largest weight of
        either grid, read from its lattices), every product and partial sum
        of either direction, between factors too, is at most B * max|f|, for
        factors whose entries are at most sigma_bound^(1/d), as the heat
        kernel's are.  The headroom keeps that and the scaled weights below
        2^(MAX_EXP - 1), where rounding cannot reach overflow."""
        top = max(self.grid1.largest_weight, self.grid2.largest_weight)
        bound = (max(self.grid1.n_nodes, self.grid2.n_nodes) * max(1.0, self.sigma_bound)
                 * max(1.0, top))
        return MAX_EXP - 1 - math.frexp(bound)[1] if bound < math.inf else None

    @property
    def log_values(self) -> np.ndarray:
        """log of the kernel matrix: for a Gaussian kernel the sum over its
        coordinates of their heat exponents (_exponent) plus the log peak,
        finite where values underflows to 0 (a band's at its lattice
        offsets, as its entries are); for any other kernel log(values).
        Each read forms a new writeable n1 x n2 array, which the caller
        owns (Sinkhorn's _folded builds an absorbed kernel in it)."""
        if self.gaussian is None:
            with np.errstate(divide="ignore"):
                return np.log(self.values)
        scales, white = self.gaussian
        log_peak = -0.5 * sum(math.log(2.0 * math.pi * s * s) for s in scales)
        if self.banded:
            e = _exponent(np.arange(self.grid1.n_nodes) * self.grid1.steps[0], scales[0])
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
        """Int g(x, y) f(y) dy: the kernel against grid2's quadrature weights."""
        return self._scaled_contract(self._operands, self.grid2, f)

    def apply_T(self, f: np.ndarray) -> np.ndarray:
        """Int g(x, y) f(x) dx: the transposed kernel against grid1's weights."""
        return self._scaled_contract([a.T for a in self._operands], self.grid1, f)

    def _scaled_contract(self, operands, grid: QuadratureGrid, f: np.ndarray) -> np.ndarray:
        """_contract(operands, grid.weights * f): one direction's kernel
        product, against that direction's quadrature weights.

        It is taken on f * 2^k and scaled back exactly with np.ldexp(., -k),
        k = apply_headroom less the binary exponent of max|f| where that is
        positive, so that nothing overflows: bitwise the unscaled product
        wherever that forms no subnormal intermediate, and closer to the
        exact sum where it does.  A fit such as Fortet's omega2 / G or an
        extracted psi reaches 4.9e-324 in a tail, and each subnormal operand
        costs a microcode assist on x86.  An f holding a NaN or an inf, an
        all-zero f and one too large for k > 0 are applied unscaled.

        A full band, which spans every offset, reads its argument from the
        last node (_band_product), so the argument is formed in that order
        (grid.weighted's reverse): a fresh contiguous array, which the
        correlation reads without a copy.  No name holds the argument, so
        _contract frees it after its first product.
        """
        k, top = self.apply_headroom, 0.0
        if k is not None:
            top = max(_top(f), -_bottom(f))
        k = k - max(0, math.frexp(top)[1]) if 0.0 < top < math.inf else 0
        # weights * 2^k is exact, so each f * (weights * 2^k) is rounded once
        out = _contract(operands, grid.weighted(f, max(k, 0), self._reversed))
        return np.ldexp(out, -k, out=out) if k > 0 else out

    def swapped(self) -> "KernelOperator":
        """The kernel g(y, x) on (grid2, grid1), on the factors' transposed
        views: no matrix is copied (a band, its own transpose, is copied as
        every band passed in is), and swapped().apply is apply_T bit for
        bit, since both contract the same views against the same weights."""
        return KernelOperator(tuple(a.T for a in self.factors), self.grid2, self.grid1,
                              self.sigma_bound, self.gaussian)


def _contract(factors: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """(A_1 kron ... kron A_d) @ x, one matrix product per factor.

    x is flat in 'ij' order (last axis fastest).  Each product contracts the
    leading axis and its transpose rotates that axis to the back, so after d
    products the axes are back in order; for d = 2 this is A_1 @ X @ A_2.T.
    A band is applied by _band_product, and a full one takes x reversed,
    last node first, the order in which it reads it.
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
    """The band's symmetric Toeplitz matrix @ y, where y is x, or x
    reversed (x given last node first) for a band longer than x, which
    spans every offset (b = n - 1, KernelOperator pads a wider band to it):
    entry i is np.convolve(y, band)[i + b], one dot product over the band's
    taps that meet y.  Only those n entries are formed, in one of two
    modes: 'same' for a narrow band, no longer than x, and 'valid' for a
    full one.

    Each is np.correlate, bitwise what np.convolve computes: the band is its
    own reversal, and np.convolve correlates the longer of its arguments
    with the reversal of the shorter, which a band longer than x reads as x
    given reversed.  numpy's correlation copies any input it cannot write
    or that is not contiguous.  So the band is read in place only if it is
    writeable (KernelOperator's private band), 'same' correlates with the
    band itself, not np.convolve's reversed view of it, and KernelOperator
    forms a reversed argument in that order, contiguous, rather than
    passing a reversed view: no product copies an operand."""
    if band.size <= x.size:
        return np.correlate(x, band, "same")
    return np.correlate(band, x, "valid")


def _padded(band: np.ndarray, n: int) -> np.ndarray:
    """The band padded with zeros to 2n - 1 entries, offsets -(n - 1) ...
    n - 1, in a new array."""
    out = np.zeros(2 * n - 1)
    pad = n - 1 - band.size // 2
    out[pad:pad + band.size] = band
    return out


def _band_matrix(band: np.ndarray, n: int) -> np.ndarray:
    """The n x n symmetric Toeplitz matrix of a band as a read-only view:
    row i is the window of n entries that starts i entries before the
    middle of the band, padded with zeros to 2n - 1 entries."""
    return sliding_window_view(_padded(band, n), n)[::-1]


def _window_extremes(x: np.ndarray, n: int, extreme: np.ufunc) -> np.ndarray:
    """extreme.reduce over each window x[t:t + n] of n consecutive entries,
    t = 0 ... x.size - n, for n <= x.size < 2n, in O(x.size) (van Herk
    1992; Gil & Werman 1993).  Row i of _band_matrix(band, n), which is
    also its column, is window n - 1 - i of _padded(band, n).

    Window t is x[t:n] followed by x[n:n + t]: a suffix of the block x[:n]
    and a prefix of the block x[n:].  One accumulate over each block, the
    first from its end, gives every such suffix's and prefix's extreme, and
    the window's is the extreme of its two.  np.maximum, np.minimum,
    np.fmax and np.fmin are associative and commutative, NaN rule included,
    so this is the windows' reduction exactly (a 0.0 tied with a -0.0 may
    read as the other)."""
    out = extreme.accumulate(x[n - 1::-1])[::-1][:x.size - n + 1]
    extreme(out[1:], extreme.accumulate(x[n:]), out=out[1:])
    return out


def swapped_marginals(marginals: MarginalPair) -> MarginalPair:
    return MarginalPair(marginals.omega2, marginals.omega1)


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


def _heat_band(grid: QuadratureGrid, s: float) -> np.ndarray:
    """The band of the 1-D heat kernel N(y - x; s^2) on a 1-D grid of n
    nodes at step h: its entries (_entries) at the offsets k h, |k| <= b,
    b the last offset whose entry is not stored as 0 (at most n - 1)."""
    e = _entries(_exponent(np.arange(grid.n_nodes) * grid.steps[0], s), s)
    # the entries fall with |k|, so the nonzero ones come first
    half = e[:max(1, np.count_nonzero(e))]
    return np.concatenate((half[:0:-1], half))


def _whitened(grid: QuadratureGrid, white: Optional[np.ndarray]) -> np.ndarray:
    """The (n, d) node coordinates of grid, times white unless it is None."""
    x = grid.nodes.reshape(grid.n_nodes, grid.dim)
    return x if white is None else x @ white


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
    lattice offsets k h) where both grids are one 1-D lattice, as a 1-D
    config's are, and otherwise one factor per axis (_heat_factor), built
    once for each distinct (grid1 lattice, grid2 lattice, scale) and held,
    read-only, at every axis that repeats it: build_grid repeats one
    lattice on every axis, so an isotropic kernel holds one factor.
    Otherwise it is one dense factor, the product of the per-coordinate
    factors on the whitened nodes, with entries below TINY stored as 0.

    Raises FeasibilityError unless each s^2 and the product of 2 pi s^2
    (1 / peak^2) are normal floats (_in_range).
    """
    norm = math.prod(2.0 * math.pi * s * s for s in scales)
    if not _in_range((s * s for s in scales), norm):
        raise FeasibilityError(f"kernel scales {list(scales)} are {OUT_OF_RANGE}")
    if grid1.dim == 1 and grid1.lattices == grid2.lattices:
        factors = (_heat_band(grid1, scales[0]),)
    elif white is None:
        built, factors = {}, []
        for key in zip(grid1.lattices, grid2.lattices, scales):
            if key not in built:
                built[key] = _heat_factor(np.linspace(*key[0]), np.linspace(*key[1]), key[2])
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
    return table_kernel(kernel.grid1, kernel.grid2, kernel.values / row_mass[:, None])


# --------------------------------------------------------------------------
# hypothesis checks
# --------------------------------------------------------------------------

class CheckResult(NamedTuple):
    """One exact grid check: status "pass" or "fail", a detail, and the
    first offending node indices (a kernel entry's as (i, j))."""

    status: str          # "pass" | "fail"
    detail: str = ""
    offending_nodes: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"


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


def _require_kernel_grids(kernel: KernelOperator, marginals: MarginalPair) -> None:
    """Raise GridError unless omega1 lies on the lattices of the kernel's
    grid1 and omega2 on those of its grid2 (QuadratureGrid: a grid is its
    lattices), the grids every solver integrates each marginal over."""
    for k, field, grid in ((1, marginals.omega1, kernel.grid1),
                           (2, marginals.omega2, kernel.grid2)):
        if field.grid.lattices != grid.lattices:
            raise GridError(f"omega{k} lies on the lattices {list(field.grid.lattices)}, "
                            f"not on the kernel's grid{k}, {list(grid.lattices)}")


class FeasibilityReport(Frozen):
    """Whether Fortet's scheme may run on the instance (kernel, marginals).

    It raises GridError unless each marginal lies on its kernel grid's
    lattices (_require_kernel_grids), so full_report, check_assumptions
    and the CLI's check refuse such an instance before any check.
    refusal is None or why not, which the solvers raise as a
    FeasibilityError unless forced: the hypothesis checks that failed,
    else, where the report reads integrability, the rule that found it
    divergent, kappa's or the scan's integrability estimate (with a hint
    when swapping the marginals looks feasible).  It and
    swap_recommended are one verdict, formed with the report: for the
    Gaussian family from _gaussian_margins alone, where every hypothesis
    holds and integrability is kappa_k > 0 on every axis, and otherwise
    from the grid scan, hypotheses (the exact grid checks) and
    condition_star (of the swapped instance too where that diverges).
    Those two are the scan's in both routes, computed on first read;
    condition_star is None where the report reads no integrability.  Where
    the routes part, kappa decides: the continuum integral diverges where a
    kappa_k <= 0, which a truncated grid's tail fit can miss.
    """

    def __init__(self, kernel: KernelOperator, marginals: MarginalPair,
                 integrability: bool = True):
        _require_kernel_grids(kernel, marginals)
        self._store(kernel=kernel, marginals=marginals, integrability=integrability)
        margins = _gaussian_margins(kernel, marginals)
        if margins is None:
            failed = [k for k, v in self.hypotheses.items() if not v.ok]
            cs = self.condition_star
            divergent = cs is not None and cs.verdict != "finite"
            swap = divergent and condition_star(
                kernel.swapped(), swapped_marginals(marginals)).verdict == "finite"
            rule = "integrability estimate is suspected-divergent"
        else:
            failed, divergent = [], integrability and not margins[0]
            swap = divergent and margins[1]
            rule = "Bernstein's margin kappa is not positive on every axis"
        refusal = None
        if failed:
            refusal = f"hypothesis checks failed: {', '.join(failed)}"
        elif divergent:
            refusal = rule + ("; swapping the marginals looks feasible" if swap else "")
        if refusal is not None:
            refusal += " (pass force=True to run anyway)"
        self._store(refusal=refusal, swap_recommended=swap)

    @cached_property
    def hypotheses(self) -> Dict[str, CheckResult]:
        return _hard_checks(self.kernel, self.marginals)

    @cached_property
    def condition_star(self) -> Optional[ConditionStar]:
        return condition_star(self.kernel, self.marginals) if self.integrability else None

    @property
    def solver_admissible(self) -> bool:
        return self.refusal is None


def _require_spd(mat: np.ndarray, what: str) -> None:
    if mat.shape != (len(mat),) * 2 or not np.allclose(mat, mat.T, atol=1e-12):
        raise FeasibilityError(f"{what} must be symmetric")
    if np.linalg.eigvalsh(mat).min() <= 0:
        raise FeasibilityError(f"{what} must be positive definite")


def _extremes(kernel: KernelOperator, extreme: np.ufunc, axis: int) -> np.ndarray:
    """extreme.reduce (np.maximum, np.fmax or np.fmin) over every row
    (axis=1) or column (axis=0) of the kernel matrix.  A row of a Kronecker
    product is the product of one row per factor, and for nonnegative
    factors the extreme of those products is the product of the extremes,
    exactly, because rounding is monotone.  A one-factor kernel is reduced
    directly; a band's rows are its windows, read in O(n) by
    _window_extremes, and its columns are its rows."""
    if kernel.banded:
        n = kernel.grid1.n_nodes
        return _window_extremes(_padded(kernel.factors[0], n), n, extreme)[::-1]
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
    """The report of the standing hypotheses alone: the exact grid checks,
    and no integrability estimate, so that for the Gaussian family
    (_gaussian_margins) it has nothing to refuse.

    The checks read the kernel's factors and never build its matrix: row
    and column extremes come from per-factor extremes (a band's from its
    windows, in O(n), with no window view), and only a row that holds an
    offending entry is built.  Never raises on a failed check: the report
    lists offending node indices and the caller decides (solvers refuse
    inadmissible instances unless forced).
    """
    return FeasibilityReport(kernel, marginals, integrability=False)


def _hard_checks(kernel: KernelOperator, marginals: MarginalPair) -> Dict[str, CheckResult]:
    """The exact grid checks of check_assumptions, by name."""
    checks: Dict[str, CheckResult] = {}
    # a NaN entry is neither negative nor positive, so those two checks
    # reduce with fmin / fmax, which skip it; it does breach the bound.
    # Negative entries are counted a row at a time, no object per entry
    rows = _extremes(kernel, np.fmin, axis=1) < 0
    neg = sum(int(np.count_nonzero(_row(kernel, i) < 0)) for i in np.flatnonzero(rows))
    checks["kernel_nonnegative"] = (
        CheckResult("pass") if not neg else
        CheckResult("fail", f"{neg} negative entries",
                    next(_hits(kernel, rows, lambda r: r < 0)))
    )
    bound = kernel.sigma_bound
    over = next(_hits(kernel, ~(_extremes(kernel, np.maximum, axis=1) < bound),
                      lambda r: ~(r < bound)), None)
    checks["kernel_bounded"] = (
        CheckResult("pass", f"bound {bound:.6g}") if over is None else
        CheckResult("fail", f"entries reach the stated bound {bound:.6g}", over)
    )

    # a DensityField is nonnegative: its constructor refuses a negative value
    for name, dens in (("marginal1", marginals.omega1), ("marginal2", marginals.omega2)):
        m = dens.mass()
        checks[f"{name}_unit_mass"] = (
            CheckResult("pass", f"mass {m!r}") if abs(m - 1.0) <= MASS_TOL else
            CheckResult("fail", f"mass {m!r} deviates from 1 by {abs(m - 1.0):.3g}")
        )

    for what, axis in (("rows", 1), ("columns", 0)):
        ok = _extremes(kernel, np.fmax, axis=axis) > 0
        checks[f"kernel_{what}_positive"] = (
            CheckResult("pass") if ok.all() else
            CheckResult("fail", f"all-zero kernel {what}",
                        tuple(int(i) for i in np.flatnonzero(~ok)[:8]))
        )
    return checks


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def condition_star(kernel: KernelOperator, marginals: MarginalPair) -> ConditionStar:
    """Evaluate the integrability estimate and its tail-growth heuristic.
    It runs under one np.errstate, as the closing does: an inf kernel entry
    against a 0 gives 0 * inf = NaN in an integral, which DensityField.over
    and the tail fit read."""
    # pushforward's integral without its DensityField validation: a negative
    # or unbounded kernel must still get a report, not a raise
    denom = kernel.apply_T(marginals.omega1.values)
    omega2 = marginals.omega2
    zero_nodes = tuple(int(j) for j in np.flatnonzero((denom == 0) & omega2.support))
    if zero_nodes:
        return ConditionStar(math.inf, "suspected-divergent", math.inf, zero_nodes)

    integrand = omega2.over(denom, "integral of g*omega1", "omega2 > 0")
    estimate = float(np.sum(kernel.grid2.weighted(integrand)))

    # tail behavior: slope of log(integrand) against |y|^2 over the outer
    # 20% of the grid (by radius); positive slope means the truncated
    # integrand is still growing at the boundary.  Near the boundary a
    # kernel column has mass off the grid, which truncates the integral of
    # g * omega1 and lifts even a decaying integrand there, so the fit
    # divides that integral by the column's grid mass, apply_T(1).  An inf
    # kernel entry gives 0 * inf = NaN, which the fit skips as it skips 0
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
        return _kappa(*(np.float64(v) ** 2 for v in (sigma, sigma1, sigma2)))


def _kappa(v, v1, v2) -> float:
    """gaussian_kappa from the variances v, v1 and v2: 1/v2 - 1/(v1 + v)."""
    return float(1.0 / v2 - 1.0 / (v1 + v))


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


def _gaussian_margins(kernel: KernelOperator,
                      marginals: MarginalPair) -> Optional[Tuple[bool, bool]]:
    """Whether Bernstein's margin kappa_k = 1/v2_k - 1/(v1_k + s_k^2) is
    positive on every axis k, and whether it is with the marginals'
    variances v1 and v2 exchanged, or None off the Gaussian family: a
    Gaussian kernel of scales s and white None between Gaussian marginals
    of diagonal covariance (DensityField.gaussian), all on one grid, with
    omega1 >= TINY at every node.  One grid is read from lattices: the
    kernel's two grids' are equal, and the marginals lie on them, which
    FeasibilityReport checks before it asks (_require_kernel_grids).  These
    two are the family's whole verdict (FeasibilityReport).

    There the integral of omega2 / (g * omega1) over R^d is a product of
    one factor per axis, each finite exactly where its kappa_k > 0, and the
    float-range rule, which the kernel and both marginals met when built,
    makes every hypothesis hold: the kernel's entries are nonnegative
    and below its padded peak, each row and column holds its diagonal
    entry, the peak, and the marginals are renormalized densities.  omega1
    >= TINY keeps Int g omega1 positive at every node, so the scan's
    zero-denominator refusal cannot fire.  kappa_k is gaussian_kappa's
    margin (_kappa), read from the variances the fields record."""
    (w1, w2), gaussian = marginals, kernel.gaussian
    if (gaussian is None or gaussian[1] is not None or w1.gaussian is None
            or w2.gaussian is None or w1.values.min() < TINY
            or kernel.grid1.lattices != kernel.grid2.lattices):
        return None
    return tuple(all(_kappa(s * s, a, b) > 0 for s, a, b in zip(gaussian[0], va, vb))
                 for va, vb in ((w1.gaussian, w2.gaussian), (w2.gaussian, w1.gaussian)))


def full_report(kernel: KernelOperator, marginals: MarginalPair) -> FeasibilityReport:
    """The report whose verdict reads integrability (FeasibilityReport):
    closed form for the Gaussian family, kappa on each axis with no kernel
    apply, and the grid scan otherwise.  Its hypotheses and
    condition_star are the scan's, computed on first read, so a solve,
    which reads only the refusal, never pays for the scan of a Gaussian
    instance."""
    return FeasibilityReport(kernel, marginals)
