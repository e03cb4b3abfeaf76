"""Quadrature grids on truncated boxes [-R, R]^d.

A grid is its axes and one weight vector per axis: its nodes and its (n,)
weights are their tensor products, formed when read.  Every integral in
the solver is a weighted sum over one of these grids in their fixed node
order (QuadratureGrid.weighted forms the summands; DensityField.mass is
the plain sum, numpy's pairwise summation), which is what makes whole runs
reproducible byte-for-byte.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import GridError

#: Refuse to build grids above this many nodes (dense kernels get huge first).
MAX_GRID_NODES = 4_000_000


def read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place: the package's one freeze (Frozen)."""
    # positional: write=False would build a kwargs dict at each call
    a.setflags(False)
    return a


def _top(x: np.ndarray) -> float:
    """x.max(), read at x.argmax(): the same entry (NaN if x holds one),
    from the search loop, ~3x faster than the reduction on a few hundred
    nodes.  Of a 0.0 and a -0.0 tied at the top it may pick the other; no
    caller tells them apart."""
    return float(x[x.argmax()])


def _bottom(x: np.ndarray) -> float:
    """x.min() as _top reads x.max()."""
    return float(x[x.argmin()])


class Frozen:
    """Base of the package's immutable classes: __init__ stores each
    attribute once, through _store, which makes every ndarray among them,
    or in a tuple among them, read-only; a private _ one is stored as
    given, for the record to write (StepLog's block) or to keep writeable
    (KernelOperator's band).  Assigning or deleting an attribute
    afterwards raises AttributeError.  A cached_property still caches,
    since it writes vars(self) too; an array it derives is read_only."""

    def _store(self, **attrs) -> None:
        for name, value in attrs.items():
            if not name.startswith("_"):
                for a in value if isinstance(value, tuple) else (value,):
                    if isinstance(a, np.ndarray):
                        read_only(a)
        vars(self).update(attrs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class QuadratureGrid(Frozen):
    """Tensor quadrature grid: one node array and one weight vector per axis.

    axes holds one finite, strictly increasing node array per dimension, and
    axis_weights one finite, strictly positive weight vector per axis, of
    its axis's length.  The grid's nodes are the axes' 'ij' mesh (last axis
    fastest), the order the per-axis kernel factors are applied in, and its
    weights the products of the axis weights over that mesh.  Neither is
    stored: nodes is derived at each read, (n,) for dim == 1 (the axis
    itself) and (n, dim) otherwise, and so is weights, (n,), the axis's own
    vector for dim == 1.  Integrals apply the weights through weighted,
    which forms f * weights in one new buffer, with no (n,) weights beside
    it.
    """

    def __init__(self, axes: Tuple[np.ndarray, ...], weights):
        """weights is a tuple of one weight vector per axis; a 1-D grid's
        may be given as its one vector."""
        axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
        if not isinstance(weights, tuple):
            weights = (weights,)
        weights = tuple(np.asarray(w, dtype=float) for w in weights)
        if not axes:
            raise GridError("a grid needs at least one axis")
        for ax in axes:
            # a NaN node fails every comparison, but an inf end passes np.diff
            if ax.ndim != 1 or not (np.all(np.diff(ax) > 0) and np.all(np.isfinite(ax))):
                raise GridError("axis nodes must be 1-D, finite and strictly increasing")
        if math.prod(ax.size for ax in axes) < 2:
            raise GridError("grid needs at least 2 nodes")
        if [w.shape for w in weights] != [ax.shape for ax in axes]:
            raise GridError("weights length must match each axis, one vector per axis")
        # rounding is monotone, so the products' extremes are the products
        # of the axes' extremes, in the same order
        if not (all(np.all((w > 0) & (w < math.inf)) for w in weights)
                and math.prod(float(w.min()) for w in weights) > 0
                and math.prod(float(w.max()) for w in weights) < math.inf):
            raise GridError("quadrature weights must be finite and strictly positive")
        self._store(axes=axes, axis_weights=weights)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def nodes(self) -> np.ndarray:
        """The node coordinates, read-only: the axes' mesh (_mesh), built at
        each read."""
        return _mesh(self.axes)

    @property
    def weights(self) -> np.ndarray:
        """The (n,) node weights, read-only: the axis weights' products over
        the mesh (_product), formed at each read."""
        return read_only(_product(self.axis_weights))

    @property
    def n_nodes(self) -> int:
        return math.prod(map(len, self.axes))

    def weighted(self, f: np.ndarray, k: int = 0, reverse: bool = False) -> np.ndarray:
        """f * (weights * 2^k) in one new buffer, bitwise that expression:
        the weights are formed (_product) and scaled in the buffer, which f
        then multiplies in place.  With reverse, both are read last node
        first, into a contiguous buffer: reversing every axis reverses the
        mesh."""
        ws = self.axis_weights
        if reverse:
            # a list: tuple() of an iterator allocates its tuple anew, and
            # each one freed stays on the interpreter's free list, 48
            # bytes a call
            ws, f = [w[::-1] for w in ws], f[::-1]
        if len(ws) > 1:
            out = _product(ws)
            if k:
                out *= 2.0 ** k
        elif k:
            out = np.multiply(ws[0], 2.0 ** k)
        else:
            return np.multiply(ws[0], f)
        out *= f
        return out


def _product(ws) -> np.ndarray:
    """The products of the vectors ws over their 'ij' mesh, last axis
    fastest: ws[0] itself for one vector, else one new (n,) buffer.  Each
    outer product is a rank-1 np.dot, which allocates only its result, where
    np.multiply.outer allocates two ufunc buffers beside it; each entry is
    one rounded product either way, so the bits are the same."""
    out = ws[0]
    for w in ws[1:]:
        out = np.dot(out.reshape(-1, 1), w.reshape(1, -1)).reshape(-1)
    return out


def _mesh(axes) -> np.ndarray:
    """Nodes of the 'ij' tensor mesh of axes, read-only: the axis itself for
    one axis, else a new (n, d) array."""
    if len(axes) == 1:
        return axes[0]
    mesh = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    return read_only(mesh)


def build_grid(dim: int = 1, radius: float = 1.0,
               points_per_axis: int = 2) -> QuadratureGrid:
    """Build the trapezoid tensor grid on [-radius, radius]^dim: every axis
    the uniform lattice np.linspace builds, with half weights at its two
    ends.  The integrands are analytic and decay, so the rule converges
    exponentially in 1 / h and the radius sets the error (Trefethen &
    Weideman, SIAM Review 2014)."""
    radius, points = float(radius), int(points_per_axis)
    if not 0 < 2.0 * radius < math.inf:
        raise GridError(f"radius must be positive with a finite span 2R, not {radius!r}")
    if points < 2:
        raise GridError("points_per_axis must be at least 2")
    if dim < 1:
        raise GridError("dim must be at least 1")
    # points >= 2, so a dim above the cap's bit length exceeds the cap, and
    # below it points ** dim is a small integer
    if dim > MAX_GRID_NODES.bit_length() or points ** dim > MAX_GRID_NODES:
        raise GridError(f"grid of points^dim = {points}^{dim} nodes exceeds the cap "
                        f"of {MAX_GRID_NODES}")
    x = np.linspace(-radius, radius, points)
    h = 2.0 * radius / (points - 1)
    w = np.full(points, h)
    w[0] = w[-1] = h / 2.0
    return QuadratureGrid((x,) * dim, (w,) * dim)
