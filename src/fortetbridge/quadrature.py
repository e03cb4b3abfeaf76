"""Quadrature grids on truncated boxes [-R, R]^d.

Every integral in the solver is a weighted sum over one of these grids in
their fixed node order (DensityField.mass is the plain one, numpy's
pairwise summation), which is what makes whole runs reproducible
byte-for-byte.
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
    """Tensor quadrature grid: its per-axis 1-D node arrays and its weights.

    axes holds one strictly increasing node array per dimension, and weights
    the (n,) strictly positive weights of their 'ij' mesh (last axis
    fastest), the order the per-axis kernel factors are applied in.  nodes
    is that mesh, derived when read: (n,) for dim == 1 (the axis itself) and
    (n, dim) otherwise.
    """

    def __init__(self, axes: Tuple[np.ndarray, ...], weights):
        axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
        weights = np.asarray(weights, dtype=float)
        if not axes:
            raise GridError("a grid needs at least one axis")
        for ax in axes:
            if ax.ndim != 1 or np.any(np.diff(ax) <= 0):
                raise GridError("axis nodes must be 1-D and strictly increasing")
        n = math.prod(ax.size for ax in axes)
        if n < 2:
            raise GridError("grid needs at least 2 nodes")
        if weights.shape != (n,):
            raise GridError("weights length must match node count")
        if not np.all(weights > 0):
            raise GridError("quadrature weights must be strictly positive")
        self._store(axes=axes, weights=weights)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def nodes(self) -> np.ndarray:
        """The node coordinates, read-only: the axes' mesh (_mesh), built at
        each read."""
        return _mesh(self.axes)

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]


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
    weights = w
    for _ in range(dim - 1):
        # the products w_i w_j ... over the 'ij' mesh, last axis fastest
        weights = np.multiply.outer(weights, w).ravel()
    return QuadratureGrid((x,) * dim, weights)
