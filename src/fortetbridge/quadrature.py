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

RULES = ("trapezoid", "gauss-legendre")

#: Refuse to build grids above this many nodes (dense kernels get huge first).
MAX_GRID_NODES = 4_000_000

#: Newton steps allowed for the Gauss-Legendre nodes (about 4 are taken)
GL_NEWTON_STEPS = 50


class Frozen:
    """Base of the package's immutable classes: __init__ stores each
    attribute once, in vars(self), and assigning or deleting one afterwards
    raises AttributeError.  A cached_property still caches, since it writes
    vars(self) too."""

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
            ax.setflags(write=False)
        n = math.prod(ax.size for ax in axes)
        if n < 2:
            raise GridError("grid needs at least 2 nodes")
        if weights.shape != (n,):
            raise GridError("weights length must match node count")
        if not np.all(weights > 0):
            raise GridError("quadrature weights must be strictly positive")
        weights.setflags(write=False)
        vars(self).update(axes=axes, weights=weights)

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
    mesh.setflags(write=False)
    return mesh


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1]: Newton's method on the
    recurrence from Tricomi's guess for the n//2 + n%2 non-negative roots (0
    exactly for odd n), mirrored; gauleg in Numerical Recipes.  O(n^2) time
    and O(n) memory, where the companion-matrix eigensolver is O(n^3), O(n^2)."""
    x = np.cos(np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    for _ in range(GL_NEWTON_STEPS):
        dx = np.divide(*_legendre(n, x))
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-14:
            break
    else:
        raise GridError(f"Gauss-Legendre nodes for {n} points did not converge")
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    h = n // 2
    return np.concatenate([-x[:h], x[::-1]]), np.concatenate([w[:h], w[::-1]])


def _axis_rule(radius: float, points: int, rule: str):
    if rule == "trapezoid":
        x = np.linspace(-radius, radius, points)
        h = 2.0 * radius / (points - 1)
        w = np.full(points, h)
        w[0] = w[-1] = h / 2.0
        return x, w
    if rule == "gauss-legendre":
        xi, wi = _gauss_legendre(points)
        return radius * xi, radius * wi
    raise GridError(f"unknown quadrature rule {rule!r}; expected one of {RULES}")


def build_grid(dim: int = 1, radius: float = 1.0, points_per_axis: int = 2,
               rule: str = "trapezoid") -> QuadratureGrid:
    """Build a tensor quadrature grid on [-radius, radius]^dim."""
    if radius <= 0:
        raise GridError("radius must be positive")
    if points_per_axis < 2:
        raise GridError("points_per_axis must be at least 2")
    if dim < 1:
        raise GridError("dim must be at least 1")
    total = points_per_axis ** dim
    if total > MAX_GRID_NODES:
        raise GridError(
            f"grid of {points_per_axis}^{dim} = {total} nodes exceeds the cap "
            f"of {MAX_GRID_NODES} (approx {8 * total / 1e9:.1f} GB per vector)"
        )
    x, w = _axis_rule(float(radius), int(points_per_axis), rule)
    weights = w
    for _ in range(dim - 1):
        # the products w_i w_j ... over the 'ij' mesh, last axis fastest
        weights = np.multiply.outer(weights, w).ravel()
    return QuadratureGrid((x,) * dim, weights)
