"""Quadrature grids on truncated boxes [-R, R]^d and weighted-sum integration.

Every integral in the solver is a weighted sum over one of these grids, so
determinism of `integrate` (fixed summation order) is what makes whole runs
reproducible byte-for-byte.
"""

from __future__ import annotations

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
    """Tensor quadrature grid over the box [-R, R]^dim.

    nodes is (n,) for dim == 1 and (n, dim) otherwise; weights is always (n,)
    and strictly positive.  axes keeps the per-axis 1-D node arrays; when
    given, nodes must be their 'ij' mesh (last axis fastest), which is the
    order the per-axis kernel factors are applied in.  A grid without axes
    has no tensor structure to use.
    """

    def __init__(self, nodes, weights, truncation_radius: float, dim: int,
                 rule: str, axes: Tuple[np.ndarray, ...] = ()):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if nodes.shape[0] < 2:
            raise GridError("grid needs at least 2 nodes")
        if weights.shape != (nodes.shape[0],):
            raise GridError("weights length must match node count")
        if not np.all(weights > 0):
            raise GridError("quadrature weights must be strictly positive")
        for ax in axes:
            if np.any(np.diff(ax) <= 0):
                raise GridError("axis nodes must be strictly increasing")
        if axes and (len(axes) != dim or not np.array_equal(nodes, _mesh(axes))):
            raise GridError("nodes must be the 'ij' mesh of the grid axes")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        vars(self).update(nodes=nodes, weights=weights, truncation_radius=truncation_radius,
                          dim=dim, rule=rule, axes=axes)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


class GridFunction(Frozen):
    """A function known by its values at the grid nodes."""

    def __init__(self, grid: QuadratureGrid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_nodes,):
            raise GridError(
                f"values shape {values.shape} does not match grid "
                f"({grid.n_nodes} nodes)"
            )
        values.setflags(write=False)
        vars(self).update(grid=grid, values=values)


def _mesh(axes) -> np.ndarray:
    """Nodes of the 'ij' tensor mesh of axes: (n,) for one axis, else (n, d)."""
    if len(axes) == 1:
        return np.asarray(axes[0], dtype=float)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


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
    if dim == 1:
        return QuadratureGrid(x, w, float(radius), 1, rule, axes=(x,))
    nodes = _mesh([x] * dim)
    wmesh = np.meshgrid(*([w] * dim), indexing="ij")
    weights = np.ones(total)
    for wm in wmesh:
        weights = weights * wm.ravel()
    return QuadratureGrid(nodes, weights, float(radius), dim, rule,
                          axes=tuple([x] * dim))


def integrate(f: GridFunction) -> float:
    """Weighted sum sum_i w_i f(x_i).

    Uses numpy's pairwise summation, which is deterministic for a fixed
    node order; callers must not reorder nodes between runs.
    """
    bad = np.flatnonzero(~np.isfinite(f.values))
    if bad.size:
        raise GridError(f"non-finite value at node index {int(bad[0])}")
    return float(np.sum(f.grid.weights * f.values))
