"""Quadrature grids on truncated boxes [-R, R]^d.

A grid is one trapezoid lattice per axis, (lo, hi, n): its axes, its
nodes and its (n,) weights are formed from those numbers when read.  Every
integral in the solver is a weighted sum over one of these grids in their
fixed node order (QuadratureGrid.weighted forms the summands;
DensityField.mass is the plain sum, numpy's pairwise summation), which is
what makes whole runs reproducible byte-for-byte.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Tuple

import numpy as np

from .errors import GridError

#: Refuse to build grids above this many nodes (dense kernels get huge first).
MAX_GRID_NODES = 4_000_000
#: float64's smallest normal number
TINY = float(np.finfo(float).tiny)


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
    """Tensor trapezoid grid: one uniform lattice per axis, and nothing else.

    lattices holds one (lo, hi, n) per axis, the n >= 2 nodes np.linspace
    (lo, hi, n) builds, at the step h = (hi - lo) / (n - 1), with trapezoid
    weights h, and h / 2 at the two ends.  dim, shape, n_nodes, steps and
    largest_weight are read from these numbers, and so is grid equality:
    two grids are one grid where their lattices are equal.  == on two grid
    objects is identity, so every same-grid test in the package compares
    lattices (a marginal on its kernel's grid, a band's one lattice, the
    closed-form verdict's and the interpolation's one grid).  axes, nodes
    and weights are read-only arrays formed at each read: nodes is the
    axes' 'ij' mesh (last axis fastest), the order the per-axis kernel
    factors are applied in, (n,) for dim == 1 (the axis itself) and (n,
    dim) otherwise, and weights, (n,), the products of the axes' weight
    vectors over that mesh.  Integrals apply the weights through weighted,
    which forms f * weights in one new buffer, with no (n,) weights beside
    it.  The one check is the lattice's: each step, and the least and the
    largest weight product, must be normal floats, so that no weight, nor
    any weight times the powers of two apply scales by, is subnormal or
    overflows.
    """

    def __init__(self, lattices: Tuple[Tuple[float, float, int], ...]):
        # list comprehensions, not generators: a generator's frame is
        # allocated on the heap, ~200 bytes beside a grid of ~600
        lattices = tuple([(float(lo), float(hi), int(n)) for lo, hi, n in lattices])
        if not lattices or min([n for _, _, n in lattices]) < 2:
            raise GridError("a grid needs at least one axis, of at least 2 nodes")
        self._store(lattices=lattices)
        steps = self.steps
        # rounding is monotone, so the products' extremes are the products
        # of the axes' extremes, in the same order; a NaN step fails the
        # product's test, and an infinite one the largest weight's
        if not (min(steps) >= TINY and math.prod([h / 2.0 for h in steps]) >= TINY
                and self.largest_weight < math.inf):
            raise GridError(f"grid steps {list(steps)} give weights outside float range: "
                            "each step and the least and largest weight products must "
                            "be normal floats")

    @property
    def dim(self) -> int:
        return len(self.lattices)

    @property
    def shape(self) -> Tuple[int, ...]:
        """The node count of each axis."""
        return tuple([n for _, _, n in self.lattices])

    @property
    def n_nodes(self) -> int:
        return math.prod(self.shape)

    @property
    def steps(self) -> Tuple[float, ...]:
        """The step h of each axis's lattice."""
        return tuple([_step(*lattice) for lattice in self.lattices])

    @property
    def largest_weight(self) -> float:
        """The largest node weight: the product of each axis's largest, h
        (h / 2 on an axis of 2 nodes), bitwise max(weights)."""
        return math.prod([h if n > 2 else h / 2.0 for h, n in zip(self.steps, self.shape)])

    @property
    def axes(self) -> Tuple[np.ndarray, ...]:
        """Each axis's nodes, np.linspace(lo, hi, n), read-only, formed at
        each read."""
        return tuple(read_only(np.linspace(*lattice)) for lattice in self.lattices)

    @property
    def nodes(self) -> np.ndarray:
        """The node coordinates, read-only: the axes' mesh (_mesh), built at
        each read."""
        return _mesh(self.axes)

    @property
    def weights(self) -> np.ndarray:
        """The (n,) node weights, read-only: the products of the axes'
        weight vectors over the mesh (_product), formed at each read."""
        return read_only(self._weight_product())

    def weighted(self, f: np.ndarray, k: int = 0, reverse: bool = False) -> np.ndarray:
        """f * (weights * 2^k) in one new buffer, bitwise that expression:
        the weight products (_weight_product) are formed in the buffer,
        scaled by 2^k there, and f then multiplies it in place.  With
        reverse, f is read last node first, into a contiguous buffer: the
        weights read the same either way, and reversing every axis reverses
        the mesh."""
        out = self._weight_product()
        if k:
            out *= 2.0 ** k
        out *= f[::-1] if reverse else f
        return out

    def _weight_product(self) -> np.ndarray:
        """The node weights in a new, writeable (n,) buffer: on one axis its
        weight vector itself, else the products of the axes' (_product)."""
        return _product([_trapezoid(*lattice) for lattice in self.lattices])


def _step(lo: float, hi: float, n: int) -> float:
    """The step h of the lattice (lo, hi, n)."""
    return (hi - lo) / (n - 1)


def _lattice_nodes(lo: float, hi: float, n: int):
    """The nodes of the lattice (lo, hi, n), np.linspace(lo, hi, n) bit for
    bit, as an iterator of floats that holds no array: numpy's own
    k * h + lo for k < n - 1, h = _step(lo, hi, n), then hi."""
    return chain(map(lo.__add__, map(_step(lo, hi, n).__mul__, range(n - 1))), [hi])


def _trapezoid(lo: float, hi: float, n: int) -> np.ndarray:
    """The trapezoid weights of the lattice (lo, hi, n): its step h, with
    h / 2 at the two ends, in a new array."""
    h = _step(lo, hi, n)
    w = np.empty(n)
    w.fill(h)  # np.full's own dtype inference costs more than the fill
    w[0] = w[-1] = h / 2.0
    return w


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
    """Build the trapezoid tensor grid on [-radius, radius]^dim: the one
    lattice (-radius, radius, points) on every axis, the uniform nodes
    np.linspace builds, with half weights at its two ends.  The integrands
    are analytic and decay, so the rule converges exponentially in 1 / h
    and the radius sets the error (Trefethen & Weideman, SIAM Review 2014).

    Raises GridError for a radius that is not finite and positive or whose
    span 2R overflows, fewer than 2 points, a dim below 1 and a grid above
    MAX_GRID_NODES, and, from the grid's own check, for a step or weight
    product that is no normal float."""
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
    return QuadratureGrid(((-radius, radius, points),) * dim)
