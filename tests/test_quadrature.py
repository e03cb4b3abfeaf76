"""Grid construction and weighted-sum integration."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from fortetbridge import QuadratureGrid, build_grid
from fortetbridge.errors import GridError
from fortetbridge.quadrature import MAX_GRID_NODES
from tests.conftest import traced_peak

GAUSS_MASS_TOL = 1e-9


def integrate(grid, values):
    """The quadrature sum of values over grid, as DensityField.mass takes it."""
    return float(np.sum(grid.weights * values))


def test_trapezoid_401_radius_8():
    grid = build_grid(dim=1, radius=8.0, points_per_axis=401)
    assert grid.n_nodes == 401
    assert grid.nodes[0] == -8.0 and grid.nodes[-1] == 8.0
    spacing = np.diff(grid.nodes)
    assert np.allclose(spacing, 0.04, atol=1e-12)
    # trapezoid closed rule: half weights only at the two ends
    assert grid.weights[0] == pytest.approx(0.02, abs=0)
    assert float(np.sum(grid.weights)) == pytest.approx(16.0, abs=1e-12)


def test_two_point_grid_has_unit_weights():
    grid = build_grid(dim=1, radius=1.0, points_per_axis=2)
    assert np.array_equal(grid.nodes, [-1.0, 1.0])
    assert np.array_equal(grid.weights, [1.0, 1.0])


def test_2d_grid_sizes_and_volume():
    grid = build_grid(dim=2, radius=4.0, points_per_axis=51)
    assert grid.n_nodes == 51 * 51
    assert grid.nodes.shape == (2601, 2)
    assert float(np.sum(grid.weights)) == pytest.approx(64.0, rel=1e-12)


def test_normal_density_integrates_to_one():
    grid = build_grid(dim=1, radius=8.0, points_per_axis=801)
    vals = np.exp(-grid.nodes ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    assert integrate(grid, vals) == pytest.approx(1.0, abs=GAUSS_MASS_TOL)


def test_trapezoid_refinement_is_second_order():
    # halving h should shrink the error by ~4 for a smooth integrand
    exact = 2.0 * math.sin(2.0)

    def err(points):
        grid = build_grid(dim=1, radius=2.0, points_per_axis=points)
        return abs(integrate(grid, np.cos(grid.nodes)) - exact)

    ratio = err(101) / err(201)
    assert 3.5 <= ratio <= 4.5


def test_grid_validation_errors():
    with pytest.raises(GridError):
        build_grid(dim=1, radius=0.0, points_per_axis=10)
    with pytest.raises(GridError):
        build_grid(dim=1, radius=1.0, points_per_axis=1)
    with pytest.raises(GridError):
        build_grid(dim=3, radius=1.0, points_per_axis=200)  # 8e6 > cap
    with pytest.raises(GridError, match="^dim must be at least 1$"):
        build_grid(dim=0, radius=1.0, points_per_axis=10)
    assert 200 ** 3 > MAX_GRID_NODES
    # a radius that is not finite, or whose span 2R overflows: each once
    # took np.linspace's RuntimeWarning, or a late error naming no radius
    for radius in (math.inf, math.nan, 1e308):
        with pytest.raises(GridError, match=f"radius .* not {re.escape(repr(radius))}"):
            build_grid(dim=1, radius=radius, points_per_axis=10)
    # the cap is checked without forming points ** dim, whose 30103 digits
    # once failed to print
    with pytest.raises(GridError, match=rf"2\^100000 nodes exceeds the cap of {MAX_GRID_NODES}"):
        build_grid(dim=100_000, radius=1.0, points_per_axis=2)


def test_grid_arrays_are_write_locked():
    grid = build_grid(dim=1, radius=1.0, points_per_axis=5)
    with pytest.raises(ValueError):
        grid.nodes[0] = 99.0


@pytest.mark.parametrize("dim", [2, 3])
def test_nodes_are_the_read_only_mesh_of_the_axes(dim):
    # a grid with axes derives its nodes, bitwise their 'ij' mesh, and its
    # weights are bitwise the product a loop over the mesh forms.  The axes
    # are locked too: a write to one would move every node it spans
    grid = build_grid(dim=dim, radius=2.0, points_per_axis=7)
    axis = build_grid(dim=1, radius=2.0, points_per_axis=7)
    x, w = axis.nodes, axis.weights
    mesh = np.meshgrid(*[x] * dim, indexing="ij")
    assert grid.nodes.tobytes() == np.column_stack([m.ravel() for m in mesh]).tobytes()
    weights = np.ones(grid.n_nodes)
    for wm in np.meshgrid(*[w] * dim, indexing="ij"):
        weights = weights * wm.ravel()
    assert grid.weights.tobytes() == weights.tobytes()
    for array in (grid.nodes, grid.weights) + grid.axes:
        with pytest.raises(ValueError):
            array[0] = 99.0


def test_a_tensor_grid_holds_no_node_mesh():
    # a 41^3 grid holds O(sum n_k) bytes, its axes and one weight vector per
    # axis.  Its (N, 3) node mesh and the weights' meshgrids took 13 node
    # arrays, and the (n,) product of its axis weights, formed now at each
    # read of weights, 551 kB
    tracemalloc.start()
    try:
        grid = build_grid(dim=3, radius=8.0, points_per_axis=41)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    axis_bytes = sum(ax.nbytes for ax in grid.axes)
    assert [w.shape for w in grid.axis_weights] == [(41,)] * 3
    assert held <= 4 * axis_bytes and peak <= 8 * axis_bytes


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weights_are_the_iterated_outer_product_of_the_axis_weights(dim):
    # weights, and weighted's f * (weights * 2^k), are bitwise the product
    # that one np.multiply.outer per further axis forms, and so is weighted
    # read last node first, into a contiguous buffer; on random per-axis
    # weights, each entry a rounded product
    rng = np.random.default_rng(dim)
    sizes = (7, 5, 4)[:dim]
    axes = tuple(np.cumsum(rng.uniform(0.1, 1.0, n)) for n in sizes)
    ws = tuple(rng.uniform(1e-3, 1e3, n) for n in sizes)
    grid = QuadratureGrid(axes, ws)
    product = ws[0]
    for w in ws[1:]:
        product = np.multiply.outer(product, w).ravel()
    assert grid.weights.tobytes() == product.tobytes()
    assert not grid.weights.flags.writeable
    f = rng.standard_normal(grid.n_nodes)
    for k in (0, 1, 57):
        scaled = product * 2.0 ** k
        assert grid.weighted(f, k).tobytes() == (f * scaled).tobytes()
        reverse = grid.weighted(f, k, reverse=True)
        assert reverse.flags.c_contiguous
        assert reverse.tobytes() == (f[::-1] * scaled[::-1]).tobytes()


def test_weighted_forms_one_buffer():
    # f * (weights * 2^k) on a 41 x 41 grid, in the one buffer it returns:
    # np.multiply.outer's two ufunc buffers beside its result would triple
    # the peak, and weights * f would double it
    grid = build_grid(dim=2, radius=8.0, points_per_axis=41)
    f = np.ones(grid.n_nodes)
    out, peak = traced_peak(lambda: grid.weighted(f, 1))
    assert peak < 1.5 * out.nbytes


def test_direct_grid_construction():
    grid = QuadratureGrid((np.array([0.0, 1.0]),), np.array([1.0, 1.0]))
    assert grid.n_nodes == 2 and grid.dim == 1
    assert np.array_equal(grid.nodes, [0.0, 1.0])
    assert sorted(vars(grid)) == ["axes", "axis_weights"]


@pytest.mark.parametrize("axes, weights, message", [
    ((), [1.0, 1.0], "at least one axis"),
    (([0.0, 1.0, 1.0],), [1.0, 1.0, 1.0], "strictly increasing"),
    (([0.0, 2.0, 1.0],), [1.0, 1.0, 1.0], "strictly increasing"),
    (([[0.0, 1.0], [2.0, 3.0]],), [1.0] * 4, "1-D"),
    (([0.0],), [1.0], "at least 2 nodes"),
    (([0.0, 1.0], [0.0, 1.0, 2.0]), ([1.0] * 2, [1.0] * 2), "weights length"),
    (([0.0, 1.0],), [1.0, 0.0], "strictly positive"),
    (([0.0, 1.0],), [1.0, -1.0], "strictly positive"),
    # np.diff(ax) <= 0 let a NaN node and an infinite end through, and
    # w > 0 an infinite weight
    (([0.0, math.nan, 1.0],), [1.0] * 3, "finite"),
    (([0.0, 1.0, math.inf],), [1.0] * 3, "finite"),
    (([-math.inf, 0.0, 1.0],), [1.0] * 3, "finite"),
    (([0.0, 1.0],), [1.0, math.inf], "finite and strictly positive"),
    # finite axis weights whose products leave float range
    (([0.0, 1.0], [0.0, 1.0]), ([1e200] * 2, [1e200] * 2), "finite and strictly positive"),
    (([0.0, 1.0], [0.0, 1.0]), ([1e-200] * 2, [1e-200] * 2), "finite and strictly positive"),
], ids=["no-axis", "repeated-node", "decreasing", "2-d-axis", "one-node",
        "weights-length", "zero-weight", "negative-weight", "nan-node", "inf-end",
        "minus-inf-start", "inf-weight", "overflowing-weights", "underflowing-weights"])
def test_grid_constructor_refuses(axes, weights, message):
    with pytest.raises(GridError, match=message):
        QuadratureGrid(tuple(np.asarray(a) for a in axes), weights)


def test_axes_must_mesh_the_nodes():
    # kernel factors are applied in the axes' 'ij' order, so the nodes are
    # the axes' 'ij' mesh, derived from unequal axes and locked like them
    x, y = np.array([-1.0, 0.0, 1.0]), np.array([-2.0, 0.5])
    grid = QuadratureGrid((x, y), (np.arange(1.0, 4.0), np.array([1.0, 2.0])))
    ij = np.column_stack([m.ravel() for m in np.meshgrid(x, y, indexing="ij")])
    assert grid.dim == 2 and grid.n_nodes == 6
    assert grid.nodes.tobytes() == ij.tobytes()
    assert np.array_equal(grid.weights, [1.0, 2.0, 2.0, 4.0, 3.0, 6.0])
    for array in (grid.nodes, grid.weights) + grid.axes + grid.axis_weights:
        with pytest.raises(ValueError):
            array[0] = 99.0
    # a list is taken as its array
    assert np.array_equal(QuadratureGrid(([0.0, 1.0],), [2.0, 2.0]).nodes, [0.0, 1.0])
