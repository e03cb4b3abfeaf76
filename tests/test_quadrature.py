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
    # a 41^3 grid and gauss1d's 401-node grid hold their lattices and no
    # array: the 41^3 grid's (N, 3) node mesh and the weights' meshgrids
    # once took 13 node arrays, and its axes and their weight vectors 2 kB;
    # gauss1d's axis and weight vector took 6.4 kB of the solve op
    for dim, points in ((1, 401), (3, 41)):
        tracemalloc.start()
        try:
            grid = build_grid(dim=dim, radius=8.0, points_per_axis=points)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vars(grid) == {"lattices": ((-8.0, 8.0, points),) * dim}
        assert held < 1000 and peak < 1000


def _trapezoid(lo, hi, n):
    """The trapezoid weights of the lattice (lo, hi, n), formed by hand."""
    h = (hi - lo) / (n - 1)
    w = np.full(n, h)
    w[[0, -1]] = h / 2.0
    return w


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weights_are_the_iterated_outer_product_of_the_axis_weights(dim):
    # weights, and weighted's f * (weights * 2^k), are bitwise the product
    # that one np.multiply.outer per further axis forms of the lattices'
    # trapezoid weights, and so is weighted read last node first, into a
    # contiguous buffer; on lattices of unequal sizes and steps, on 1-D
    # lattices of 2, 3 and 401 nodes and on 41^2 and 7^3, with f holding a
    # 0, a subnormal and the least subnormals
    rng = np.random.default_rng(dim)
    cases = [((-3.0, 1.5, 7), (-1.0, 2.0, 5), (0.5, 4.0, 4))[:dim]]
    points = (2, 3, 401) if dim == 1 else (41 if dim == 2 else 7,)
    cases += [((-8.0, 8.0, n),) * dim for n in points]
    specials = [0.0, 1e-310, 5e-324, -5e-324]
    for lattices in cases:
        grid = QuadratureGrid(lattices)
        product = _trapezoid(*lattices[0])
        for lattice in lattices[1:]:
            product = np.multiply.outer(product, _trapezoid(*lattice)).ravel()
        assert grid.weights.tobytes() == product.tobytes()
        assert not grid.weights.flags.writeable
        f = rng.standard_normal(grid.n_nodes)
        f[:len(specials)] = specials[:grid.n_nodes]
        f[-len(specials):] = specials[-grid.n_nodes:]
        if grid.n_nodes > 2 * len(specials):
            f[rng.choice(np.arange(4, grid.n_nodes - 4), 8, replace=False)] = 1e-310
        for k in (0, 1, 37, 57):
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


def test_lattice_nodes_are_linspace_bit_for_bit():
    # the nodes derived one float at a time (the 1-D potentials writer's x
    # column) are np.linspace's, on random lattices whose steps no float
    # holds exactly, of 2 to 2999 nodes
    from fortetbridge.quadrature import _lattice_nodes
    rng = np.random.default_rng(11)
    for _ in range(300):
        lo = rng.uniform(-50.0, 50.0)
        lattice = (lo, lo + rng.lognormal(0.0, 2.0), int(rng.integers(2, 3000)))
        nodes = np.fromiter(_lattice_nodes(*lattice), float)
        assert nodes.tobytes() == np.linspace(*lattice).tobytes()


def test_direct_grid_construction():
    grid = QuadratureGrid(((0.0, 1.0, 2),))
    assert grid.n_nodes == 2 and grid.dim == 1 and grid.shape == (2,)
    assert np.array_equal(grid.nodes, [0.0, 1.0])
    assert np.array_equal(grid.weights, [0.5, 0.5])
    assert grid.steps == (1.0,) and grid.largest_weight == 0.5
    assert sorted(vars(grid)) == ["lattices"]
    # a lattice is taken as its numbers, and grids of equal lattices are one grid
    assert QuadratureGrid([[0, 1, 2.0]]).lattices == grid.lattices == ((0.0, 1.0, 2),)


@pytest.mark.parametrize("lattices, message", [
    ((), "at least one axis"),
    (((0.0, 0.0, 3),), "normal floats"),
    (((0.0, -1.0, 3),), "normal floats"),
    (((0.0, 1.0, 1),), "at least 2 nodes"),
    (((1.0, 1.0, 2),), "normal floats"),
    (((1.0, 0.0, 2),), "normal floats"),
    # a NaN end, and an infinite one, give a step that is no normal float
    (((0.0, math.nan, 3),), "normal floats"),
    (((0.0, math.inf, 3),), "normal floats"),
    (((-math.inf, 0.0, 3),), "normal floats"),
    # finite ends whose span overflows
    (((-1e308, 1e308, 2),), "normal floats"),
    # finite steps whose weight products leave float range
    (((0.0, 1e200, 2),) * 2, "normal floats"),
    (((0.0, 1e-200, 2),) * 2, "normal floats"),
    # a subnormal step, and a normal step whose end weight h / 2 is not
    (((0.0, 2e-320, 401),), "normal floats"),
    (((0.0, 3e-308, 2),), "normal floats"),
], ids=["no-axis", "repeated-node", "decreasing", "one-node", "zero-weight",
        "negative-weight", "nan-node", "inf-end", "minus-inf-start", "inf-weight",
        "overflowing-weights", "underflowing-weights", "subnormal-step",
        "subnormal-end-weight"])
def test_grid_constructor_refuses(lattices, message):
    with pytest.raises(GridError, match=message):
        QuadratureGrid(lattices)


def test_axes_must_mesh_the_nodes():
    # kernel factors are applied in the axes' 'ij' order, so the nodes are
    # the axes' 'ij' mesh, derived from unequal axes and locked like them
    grid = QuadratureGrid(((-1.0, 1.0, 3), (-2.0, 0.5, 2)))
    x, y = np.array([-1.0, 0.0, 1.0]), np.array([-2.0, 0.5])
    ij = np.column_stack([m.ravel() for m in np.meshgrid(x, y, indexing="ij")])
    assert grid.dim == 2 and grid.n_nodes == 6 and grid.shape == (3, 2)
    assert grid.nodes.tobytes() == ij.tobytes()
    assert np.array_equal(grid.weights, [0.625, 0.625, 1.25, 1.25, 0.625, 0.625])
    for array in (grid.nodes, grid.weights) + grid.axes:
        with pytest.raises(ValueError):
            array[0] = 99.0
