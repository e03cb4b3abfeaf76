"""Scaling (IPF) baseline and its projective-metric trace."""

import math

import numpy as np
import pytest

from fortetbridge import (MarginalPair, build_coupling, build_grid,
                          density_field, gaussian_density, gaussian_kernel,
                          run_fortet, run_sinkhorn, sinkhorn_trace_hilbert,
                          table_kernel, verify_uniqueness)
from fortetbridge import sinkhorn
from fortetbridge.hilbert import hilbert_distance
from fortetbridge.errors import KernelSupportError, NonConvergenceError
from fortetbridge.problem import swapped_marginals
from tests.conftest import random_instance, traced_peak

SINKHORN_TOL = 1e-10
CROSS_SOLVER_TOL = 1e-8


def test_benchmark_scaling_solves_system(bench_scaling, bench_kernel, bench_marginals):
    pair = bench_scaling
    assert float(np.max(pair.u)) == 1.0  # exit normalization
    w1 = bench_kernel.grid1.weights
    w2 = bench_kernel.grid2.weights
    s1 = pair.u * (bench_kernel.values @ (w2 * pair.v)) - bench_marginals.omega1.values
    s2 = pair.v * (bench_kernel.values.T @ (w1 * pair.u)) - bench_marginals.omega2.values
    assert np.max(np.abs(s1)) < 10 * SINKHORN_TOL
    assert np.max(np.abs(s2)) < 10 * SINKHORN_TOL
    coupling = build_coupling(pair.u, pair.v, bench_kernel, bench_marginals)
    assert coupling.row_marginal_resid < 10 * SINKHORN_TOL
    assert coupling.col_marginal_resid < 10 * SINKHORN_TOL


def test_agrees_with_fixed_point_solver(bench_solution, bench_scaling, bench_marginals):
    from types import SimpleNamespace
    rep = verify_uniqueness(bench_solution,
                            SimpleNamespace(phi=bench_scaling.u, psi=bench_scaling.v),
                            bench_marginals, tol=CROSS_SOLVER_TOL)
    assert rep.consistent
    assert rep.ratio_spread_phi < CROSS_SOLVER_TOL
    assert rep.ratio_spread_psi < CROSS_SOLVER_TOL


def test_symmetric_2x2_doubly_stochastic():
    grid_nodes = build_grid(dim=1, radius=1.0, points_per_axis=2)
    kernel = table_kernel(grid_nodes, grid_nodes,
                          np.array([[1.0, 0.5], [0.5, 1.0]]))
    half = density_field(grid_nodes, np.array([0.5, 0.5]))
    marginals = MarginalPair(half, half)
    pair = run_sinkhorn(kernel, marginals)
    # symmetry forces u and v constant; exit normalization makes u = 1
    assert np.max(np.abs(pair.u - 1.0)) < 1e-12
    assert np.max(np.abs(pair.v - pair.v[0])) < 1e-12
    coupling = build_coupling(pair.u, pair.v, kernel, marginals)
    rows = coupling.pi @ grid_nodes.weights
    assert np.max(np.abs(rows - 0.5)) < 1e-14


def test_underflowing_kernel_converges():
    grid = build_grid(dim=1, radius=8.0, points_per_axis=401)
    kernel = gaussian_kernel(grid, grid, 0.15)   # far tails underflow to 0.0
    assert np.any(kernel.values == 0.0)
    marginals = MarginalPair(gaussian_density(grid, 1.0),
                             gaussian_density(grid, 1.1))
    pair = run_sinkhorn(kernel, marginals)
    w2 = grid.weights
    s1 = pair.u * (kernel.values @ (w2 * pair.v)) - marginals.omega1.values
    assert np.max(np.abs(s1)) < 1e-8


def test_swap_instance_converges_in_log(bench_grid):
    # criterion 2's post-swap instance: the kernel underflows to 0.0 on 92,720
    # of its entries and log u, log v span ~1600, far outside float range
    kernel = gaussian_kernel(bench_grid, bench_grid, 0.1)
    marginals = MarginalPair(gaussian_density(bench_grid, 1.0),
                             gaussian_density(bench_grid, 0.5))
    pair = run_sinkhorn(kernel, marginals)
    assert pair.iterations < 1000
    log_g = kernel.log_values
    log_w = np.log(bench_grid.weights)
    for log_a, log_b, omega, lg in ((pair.log_u, pair.log_v, marginals.omega1, log_g),
                                    (pair.log_v, pair.log_u, marginals.omega2, log_g.T)):
        m = omega.values > 0
        resid = (log_a + np.logaddexp.reduce(lg + (log_b + log_w)[None, :], axis=1)
                 - np.log(omega.values))
        assert np.all(np.isfinite(log_a[m]))
        assert np.max(np.abs(resid[m])) <= 1e-9


def test_factored_kernel_agrees_with_fixed_point_solver():
    grid = build_grid(dim=2, radius=8.0, points_per_axis=21)
    kernel = gaussian_kernel(grid, grid, 0.5)
    marginals = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
    pair = run_sinkhorn(kernel, marginals)
    report = verify_uniqueness(run_fortet(kernel, marginals), pair, marginals,
                               tol=CROSS_SOLVER_TOL)
    assert report.consistent
    assert "values" not in kernel.__dict__   # the 441 x 441 matrix was never built


@pytest.mark.parametrize("axis", ["row", "column"])
def test_zero_row_raises(axis):
    # a zero row (column) makes that row's (column's) integral vanish
    # against a positive marginal node; each support check gets one case
    grid = build_grid(dim=1, radius=1.0, points_per_axis=5)
    vals = np.ones((5, 5))
    if axis == "row":
        vals[2, :] = 0.0
    else:
        vals[:, 2] = 0.0
    kernel = table_kernel(grid, grid, vals)
    rng = np.random.default_rng(0)
    marginals = MarginalPair(density_field(grid, rng.uniform(0.1, 1.0, 5)),
                             density_field(grid, rng.uniform(0.1, 1.0, 5)))
    with pytest.raises(KernelSupportError, match=fr"{axis} integral vanished at nodes \[2\]"):
        run_sinkhorn(kernel, marginals)


def test_iteration_cap_raises(bench_kernel, bench_marginals):
    with pytest.raises(NonConvergenceError):
        run_sinkhorn(bench_kernel, bench_marginals, max_iter=2)


def test_rank_one_kernel_converges_in_one_projective_step():
    grid = build_grid(dim=1, radius=1.0, points_per_axis=3)
    kernel = table_kernel(grid, grid, np.ones((3, 3)))
    marginals = MarginalPair(density_field(grid, np.array([0.2, 0.5, 0.3])),
                             density_field(grid, np.array([0.3, 0.4, 0.3])))
    trace = sinkhorn_trace_hilbert(kernel, marginals)
    assert trace.distances[0] <= 1e-12


def test_trace_ratios_respect_birkhoff_bound():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n1 = int(rng.integers(6, 30))
        n2 = int(rng.integers(6, 30))
        kernel, marginals = random_instance(rng, n1, n2)
        trace = sinkhorn_trace_hilbert(kernel, marginals)
        assert trace.guaranteed
        assert trace.bound < 1.0
        for ratio in trace.ratios[1:]:
            assert ratio <= trace.bound + 1e-9


def test_trace_bound_over_sampled_diameters_is_not_guaranteed():
    # 70 nodes a side: both diameters are sampled lower bounds
    kernel, marginals = random_instance(np.random.default_rng(78), 70, 70)
    trace = sinkhorn_trace_hilbert(kernel, marginals)
    d_col, d_row = trace.diameter_columns, trace.diameter_rows
    assert not (d_col.exact or d_row.exact or trace.guaranteed)
    assert trace.bound == math.tanh(max(d_col.value, d_row.value) / 4.0)


def test_benchmark_trace_decays_geometrically(bench_kernel, bench_marginals):
    trace = sinkhorn_trace_hilbert(bench_kernel, bench_marginals)
    positive = np.array([d for d in trace.distances if d > 0])
    assert len(positive) > 10
    slope = np.polyfit(np.arange(len(positive)), np.log(positive), 1)[0]
    fitted_ratio = math.exp(slope)
    assert fitted_ratio < 1.0


def test_streamed_trace_matches_distances_of_kept_iterates(bench_kernel,
                                                           bench_marginals):
    # the distances run_sinkhorn streams equal d_H of successive u iterates
    # kept whole by a plain scaling loop
    trace = sinkhorn_trace_hilbert(bench_kernel, bench_marginals)
    om1, om2 = bench_marginals.omega1.values, bench_marginals.omega2.values
    v, iterates = np.ones_like(om2), []
    for _ in range(trace.iterations):
        u = om1 / bench_kernel.apply(v)
        v = om2 / bench_kernel.apply_T(u)
        iterates.append(u)
    kept = [hilbert_distance(a, b) for a, b in zip(iterates, iterates[1:])]
    assert len(trace.distances) == len(kept) == trace.iterations - 1
    assert np.max(np.abs(np.subtract(trace.distances, kept))) <= 1e-12


def _swap_instance(grid):
    """The criterion-2 post-swap instance, whose scalings leave float range."""
    return gaussian_kernel(grid, grid, 0.1), swapped_marginals(
        MarginalPair(gaussian_density(grid, 0.5), gaussian_density(grid, 1.0)))


def test_absorbed_kernel_is_the_folded_formula(bench_grid, monkeypatch):
    # built in one buffer, each absorbed kernel rounds as
    # exp(log g + a (+) b) does term by term
    kernel, marginals = _swap_instance(bench_grid)
    built = []
    folded = sinkhorn._folded

    def recording(kernel, log_kernel, a, b):
        op = folded(kernel, log_kernel, a, b)
        built.append((op.factors[0], np.exp(log_kernel + a[:, None] + b[None, :])))
        return op

    monkeypatch.setattr(sinkhorn, "_folded", recording)
    with pytest.raises(NonConvergenceError):
        run_sinkhorn(kernel, marginals, max_iter=30)
    assert len(built) >= 2
    assert all(np.array_equal(got, formula) for got, formula in built)


def test_absorbing_sinkhorn_holds_two_kernel_arrays(bench_grid):
    # the swap compare's 120-sweep budget absorbs a dozen times; the
    # log-kernel and the current absorbed kernel are the only n x n arrays,
    # because the old absorbed kernel is freed before the next is built
    kernel, marginals = _swap_instance(bench_grid)

    def budget_run():
        with pytest.raises(NonConvergenceError):
            run_sinkhorn(kernel, marginals, max_iter=120)

    _, peak = traced_peak(budget_run)
    assert peak < 2.2 * kernel.factors[0].nbytes
