"""Kernels, marginals, hypothesis checks, and feasibility screens."""

import numpy as np
import pytest

from fortetbridge import (MarginalPair, bernstein_gaussian_condition,
                          bernstein_multivariate_condition, build_grid,
                          check_assumptions, condition_star, density_field,
                          difference_kernel_tails, full_report,
                          gaussian_density, gaussian_kernel, pushforward,
                          swapped_marginals, table_kernel,
                          transition_normalized)
from fortetbridge.errors import FeasibilityError
from tests.conftest import random_instance

SPACING_TOL = 0.05  # one node spacing on the coarse profile grids


def test_gaussian_density_unit_mass(bench_grid):
    dens = gaussian_density(bench_grid, 1.0)
    assert dens.mass() == pytest.approx(1.0, abs=1e-14)


def test_density_rejects_negative_values(bench_grid):
    vals = np.ones(bench_grid.n_nodes)
    vals[7] = -0.5
    with pytest.raises(FeasibilityError, match="node 7"):
        density_field(bench_grid, vals, renormalize=False)


def test_gaussian_kernel_shape_and_bound(bench_grid):
    k = gaussian_kernel(bench_grid, bench_grid, 0.5)
    assert k.values.shape == (401, 401)
    assert k.is_difference
    assert np.all(k.values < k.sigma_bound)
    assert k.heat_sigma == 0.5


def test_benchmark_hypotheses_all_pass(bench_kernel, bench_marginals):
    report = check_assumptions(bench_kernel, bench_marginals)
    for name, result in report.hypotheses.items():
        assert result.ok, f"{name}: {result.status} {result.detail}"
    assert report.hard_checks_pass


def test_zero_row_kernel_flagged(bench_grid):
    vals = np.ones((bench_grid.n_nodes, bench_grid.n_nodes))
    vals[5, :] = 0.0
    k = table_kernel(bench_grid, bench_grid, vals)
    m = MarginalPair(gaussian_density(bench_grid, 1.0),
                     gaussian_density(bench_grid, 0.8))
    report = check_assumptions(k, m)
    assert not report.hypotheses["kernel_rows_positive"].ok
    assert 5 in report.hypotheses["kernel_rows_positive"].offending_nodes


def test_condition_star_benchmark_finite(bench_kernel, bench_marginals):
    cs = condition_star(bench_kernel, bench_marginals)
    assert cs.verdict == "finite"
    assert 0.0 < cs.estimate < 10.0
    assert cs.tail_exponent < 0  # integrand decaying at the boundary


def test_condition_star_swap_instance(bench_grid):
    kernel = gaussian_kernel(bench_grid, bench_grid, 0.1)
    marg = MarginalPair(gaussian_density(bench_grid, 0.5),
                        gaussian_density(bench_grid, 1.0))
    report = full_report(kernel, marg)
    assert report.condition_star.verdict == "suspected-divergent"
    assert report.condition_star.tail_exponent > 0
    assert report.swap_recommended
    swapped = full_report(kernel, swapped_marginals(marg))
    assert swapped.condition_star.verdict == "finite"


def test_bernstein_conditions():
    # benchmark: 0.25 + 1 - 0.64 = 0.61 > 0
    assert bernstein_gaussian_condition(0.5, 1.0, 0.8)
    # swap instance fails in the given order, passes after the swap
    assert not bernstein_gaussian_condition(0.1, 0.5, 1.0)
    assert bernstein_gaussian_condition(0.1, 1.0, 0.5)
    eye = np.eye(2)
    assert bernstein_multivariate_condition(eye, eye, eye)
    assert not bernstein_multivariate_condition(0.1 * eye, 0.25 * eye, eye)
    with pytest.raises(FeasibilityError):
        bernstein_gaussian_condition(-1.0, 1.0, 1.0)


def test_difference_tails_gaussian_passes(bench_kernel):
    res = difference_kernel_tails(bench_kernel)
    assert res.status == "pass"
    assert res.condition == 1
    assert abs(res.T1) <= SPACING_TOL and abs(res.T2) <= SPACING_TOL


def test_difference_tails_oscillatory_fails():
    grid = build_grid(dim=1, radius=6.0, points_per_axis=241)
    diff = np.subtract.outer(grid.nodes, grid.nodes)
    k = table_kernel(grid, grid, np.sin(diff) ** 2 + 0.1)
    assert k.is_difference
    res = difference_kernel_tails(k)
    assert res.status == "fail"


def test_difference_tails_cauchy_profile_passes():
    grid = build_grid(dim=1, radius=6.0, points_per_axis=241)
    diff = np.subtract.outer(grid.nodes, grid.nodes)
    k = table_kernel(grid, grid, 1.0 / (1.0 + diff ** 2))
    res = difference_kernel_tails(k)
    assert res.status == "pass"
    assert res.condition == 1


def test_difference_tails_not_applicable_for_general_table():
    grid = build_grid(dim=1, radius=1.0, points_per_axis=8)
    rng = np.random.default_rng(0)
    k = table_kernel(grid, grid, rng.uniform(0.5, 1.0, (8, 8)))
    assert not k.is_difference
    assert difference_kernel_tails(k).status == "not-applicable"


def test_pushforward_and_row_normalization(bench_grid):
    kernel = transition_normalized(gaussian_kernel(bench_grid, bench_grid, 0.5))
    assert kernel.params["row_normalized"] is True
    assert kernel.heat_sigma is None  # no longer an analytic heat kernel
    row_mass = kernel.values @ bench_grid.weights
    assert np.max(np.abs(row_mass - 1.0)) < 1e-14
    om1 = gaussian_density(bench_grid, 1.0)
    om2 = pushforward(kernel, om1)
    assert om2.mass() == pytest.approx(1.0, abs=1e-13)
    assert not om2.renormalized


def test_kernel_apply_weights_each_side_by_its_own_grid():
    # n1 != n2 on different grids, so swapping grid1/grid2 weights would fail
    kernel, _ = random_instance(np.random.default_rng(11), 7, 12)
    rng = np.random.default_rng(12)
    f1, f2 = rng.uniform(0.1, 1.0, 7), rng.uniform(0.1, 1.0, 12)
    assert np.array_equal(kernel.apply(f2),
                          kernel.values @ (kernel.grid2.weights * f2))
    assert np.array_equal(kernel.apply_T(f1),
                          kernel.values.T @ (kernel.grid1.weights * f1))
    assert kernel.apply(f2).shape == (7,)
    assert kernel.apply_T(f1).shape == (12,)


def test_full_report_benchmark_admissible(bench_kernel, bench_marginals):
    report = full_report(bench_kernel, bench_marginals)
    assert report.solver_admissible
    assert not report.swap_recommended
    assert report.difference_kernel.status == "pass"
