"""Kernels, marginals, hypothesis checks, and the integrability estimate."""

import importlib.util
import itertools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from fortetbridge import (MarginalPair, bernstein_gaussian_condition,
                          bernstein_multivariate_condition, build_grid,
                          check_assumptions, condition_star, density_field,
                          full_report, gaussian_density, gaussian_kernel,
                          pushforward, swapped_marginals, table_kernel,
                          transition_normalized)
from fortetbridge.errors import FeasibilityError, GridError, KernelSupportError
from fortetbridge import problem
from fortetbridge.bridge import gaussian_oracle
from fortetbridge.config import build_problem, resolve_config
from fortetbridge.problem import TINY, KernelOperator, gaussian_from_scales
from fortetbridge.quadrature import QuadratureGrid
from tests.byte_identity import EXTRA
from tests.closing_steps import sweep_configs
from tests.conftest import counting_applies, random_instance, read_order, traced_peak

#: factored against dense products: same sums in another order
FACTORED_APPLY_RTOL = 1e-13


def _with_bound(kernel, sigma_bound):
    """kernel's factors, grids and Gaussian scales under another bound."""
    return KernelOperator(kernel.factors, kernel.grid1, kernel.grid2, sigma_bound,
                          kernel.gaussian)


def test_gaussian_density_unit_mass(bench_grid):
    dens = gaussian_density(bench_grid, 1.0)
    assert dens.mass() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("dim, points", [(2, 41), (3, 21)])
def test_gaussian_density_matches_the_einsum_formula(dim, points):
    # summed over the axes' broadcast, the quadratic form is the node mesh's
    # einsum bit for bit, on random SPD covariances and a scalar one
    grid = build_grid(dim=dim, radius=8.0, points_per_axis=points)
    rng = np.random.default_rng(dim)
    for _ in range(3):
        a = rng.normal(size=(dim, dim))
        for cov in (a @ a.T + 0.3 * np.eye(dim), 0.64):
            full = np.eye(dim) * cov if np.isscalar(cov) else cov
            x = grid.nodes
            q = np.einsum("ni,ij,nj->n", x, np.linalg.inv(full), x)
            vals = np.exp(-0.5 * q) / math.sqrt((2.0 * math.pi) ** dim
                                                * np.linalg.det(full))
            vals = vals / float(np.sum(grid.weights * vals))
            assert np.array_equal(gaussian_density(grid, cov).values, vals)


def test_gaussian_density_builds_no_node_mesh():
    # the mesh is n x 3 floats and its einsum's terms more: at most three
    # node arrays, the density, its renormalized copy and the mass's product
    grid = build_grid(dim=3, radius=8.0, points_per_axis=21)
    cov = np.diag([1.0, 0.64, 0.5])
    gaussian_density(grid, cov)
    _, peak = traced_peak(lambda: gaussian_density(grid, cov))
    assert peak <= 3 * 8 * grid.n_nodes


def test_density_rejects_negative_values(bench_grid):
    vals = np.ones(bench_grid.n_nodes)
    vals[7] = -0.5
    with pytest.raises(FeasibilityError, match="node 7"):
        density_field(bench_grid, vals, renormalize=False)


def test_fit_matches_the_where_expression():
    # a marginal's fit is values / integral on its support, bitwise the
    # expression Sinkhorn used; an integral neither positive nor 0 (NaN, -inf,
    # negative) reads as 1, and +inf and subnormal integrals are divided by
    grid = build_grid(dim=1, radius=1.0, points_per_axis=9)
    om = np.array([0.5, 0.0, 0.25, 0.5, 1.0, 0.0, 2.0, 1e-300, 3.0])
    omega = density_field(grid, om, renormalize=False)
    # the last two are positive at every node: the plain quotient, unless
    # one overflows (3 / 1e-310), which reads inf without a warning
    cases = [np.array([math.nan, math.nan, 2.0, -math.inf, -1.0, 0.0, math.inf,
                       5e-324, 1e-310]),
             np.linspace(0.5, 2.0, 9),
             np.array([0.5, 1.0, 2.0, 1e-300, 1.0, math.inf, 2.0, 5e-324, 1e-310])]
    for den in cases:
        m = om > 0
        with np.errstate(all="ignore"):
            ref = np.where(m, om / np.where(den > 0, den, 1.0), 0.0)
        assert np.array_equal(omega.over(den, "G", "omega2 > 0"), ref)
        out = den.copy()
        fit = omega.over(out, "G", "omega2 > 0", out=out)
        assert np.array_equal(fit, ref)
        # out holds the plain quotient only
        assert (fit is out) == (den is cases[1])
    assert np.array_equal(omega.support, om > 0) and not omega.support.flags.writeable
    den = np.ones(9)
    den[[2, 5, 7]] = 0.0   # node 5 is off the support
    with pytest.raises(KernelSupportError,
                       match=r"^G vanished at nodes \[2, 7\] where omega2 > 0$"):
        omega.over(den, "G", "omega2 > 0")


def test_gaussian_kernel_shape_and_bound(bench_grid):
    k = gaussian_kernel(bench_grid, bench_grid, 0.5)
    assert k.values.shape == (401, 401)
    assert k.gaussian == ((0.5,), None)
    assert np.all(k.values < k.sigma_bound)
    # the pair the kernel keeps builds it again, bit for bit
    assert np.array_equal(gaussian_from_scales(bench_grid, bench_grid, *k.gaussian).factors[0],
                          k.factors[0])


@pytest.mark.parametrize("sigma", [0.5, 0.1, 0.3])
def test_heat_factor_is_built_in_one_buffer(bench_grid, sigma):
    # the formula evaluated with one temporary per operation peaks at twice
    # the factor; built in place, the factor is the only n x n array, and
    # the broadcast difference allocates no ufunc buffers (two 64 KiB ones,
    # 1.10 x the factor, at numpy's default buffer size)
    # the flush of entries below TINY (sigma = 0.1: 1,222 subnormal ones)
    # runs FLUSH_BLOCK entries at a time, so its masks stay small too.  A
    # block skips exp where the exponent is below log(TINY / peak) - 1; at
    # sigma = 0.3 rows 0-117 hold such exponents and rows 118-282 none, so
    # of the 40 blocks 25 mix skipped and computed entries and 15 skip none.
    # The bench grid's 1-D kernel keeps a band, so the dense factor is built
    # directly
    x = bench_grid.axes[0]
    factor, peak = traced_peak(lambda: problem._heat_factor(x, x, sigma))
    assert peak <= 1.02 * factor.nbytes
    formula = (1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
               * np.exp(-np.subtract.outer(x, x) ** 2 / (2.0 * sigma * sigma)))
    subnormal = (formula > 0) & (formula < TINY)
    assert np.count_nonzero(subnormal) == {0.5: 0, 0.1: 1222, 0.3: 1610}[sigma]
    assert np.array_equal(factor, np.where(subnormal, 0.0, formula))
    skipped = (np.subtract.outer(x, x) ** 2 / (2.0 * sigma * sigma)
               > math.log(math.sqrt(2.0 * math.pi * sigma * sigma) / TINY) + 1.0)
    flat = skipped.reshape(-1)
    blocks = [flat[i:i + problem.FLUSH_BLOCK] for i in range(0, flat.size, problem.FLUSH_BLOCK)]
    mixed = sum(b.any() and not b.all() for b in blocks)
    none = sum(not b.any() for b in blocks)
    assert (mixed, none) == {0.5: (0, 40), 0.1: (40, 0), 0.3: (25, 15)}[sigma]


def test_benchmark_hypotheses_all_pass(bench_kernel, bench_marginals):
    report = check_assumptions(bench_kernel, bench_marginals)
    for name, result in report.hypotheses.items():
        assert result.ok, f"{name}: {result.status} {result.detail}"
    assert report.refusal is None


@pytest.mark.parametrize("n, b", [(2, 0), (9, 3), (9, 8), (40, 12), (40, 39)])
@pytest.mark.parametrize("tap", [None, 0.0, math.inf, -math.inf, math.nan, "all-nan"])
def test_band_extremes_are_the_window_reduction(n, b, tap):
    # a band's rows are its windows, and so are its columns; their
    # maximum, fmax and fmin, read in O(n), are the window view's
    # reductions on either axis, NaN rule included (an all-NaN window
    # reads NaN under fmax, a window with a padded 0 reads 0)
    rng = np.random.default_rng(n + b)
    half = rng.uniform(-1.0, 1.0, b + 1)
    if tap == "all-nan":
        half[:] = math.nan
    elif tap is not None:
        half[rng.integers(0, b + 1, 2)] = tap
    band = np.concatenate((half[:0:-1], half))
    view = problem._band_matrix(band, n)
    grid = build_grid(dim=1, radius=1.0, points_per_axis=n)
    # a NaN band is no kernel's (the symmetry check reads NaN != NaN)
    kernel = None if np.isnan(band).any() else KernelOperator((band,), grid, grid, 1.0)
    for extreme in (np.maximum, np.fmax, np.fmin):
        for axis in (0, 1):
            windows = extreme.reduce(view, axis=axis)
            assert np.array_equal(problem._window_extremes(band, n, extreme), windows,
                                  equal_nan=True)
            if kernel is not None:
                assert np.array_equal(problem._extremes(kernel, extreme, axis), windows)


@pytest.mark.parametrize("sigma", [0.5, 0.1])
def test_checks_build_no_window_view_of_a_band(bench_grid, bench_marginals, sigma,
                                                monkeypatch):
    # the gauss1d (sigma 0.5) and swap (sigma 0.1) bands: the checks read
    # their row and column extremes in O(n), and no row offends, so no
    # window view (_band_matrix) is built
    kernel = gaussian_kernel(bench_grid, bench_grid, sigma)
    views, band_matrix = [], problem._band_matrix
    monkeypatch.setattr(problem, "_band_matrix",
                        lambda *args: views.append(args) or band_matrix(*args))
    report = check_assumptions(kernel, bench_marginals)
    assert full_report(kernel, bench_marginals).hypotheses == report.hypotheses
    assert views == []
    assert report.refusal is None


def test_a_marginal_that_peaks_at_each_row_end_is_admitted():
    # omega1 ~ exp(-x1^2 / 2 + x2 / 2 - x2^2 / 50) on a 41^2 grid, off the
    # Gaussian family, peaks at the x2 = 8 end of each row, so the last
    # node of one row and the first of the next differ by the whole peak;
    # the grid scan admits it
    grid = build_grid(dim=2, radius=8.0, points_per_axis=41)
    x1, x2 = grid.nodes.reshape(-1, 2).T
    marginals = MarginalPair(density_field(grid, np.exp(-x1 ** 2 / 2 + x2 / 2 - x2 ** 2 / 50)),
                             gaussian_density(grid, 0.8))
    report = full_report(gaussian_kernel(grid, grid, 0.5), marginals)
    assert report.refusal is None


def test_zero_row_kernel_flagged(bench_grid):
    vals = np.ones((bench_grid.n_nodes, bench_grid.n_nodes))
    vals[5, :] = 0.0
    k = table_kernel(bench_grid, bench_grid, vals)
    m = MarginalPair(gaussian_density(bench_grid, 1.0),
                     gaussian_density(bench_grid, 0.8))
    report = check_assumptions(k, m)
    assert not report.hypotheses["kernel_rows_positive"].ok
    assert 5 in report.hypotheses["kernel_rows_positive"].offending_nodes



def test_table_kernel_load_holds_no_second_matrix(bench_grid):
    # a table kernel keeps the matrix it is given
    diff = np.subtract.outer(bench_grid.nodes, bench_grid.nodes)
    vals = 1.0 / (1.0 + diff ** 2)
    kernel, peak = traced_peak(lambda: table_kernel(bench_grid, bench_grid, vals))
    assert np.shares_memory(kernel.factors[0], vals) and peak < vals.nbytes


def test_table_checks_name_the_first_offending_entries():
    # a NaN entry breaches the bound but is neither negative nor positive
    grid = build_grid(dim=1, radius=1.0, points_per_axis=4)
    vals = np.full((4, 4), 0.5)
    vals[1, :] = [np.nan, 0.0, 0.0, 0.0]
    vals[2, 3] = -1.0
    vals[3, 1:] = [np.nan, -2.0, 0.7]
    kernel = _with_bound(table_kernel(grid, grid, vals), 0.6)
    m = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
    checks = check_assumptions(kernel, m).hypotheses
    assert checks["kernel_nonnegative"].offending_nodes == (2, 3)
    assert checks["kernel_nonnegative"].detail == "2 negative entries"
    assert checks["kernel_bounded"].offending_nodes == (1, 0)
    assert checks["kernel_rows_positive"].offending_nodes == (1,)
    assert checks["kernel_columns_positive"].ok


def test_negative_entries_are_counted_without_an_object_each():
    # every entry of a 401 x 401 table is negative: the count, the detail
    # and the first offender come from numpy, a flagged row at a time, not
    # from one Python tuple per entry (14 MB of them)
    grid = build_grid(dim=1, radius=1.0, points_per_axis=401)
    vals = -np.ones((401, 401))
    kernel = table_kernel(grid, grid, vals)
    m = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
    checks, peak = traced_peak(lambda: check_assumptions(kernel, m).hypotheses)
    assert checks["kernel_nonnegative"].detail == "160801 negative entries"
    assert checks["kernel_nonnegative"].offending_nodes == (0, 0)
    assert peak < 2 * vals.nbytes

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


def test_condition_star_of_a_kernel_with_an_inf_entry_warns_nothing():
    # the tail fit's column mass is inf at the entry's column, where the
    # integrand is 0: their NaN product is skipped as a 0 is, with no
    # RuntimeWarning (an error under this suite's filter)
    grid = build_grid(dim=1, radius=4.0, points_per_axis=41)
    vals = np.exp(-np.subtract.outer(grid.nodes, grid.nodes) ** 2)
    vals[3, 5] = np.inf
    marginals = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
    report = full_report(table_kernel(grid, grid, vals), marginals)
    assert report.condition_star.verdict == "finite"
    assert report.refusal.startswith("hypothesis checks failed: kernel_bounded")


def test_condition_star_verdict_is_the_sign_of_kappa_on_the_sweep():
    # the 72 oracle-labelled 1-D configs, each in both orientations: the
    # verdict reads finite exactly where Bernstein's kappa > 0.  The sigma1 =
    # sigma2 configs have kappa as small as 6.4e-5; a fit of the integrand
    # itself read their truncated columns' edge growth as divergence
    configs = list(sweep_configs(gaussian_oracle))
    assert len(configs) == 72
    for label, raw in configs:
        s = raw["kernel"]["sigma"]
        s1, s2 = (m["sigma"] for m in raw["marginals"])
        if raw["swap"]:
            s1, s2 = s2, s1
        built = build_problem(resolve_config(raw))
        for kernel, marginals, kappa in (
                (built.kernel, built.marginals, problem.gaussian_kappa(s, s1, s2)),
                (built.kernel.swapped(), swapped_marginals(built.marginals),
                 problem.gaussian_kappa(s, s2, s1))):
            verdict = condition_star(kernel, marginals).verdict
            assert (verdict == "finite") == (kappa > 0), (label, kappa, verdict)


def _scan_twin(marginals):
    """The marginals as fields with no Gaussian covariance recorded: the
    same values, off the closed form's family, so their report is the
    grid scan's."""
    return MarginalPair(*(problem.DensityField(w.grid, w.values) for w in marginals))


def _family_configs():
    """(label, raw config) of the 72 sweep configs, the bench workloads at
    seeds 0, 3 and 31, and the byte-identity EXTRA configs that build
    from their raw config alone."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    yield from sweep_configs(gaussian_oracle)
    for name, seed in itertools.product(("gauss1d", "gauss2d", "swap"), (0, 3, 31)):
        yield f"{name} seed {seed}", workloads.make_workload(name, seed).config
    for name, (raw, _, *tables) in EXTRA.items():
        # wide1d's kernel scale is refused while it builds
        if name != "wide1d" and not tables:
            yield name, raw


def test_closed_form_verdict_is_the_scans_on_the_gaussian_family():
    # each instance of the family, in both orientations: the refusal and
    # the swap hint read from kappa equal those the grid scan forms from
    # its hypotheses and integrability estimates, except on aniso2d
    # swapped (and on aniso2d-swapped as given), where the two part (see
    # the next test)
    family, parted = [], []
    for label, raw in _family_configs():
        built = build_problem(resolve_config(raw))
        for kernel, marginals, tag in (
                (built.kernel, built.marginals, ""),
                (built.kernel.swapped(), swapped_marginals(built.marginals), " swapped")):
            if problem._gaussian_margins(kernel, marginals) is None:
                continue
            family.append(label + tag)
            closed = full_report(kernel, marginals)
            scan = full_report(kernel, _scan_twin(marginals))
            if (closed.refusal, closed.swap_recommended) != (scan.refusal,
                                                            scan.swap_recommended):
                parted.append(label + tag)
    # narrow1d, spike1d and spike2d have an omega1 below TINY at the edge
    # nodes only as given, spike1d-swapped and spike2d-swapped only
    # swapped, and multivariate2d's kernel is whitened
    assert len(family) == 2 * 72 + 2 * 9 + 15
    assert {"narrow1d", "spike1d", "spike2d", "spike1d-swapped swapped",
            "spike2d-swapped swapped", "multivariate2d",
            "multivariate2d swapped"}.isdisjoint(family)
    assert parted == ["aniso2d swapped", "aniso2d-swapped"]


def test_aniso2d_swapped_is_refused_by_kappa_where_the_tail_fit_reads_finite():
    # kernel variances (0.25, 0.16), marginal variances 1.0 and 0.8 swapped:
    # kappa_k = 1/1.0 - 1/(0.8 + s_k^2) reads (+0.048, -0.042), so the
    # integrand grows as exp(0.021 y2^2) and the continuum integral
    # diverges; the radial tail fit of the 81^2 grid reads finite
    built = build_problem(resolve_config(dict(EXTRA["aniso2d"][0], swap=True)))
    report = full_report(built.kernel, built.marginals)
    assert report.refusal == ("integrability estimate is suspected-divergent; swapping "
                              "the marginals looks feasible (pass force=True to run anyway)")
    assert report.swap_recommended and not report.solver_admissible
    assert all(check.ok for check in report.hypotheses.values())
    assert report.condition_star.verdict == "finite"
    assert full_report(built.kernel, _scan_twin(built.marginals)).refusal is None


def test_gaussian_verdict_makes_no_apply_and_other_inputs_take_the_scan(
        bench_grid, bench_kernel, bench_marginals, monkeypatch):
    # gauss1d's verdict is kappa; narrow1d's omega1 underflows to 0 at its
    # edge nodes, and a table twin of gauss1d's kernel is no Gaussian, so
    # both scan: two applies each, Int g omega1 and the column mass
    narrow = build_problem(resolve_config(EXTRA["narrow1d"][0]))
    twin = table_kernel(bench_grid, bench_grid, bench_kernel.values)
    calls = counting_applies(monkeypatch)
    assert full_report(bench_kernel, bench_marginals).refusal is None
    assert calls == []
    assert full_report(narrow.kernel, narrow.marginals).refusal is None
    assert len(calls) == 2
    assert full_report(twin, bench_marginals).refusal is None
    assert len(calls) == 4
    assert narrow.marginals.omega1.values.min() == 0.0
    assert bench_marginals.omega1.gaussian == (1.0,)
    assert bench_marginals.omega2.gaussian == (0.8 * 0.8,)


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


def test_pushforward_and_row_normalization(bench_grid):
    kernel = transition_normalized(gaussian_kernel(bench_grid, bench_grid, 0.5))
    assert kernel.gaussian is None  # no longer a Gaussian kernel
    row_mass = kernel.values @ bench_grid.weights
    assert np.max(np.abs(row_mass - 1.0)) < 1e-14
    om1 = gaussian_density(bench_grid, 1.0)
    om2 = pushforward(kernel, om1)
    assert om2.mass() == pytest.approx(1.0, abs=1e-13)


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


@pytest.mark.parametrize("dim, points, sigma", [
    pytest.param(1, 401, 0.1, id="1-401"), pytest.param(2, 21, 0.1, id="2-21"),
    pytest.param(2, 21, np.diag([0.01, 0.0121]), id="2-21-diagonal"),
    pytest.param(2, 21, np.array([[0.03, 0.01], [0.01, 0.02]]), id="2-21-non-diagonal")])
def test_heat_log_values_are_the_formula_where_values_underflow(dim, points, sigma):
    # every Gaussian kernel, anisotropic or not, reads the formula
    grid = build_grid(dim=dim, radius=8.0, points_per_axis=points)
    kernel = gaussian_kernel(grid, grid, sigma)
    log_g = kernel.log_values
    assert np.all(np.isfinite(log_g))
    # built in one buffer (and one more per further coordinate), it rounds
    # as sum_k -sq_k / (2 s_k^2) + log peak rounds term by term, sq_k the
    # squared differences of the (whitened) coordinate k at its scale s_k,
    # or of the lattice offsets |i - j| h where the 1-D kernel is a band, as
    # its band's entries are
    scales, white = kernel.gaussian
    x = grid.nodes.reshape(grid.n_nodes, dim)
    if dim == 1:
        assert kernel.banded
        k = np.arange(points)
        h = (x[-1, 0] - x[0, 0]) / (points - 1)
        sqs = [(np.abs(np.subtract.outer(k, k)) * h) ** 2]
    else:
        if white is not None:
            x = x @ white
        sqs = [np.subtract.outer(x[:, k], x[:, k]) ** 2 for k in range(dim)]
    formula = sum(-sq / (2.0 * s * s) for sq, s in zip(sqs, scales))
    log_peak = -0.5 * sum(math.log(2.0 * math.pi * s * s) for s in scales)
    assert np.array_equal(log_g, formula + log_peak)
    positive = kernel.values > 1e-300
    assert np.any(kernel.values == 0.0)
    assert np.max(np.abs(log_g[positive] - np.log(kernel.values[positive]))) < 1e-12
    assert np.array_equal(kernel.swapped().log_values, log_g.T)
    # any other kernel reads log(values), -inf at its zeros
    table = table_kernel(grid, grid, kernel.values)
    with np.errstate(divide="ignore"):
        assert np.array_equal(table.log_values, np.log(kernel.values))
    assert transition_normalized(kernel).log_values[0, -1] == -np.inf


def test_full_report_benchmark_admissible(bench_kernel, bench_marginals):
    report = full_report(bench_kernel, bench_marginals)
    assert report.solver_admissible
    assert not report.swap_recommended


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _pointwise_heat_kernel(grid1, grid2, sigma):
    """The d-dimensional heat kernel from the full squared distances."""
    delta = grid1.nodes[:, None, :] - grid2.nodes[None, :, :]
    q = np.sum(delta * delta, axis=2)
    peak = 1.0 / np.sqrt((2.0 * np.pi * sigma * sigma) ** grid1.dim)
    return peak * np.exp(-q / (2.0 * sigma * sigma))


@pytest.mark.parametrize("dim,points", [(2, 41), (3, 15)])
def test_factored_gaussian_matches_dense(dim, points):
    grid = build_grid(dim=dim, radius=8.0, points_per_axis=points)
    kernel = gaussian_kernel(grid, grid, 0.5)
    assert len(kernel.factors) == dim
    assert kernel.factors[0].shape == (points, points)
    f = np.random.default_rng(dim).uniform(0.1, 1.0, grid.n_nodes)
    w = grid.weights
    assert _rel_err(kernel.apply(f), kernel.values @ (w * f)) <= FACTORED_APPLY_RTOL
    assert _rel_err(kernel.apply_T(f), kernel.values.T @ (w * f)) <= FACTORED_APPLY_RTOL
    if dim == 2:
        assert _rel_err(kernel.values, _pointwise_heat_kernel(grid, grid, 0.5)) <= 1e-12
    assert np.all(kernel.values < kernel.sigma_bound)


def test_one_dimensional_gaussian_apply_is_the_dense_product():
    # a hand-built axis that is no uniform lattice, its nodes clustered at
    # its ends and weighted by their spacing: the 1-D heat kernel keeps its
    # dense factor there
    x = 8.0 * np.sin(np.linspace(-np.pi / 2, np.pi / 2, 401))
    grid = QuadratureGrid((x,), np.gradient(x))
    kernel = gaussian_kernel(grid, grid, 0.5)
    assert len(kernel.factors) == 1 and not kernel.banded
    assert kernel.factors[0] is kernel.values
    f = np.random.default_rng(3).uniform(0.1, 1.0, grid.n_nodes)
    assert np.array_equal(kernel.apply(f), kernel.values @ (grid.weights * f))
    assert np.array_equal(kernel.apply_T(f), kernel.values.T @ (grid.weights * f))


#: (sigma, b) on the bench grid: the band's last nonzero offset
BENCH_BANDS = [(0.5, 400), (0.1, 94), (0.3, 282)]


@pytest.mark.parametrize("sigma, b", BENCH_BANDS)
def test_heat_band_is_the_formula_at_the_lattice_offsets(bench_grid, sigma, b):
    # peak * exp(-(k h)^2 / 2 sigma^2) at every offset |k| <= n - 1, h =
    # 2 R / (n - 1), with the entries below TINY stored as 0, bitwise
    k = np.arange(-400, 401)
    h = 2.0 * 8.0 / 400
    formula = (1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
               * np.exp(-(k * h) ** 2 / (2.0 * sigma * sigma)))
    formula[formula < TINY] = 0.0
    (band,) = gaussian_kernel(bench_grid, bench_grid, sigma).factors
    assert np.array_equal(band, formula[400 - b:401 + b])
    assert not formula[:400 - b].any() and band[0] > 0


@pytest.mark.parametrize("sigma, b", BENCH_BANDS)
def test_one_dimensional_gaussian_apply_is_the_band_convolution(bench_grid, sigma, b):
    # on the uniform axis the kernel keeps its band of 2b + 1 taps: apply and
    # apply_T are one np.convolve each, bitwise ('same' for a band no
    # longer than the axis, 'valid' for one that spans every offset), and
    # each entry lies within the dot-product error bound gamma_n sum |g w f|
    # of the exact sum over a row of values
    kernel = gaussian_kernel(bench_grid, bench_grid, sigma)
    (band,) = kernel.factors
    assert kernel.banded and band.size == 2 * b + 1
    f = np.random.default_rng(3).uniform(0.1, 1.0, bench_grid.n_nodes)
    wf = bench_grid.weights * f
    image = kernel.apply(f)
    n = bench_grid.n_nodes
    assert np.array_equal(image, np.convolve(wf, band)[b:b + n])
    if b in (94, 400):
        assert np.array_equal(image, np.convolve(wf, band, "same" if b == 94 else "valid"))
    assert np.array_equal(kernel.apply_T(f), image)
    gamma = n * np.finfo(float).eps / (1.0 - n * np.finfo(float).eps)
    for i, row in enumerate(kernel.values):
        exact = math.fsum(row * wf)
        assert abs(image[i] - exact) <= gamma * math.fsum(np.abs(row * wf))


#: (sigma, b, node arrays that one apply or apply_T stays below) on the
#: bench grid: each band peaks at the argument product and the image, as
#: gauss1d's full-width band forms its argument reversed, the order it
#: reads it in, and so is not copied
BAND_PRODUCT_PEAKS = [(0.5, 400, 2.4), (0.1, 94, 2.4)]


@pytest.mark.parametrize("sigma, b, arrays", BAND_PRODUCT_PEAKS)
def test_band_product_copies_no_band(bench_grid, sigma, b, arrays):
    # numpy's correlation copies any input it cannot write, so a product on
    # the read-only band copied its 2b + 1 taps (5.2 and 2.6 node arrays);
    # the kernel contracts its private writeable band instead.  factors
    # still cannot write the band, and a band passed in is copied: it stays
    # writeable, and changing it leaves the kernel as it was
    kernel = gaussian_kernel(bench_grid, bench_grid, sigma)
    (band,) = kernel.factors
    assert band.size == 2 * b + 1
    f = np.random.default_rng(7).uniform(0.1, 1.0, bench_grid.n_nodes)
    image = kernel.apply(f)
    for product in (kernel.apply, kernel.apply_T):
        out, peak = traced_peak(lambda: product(f))
        assert np.array_equal(out, image)
        assert peak < arrays * f.nbytes
    with pytest.raises(ValueError):
        band[0] = 0.0
    own = band.copy()
    copied = KernelOperator((own,), bench_grid, bench_grid, kernel.sigma_bound)
    assert own.flags.writeable
    own[:] = 0.0
    assert np.array_equal(copied.apply(f), image)
    assert np.array_equal(copied.apply_T(f), image)


def _unscaled_apply(kernel, f):
    return problem._contract(kernel.factors, read_order(kernel, kernel.grid2.weights * f))


def test_scaled_apply_is_closer_to_the_exact_sum(bench_grid):
    # on the swap kernel (sigma = 0.1) an argument spanning 1e-320 ... 1
    # leaves the left rows' integrals subnormal; the unscaled products
    # round there, the scaled ones do not
    kernel = gaussian_kernel(bench_grid, bench_grid, 0.1)
    a, w = kernel.values, bench_grid.weights
    f = np.geomspace(1e-320, 1.0, bench_grid.n_nodes)
    lift = 2.0 ** 1000
    exact = np.array([math.ldexp(math.fsum(row * (w * (f * lift))), -1000) for row in a])
    scaled, unscaled = kernel.apply(f), _unscaled_apply(kernel, f)
    assert np.all(np.abs(scaled - exact) <= np.abs(unscaled - exact))
    assert np.any(np.abs(scaled - exact) < np.abs(unscaled - exact))


def test_unscalable_arguments_are_applied_unscaled(bench_kernel, bench_grid):
    # NaN, inf, an all-zero f and one too large to scale up keep the
    # unscaled product bitwise; so does a kernel without a finite bound
    f = np.random.default_rng(4).uniform(0.1, 1.0, bench_grid.n_nodes)
    cases = [np.zeros_like(f), f * 1e305]
    for bad in (math.nan, math.inf, -math.inf):
        g = f.copy()
        g[7] = bad
        cases.append(g)
    unbounded = _with_bound(bench_kernel, math.inf)
    assert unbounded.apply_headroom is None
    with np.errstate(invalid="ignore"):
        for g in cases:
            assert np.array_equal(bench_kernel.apply(g), _unscaled_apply(bench_kernel, g),
                                  equal_nan=True)
        for g in cases + [f * 1e-300]:
            assert np.array_equal(unbounded.apply(g), _unscaled_apply(unbounded, g),
                                  equal_nan=True)


def test_scaled_apply_stays_in_float_range():
    # weights of 4 and a sigma_bound below 1: neither the scaled weights nor
    # a partial sum overflows, from a subnormal max|f| up to one that
    # leaves no headroom, and signed f is read by its largest magnitude
    grid = build_grid(dim=1, radius=100.0, points_per_axis=51)
    kernel = gaussian_kernel(grid, grid, 30.0)
    assert grid.weights.max() == 4.0 and kernel.sigma_bound < 1.0
    f = np.random.default_rng(5).uniform(0.5, 1.0, grid.n_nodes)
    for scale in (1e-310, 1e-300, 1.0, 1e300):
        for g in (f * scale, -f * scale, f * scale * np.where(np.arange(51) % 2, 1, -1)):
            exact = _unscaled_apply(kernel, g)
            with np.errstate(over="ignore"):
                scaled = kernel.apply(g)
            assert np.all(np.isfinite(scaled))
            if scale >= 1e-300:
                assert np.array_equal(scaled, exact)


@pytest.mark.parametrize("sigma", [0.5, 0.1], ids=["gauss1d", "swap"])
def test_apply_T_is_apply_on_a_symmetric_band(bench_grid, sigma):
    # over one grid a band's kernel is its own transpose, and apply_T takes
    # apply's scale: the two directions agree bitwise, also where an
    # unscaled product would be subnormal.  (The 2-D product kernel is left
    # out: its transposed factors take another BLAS path.)
    kernel = gaussian_kernel(bench_grid, bench_grid, sigma)
    assert kernel.banded
    rng = np.random.default_rng(8)
    n = bench_grid.n_nodes
    for f in (rng.uniform(0.5, 1.0, n) * 1e-307,
              rng.permutation(np.geomspace(1e-307, 1.0, n))):
        assert np.array_equal(kernel.apply_T(f), kernel.apply(f))


def _contract_arguments(monkeypatch):
    """The arguments that reach problem._contract from now on, each in the
    order the product reads it (read_order)."""
    seen, contract = [], problem._contract
    monkeypatch.setattr(problem, "_contract",
                        lambda factors, x: seen.append(x) or contract(factors, x))
    return seen


@pytest.mark.parametrize("dim", [1, 2])
def test_apply_is_the_plain_product_where_no_scale_changes_a_bit(dim, monkeypatch):
    # the gauss1d band, and two heat factors.  apply contracts f * (weights
    # * 2^k), k its headroom less the binary exponent of max f, for every
    # positive f in range.  Where min(weights * f) times each factor's
    # smallest positive entry stays above TINY, no operand, product or
    # partial sum is subnormal or overflows at any scale 2^j that keeps the
    # argument in range: apply is bitwise the plain product (j = 0) and the
    # product at each other such scale.  The full-width band reads its
    # argument last node first, and apply forms it so, contiguous, for
    # the correlation to read without a copy
    grid = build_grid(dim=dim, radius=8.0 if dim == 1 else 3.0,
                      points_per_axis=401 if dim == 1 else 15)
    kernel = gaussian_kernel(grid, grid, 0.5 if dim == 1 else 1.0)
    w = grid.weights
    assert len(kernel.factors) == (1 if dim == 1 else 2)
    assert kernel._reversed == (dim == 1)
    low = float(w.min()) * math.prod(min(1.0, float(a[a > 0].min())) for a in kernel.factors)
    rng = np.random.default_rng(dim)
    contract = problem._contract
    seen = _contract_arguments(monkeypatch)
    for f in (rng.uniform(0.1, 1.0, grid.n_nodes),
              rng.permutation(np.geomspace(1e-60, 1e10, grid.n_nodes))):
        assert f.min() * low >= 2.0 * TINY
        image = kernel.apply(f)
        k = kernel.apply_headroom - math.frexp(f.max())[1]
        assert np.array_equal(seen[-1], read_order(kernel, f * (w * 2.0 ** k)))
        assert seen[-1].flags.c_contiguous and seen[-1].flags.writeable
        for j in (0, 1, 7, 100, k):
            scaled = contract(kernel.factors, read_order(kernel, f * (w * 2.0 ** j)))
            assert np.array_equal(image, np.ldexp(scaled, -j))


@pytest.mark.parametrize("scale", [1.0, 0.01])
def test_non_diagonal_covariance_is_the_closed_form(scale):
    # N(y - x; Sigma) from the full quadratic form; at scale 0.01 the far
    # entries underflow, and the product of the whitened per-coordinate
    # factors crosses TINY between them
    cov = scale * np.array([[0.3, 0.1], [0.1, 0.2]])
    grid = build_grid(dim=2, radius=3.0, points_per_axis=21)
    kernel = gaussian_kernel(grid, grid, cov)
    assert len(kernel.factors) == 1 and kernel.gaussian[1] is not None
    delta = grid.nodes[:, None, :] - grid.nodes[None, :, :]
    q = np.einsum("nmi,ij,nmj->nm", delta, np.linalg.inv(cov), delta)
    peak = 1.0 / math.sqrt((2.0 * math.pi) ** 2 * np.linalg.det(cov))
    closed = peak * np.exp(-0.5 * q)
    assert np.max(np.abs(kernel.values - closed)) <= 1e-14 * peak
    assert not np.any((kernel.values > 0) & (kernel.values < TINY))
    assert np.all(kernel.values < kernel.sigma_bound)
    if scale < 1.0:
        assert np.any((closed > 0) & (closed < TINY))


def test_diagonal_covariance_keeps_one_factor_per_axis():
    axes = (np.linspace(-3.0, 3.0, 13), np.linspace(-2.0, 2.0, 9))
    grid = _tensor_grid(*axes)
    kernel = gaussian_kernel(grid, grid, np.diag([0.3, 0.05]))
    assert all(map(np.array_equal, gaussian_from_scales(grid, grid, *kernel.gaussian).factors,
                   kernel.factors))
    assert kernel.gaussian == ((math.sqrt(0.3), math.sqrt(0.05)), None)
    for factor, axis, var in zip(kernel.factors, axes, (0.3, 0.05)):
        assert np.array_equal(factor, problem._heat_factor(axis, axis, math.sqrt(var)))
    assert np.all(kernel.values < kernel.sigma_bound)


def test_isotropic_product_kernel_holds_its_factor_once():
    # build_grid passes one axis array for every dimension, so equal scales
    # share one read-only heat factor and unequal ones keep one each
    grid = build_grid(dim=2, radius=5.0, points_per_axis=41)
    axis = grid.axes[0]
    for sigma, variances in ((0.5, (0.25, 0.25)), (np.diag([0.25, 0.16]), (0.25, 0.16))):
        kernel = gaussian_kernel(grid, grid, sigma)
        assert (kernel.factors[0] is kernel.factors[1]) == (variances[0] == variances[1])
        for factor, var in zip(kernel.factors, variances):
            assert np.array_equal(factor, problem._heat_factor(axis, axis, math.sqrt(var)))
            assert not factor.flags.writeable
    cube = build_grid(dim=3, radius=5.0, points_per_axis=21)
    assert len({id(a) for a in gaussian_kernel(cube, cube, 0.5).factors}) == 1


def test_gaussian_kernel_checks_its_covariance(bench_grid):
    grid = build_grid(dim=2, radius=3.0, points_per_axis=5)
    with pytest.raises(FeasibilityError, match="kernel covariance must be positive definite"):
        gaussian_kernel(grid, grid, np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(FeasibilityError, match="kernel covariance must be symmetric"):
        gaussian_kernel(grid, grid, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(FeasibilityError, match="kernel covariance must be symmetric"):
        gaussian_kernel(grid, grid, np.array([1.0, 1.0]))
    with pytest.raises(GridError, match="kernel covariance must be d x d"):
        gaussian_kernel(grid, grid, np.array([[0.25]]))
    with pytest.raises(GridError, match="kernel covariance must be d x d"):
        gaussian_kernel(bench_grid, bench_grid, np.eye(2))
    with pytest.raises(FeasibilityError, match="kernel sigma must be positive"):
        gaussian_kernel(grid, grid, -0.5)


@pytest.mark.parametrize("dim, side", [(2, 3), (3, 2)])
def test_gaussian_density_refuses_a_covariance_that_is_not_d_x_d(dim, side):
    # a 3 x 3 covariance on a 2-D grid once failed in its diagonal test, and
    # a 2 x 2 one on a 3-D grid in the x P x loop, both with an IndexError
    grid = build_grid(dim=dim, radius=3.0, points_per_axis=5)
    with pytest.raises(GridError, match="marginal covariance must be d x d"):
        gaussian_density(grid, np.eye(side))


def _tensor_grid(*axes):
    """Hand-built grid with a different node set and weight vector on every
    axis."""
    rng = np.random.default_rng(math.prod(len(a) for a in axes))
    return QuadratureGrid(axes, tuple(rng.uniform(0.5, 1.5, len(a)) for a in axes))


def test_gaussian_on_one_grid_is_its_own_swap():
    # the band, per-axis factors on unequal axes and the whitened dense
    # factor are each bitwise their own transpose, so swapped() is the
    # kernel itself; on two grids it is the transposed copy
    g1 = build_grid(dim=1, radius=4.0, points_per_axis=41)
    g2 = _tensor_grid(np.linspace(-3.0, 3.0, 13), np.linspace(-2.0, 2.0, 9))
    for kernel in (gaussian_kernel(g1, g1, 0.5), gaussian_kernel(g2, g2, 0.5),
                   gaussian_kernel(g2, g2, np.array([[0.3, 0.1], [0.1, 0.2]]))):
        assert kernel.swapped() is kernel
        assert np.array_equal(kernel.values, kernel.values.T)
    other = build_grid(dim=1, radius=4.0, points_per_axis=41)
    kernel = gaussian_kernel(g1, other, 0.5)
    assert kernel.swapped() is not kernel
    assert np.array_equal(kernel.swapped().values, kernel.values.T)


def test_factored_apply_follows_the_axis_order():
    # unequal axes on both grids, so a factor applied to the wrong axis fails
    g1 = _tensor_grid(np.linspace(-3, 3, 3), np.linspace(-2, 4, 4), np.linspace(-1, 1, 5))
    g2 = _tensor_grid(np.linspace(-4, 2, 5), np.linspace(-1, 1, 2), np.linspace(0, 3, 3))
    kernel = gaussian_kernel(g1, g2, 0.9)
    dense = _pointwise_heat_kernel(g1, g2, 0.9)
    assert [a.shape for a in kernel.factors] == [(3, 5), (4, 2), (5, 3)]
    assert _rel_err(kernel.values, dense) <= 1e-12
    rng = np.random.default_rng(9)
    f1, f2 = rng.uniform(0.1, 1.0, g1.n_nodes), rng.uniform(0.1, 1.0, g2.n_nodes)
    assert _rel_err(kernel.apply(f2), dense @ (g2.weights * f2)) <= 1e-12
    assert _rel_err(kernel.apply_T(f1), dense.T @ (g1.weights * f1)) <= 1e-12


def test_factored_swapped_and_row_normalized_match_dense():
    g1 = _tensor_grid(np.linspace(-4, 4, 11), np.linspace(-3, 3, 6))
    g2 = _tensor_grid(np.linspace(-2, 2, 5), np.linspace(-3, 3, 9))
    kernel = gaussian_kernel(g1, g2, 0.6)
    rng = np.random.default_rng(5)
    f1, f2 = rng.uniform(0.1, 1.0, g1.n_nodes), rng.uniform(0.1, 1.0, g2.n_nodes)

    swapped = kernel.swapped()
    assert swapped.grid1 is g2 and swapped.grid2 is g1
    assert len(swapped.factors) == 2
    assert all(np.array_equal(s, k.T) for s, k in zip(swapped.factors, kernel.factors))
    assert np.array_equal(swapped.values, kernel.values.T)
    assert _rel_err(swapped.apply(f1), kernel.values.T @ (g1.weights * f1)) <= FACTORED_APPLY_RTOL
    assert _rel_err(swapped.apply_T(f2), kernel.values @ (g2.weights * f2)) <= FACTORED_APPLY_RTOL

    # the row scaling is not a product over axes, so it must drop the factors
    normalized = transition_normalized(kernel)
    expected = kernel.values / (kernel.values @ g2.weights)[:, None]
    assert len(normalized.factors) == 1
    assert _rel_err(normalized.values, expected) <= 1e-13
    assert _rel_err(normalized.apply(f2), expected @ (g2.weights * f2)) <= FACTORED_APPLY_RTOL
    assert np.max(np.abs(normalized.apply(np.ones(g2.n_nodes)) - 1.0)) < 1e-14


def _dense_twin(kernel):
    """The same matrix as a one-factor table kernel with the same bound."""
    return _with_bound(table_kernel(kernel.grid1, kernel.grid2, kernel.values),
                       kernel.sigma_bound)


@pytest.mark.parametrize("dim,points", [(2, 41), (3, 15)])
def test_factored_full_report_matches_dense_table(dim, points):
    grid = build_grid(dim=dim, radius=8.0, points_per_axis=points)
    kernel = gaussian_kernel(grid, grid, 0.5)
    marginals = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
    report = full_report(kernel, marginals)
    assert "values" not in kernel.__dict__  # the matrix was never built
    dense = full_report(_dense_twin(kernel), marginals)
    assert report.hypotheses == dense.hypotheses
    assert report.swap_recommended == dense.swap_recommended
    # the integrability estimate goes through apply_T, whose factored sums
    # run in another order
    cs, cs_dense = report.condition_star, dense.condition_star
    assert cs.verdict == cs_dense.verdict
    assert cs.estimate == pytest.approx(cs_dense.estimate, rel=1e-12)
    assert cs.tail_exponent == pytest.approx(cs_dense.tail_exponent, rel=1e-9)


def test_factored_checks_flag_zero_rows_and_columns_as_the_dense_matrix():
    # a zero row (column) of any factor zeroes every kernel row (column)
    # that passes through it; a factor above the bound flags its maximum
    g1 = _tensor_grid(np.linspace(-2, 2, 3), np.linspace(-1, 1, 4))
    g2 = _tensor_grid(np.linspace(-3, 3, 5), np.linspace(0, 1, 2))
    a = np.random.default_rng(2).uniform(0.5, 2.0, (3, 5))
    b = np.random.default_rng(3).uniform(0.5, 2.0, (4, 2))
    a[1, :] = 0.0
    b[:, 1] = 0.0
    kernel = KernelOperator((a, b), g1, g2, 1.5)
    marginals = MarginalPair(density_field(g1, np.ones(g1.n_nodes)),
                             density_field(g2, np.ones(g2.n_nodes)))
    report = check_assumptions(kernel, marginals)
    assert "values" not in kernel.__dict__
    assert report.hypotheses == check_assumptions(_dense_twin(kernel), marginals).hypotheses
    assert report.hypotheses["kernel_rows_positive"].offending_nodes == (4, 5, 6, 7)
    assert not report.hypotheses["kernel_columns_positive"].ok
    assert not report.hypotheses["kernel_bounded"].ok


def test_product_kernel_refuses_a_negative_factor():
    grid = build_grid(dim=2, radius=2.0, points_per_axis=5)
    good = gaussian_kernel(grid, grid, 0.5).factors
    bad = good[1].copy()
    bad[2, 3] = -1e-300
    with pytest.raises(GridError, match="nonnegative"):
        KernelOperator((good[0], bad), grid, grid, 1.0)


def test_bound_below_the_factor_maxima_names_a_maximal_entry():
    g1 = _tensor_grid(np.linspace(-4, 4, 11), np.linspace(-3, 3, 6))
    g2 = _tensor_grid(np.linspace(-2, 2, 5), np.linspace(-1, 3, 9))
    kernel = gaussian_kernel(g1, g2, 0.6)
    marginals = MarginalPair(density_field(g1, np.ones(g1.n_nodes)),
                             density_field(g2, np.ones(g2.n_nodes)))
    top = float(np.max(kernel.factors[0])) * float(np.max(kernel.factors[1]))
    assert check_assumptions(kernel, marginals).hypotheses["kernel_bounded"].ok
    tight = _with_bound(kernel, top)
    bounded = check_assumptions(tight, marginals).hypotheses["kernel_bounded"]
    assert "values" not in tight.__dict__
    assert not bounded.ok
    i, j = bounded.offending_nodes
    assert kernel.values[i, j] == kernel.values.max() == top


#: each builder refusal of malformed input: the call on a 1-D grid of 5
#: nodes, the exception type and its whole message
REFUSALS = {
    "density-length": (lambda g: problem.DensityField(g, np.ones(4)), GridError,
                       "density values must match grid node count"),
    "density-nan": (lambda g: problem.DensityField(g, [1.0, 1.0, math.nan, 1.0, 1.0]),
                    GridError, "density contains non-finite values"),
    "zero-mass": (lambda g: density_field(g, np.zeros(5)), FeasibilityError,
                  "cannot renormalize a density with zero mass"),
    "sigma-zero": (lambda g: gaussian_density(g, 0.0), FeasibilityError,
                   "sigma must be positive"),
    "sigma-negative": (lambda g: gaussian_density(g, -1.0), FeasibilityError,
                       "sigma must be positive"),
    "band": (lambda g: KernelOperator((np.array([1.0, 2.0, 3.0]),), g, g, 3.0), GridError,
             "a kernel band must be symmetric, of odd length below 2n, on two grids of "
             "n nodes"),
    "matrix": (lambda g: KernelOperator((np.ones((5, 4)),), g, g, 1.0), GridError,
               "kernel matrix shape must be (n1, n2)"),
    "factors": (lambda g: KernelOperator((np.ones((5, 5)),) * 2, g, g, 1.0), GridError,
                "kernel factors must be (n1, n2) per grid axis"),
    "grid-dims": (lambda g: gaussian_kernel(g, build_grid(dim=2, radius=2.0,
                                                          points_per_axis=5), 0.5),
                  GridError, "kernel grids must share dimension"),
    # row 2 of the table is 0
    "zero-row": (lambda g: transition_normalized(table_kernel(
                     g, g, np.ones((5, 5)) * (np.arange(5) != 2)[:, None])),
                 FeasibilityError, "cannot row-normalize: a kernel row has zero mass"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_builders_refuse_malformed_input(name):
    build, error, message = REFUSALS[name]
    grid = build_grid(dim=1, radius=2.0, points_per_axis=5)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(grid)

