"""Analytic Gaussian reference, coupling assembly, KL objective, interpolation."""

import math

import numpy as np
import pytest

from fortetbridge import (MarginalPair, build_coupling, build_grid,
                          density_field, entropic_interpolation,
                          gaussian_density, gaussian_kernel, gaussian_oracle,
                          kl_objective, prior_coupling, pushforward,
                          run_fortet, run_sinkhorn, table_kernel)
from fortetbridge.config import build_problem, resolve_config
from fortetbridge.errors import FortetBridgeError, InfeasibleParametersError
from fortetbridge.problem import bernstein_gaussian_condition, gaussian_kappa
from tests.conftest import random_instance, traced_peak

# Roots of the two-parameter stationarity system for sigma=0.5, sigma1=1.0,
# sigma2=0.8, frozen from a bracketed scalar root find (brentq, xtol=1e-15).
BENCH_B = 1.8419171064692643
BENCH_A = -0.26117305185967044

# Exponents (a, b) of the exact roots at the double-precision inputs, to 50
# digits (mpmath at 60 digits, from the positive root of the quadratic in
# u = 1 + sigma^2 b).  A bracketed brentq returned a = 9.68e16 on the first
# triple and was 2.3e-11 relative off on the second.
ORACLE_REFERENCES = [
    ((1e-5, 1.0, 1e5),
     "999990000000000.33639552823301580660948442639187017",
     "-9999899999.9999983639052823301568160823442639184972"),
    ((0.010079787833663652, 0.04009674139590362, 8.94299539424191),
     "2185653.7995219584830512259729972014343059154620643",
     "-9798.1788740073696714047763577805199410320958458807"),
]

# 0.6 log 8 + 1.2 log 24 + 0.2 log(4/3) + 0.9 log 4: the 2x2 hand coupling
# pi = [[0.6, 1.2], [0.2, 0.9]] against its reference omega1 g =
# [[0.075, 0.05], [0.15, 0.225]], evaluated in closed form.
KL_HAND = 6.366530860923694


def _unit_grid(n):
    """The lattice of step 2 on n nodes: weight 1 at its two ends and 2
    between, so that a 2-node grid's quadrature sum is a plain sum."""
    return build_grid(dim=1, radius=n - 1.0, points_per_axis=n)


def _hand_coupling(g, phi, psi, omega1):
    """Coupling phi g psi of a table kernel on unit grids, against omega1."""
    g = np.asarray(g, dtype=float)
    grid1, grid2 = _unit_grid(g.shape[0]), _unit_grid(g.shape[1])
    marginals = MarginalPair(density_field(grid1, omega1, renormalize=False),
                             density_field(grid2, np.ones(g.shape[1]),
                                           renormalize=False))
    return build_coupling(np.asarray(phi, dtype=float),
                          np.asarray(psi, dtype=float),
                          table_kernel(grid1, grid2, g), marginals)


def _dense_kl(pi, ref, w1, w2):
    """sum w1 w2 pi log(pi / ref) over the cells pi charges, cell by cell."""
    mask = pi > 0
    terms = np.zeros_like(pi)
    terms[mask] = pi[mask] * np.log(pi[mask] / ref[mask])
    return float(w1 @ (terms @ w2))


class TestGaussianOracle:
    def test_benchmark_roots_frozen(self):
        oracle = gaussian_oracle(0.5, 1.0, 0.8)
        assert abs(oracle.b - BENCH_B) < 1e-12
        assert abs(oracle.a - BENCH_A) < 1e-12

    def test_consistency_identity(self):
        # sigma2^2 (1 + sigma^2 b) = sigma1^2 (1 + sigma^2 a) ties the two
        # stationarity equations together; it must hold at the root.
        for (s, s1, s2) in [(0.5, 1.0, 0.8), (0.3, 0.7, 1.1), (1.0, 2.0, 1.5)]:
            oracle = gaussian_oracle(s, s1, s2)
            lhs = s2 ** 2 * (1.0 + s ** 2 * oracle.b)
            rhs = s1 ** 2 * (1.0 + s ** 2 * oracle.a)
            assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    def test_free_evolution_has_flat_second_factor(self):
        # sigma2^2 = sigma1^2 + sigma^2: the target marginal is exactly the
        # kernel-smoothed source, so b = 0 and the margin kappa vanishes.
        oracle = gaussian_oracle(0.6, 0.8, 1.0)
        assert abs(oracle.b) < 1e-10
        assert abs(oracle.a - 1.0 / 0.8 ** 2) < 1e-9
        assert abs(oracle.kappa) < 1e-15
        # there omega2 / (g * omega1) integrates 1 over the line, which
        # diverges: the oracle's flag and Bernstein's condition read one
        # kappa, refuse this orientation and accept the swapped one
        assert oracle.kappa == gaussian_kappa(0.6, 0.8, 1.0) == 0.0
        assert not oracle.scheme_feasible
        assert not bernstein_gaussian_condition(0.6, 0.8, 1.0)
        assert oracle.swap_scheme_feasible
        assert bernstein_gaussian_condition(0.6, 1.0, 0.8)

    def test_feasibility_flags(self):
        oracle = gaussian_oracle(0.5, 1.0, 0.8)
        assert oracle.kappa > 0
        assert oracle.scheme_feasible
        # swapping the marginals gives 1/sigma1^2 - 1/(sigma2^2+sigma^2) < 0
        assert not oracle.swap_scheme_feasible

    def test_rejects_nonpositive_parameters(self):
        for bad in [(0.0, 1.0, 1.0), (0.5, -1.0, 0.8), (0.5, 1.0, 0.0)]:
            with pytest.raises(InfeasibleParametersError):
                gaussian_oracle(*bad)

    @pytest.mark.parametrize("params", [
        (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1e-200, 1.0, 1.0),
        (1.0, 1e-200, 1.0), (1.0, 1.0, 1e-200), (1e200, 1.0, 1.0)])
    def test_rejects_non_finite_inputs_and_exponents(self, params):
        # non-finite inputs, and inputs whose exponents under- or overflow
        with pytest.raises(InfeasibleParametersError):
            gaussian_oracle(*params)

    @pytest.mark.parametrize("params, a_ref, b_ref", ORACLE_REFERENCES,
                             ids=["extreme-ratio", "random-triple"])
    def test_matches_high_precision_roots(self, params, a_ref, b_ref):
        oracle = gaussian_oracle(*params)
        assert oracle.a == pytest.approx(float(a_ref), rel=1e-15, abs=0)
        assert oracle.b == pytest.approx(float(b_ref), rel=1e-15, abs=0)

    @pytest.mark.parametrize("params", [(0.5, 1.0, 0.8), (0.1, 0.5, 1.0),
                                        (3.0, 0.02, 40.0)])
    def test_exponents_swap_with_the_marginals(self, params):
        # exchanging sigma1 and sigma2 exchanges the two exponents
        s, s1, s2 = params
        oracle, swapped = gaussian_oracle(s, s1, s2), gaussian_oracle(s, s2, s1)
        assert oracle.a == swapped.b
        assert oracle.b == swapped.a

    def test_log_and_linear_forms_agree(self):
        oracle = gaussian_oracle(0.5, 1.0, 0.8)
        x = np.linspace(-3.0, 3.0, 41)
        assert np.allclose(np.exp(oracle.log_phi(x)), oracle.phi(x), rtol=1e-12)
        assert np.allclose(np.exp(oracle.log_psi(x)), oracle.psi(x), rtol=1e-12)

    def test_oracle_satisfies_discrete_system(self, bench_grid, bench_kernel,
                                              bench_marginals):
        # Restricted to the benchmark grid the closed-form pair solves the
        # quadrature system at machine precision: the truncated tails carry
        # ~1e-26 of the defining integrals.
        oracle = gaussian_oracle(0.5, 1.0, 0.8)
        c = build_coupling(oracle.phi(bench_grid.nodes),
                           oracle.psi(bench_grid.nodes),
                           bench_kernel, bench_marginals)
        assert c.row_marginal_resid < 1e-13
        assert c.col_marginal_resid < 1e-13


class TestCoupling:
    def test_benchmark_coupling_reproduces_marginals(self, bench_solution,
                                                     bench_kernel,
                                                     bench_marginals):
        coupling = build_coupling(bench_solution.phi, bench_solution.psi,
                                  bench_kernel, bench_marginals)
        assert coupling.row_marginal_resid < 1e-12
        assert coupling.col_marginal_resid < 1e-12
        assert abs(coupling.mass - 1.0) < 1e-12
        assert np.all(coupling.pi >= 0.0)

    def test_solution_certificate_is_read_only(self, bench_solution):
        # the residuals, the mass and the KL read the coupling's arrays, so
        # none of them can be changed by writing through the solution
        c = bench_solution.coupling
        before = (bench_solution.residuals, c.mass, kl_objective(c))
        for arr in (c.phi, c.psi, c.row, c.col, bench_solution.h):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        assert (bench_solution.residuals, c.mass, kl_objective(c)) == before

    def test_pushforward_coupling_has_flat_second_potential(self, bench_grid):
        kernel = gaussian_kernel(bench_grid, bench_grid, 0.5)
        omega1 = gaussian_density(bench_grid, 1.0)
        omega2 = pushforward(kernel, omega1)
        marginals = MarginalPair(omega1, omega2)
        coupling = build_coupling(omega1.values, np.ones(bench_grid.n_nodes),
                                  kernel, marginals)
        # psi == 1 makes pi exactly the prior coupling omega1(x) g(x, y);
        # columns then reproduce the pushforward bitwise while rows carry
        # the quadrature error of the kernel's unit row integral
        assert np.array_equal(coupling.pi, prior_coupling(kernel, marginals))
        assert coupling.col_marginal_resid < 1e-15
        assert coupling.row_marginal_resid < 1e-12

    def test_kl_against_itself_is_zero(self, bench_grid, bench_kernel,
                                       bench_marginals):
        # phi = omega1, psi = 1 makes pi the prior coupling itself
        coupling = build_coupling(bench_marginals.omega1.values,
                                  np.ones(bench_grid.n_nodes), bench_kernel,
                                  bench_marginals)
        obj = kl_objective(coupling)
        assert obj.value == 0.0
        assert obj.absolutely_continuous

    @pytest.mark.parametrize("which", ["bench_solution", "swap_solution"])
    def test_kl_is_the_masked_formula_bitwise(self, which, request):
        # each sum's terms are formed in one buffer, in place where the
        # integral is positive at every node (gauss1d) and on masked copies
        # otherwise (swap: phi = 0 at 132 nodes); the value is bitwise the
        # masked formula's, in its operand order
        c = request.getfixturevalue(which).coupling
        r, k = c.row > 0, c.col > 0
        assert r.all() == k.all() == (which == "bench_solution")
        assert which == "bench_solution" or np.count_nonzero(c.phi == 0) == 132
        om1 = c.marginals.omega1.values
        masked = (float(np.sum(c.grid1.weights[r] * c.row[r]
                               * (np.log(c.phi[r]) - np.log(om1[r]))))
                  + float(np.sum(c.grid2.weights[k] * c.col[k] * np.log(c.psi[k]))))
        assert kl_objective(c) == (masked, True)

    def test_kl_reads_the_benchmark_coupling_in_place(self, bench_solution, swap_solution):
        # the masked copies and temporaries peaked at 4.4 node arrays; read
        # in place, a sum holds its terms and one more array.  On swap
        # (phi = 0 at 132 nodes, 269 masked entries) a sum holds at most
        # two gathered arrays, one node array and its mask: measured 3.04
        # node arrays, since a masked sum gathers from the full weighted
        # integral (2.89 when it gathered from a stored weight vector), so
        # the 3.2 bound leaves 0.16 node arrays for the next growth.  Four
        # gathered arrays at once, with the row mask held through the
        # column sum, peaked at 3.83 node arrays
        for solution, bound in ((bench_solution, 2.5), (swap_solution, 3.2)):
            c = solution.coupling
            kl_objective(c)
            _, peak = traced_peak(lambda: kl_objective(c))
            assert peak < bound * c.row.nbytes

    def test_kl_hand_value(self):
        g = np.array([[0.3, 0.2], [0.2, 0.3]])
        coupling = _hand_coupling(g, [2.0, 1.0], [1.0, 3.0], [0.25, 0.75])
        assert np.allclose(coupling.pi, [[0.6, 1.2], [0.2, 0.9]], rtol=1e-15)
        obj = kl_objective(coupling)
        assert obj.absolutely_continuous
        assert abs(obj.value - KL_HAND) < 1e-12

    def test_kl_detects_support_violation(self):
        # phi > 0 at node 1, where omega1 = 0: pi charges a reference-null row
        coupling = _hand_coupling([[0.5, 0.5], [0.25, 0.25]], [1.0, 1.0],
                                  [1.0, 1.0], [1.0, 0.0])
        obj = kl_objective(coupling)
        assert obj.value == math.inf
        assert not obj.absolutely_continuous

    def test_kl_zero_mass_cells_contribute_nothing(self):
        # zero kernel cells, and a middle node where phi, psi and omega1 all
        # vanish: each would be 0 log 0 (NaN if evaluated), and counts 0.
        # The end nodes weigh 1, so each charged cell adds 0.5 log 2
        coupling = _hand_coupling(np.eye(3), [1.0, 0.0, 1.0], [0.5, 0.0, 0.5],
                                  [0.25, 0.0, 0.25])
        obj = kl_objective(coupling)
        assert obj.absolutely_continuous
        assert abs(obj.value - math.log(2.0)) < 1e-12

    def test_kl_nonnegative_at_equal_mass(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.uniform(0.0, 1.0, (4, 5))
            phi, psi = rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, 5)
            omega1 = rng.uniform(0.1, 1.0, 4)
            # scale omega1 so that the reference omega1 g has pi's mass,
            # both over the grids' weights
            w1, w2 = _unit_grid(4).weights, _unit_grid(5).weights
            omega1 *= (float(w1 @ (phi[:, None] * g * psi) @ w2)
                       / float(w1 @ (omega1[:, None] * g) @ w2))
            coupling = _hand_coupling(g, phi, psi, omega1)
            assert kl_objective(coupling).value >= -1e-12

    def test_solved_coupling_minimizes_kl_over_feasible_perturbations(self):
        # pi* = phi g psi with exact marginals is the discrete KL optimum, so
        # any zero-marginal perturbation that keeps pi positive must not
        # lower the objective.  A perturbed pi is no longer phi g psi, so it
        # is scored by the cell-by-cell sum.
        rng = np.random.default_rng(11)
        kernel, marginals = random_instance(rng, 7, 9)
        pair = run_sinkhorn(kernel, marginals, tol=1e-14)
        coupling = build_coupling(pair.u, pair.v, kernel, marginals)
        w1 = kernel.grid1.weights
        w2 = kernel.grid2.weights
        ref = prior_coupling(kernel, marginals)
        base = kl_objective(coupling).value
        assert abs(base - _dense_kl(coupling.pi, ref, w1, w2)) <= 1e-12 * abs(base)
        t = 1e-3
        for _ in range(20):
            raw = rng.normal(size=coupling.pi.shape)
            # weighted double centering: both quadrature marginals of delta
            # vanish, so pi + t delta keeps the same row/column constraints
            row = (raw @ w2) / w2.sum()
            col = (w1 @ raw) / w1.sum()
            grand = float(w1 @ (raw @ w2)) / (w1.sum() * w2.sum())
            delta = raw - row[:, None] - col[None, :] + grand
            assert np.max(np.abs(delta @ w2)) < 1e-12
            assert np.max(np.abs(w1 @ delta)) < 1e-12
            delta *= 0.5 * np.min(coupling.pi) / (t * np.max(np.abs(delta)))
            perturbed = _dense_kl(coupling.pi + t * delta, ref, w1, w2)
            assert perturbed >= base - 1e-12

    def test_pi_is_the_dense_product(self, bench_solution, bench_kernel,
                                     bench_marginals):
        grid = build_grid(dim=2, radius=8.0, points_per_axis=21)
        product = gaussian_kernel(grid, grid, 0.5)
        rng = np.random.default_rng(4)
        phi, psi = rng.uniform(0.1, 1.0, grid.n_nodes), rng.uniform(0.1, 1.0, grid.n_nodes)
        marginals = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
        for kernel, marg, p, q in ((bench_kernel, bench_marginals,
                                    bench_solution.phi, bench_solution.psi),
                                   (product, marginals, phi, psi)):
            coupling = build_coupling(p, q, kernel, marg)
            assert "pi" not in coupling.__dict__  # built on first read
            assert np.array_equal(coupling.pi,
                                  p[:, None] * kernel.values * q[None, :])

    def test_marginal_integrals_match_the_dense_sums(self, bench_solution,
                                                     bench_kernel,
                                                     bench_marginals):
        coupling = build_coupling(bench_solution.phi, bench_solution.psi,
                                  bench_kernel, bench_marginals)
        w1 = bench_kernel.grid1.weights
        w2 = bench_kernel.grid2.weights
        row, col = coupling.pi @ w2, coupling.pi.T @ w1
        row_resid = np.max(np.abs(row - bench_marginals.omega1.values))
        col_resid = np.max(np.abs(col - bench_marginals.omega2.values))
        assert abs(coupling.row_marginal_resid - row_resid) <= 1e-15
        assert abs(coupling.col_marginal_resid - col_resid) <= 1e-15
        assert abs(coupling.mass - float(w1 @ row)) <= 1e-15


def _gaussian_solve(dim, points, sigma, scale1, scale2, swap=False):
    """Fortet's coupling on a radius-8 trapezoid grid; in 2-D the marginal
    scales are per-axis variances, as in a config."""
    grid = build_grid(dim=dim, radius=8.0, points_per_axis=points)
    kernel = gaussian_kernel(grid, grid, sigma)
    marginals = MarginalPair(gaussian_density(grid, scale1),
                             gaussian_density(grid, scale2))
    if swap:
        marginals = MarginalPair(marginals.omega2, marginals.omega1)
    sol = run_fortet(kernel, marginals)
    return build_coupling(sol.phi, sol.psi, kernel, marginals)


class TestKLFromPotentials:
    def test_matches_the_dense_sum_on_the_benchmark(self, bench_solution,
                                                    bench_kernel,
                                                    bench_marginals):
        coupling = build_coupling(bench_solution.phi, bench_solution.psi,
                                  bench_kernel, bench_marginals)
        w = bench_kernel.grid1.weights
        dense = _dense_kl(coupling.pi, prior_coupling(bench_kernel, bench_marginals), w, w)
        value = kl_objective(coupling).value
        assert abs(value - dense) <= 1e-12 * dense

    def test_two_dimensional_kl_is_twice_the_axis_kl(self):
        # the tensor-grid problem factors into one 1-D problem per axis, so
        # its KL is the sum of the axis KLs (up to the solve tolerance)
        plane = kl_objective(_gaussian_solve(2, 41, 0.5, 1.0, 0.8))
        axis = kl_objective(_gaussian_solve(1, 41, 0.5, 1.0, math.sqrt(0.8)))
        assert plane.absolutely_continuous
        assert abs(plane.value - 2.0 * axis.value) <= 1e-10 * plane.value

    def test_swap_instance_is_finite_and_matches_a_log_space_sum(self):
        # criterion 2's post-swap instance: phi and psi span e^+-1300, so the
        # dense prior omega1 g underflows where pi does not.  The reference
        # sum takes every cell in log space, with the analytic log-kernel.
        sigma = 0.1
        coupling = _gaussian_solve(1, 401, sigma, 0.5, 1.0, swap=True)
        obj = kl_objective(coupling)
        assert obj.absolutely_continuous and math.isfinite(obj.value)
        x = coupling.grid1.nodes
        log_g = (-np.subtract.outer(x, x) ** 2 / (2.0 * sigma * sigma)
                 - 0.5 * math.log(2.0 * math.pi * sigma * sigma))
        with np.errstate(divide="ignore"):
            log_phi, log_psi = np.log(coupling.phi), np.log(coupling.psi)
        log_ratio = (log_phi - np.log(coupling.marginals.omega1.values))[:, None] + log_psi
        pi = np.exp(log_phi[:, None] + log_g + log_psi[None, :])
        terms = np.where(pi > 0, pi * np.where(pi > 0, log_ratio, 0.0), 0.0)
        w = coupling.grid1.weights
        dense = float(w @ (terms @ w))
        assert abs(obj.value - dense) <= 1e-12 * abs(dense)


class TestInterpolation:
    def test_endpoints_recover_marginals(self, bench_solution, bench_kernel,
                                         bench_marginals):
        interp = entropic_interpolation(bench_solution.phi, bench_solution.psi,
                                        bench_kernel, [0.0, 0.5, 1.0])
        sup0 = np.max(np.abs(interp.densities[0] - bench_marginals.omega1.values))
        sup1 = np.max(np.abs(interp.densities[2] - bench_marginals.omega2.values))
        assert sup0 < 1e-12
        assert sup1 < 1e-12
        for mass in interp.masses:
            assert abs(mass - 1.0) < 1e-12
        assert np.all(interp.densities[1] >= 0.0)

    def test_midpoint_matches_closed_form_variance(self, bench_grid,
                                                   bench_solution,
                                                   bench_kernel):
        # heat-smoothing a Gaussian stays Gaussian, so the t = 0.5 marginal
        # has precision a/(1 + t s a) + b/(1 + (1-t) s b) with s = sigma^2,
        # computable from the closed-form pair alone
        oracle = gaussian_oracle(0.5, 1.0, 0.8)
        s = 0.25
        inv_var = (oracle.a / (1.0 + 0.5 * s * oracle.a)
                   + oracle.b / (1.0 + 0.5 * s * oracle.b))
        interp = entropic_interpolation(bench_solution.phi, bench_solution.psi,
                                        bench_kernel, [0.5])
        rho = interp.densities[0]
        w = bench_grid.weights
        x = bench_grid.nodes
        mean = float(w @ (rho * x))
        var = float(w @ (rho * x ** 2)) - mean ** 2
        assert abs(var - 1.0 / inv_var) < 1e-10

    def test_rejects_times_outside_unit_interval(self, bench_solution,
                                                 bench_kernel):
        with pytest.raises(FortetBridgeError):
            entropic_interpolation(bench_solution.phi, bench_solution.psi,
                                   bench_kernel, [0.0, 1.5])

    def test_requires_matching_grids(self):
        # a Gaussian kernel between two 1-D grids of other radii
        x = build_grid(dim=1, radius=2.0, points_per_axis=5)
        y = build_grid(dim=1, radius=3.0, points_per_axis=5)
        with pytest.raises(FortetBridgeError,
                           match="^interpolation needs matching x and y grids$"):
            entropic_interpolation(np.ones(5), np.ones(5), gaussian_kernel(x, y, 0.5),
                                   [0.5])

    def test_requires_heat_kernel(self, bench_grid, bench_solution):
        flat = table_kernel(bench_grid, bench_grid,
                            np.ones((bench_grid.n_nodes, bench_grid.n_nodes)))
        with pytest.raises(FortetBridgeError,
                           match="^interpolation needs a Gaussian kernel$"):
            entropic_interpolation(bench_solution.phi, bench_solution.psi,
                                   flat, [0.5])

    @pytest.mark.parametrize("scales", [(0.5, 0.5), (0.5, 0.4)],
                             ids=["isotropic", "anisotropic"])
    def test_2d_interpolant_is_the_product_of_1d_ones(self, scales):
        # a diagonal Gaussian on a tensor grid is separable, so product
        # potentials interpolate to the product of the 1-D time marginals,
        # each axis's slice at its own scale times sqrt(t)
        grid = build_grid(dim=1, radius=8.0, points_per_axis=81)
        marginals = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
        kernels = [gaussian_kernel(grid, grid, s) for s in scales]
        sols = [run_fortet(k, marginals) for k in kernels]
        grid2 = build_grid(dim=2, radius=8.0, points_per_axis=81)
        kernel2 = gaussian_kernel(grid2, grid2, np.diag(np.square(scales)))
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        ones = [entropic_interpolation(sol.phi, sol.psi, k, times)
                for sol, k in zip(sols, kernels)]
        two = entropic_interpolation(np.outer(sols[0].phi, sols[1].phi).ravel(),
                                     np.outer(sols[0].psi, sols[1].psi).ravel(),
                                     kernel2, times)
        for k in range(len(times)):
            prod = np.outer(ones[0].densities[k], ones[1].densities[k]).ravel()
            assert np.max(np.abs(two.densities[k] - prod) / prod) < 1e-12
        assert "values" not in kernel2.__dict__

    def test_non_diagonal_interpolant_keeps_unit_mass(self):
        # a non-diagonal Sigma interpolates through its whitened dense
        # slices, each N(y - x; t Sigma); the endpoints are the marginals
        grid = build_grid(dim=2, radius=5.0, points_per_axis=41)
        kernel = gaussian_kernel(grid, grid, np.array([[0.25, 0.05], [0.05, 0.2]]))
        marginals = MarginalPair(gaussian_density(grid, np.eye(2)),
                                 gaussian_density(grid, 0.64 * np.eye(2)))
        sol = run_fortet(kernel, marginals)
        interp = entropic_interpolation(sol.phi, sol.psi, kernel,
                                        [0.0, 0.25, 0.5, 0.75, 1.0])
        for mass in interp.masses:
            assert abs(mass - 1.0) < 1e-6
        for rho, omega in zip(interp.densities[::4], marginals):
            assert np.max(np.abs(rho - omega.values)) < 1e-12 * omega.peak

    def test_2d_tight_grid_is_refused_by_mass_drift(self):
        # gauss2d's 41-point axes: the t = 0.25 interpolant's raw mass is
        # 1.0019, beyond MASS_DRIFT_TOL.  The cause is the spacing 0.4, above
        # the slice's heat kernel width 0.5 sqrt(0.25); a wider radius at
        # the same point count drifts further
        raw = {"kernel": {"type": "gaussian", "sigma": 0.5},
               "marginals": [{"type": "gaussian", "sigma": 1.0},
                             {"type": "gaussian", "sigma": 0.8}],
               "grid": {"dim": 2, "radius": 8.0, "points": 41}}
        problem = build_problem(resolve_config(raw))
        sol = run_fortet(problem.kernel, problem.marginals)
        with pytest.raises(FortetBridgeError,
                           match=r"^interpolant mass at t=0\.25 drifted to 1\.0018\d*; "
                                 r"the slice's heat kernel width 0\.25 is below the grid "
                                 r"spacing 0\.4, which under-resolves it: add grid points$"):
            entropic_interpolation(sol.phi, sol.psi, problem.kernel, [0.25])

    def test_drift_names_a_non_diagonal_slice_s_narrowest_deviation(self):
        # Sigma's eigenvalues are 0.45 and 0.05, so the t = 0.25 slice's
        # narrowest standard deviation is sqrt(0.25 * 0.05) = 0.112; its
        # whitened scales are 0.3 and 0.5, whose least, times sqrt(0.25), is
        # 0.15 and is no deviation of the slice
        grid = build_grid(dim=2, radius=5.0, points_per_axis=41)
        kernel = gaussian_kernel(grid, grid, np.array([[0.25, 0.2], [0.2, 0.25]]))
        marginals = MarginalPair(gaussian_density(grid, np.eye(2)),
                                 gaussian_density(grid, 0.64 * np.eye(2)))
        sol = run_fortet(kernel, marginals)
        with pytest.raises(FortetBridgeError,
                           match=r"^interpolant mass at t=0\.25 drifted to 1\.000158\d*; "
                                 r"the slice's heat kernel width 0\.112 is below the grid "
                                 r"spacing 0\.25, which under-resolves it: add grid points$"):
            entropic_interpolation(sol.phi, sol.psi, kernel, [0.25])

    def test_mass_drift_on_tight_truncation_raises(self):
        from fortetbridge import run_fortet
        grid = build_grid(dim=1, radius=3.0, points_per_axis=151)
        kernel = gaussian_kernel(grid, grid, 0.5)
        marginals = MarginalPair(gaussian_density(grid, 1.0),
                                 gaussian_density(grid, 0.8))
        sol = run_fortet(kernel, marginals)
        # the spacing 0.04 resolves the slice's kernel (width 0.5 sqrt(0.5))
        with pytest.raises(FortetBridgeError,
                           match=r"^interpolant mass at t=0\.5 drifted to .*; the slice's "
                                 r"heat kernel width 0\.354 is resolved at the grid spacing "
                                 r"0\.04: enlarge the truncation radius$"):
            entropic_interpolation(sol.phi, sol.psi, kernel, [0.5])
