"""Fixed-point map, truncated scheme, solver termination, potentials."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fortetbridge import (FortetOptions, MarginalPair, build_coupling,
                          build_grid, density_field, extract_potentials,
                          fortet_step,
                          gaussian_density, gaussian_kernel, omega_map,
                          pushforward, run_fortet, table_kernel,
                          transition_normalized, verify_system,
                          verify_uniqueness)
from fortetbridge import fortet
from fortetbridge.errors import (FeasibilityError, FortetBridgeError,
                                 KernelSupportError, NonConvergenceError)
from fortetbridge.fortet import FLOOR_FREEZE
from fortetbridge.problem import swapped_marginals
from fortetbridge.quadrature import QuadratureGrid

RESID_TOL = 1e-12
SCHEME_STEPS = 12  # scheme prefix length checked step-by-step


def unit_grid_2():
    return QuadratureGrid(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1.0, 1,
                          "trapezoid")


def hand_instance():
    grid = unit_grid_2()
    kernel = table_kernel(grid, grid, np.array([[1.0, 0.5], [0.5, 1.0]]))
    half = density_field(grid, np.array([0.5, 0.5]), renormalize=False)
    return kernel, MarginalPair(half, half)


def test_omega_map_hand_case_exact():
    kernel, marginals = hand_instance()
    H_prime, G = omega_map(np.ones(2), kernel, marginals)
    assert np.array_equal(G, [0.75, 0.75])
    assert np.array_equal(H_prime, [1.0, 1.0])


def test_omega_map_positively_homogeneous(bench_kernel, bench_marginals):
    rng = np.random.default_rng(1)
    H = rng.uniform(0.2, 3.0, size=bench_kernel.grid1.n_nodes)
    base, _ = omega_map(H, bench_kernel, bench_marginals)
    scaled, _ = omega_map(3.7 * H, bench_kernel, bench_marginals)
    assert np.max(np.abs(scaled / (3.7 * base) - 1.0)) < 1e-12


def test_omega_map_fixes_constant_on_pushforward(bench_grid):
    kernel = transition_normalized(gaussian_kernel(bench_grid, bench_grid, 0.5))
    om1 = gaussian_density(bench_grid, 1.0)
    marginals = MarginalPair(om1, pushforward(kernel, om1))
    H_prime, G = omega_map(np.ones(bench_grid.n_nodes), kernel, marginals)
    assert np.max(np.abs(H_prime - 1.0)) < 1e-10
    # the inner integral reproduces the pushforward bitwise (same matmul)
    assert np.array_equal(G, marginals.omega2.values)


def test_omega_map_ignores_h_outside_omega1_support():
    grid = build_grid(dim=1, radius=1.0, points_per_axis=9)
    rng = np.random.default_rng(2)
    kernel = table_kernel(grid, grid, rng.uniform(0.2, 1.0, (9, 9)))
    om1_vals = rng.uniform(0.1, 1.0, 9)
    om1_vals[[0, 4]] = 0.0
    marginals = MarginalPair(density_field(grid, om1_vals),
                             density_field(grid, rng.uniform(0.1, 1.0, 9)))
    H = np.ones(9)
    ref, G_ref = omega_map(H, kernel, marginals)
    H2 = H.copy()
    H2[[0, 4]] = 1e-30  # arbitrary junk where omega1 = 0
    out, G_out = omega_map(H2, kernel, marginals)
    assert np.array_equal(ref, out)
    assert np.array_equal(G_ref, G_out)


def test_omega_map_zero_column_raises():
    grid = build_grid(dim=1, radius=1.0, points_per_axis=6)
    vals = np.ones((6, 6))
    vals[:, 2] = 0.0
    kernel = table_kernel(grid, grid, vals)
    rng = np.random.default_rng(3)
    marginals = MarginalPair(density_field(grid, rng.uniform(0.1, 1.0, 6)),
                             density_field(grid, rng.uniform(0.1, 1.0, 6)))
    with pytest.raises(KernelSupportError):
        omega_map(np.ones(6), kernel, marginals)


@given(st.lists(st.floats(0.01, 100.0), min_size=6, max_size=6),
       st.lists(st.floats(0.01, 100.0), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_omega_map_is_isotone_bitwise(us, vs):
    # h <= k pointwise implies Omega(h) <= Omega(k) with no float violations:
    # every intermediate operation is monotone and evaluated in a fixed order
    grid = build_grid(dim=1, radius=1.0, points_per_axis=6)
    rng = np.random.default_rng(4)
    kernel = table_kernel(grid, grid, rng.uniform(0.2, 1.0, (6, 6)))
    marginals = MarginalPair(density_field(grid, rng.uniform(0.1, 1.0, 6)),
                             density_field(grid, rng.uniform(0.1, 1.0, 6)))
    u = np.asarray(us)
    v = np.asarray(vs)
    h = np.minimum(u, v)
    k = np.maximum(u, v)
    out_h, _ = omega_map(h, kernel, marginals)
    out_k, _ = omega_map(k, kernel, marginals)
    assert np.all(out_h <= out_k)


def scheme_prefix(kernel, marginals, steps):
    states = []
    state = None
    for _ in range(steps):
        state = fortet_step(state, kernel, marginals)
        states.append(state)
    return states


def test_scheme_monotone_and_normalized(bench_kernel, bench_marginals):
    states = scheme_prefix(bench_kernel, bench_marginals, SCHEME_STEPS)
    assert states[0].n == 1
    assert np.all(states[0].H == 1.0)
    assert math.isnan(states[0].diagnostics["sup_change"])
    assert math.isnan(states[0].diagnostics["hilbert_step"])
    for prev, cur in zip(states, states[1:]):
        # bitwise monotonicity of the truncated scheme
        assert np.all(cur.H <= prev.H)
        assert np.all(cur.H_prime <= prev.H_prime)
        # exceedance sets are nested
        assert not np.any(cur.J_mask & ~prev.J_mask)
    for state in states:
        assert np.min(state.H) >= 1.0 / state.n
        assert np.all(state.H_dprime <= 1.0)
        assert np.array_equal(state.J_mask, state.H_prime > 1.0)
        assert state.diagnostics["normalization_residual"] < 1e-6


def test_benchmark_solution_quality(bench_solution, bench_kernel, bench_marginals):
    sol = bench_solution
    assert sol.case_tag == "case2"
    assert sol.iterations == sol.trigger_iteration
    assert len(sol.steps) == sol.iterations + sol.refine_steps
    assert sol.trace == ()
    assert np.all(sol.h > 0.0) and np.all(sol.h <= 1.0)
    assert sol.residuals["s1_resid"] < RESID_TOL
    assert sol.residuals["s2_resid"] < RESID_TOL
    assert sol.residuals["marginal_resid"] < RESID_TOL
    # h is a fixed point of the map to near machine precision
    image, _ = omega_map(sol.h, bench_kernel, bench_marginals)
    mask = bench_marginals.omega1.values > 1e-12
    assert np.max(np.abs(image[mask] / sol.h[mask] - 1.0)) < 1e-10
    phases = [s.phase for s in sol.steps]
    assert phases[:sol.iterations] == ["scheme"] * sol.iterations
    assert phases[sol.iterations:] == ["closing"] * sol.refine_steps


@pytest.fixture(scope="module")
def swap_instance(bench_grid):
    """The criterion-2 instance after the swap: potentials beyond float64."""
    kernel = gaussian_kernel(bench_grid, bench_grid, 0.1)
    marginals = swapped_marginals(MarginalPair(gaussian_density(bench_grid, 0.5),
                                               gaussian_density(bench_grid, 1.0)))
    return kernel, marginals


@pytest.fixture(scope="module")
def swap_solution(swap_instance):
    return run_fortet(*swap_instance)


@pytest.mark.parametrize("which", ["bench_solution", "swap_solution"])
def test_closing_steps_floor_at_freeze(which, request, monkeypatch):
    # no floor schedule: each closing step floors the last image at FLOOR_FREEZE;
    # a run keeps no arrays, so they are read where each step's diagnostics are
    sol = request.getfixturevalue(which)
    seen = []
    step_record = fortet._step_record

    def recording(H, H_prime, *args):
        seen.append((H, H_prime))
        return step_record(H, H_prime, *args)

    monkeypatch.setattr(fortet, "_step_record", recording)
    rerun = run_fortet(sol.coupling.kernel, sol.coupling.marginals)
    assert [s.n for s in rerun.steps] == [s.n for s in sol.steps]
    closing = seen[sol.iterations:]
    assert len(closing) == sol.refine_steps >= 2
    assert all(s.phase == "closing" for s in sol.steps[sol.iterations:])
    for (_, prev_H_prime), (cur_H, _) in zip(closing, closing[1:]):
        assert np.array_equal(cur_H, np.maximum(prev_H_prime, FLOOR_FREEZE))


def test_solve_keeps_no_per_step_arrays(swap_instance):
    # 743 steps on 401 nodes: three arrays per step would hold 7.1 MB
    tracemalloc.start()
    try:
        sol = run_fortet(*swap_instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert len(sol.steps) == sol.iterations + sol.refine_steps > 700


def test_swap_solve_warns_once_with_dropped_count(swap_solution):
    # 98 support nodes where h = 0 and 34 where 1/h overflows
    assert swap_solution.case_tag == "case2"
    assert len(swap_solution.warnings) == 1
    assert "132 support nodes" in swap_solution.warnings[0]
    assert int(np.sum(swap_solution.phi == 0.0)) == 132


def test_solution_arrays_are_locked(bench_solution, bench_kernel, bench_marginals):
    with pytest.raises(ValueError):
        bench_solution.h[0] = 2.0
    state = fortet_step(None, bench_kernel, bench_marginals)
    with pytest.raises(ValueError):
        state.H_prime[0] = 2.0


def test_phi_vanishes_exactly_off_support(bench_grid, bench_kernel):
    vals = gaussian_density(bench_grid, 1.0).values.copy()
    vals[np.abs(bench_grid.nodes) > 4.0] = 0.0
    om1 = density_field(bench_grid, vals)
    om2 = gaussian_density(bench_grid, 0.8)
    sol = run_fortet(bench_kernel, MarginalPair(om1, om2),
                     FortetOptions(force=True))
    off = om1.values == 0
    assert np.all(sol.phi[off] == 0.0)
    assert np.all(sol.phi[~off] > 0.0)


def test_extract_potentials_validates():
    kernel, marginals = hand_instance()
    phi, psi = extract_potentials(np.array([1.0, 1.0]), kernel, marginals)
    assert np.array_equal(phi, [0.5, 0.5])
    assert np.array_equal(psi, marginals.omega2.values / 0.75)
    with pytest.raises(FortetBridgeError):
        extract_potentials(np.array([0.0, 1.0]), kernel, marginals)


def test_extract_potentials_zero_denominator():
    grid = build_grid(dim=1, radius=1.0, points_per_axis=4)
    vals = np.ones((4, 4))
    vals[:, 1] = 0.0
    kernel = table_kernel(grid, grid, vals)
    rng = np.random.default_rng(5)
    marginals = MarginalPair(density_field(grid, rng.uniform(0.1, 1.0, 4)),
                             density_field(grid, rng.uniform(0.1, 1.0, 4)))
    with pytest.raises(KernelSupportError):
        extract_potentials(np.ones(4), kernel, marginals)


def test_verify_system_detects_imbalance(bench_solution, bench_kernel, bench_marginals):
    res = verify_system(bench_solution.phi, bench_solution.psi, bench_kernel,
                        bench_marginals)
    assert res["s1_resid"] < RESID_TOL
    res_bad = verify_system(2.0 * bench_solution.phi, bench_solution.psi,
                            bench_kernel, bench_marginals)
    peak = float(np.max(bench_marginals.omega1.values))
    assert res_bad["s1_resid"] == pytest.approx(peak, rel=1e-10)


def test_inf_potential_against_a_vanishing_integral_reads_inf():
    # g(0, 0) = 0 and psi(0) = inf make Int g psi at x = 0 read 0 * inf = NaN;
    # the check and the coupling both report that node as an inf residual
    import warnings
    grid = unit_grid_2()
    kernel = table_kernel(grid, grid, np.array([[0.0, 1.0], [1.0, 1.0]]))
    half = density_field(grid, np.array([0.5, 0.5]), renormalize=False)
    marginals = MarginalPair(half, half)
    phi, psi = np.array([1.0, 1.0]), np.array([math.inf, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_system(phi, psi, kernel, marginals)["s1_resid"] == math.inf
        coupling = build_coupling(phi, psi, kernel, marginals)
        assert coupling.row_marginal_resid == math.inf


def test_verify_uniqueness_ray_invariance(bench_solution, bench_marginals):
    from types import SimpleNamespace
    scaled = SimpleNamespace(phi=2.0 * bench_solution.phi,
                             psi=0.5 * bench_solution.psi)
    rep = verify_uniqueness(bench_solution, scaled, bench_marginals)
    assert rep.consistent
    assert rep.c_phi == pytest.approx(0.5, rel=1e-12)
    warped = SimpleNamespace(phi=bench_solution.phi ** 2,
                             psi=bench_solution.psi)
    rep_bad = verify_uniqueness(bench_solution, warped, bench_marginals)
    assert not rep_bad.consistent


def test_verify_uniqueness_unreadable_ratio_is_inconsistent(bench_solution,
                                                            bench_marginals):
    # a gated node where one potential is 0 or inf has no ray constant
    import warnings
    from types import SimpleNamespace
    phi = bench_solution.phi.copy()
    gate = np.flatnonzero(bench_marginals.omega1.values > 1e-12)
    phi[gate[0]], phi[gate[-1]] = 0.0, math.inf
    broken = SimpleNamespace(phi=phi, psi=bench_solution.psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_uniqueness(bench_solution, broken, bench_marginals)
    assert rep.ratio_spread_phi == math.inf
    assert rep.ratio_spread_psi < 1e-12
    assert rep.c_phi == 1.0 and rep.c_psi == 1.0
    assert not rep.consistent


def test_verify_uniqueness_reads_rays_beyond_float_range(bench_solution,
                                                         bench_marginals):
    # the ray constant 1e400 overflows as a ratio but not as a log difference
    from types import SimpleNamespace
    phi, psi = bench_solution.phi, bench_solution.psi
    up = SimpleNamespace(phi=phi * 1e200, psi=psi * 1e-200)
    down = SimpleNamespace(phi=phi * 1e-200, psi=psi * 1e200)
    rep = verify_uniqueness(up, down, bench_marginals)
    assert rep.consistent
    assert rep.ratio_spread_phi < 1e-12 and rep.ratio_spread_psi < 1e-12
    assert rep.c_phi == math.inf and rep.c_psi == math.inf


def test_nonconvergence_carries_trace(bench_kernel, bench_marginals):
    with pytest.raises(NonConvergenceError) as err:
        run_fortet(bench_kernel, bench_marginals, FortetOptions(max_iter=3))
    assert len(err.value.trace) == 3


def test_feasibility_gate_refuses_divergent_orientation(bench_grid):
    kernel = gaussian_kernel(bench_grid, bench_grid, 0.1)
    marginals = MarginalPair(gaussian_density(bench_grid, 0.5),
                             gaussian_density(bench_grid, 1.0))
    with pytest.raises(FeasibilityError, match="swap"):
        run_fortet(kernel, marginals)


def test_degenerate_target_detected(bench_grid, bench_kernel):
    om1 = gaussian_density(bench_grid, 1.0)
    tiny = density_field(bench_grid,
                         gaussian_density(bench_grid, 0.8).values * 1e-16,
                         renormalize=False)
    sol = run_fortet(bench_kernel, MarginalPair(om1, tiny),
                     FortetOptions(force=True))
    assert sol.case_tag == "degenerate"
    assert sol.trigger_iteration == 1
    assert sol.phi is None and sol.psi is None
    assert all(math.isnan(v) for v in sol.residuals.values())


def test_two_dimensional_factored_solve_matches_dense_table():
    grid = build_grid(dim=2, radius=8.0, points_per_axis=21)
    kernel = gaussian_kernel(grid, grid, 0.5)
    assert len(kernel.factors) == 2
    marginals = MarginalPair(gaussian_density(grid, 1.0),
                             gaussian_density(grid, 0.8))
    factored = run_fortet(kernel, marginals)
    dense = run_fortet(table_kernel(grid, grid, kernel.values), marginals)
    assert factored.case_tag == dense.case_tag
    assert verify_uniqueness(factored, dense, marginals, tol=1e-10).consistent
