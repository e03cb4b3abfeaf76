"""Acceptance gate: one test per release criterion, stated tolerances only.

Each test prints a single CRITERION line with the measured quantities (run
with -s to see them for passing tests).  Criteria 1 and 2 assert the full
oracle-match clause at its stated 1e-6 tolerance; on this grid the solver
and the closed form agree to ~5e-5 / ~4e-4 at the widest gate, so those two
tests fail and carry the measured numbers in their messages rather than a
loosened threshold.
"""

import time

import numpy as np
import pytest

from fortetbridge import (FortetOptions, MarginalPair, birkhoff_contraction,
                          density_field, entropic_interpolation, fortet_step,
                          full_report, gaussian_density, gaussian_kernel,
                          gaussian_oracle, homogeneous_map_contraction_check,
                          omega_map, pushforward, run_fortet, run_sinkhorn,
                          sinkhorn_trace_hilbert, transition_normalized,
                          verify_uniqueness)
from fortetbridge.cli import main
from fortetbridge.problem import swapped_marginals
from tests.conftest import (BENCH_POINTS, BENCH_RADIUS, BENCH_SIGMA,
                            BENCH_SIGMA1, BENCH_SIGMA2, random_instance,
                            random_instances)

ORACLE_MATCH_TOL = 1e-6
RUNTIME_LIMIT_S = 10.0
SUPPORT_GATE = 1e-12
NORMALIZATION_TOL = 1e-8
CROSS_SOLVER_TOL = 1e-8
BIRKHOFF_TOL = 1e-15
CONTRACTION_SLACK = 1e-9
ENDPOINT_TOL = 1e-6
TRIVIAL_H_TOL = 1e-12
DEGENERATE_TRIGGER = 1e-13


def _report(k, ok, detail):
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")


def _ray_deviation(numeric, analytic_log, gate):
    """Max |numeric / (c * analytic) - 1| over the gate, c the median ray
    constant, evaluated in log space so overflowing tails stay comparable."""
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = np.log(numeric[gate]) - analytic_log[gate]
        log_c = float(np.median(log_ratio))
        return float(np.max(np.abs(np.expm1(log_ratio - log_c)))), log_c


def _solve_and_match(kernel, marginals, oracle, opts=None):
    started = time.perf_counter()
    solution = run_fortet(kernel, marginals, opts or FortetOptions())
    elapsed = time.perf_counter() - started
    gate = marginals.omega1.values > SUPPORT_GATE
    nodes = kernel.grid1.nodes
    dev_phi, _ = _ray_deviation(solution.phi, oracle.log_phi(nodes), gate)
    dev_psi, _ = _ray_deviation(solution.psi, oracle.log_psi(nodes), gate)
    # secondary figure for the failure message: psi gated by its own marginal
    gate2 = marginals.omega2.values > SUPPORT_GATE
    dev_psi_own, _ = _ray_deviation(solution.psi, oracle.log_psi(nodes), gate2)
    return solution, elapsed, dev_phi, dev_psi, dev_psi_own


def test_criterion_1_gaussian_benchmark_matches_oracle(bench_kernel,
                                                       bench_marginals):
    oracle = gaussian_oracle(BENCH_SIGMA, BENCH_SIGMA1, BENCH_SIGMA2)
    solution, elapsed, dev_phi, dev_psi, dev_psi_own = _solve_and_match(
        bench_kernel, bench_marginals, oracle)
    converged = solution.case_tag in ("case1", "case2")
    ok = (converged and elapsed < RUNTIME_LIMIT_S
          and dev_phi < ORACLE_MATCH_TOL and dev_psi < ORACLE_MATCH_TOL)
    detail = (f"{solution.case_tag} in {solution.iterations}+"
              f"{solution.refine_steps} steps, {elapsed:.3f} s; "
              f"ray deviation phi={dev_phi:.3e} psi={dev_psi:.3e} on the "
              f"omega1 > {SUPPORT_GATE} gate (psi={dev_psi_own:.3e} gated "
              f"by omega2); required < {ORACLE_MATCH_TOL}")
    _report(1, ok, detail)
    assert converged
    assert elapsed < RUNTIME_LIMIT_S
    assert max(solution.residuals["s1_resid"],
               solution.residuals["s2_resid"]) < 1e-10
    assert dev_phi < ORACLE_MATCH_TOL and dev_psi < ORACLE_MATCH_TOL, detail


def test_criterion_2_swap_logic(bench_grid):
    kernel = gaussian_kernel(bench_grid, bench_grid, 0.1)
    marginals = MarginalPair(gaussian_density(bench_grid, 0.5),
                             gaussian_density(bench_grid, 1.0))
    report = full_report(kernel, marginals)
    flags_ok = (report.condition_star.verdict == "suspected-divergent"
                and report.swap_recommended)
    assert flags_ok, report.condition_star

    swapped = swapped_marginals(marginals)
    oracle = gaussian_oracle(0.1, 1.0, 0.5)
    solution, elapsed, dev_phi, dev_psi, dev_psi_own = _solve_and_match(
        kernel, swapped, oracle)
    converged = solution.case_tag in ("case1", "case2")
    ok = (converged and elapsed < RUNTIME_LIMIT_S
          and dev_phi < ORACLE_MATCH_TOL and dev_psi < ORACLE_MATCH_TOL)
    detail = (f"flags exact; post-swap {solution.case_tag} in "
              f"{solution.iterations}+{solution.refine_steps} steps, "
              f"{elapsed:.3f} s; ray deviation phi={dev_phi:.3e} "
              f"psi={dev_psi:.3e} (psi={dev_psi_own:.3e} gated by omega2); "
              f"required < {ORACLE_MATCH_TOL}; "
              f"{len(solution.warnings)} warnings")
    _report(2, ok, detail)
    assert converged
    assert elapsed < RUNTIME_LIMIT_S
    assert dev_phi < ORACLE_MATCH_TOL and dev_psi < ORACLE_MATCH_TOL, detail


def test_criterion_3_scheme_invariants_on_random_instances():
    violations = 0
    checked = 0
    for kernel, marginals in random_instances(2024, 50, 64):
        state = None
        prev_H = prev_Hp = prev_J = None
        for _step in range(12):
            state = fortet_step(state, kernel, marginals)
            checked += 1
            if state.diagnostics["normalization_residual"] >= NORMALIZATION_TOL:
                violations += 1
            if prev_H is not None:
                if np.any(state.H > prev_H) or np.any(state.H_prime > prev_Hp):
                    violations += 1
                if np.any(state.J_mask & ~prev_J):
                    violations += 1
            prev_H, prev_Hp, prev_J = state.H, state.H_prime, state.J_mask
        # condition_star's radial tail fit reads 31 of these 50 positive
        # random tables as suspected-divergent; the instances are admissible
        # by construction, so run them anyway
        solution = run_fortet(kernel, marginals, FortetOptions(force=True))
        if not (np.all(solution.h > 0.0) and np.all(solution.h <= 1.0)):
            violations += 1
    ok = violations == 0
    _report(3, ok, f"50 instances, {checked} scheme steps audited, "
                   f"{violations} violations (0 allowed)")
    assert ok


def test_criterion_4_fortet_sinkhorn_equivalence():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        n1 = int(rng.integers(2, 31))
        n2 = int(rng.integers(2, 31))
        kernel, marginals = random_instance(rng, n1, n2)
        solution = run_fortet(kernel, marginals,
                              FortetOptions(tol=1e-14, force=True))
        pair = run_sinkhorn(kernel, marginals, tol=1e-14)
        from types import SimpleNamespace
        report = verify_uniqueness(solution,
                                   SimpleNamespace(phi=pair.u, psi=pair.v),
                                   marginals, tol=CROSS_SOLVER_TOL)
        assert report.consistent, (n1, n2, report)
        worst = max(worst, report.ratio_spread_phi, report.ratio_spread_psi)
    ok = worst < CROSS_SOLVER_TOL
    _report(4, ok, f"20 instances, worst ray spread {worst:.3e} "
                   f"(required < {CROSS_SOLVER_TOL})")
    assert ok


def test_criterion_5_hilbert_diagnostics(bench_kernel, bench_marginals):
    bound = birkhoff_contraction(np.array([[2.0, 1.0], [1.0, 2.0]]))
    third_err = abs(bound.ratio - 1.0 / 3.0)
    assert third_err < BIRKHOFF_TOL

    rng = np.random.default_rng(55)
    worst_excess = -np.inf
    for _ in range(10):
        n1 = int(rng.integers(5, 25))
        n2 = int(rng.integers(5, 25))
        kernel, marginals = random_instance(rng, n1, n2)
        trace = sinkhorn_trace_hilbert(kernel, marginals)
        assert trace.guaranteed
        for ratio in trace.ratios:
            worst_excess = max(worst_excess, ratio - trace.bound)
    assert worst_excess <= CONTRACTION_SLACK

    samples = [np.exp(0.5 * rng.normal(size=bench_kernel.grid1.n_nodes))
               for _ in range(6)]
    check = homogeneous_map_contraction_check(
        lambda H: omega_map(H, bench_kernel, bench_marginals),
        1.0, samples)
    assert check.passed, check

    _report(5, True, f"birkhoff([[2,1],[1,2]]) off by {third_err:.1e}; "
                     f"worst sinkhorn ratio excess {worst_excess:.3e} "
                     f"(allowed {CONTRACTION_SLACK}); degree-1 map check "
                     f"excess {check.max_ratio_excess:.3e}")


def test_criterion_6_interpolation_endpoints_and_reversal(bench_kernel,
                                                          bench_marginals,
                                                          bench_solution):
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    forward = entropic_interpolation(bench_solution.phi, bench_solution.psi,
                                     bench_kernel, times)
    end0 = float(np.max(np.abs(forward.densities[0]
                               - bench_marginals.omega1.values)))
    end1 = float(np.max(np.abs(forward.densities[-1]
                               - bench_marginals.omega2.values)))

    # time reversal: solve with the marginals exchanged (its tail estimate
    # is conservative here, hence force) and compare rho_t with rho_{1-t}
    swapped = swapped_marginals(bench_marginals)
    back_solution = run_fortet(bench_kernel, swapped,
                               FortetOptions(force=True))
    backward = entropic_interpolation(back_solution.phi, back_solution.psi,
                                      bench_kernel, times)
    reversal = float(np.max(np.abs(forward.densities
                                   - backward.densities[::-1])))
    ok = end0 < ENDPOINT_TOL and end1 < ENDPOINT_TOL and reversal < ENDPOINT_TOL
    _report(6, ok, f"rho_0 off by {end0:.3e}, rho_1 off by {end1:.3e}, "
                   f"reversal sup {reversal:.3e} (required < {ENDPOINT_TOL})")
    assert ok


def test_criterion_7_trivial_and_degenerate_cases(bench_grid):
    transition = transition_normalized(gaussian_kernel(bench_grid, bench_grid,
                                                       BENCH_SIGMA))
    omega1 = gaussian_density(bench_grid, BENCH_SIGMA1)
    pushed = MarginalPair(omega1, pushforward(transition, omega1))
    trivial = run_fortet(transition, pushed, FortetOptions(force=True))
    trivial_dev = float(np.max(np.abs(trivial.h - 1.0)))
    assert trivial.case_tag == "case1"
    assert trivial.iterations == 1
    assert trivial_dev < TRIVIAL_H_TOL

    shaped = gaussian_density(bench_grid, 0.8).values * 1e-16
    starved = MarginalPair(omega1,
                           density_field(bench_grid, shaped, renormalize=False))
    kernel = gaussian_kernel(bench_grid, bench_grid, BENCH_SIGMA)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        degenerate = run_fortet(kernel, starved, FortetOptions(force=True))
    assert degenerate.case_tag == "degenerate"
    assert degenerate.h is not None
    assert float(np.max(degenerate.h)) < DEGENERATE_TRIGGER

    _report(7, True, f"pushforward: case1 at iteration 1, |h-1| "
                     f"{trivial_dev:.3e} (required < {TRIVIAL_H_TOL}); "
                     f"starved marginal: degenerate at iteration "
                     f"{degenerate.iterations}, max h "
                     f"{float(np.max(degenerate.h)):.3e} with no numeric faults")


def test_criterion_8_cmd_solve_is_deterministic(tmp_path):
    import json
    config = {
        "kernel": {"type": "gaussian", "sigma": BENCH_SIGMA},
        "marginals": [{"type": "gaussian", "sigma": BENCH_SIGMA1},
                      {"type": "gaussian", "sigma": BENCH_SIGMA2}],
        "grid": {"dim": 1, "radius": BENCH_RADIUS, "points": BENCH_POINTS,
                 "rule": "trapezoid"},
    }
    cfg = tmp_path / "problem.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["solve", "--config", str(cfg), "--output", str(out)]) == 0
        outs.append(out)
    identical = {}
    for name in ("trace.csv", "summary.json", "potentials.csv"):
        identical[name] = ((outs[0] / name).read_bytes()
                           == (outs[1] / name).read_bytes())
    ok = all(identical.values())
    _report(8, ok, "repeated cmd_solve artifacts byte-identical: "
                   + ", ".join(f"{k}={v}" for k, v in identical.items()))
    assert ok
