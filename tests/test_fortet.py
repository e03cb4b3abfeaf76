"""Fixed-point map, truncated scheme, solver termination, potentials."""

import gc
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fortetbridge import (FortetOptions, MarginalPair, build_coupling,
                          build_grid, density_field, entropic_interpolation,
                          fortet_step, gaussian_density, gaussian_kernel,
                          hilbert_distance, omega_map, pushforward, run_fortet,
                          table_kernel, transition_normalized, verify_uniqueness)
from fortetbridge import fortet
from fortetbridge.errors import (FeasibilityError, FortetBridgeError,
                                 KernelSupportError, NonConvergenceError)
from fortetbridge.fortet import FLOOR_FREEZE
from tests.conftest import (fortet_steps, random_instances, read_order, step_phases,
                            step_row, traced_peak)
from tests.reference_closing import hilbert_step as _hilbert_reference

RESID_TOL = 1e-12
SCHEME_STEPS = 12  # scheme prefix length checked step-by-step


def unit_grid_2():
    """Two nodes of unit weight, the trapezoid lattice of step 2."""
    return build_grid(dim=1, radius=1.0, points_per_axis=2)


def hand_instance():
    grid = unit_grid_2()
    kernel = table_kernel(grid, grid, np.array([[1.0, 0.5], [0.5, 1.0]]))
    half = density_field(grid, np.array([0.5, 0.5]), renormalize=False)
    return kernel, MarginalPair(half, half)


def test_omega_map_hand_case_exact():
    kernel, marginals = hand_instance()
    # G = 0.75 at both nodes, so H' = 1.5 * 0.5 / 0.75
    assert np.array_equal(omega_map(np.ones(2), kernel, marginals), [1.0, 1.0])


def test_omega_map_positively_homogeneous(bench_kernel, bench_marginals):
    rng = np.random.default_rng(1)
    H = rng.uniform(0.2, 3.0, size=bench_kernel.grid1.n_nodes)
    base = omega_map(H, bench_kernel, bench_marginals)
    scaled = omega_map(3.7 * H, bench_kernel, bench_marginals)
    assert np.max(np.abs(scaled / (3.7 * base) - 1.0)) < 1e-12


def test_omega_map_fixes_constant_on_pushforward(bench_grid):
    kernel = transition_normalized(gaussian_kernel(bench_grid, bench_grid, 0.5))
    om1 = gaussian_density(bench_grid, 1.0)
    marginals = MarginalPair(om1, pushforward(kernel, om1))
    H_prime = omega_map(np.ones(bench_grid.n_nodes), kernel, marginals)
    assert np.max(np.abs(H_prime - 1.0)) < 1e-10
    # the inner integral at H = 1 reproduces the pushforward bitwise (same
    # matmul)
    assert np.array_equal(kernel.apply_T(om1.values), marginals.omega2.values)


def test_omega_map_ignores_h_outside_omega1_support():
    grid = build_grid(dim=1, radius=1.0, points_per_axis=9)
    rng = np.random.default_rng(2)
    kernel = table_kernel(grid, grid, rng.uniform(0.2, 1.0, (9, 9)))
    om1_vals = rng.uniform(0.1, 1.0, 9)
    om1_vals[[0, 4]] = 0.0
    marginals = MarginalPair(density_field(grid, om1_vals),
                             density_field(grid, rng.uniform(0.1, 1.0, 9)))
    H = np.ones(9)
    ref = omega_map(H, kernel, marginals)
    # arbitrary junk where omega1 = 0, which the map never divides by
    for junk in (1e-30, 0.0, math.nan, math.inf, -1.0):
        H2 = H.copy()
        H2[[0, 4]] = junk
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = omega_map(H2, kernel, marginals)
        assert np.array_equal(ref, out)


def test_omega_map_zero_column_raises():
    grid = build_grid(dim=1, radius=1.0, points_per_axis=6)
    vals = np.ones((6, 6))
    vals[:, 2] = 0.0
    kernel = table_kernel(grid, grid, vals)
    rng = np.random.default_rng(3)
    marginals = MarginalPair(density_field(grid, rng.uniform(0.1, 1.0, 6)),
                             density_field(grid, rng.uniform(0.1, 1.0, 6)))
    with pytest.raises(KernelSupportError,
                       match=r"G vanished at nodes \[2\] where omega2 > 0"):
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
    out_h = omega_map(h, kernel, marginals)
    out_k = omega_map(k, kernel, marginals)
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


#: steps of the paper's scheme run with no hand-over
PAPER_STEPS = 1000


def test_paper_scheme_decreases_to_the_closing_fixed_point():
    # Fortet's truncated scheme as the paper states it, H_1 = 1, H_n =
    # max(H''_{n-1}, eps_n), H'_n = Omega(H_n), H''_n = min(1, H'_n), on
    # gauss1d's scales at 161 nodes over [-6, 6]: it decreases at every step
    # (criterion 3's invariants), H''_n stays above the h that run_fortet's
    # closing reaches, to that closing's tol, and converges to it
    grid = build_grid(dim=1, radius=6.0, points_per_axis=161)
    kernel = gaussian_kernel(grid, grid, 0.5)
    marginals = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
    tol = 1e-13
    h = run_fortet(kernel, marginals, FortetOptions(tol=tol)).h
    gate, high = marginals.omega1.values > 1e-12, h > 0.1

    def gap(H_dprime, nodes):
        return float(np.max(np.abs(np.log(H_dprime[nodes] / h[nodes]))))

    # the paper's floor eps_n = 1/n, as fortet_step takes it
    state, gaps = None, {}
    for n in range(1, PAPER_STEPS + 1):
        prev, state = state, fortet_step(state, kernel, marginals)
        if prev is not None:
            assert np.all(state.H <= prev.H) and np.all(state.H_prime <= prev.H_prime)
            assert not np.any(state.J_mask & ~prev.J_mask)
        assert state.diagnostics["normalization_residual"] < 1e-8
        assert np.all(state.H_dprime[gate] >= h[gate] * (1.0 - tol))
        if n in (10, 100, 1000):
            gaps[n] = gap(state.H_dprime, high), gap(state.H_dprime, gate)
    # on {h > 0.1} the gap falls about as n^-0.7 (0.373, 0.069, 0.0137 at
    # n = 10, 100, 1000): more than 4x a decade.  Where h < 1/n, H_n sits on
    # the floor, and h reaches 1.4e-10 on the gate, so there it is still 4.56
    assert gaps[100][0] < gaps[10][0] / 4 and gaps[1000][0] < gaps[100][0] / 4
    assert gaps[1000][1] > 4.0

    # a geometric floor max(2^-n, 1e-300): the cap's own creep decays
    # geometrically, and the scheme meets h on the whole gate (1.2e-14)
    H, prev_image = np.ones(grid.n_nodes), None
    for n in range(1, PAPER_STEPS + 1):
        image = omega_map(H, kernel, marginals)
        if prev_image is not None:
            assert np.all(image <= prev_image)
        H_dprime = np.minimum(1.0, image)
        assert np.all(H_dprime[gate] >= h[gate] * (1.0 - tol))
        H, prev_image = np.maximum(H_dprime, max(2.0 ** -(n + 1), 1e-300)), image
    assert gap(H_dprime, gate) <= 1e-12


def test_benchmark_solution_quality(bench_solution, bench_kernel, bench_marginals):
    sol = bench_solution
    assert sol.case_tag == "case2"
    assert len(sol.steps) == sol.iterations + sol.refine_steps
    assert sol.trace == ()
    assert np.all(sol.h > 0.0) and np.all(sol.h <= 1.0)
    assert sol.residuals["s1_resid"] < RESID_TOL
    assert sol.residuals["s2_resid"] < RESID_TOL
    assert sol.residuals["marginal_resid"] < RESID_TOL
    # h is a fixed point of the map to near machine precision
    image = omega_map(sol.h, bench_kernel, bench_marginals)
    mask = bench_marginals.omega1.values > 1e-12
    assert np.max(np.abs(image[mask] / sol.h[mask] - 1.0)) < 1e-10
    phases = step_phases(sol.steps)
    assert phases[:sol.iterations] == ["scheme"] * sol.iterations
    assert phases[sol.iterations:] == ["closing"] * sol.refine_steps


@pytest.mark.parametrize("which", ["bench_solution", "swap_solution"])
def test_closing_steps_floor_at_freeze(which, request):
    # every closing input is floored at FLOOR_FREEZE, and a step whose
    # Anderson extrapolation the safeguard rejects (the residual's Hilbert
    # norm exceeds the least so far, or sits at the rounding floor) takes
    # the floored image; a run keeps no arrays, so they are read where each
    # step records itself
    sol = request.getfixturevalue(which)
    with fortet_steps() as seen:
        rerun = run_fortet(sol.coupling.kernel, sol.coupling.marginals)
    # a row's n is its place in the log
    assert len(rerun.steps) == len(sol.steps)
    assert [step.phase for step in seen] == step_phases(sol.steps)
    # nothing is written into an array once its step is recorded, in either
    # phase (a scheme step's prev is the image of the step before it)
    for step in seen:
        assert np.array_equal(step.input, step.input_then) \
            and np.array_equal(step.image, step.image_then)
    closing = [(step.input, step.image) for step in seen[sol.iterations:]]
    assert len(closing) == sol.refine_steps >= 2
    assert all(p == "closing" for p in step_phases(sol.steps)[sol.iterations:])
    assert all(np.all(H >= FLOOR_FREEZE) for H, _ in closing)
    A = sol.coupling.marginals.omega1.values > 0
    best, rejected, extrapolated = math.inf, 0, 0
    for r, ((prev_H, prev_image), (cur_H, _)) in enumerate(zip(closing, closing[1:])):
        plain = np.maximum(prev_image, FLOOR_FREEZE)
        g = np.log(plain[A])
        f = g - np.log(prev_H[A])
        norm = float(f.max() - f.min())
        if r == 0 or norm > best:
            assert np.array_equal(cur_H, plain)
            rejected += r > 0
        elif norm < np.finfo(float).eps * np.max(np.abs(g)):
            # at the rounding floor: the plain input
            assert np.array_equal(cur_H, plain)
        else:
            extrapolated += not np.array_equal(cur_H, plain)
        best = min(best, norm)
    assert extrapolated > 0
    if which == "swap_solution":
        assert rejected > 0


def _omega_map_reference(H, kernel, marginals):
    """omega_map as np.where expressions, which divide at every node."""
    om1, om2 = marginals.omega1.values, marginals.omega2.values
    with np.errstate(all="ignore"):
        G = kernel.apply_T(np.where(om1 > 0, om1 / H, 0.0))
        ratio2 = np.where(om2 > 0, om2 / np.where(G > 0, G, 1.0), 0.0)
        return kernel.apply(ratio2)


def _step_record_reference(H, H_prime, prev, mask, kernel, marginals,
                           case1_candidate, mass2, scale=1.0):
    """A step's row from H, keyed as a scheme step's diagnostics, with
    full-array masks."""
    om1 = marginals.omega1.values
    with np.errstate(all="ignore"):
        ratio1 = np.where(om1 > 0, om1 / H, 0.0)
    normalization = float(np.sum((kernel.grid1.weights * ratio1) * (H_prime * scale)))
    diag = {"sup_change": math.nan, "hilbert_step": math.nan,
            "normalization_residual": abs(normalization - mass2),
            "case1_candidate": case1_candidate}
    if prev is not None:
        diag["sup_change"] = float(np.max(np.abs(H_prime - prev)))
        diag["hilbert_step"] = _hilbert_reference(H_prime, prev, mask)
    return diag


def test_scaled_map_is_bitwise_the_unscaled_one_on_the_benchmark(bench_kernel,
                                                                 bench_marginals):
    # omega2 / G has no subnormal entry on gauss1d, so its apply at the
    # scale 2^k is the unscaled product, bitwise
    from fortetbridge import problem
    rng = np.random.default_rng(31)
    om1, om2 = bench_marginals.omega1.values, bench_marginals.omega2.values
    for _ in range(10):
        H = rng.uniform(0.05, 1.0, om1.size)
        G = bench_kernel.apply_T(om1 / H)
        ratio2 = om2 / G
        assert ratio2.min() > problem.TINY
        unscaled = problem._contract(
            bench_kernel.factors, read_order(bench_kernel, bench_kernel.grid2.weights * ratio2))
        assert np.array_equal(fortet.omega_map(H, bench_kernel, bench_marginals),
                              unscaled)


def test_swap_solve_forms_no_subnormal_kernel_product(swap_instance):
    # the heat factor stores its entries below TINY as 0, and every apply
    # and apply_T takes its argument at a power-of-two scale: no subnormal
    # operand reaches a kernel product, in the map, the extraction or the
    # coupling, which takes over the extraction's apply_T (the feasibility
    # report of this Gaussian instance makes none)
    from tests.conftest import contract_extremes
    from fortetbridge.problem import TINY
    with contract_extremes() as seen:
        run_fortet(*swap_instance)
    assert len(seen) == 2 * 75 + 2
    assert min(factor for factor, _ in seen) >= TINY
    assert min(argument for _, argument in seen) >= TINY


def test_gauss1d_solve_forms_no_subnormal_kernel_product(bench_kernel, bench_marginals):
    # as on swap: each of the solve's 20 products, the 9 maps' two, the
    # extraction's apply_T and the coupling's apply, takes its argument at
    # a power-of-two scale, and none meets a subnormal operand
    from tests.conftest import contract_extremes
    from fortetbridge.problem import TINY
    with contract_extremes() as seen:
        run_fortet(bench_kernel, bench_marginals)
    assert len(seen) == 2 * 9 + 2
    assert min(factor for factor, _ in seen) >= TINY
    assert min(argument for _, argument in seen) >= TINY


@pytest.mark.parametrize("which", ["bench_solution", "swap_solution"])
def test_solve_coupling_is_the_one_built_from_its_potentials(which, request):
    # the coupling takes over the extraction's apply_T(phi) instead of
    # forming it again; its integrals, and so its residuals, are bitwise
    # those of a coupling that forms both products itself
    sol = request.getfixturevalue(which)
    again = build_coupling(sol.phi, sol.psi, sol.coupling.kernel, sol.coupling.marginals)
    assert np.array_equal(sol.coupling.row, again.row)
    assert np.array_equal(sol.coupling.col, again.col)
    assert sol.residuals["s2_resid"] == again.col_marginal_resid


def test_closing_step_enters_no_errstate_block(bench_kernel, bench_marginals,
                                               monkeypatch):
    # none: the map and the fit take the block the closing holds for all its
    # steps (entered without a call to np.errstate); they enter their own
    # only when called outside it
    entered, errstate = [], np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    closing = fortet._closing_iteration

    def counting(*args):
        entered.clear()
        K = closing(*args)
        counting.n = len(entered)
        return K

    monkeypatch.setattr(fortet, "_closing_iteration", counting)
    sol = run_fortet(bench_kernel, bench_marginals)
    assert sol.refine_steps > 0 and counting.n == 0


@pytest.mark.parametrize("which", ["bench_solution", "swap_solution"])
def test_map_and_step_record_match_the_where_expressions(which, request):
    # every step of a run, both phases, as the run takes it: the map's image
    # and the step's diagnostics are bitwise those of the reference
    # expressions.  A closing step's image is Omega(K) divided by its sup s
    # on the omega1 support, compared with its input K
    sol = request.getfixturevalue(which)
    kernel, marginals = sol.coupling.kernel, sol.coupling.marginals
    A = marginals.omega1.values > 0
    mass2 = marginals.omega2.mass()
    with fortet_steps() as seen:
        run_fortet(kernel, marginals)
    assert [step.phase for step in seen] == step_phases(sol.steps)
    prev = None
    for i, step in enumerate(seen):
        recorded = step_row(sol.steps, i)
        image = _omega_map_reference(step.input, kernel, marginals)
        if step.phase == "scheme":
            s, mask = 1.0, A
            case1 = bool((step.image[A] <= 1.0 + fortet.CASE1_EPS).all())
        else:
            s, prev, case1 = image[A].max(), step.input, False
            mask = A & (step.image > 10.0 * FLOOR_FREEZE) \
                & (step.input > 10.0 * FLOOR_FREEZE)
        assert np.array_equal(step.image, image / s)
        d = step.record
        ref = _step_record_reference(step.input, step.image, prev, mask, kernel,
                                     marginals, case1, mass2, s)
        assert d.keys() == ref.keys() == recorded.keys()
        assert all(d[k] == ref[k] == recorded[k]
                   or all(map(math.isnan, (d[k], ref[k], recorded[k])))
                   for k in d)
        prev = step.image


def _zero_mass_table_instance(off_support, row=0):
    """Zero-mass nodes in both marginals, on a table kernel whose column 3
    vanishes on the omega1 support, where omega2 = 0, so that G = 0 there
    and the fit takes DensityField.over's masked quotient.  Row 0, off the
    omega1 support, makes every image off_support there: "inf" from a row
    of 1e308; "nan" from an inf entry in column 7, where omega2 = 0, so
    that G is NaN there too and the image reads inf * 0.  With row = 1,
    on the support, the "nan" entry is in row 1, and the image NaN there."""
    grid = build_grid(dim=1, radius=1.0, points_per_axis=9)
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.02, 0.1, (9, 9))
    vals[:, 3] = 0.0
    if off_support == "inf":
        vals[0, :] = 1e308
    else:
        vals[row, 7] = math.inf
    om1, om2 = rng.uniform(0.1, 1.0, (2, 9))
    om1[[0, 5]] = 0.0
    om2[[3, 7]] = 0.0
    return table_kernel(grid, grid, vals), MarginalPair(density_field(grid, om1),
                                                        density_field(grid, om2))


def _closing_instance(which, request):
    if which == "bench":
        return request.getfixturevalue("bench_kernel"), \
            request.getfixturevalue("bench_marginals")
    if which == "swap":
        return request.getfixturevalue("swap_instance")
    if which == "case1":
        grid = request.getfixturevalue("bench_grid")
        kernel = transition_normalized(gaussian_kernel(grid, grid, 0.5))
        om1 = gaussian_density(grid, 1.0)
        return kernel, MarginalPair(om1, pushforward(kernel, om1))
    return _zero_mass_table_instance("inf" if which == "zero_mass_table" else "nan")


@pytest.mark.parametrize("which", ["bench", "swap", "case1", "zero_mass_table",
                                   "nan_off_support"])
def test_fused_closing_is_bitwise_the_reference(which, request, monkeypatch):
    # the closing, one pass per array, returns bitwise the iterate and the
    # records of the pre-fusion closing (tests/reference_closing.py), from
    # the scheme's first image as run_fortet hands it over.  On the table
    # instances the image is inf or NaN off the omega1 support, and a
    # record's normalization reads 0 * inf or NaN there, in both closings.
    # A NaN off the support is why omega1's fit, DensityField.over, takes
    # its masked quotient where the iterate is not positive at every node:
    # the plain quotient reads 0 / NaN there, and its G is NaN at every node
    from tests.reference_closing import closing_iteration
    kernel, marginals = _closing_instance(which, request)
    table = which in ("zero_mass_table", "nan_off_support")
    paths = {"omega1": 0, "omega2": 0}
    over = type(marginals.omega2).over

    def fit_counted(self, integral, *args, out=None):
        # the fit's plain quotient is written into out and its masked one is
        # a new array, so a fit given no out is given one here, to tell them
        buf = np.empty_like(integral) if out is None else out
        fit = over(self, integral, *args, out=buf)
        paths["omega1" if self is marginals.omega1 else "omega2"] += fit is not buf
        return fit

    monkeypatch.setattr(type(marginals.omega2), "over", fit_counted)
    mass2 = marginals.omega2.mass()
    with np.errstate(invalid="ignore" if table else "raise"):
        state = None
        for n0 in (1, 2):
            state = fortet_step(state, kernel, marginals, mass2)
            if n0 == 1:
                first = state.H_prime
            if state.diagnostics["case1_candidate"]:
                break
        scheme = dict(paths)
        fused, reference = fortet.StepLog(False), fortet.StepLog(False)
        K = fortet._closing_iteration([first.copy()], kernel, marginals,
                                      1e-11, mass2, fused)
        closed = {k: paths[k] - scheme[k] for k in paths}
        K_ref = closing_iteration([first.copy()], kernel, marginals,
                                  1e-11, mass2, reference)
    assert (n0 == 1) == (which == "case1")
    assert K.tobytes() == K_ref.tobytes()
    if which == "nan_off_support":
        assert np.isnan(K[0]) and not np.isnan(K[1:]).any()

    def bits(log):
        return [(i + 1, phase, {k: float(v).hex() for k, v in step_row(log, i).items()})
                for i, phase in enumerate(step_phases(log))]

    assert len(fused) > 0 and bits(fused) == bits(reference)
    if table:
        # every closing step fitted omega2 masked, where G = 0 off its
        # support; omega1 masked only where the iterate is NaN off the
        # support, since 0 / inf is the plain quotient's 0, and then twice a
        # step: the map frees its omega1 / K, and the row forms it again
        nan = which == "nan_off_support"
        assert closed == {"omega1": 2 * len(fused) if nan else 0, "omega2": len(fused)}
    else:
        # positive integrals at every node: no step takes a masked fit, the
        # first, whose input the scheme formed, included
        assert closed == {"omega1": 0, "omega2": 0}


@pytest.mark.parametrize("points, dim", [(401, 1), (41, 2)], ids=["gauss1d", "gauss2d"])
def test_closing_starts_from_the_first_image(points, dim):
    # run_fortet closes from the scheme's first image Omega(1), whose depth-2
    # Anderson step takes 8 steps on the bench instances; from the second
    # image, where the scheme's cap and 1/2 floor put two kinks, it takes 17
    # and 20.  Both starts reach the same ray on the omega1 > 1e-12 gate
    grid = build_grid(dim=dim, radius=8.0, points_per_axis=points)
    kernel = gaussian_kernel(grid, grid, 0.5)
    marginals = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
    sol = run_fortet(kernel, marginals)
    assert (sol.case_tag, sol.iterations) == ("case2", 1) and sol.refine_steps <= 8

    mass2 = marginals.omega2.mass()
    state = fortet_step(fortet_step(None, kernel, marginals, mass2), kernel, marginals,
                        mass2)
    K = fortet._closing_iteration([state.H_prime], kernel, marginals, 1e-11, mass2,
                                  fortet.StepLog(False))
    phi, _, _, _ = fortet._extract_with_warnings(np.minimum(K, 1.0), kernel, marginals)
    gate = marginals.omega1.values > 1e-12
    log_ratio = np.log(sol.phi[gate]) - np.log(phi[gate])
    assert log_ratio.max() - log_ratio.min() <= 1e-10


def test_unreadable_nodes_match_the_where_expressions(monkeypatch):
    # the paths the benchmark runs never take: nodes the Hilbert step cannot
    # read, and an H that is NaN on the omega1 support (refused like H <= 0);
    # an unreadable G is the fit's (test_problem.py).  Node 0's quotient is
    # positive, of two negative entries, and is not read either
    rng = np.random.default_rng(8)
    a, b = rng.uniform(0.5, 2.0, (2, 12))
    positive_b = b.copy()
    a[[0, 1, 2, 3]] = -1.0, 0.0, math.inf, math.nan
    b[[0, 4, 5, 6]] = -2.0, -1.0, math.inf, math.nan
    nodes = np.arange(12)
    # the quotient is 0, inf or NaN off these masks and readable on them
    readable = [nodes > 6, nodes > 9, (nodes > 6) & (nodes % 2 == 0)]
    masks = readable + [np.ones(12, bool), np.zeros(12, bool), nodes == 1]
    masks += [(nodes > 6) | (nodes == k) for k in range(7)]
    isfinite, filtered = np.isfinite, []
    # only the filtered read asks which entries are finite
    monkeypatch.setattr(np, "isfinite", lambda x: filtered.append(x) or isfinite(x))
    for mask in masks:
        assert fortet._hilbert_step(a, b, mask, np.empty(12)) == _hilbert_reference(a, b, mask)
    # the in-place read needs b positive at every node, as a floored iterate
    # is; against such a b, a nonempty mask is read without filtering where
    # it misses nodes 0-3, a's unreadable ones
    for mask in masks:
        ref = _hilbert_reference(a, positive_b, mask)
        filtered.clear()
        assert fortet._hilbert_step(a, positive_b, mask, np.empty(12)) == ref
        assert (not filtered) == (mask.any() and not mask[:4].any())
    monkeypatch.undo()
    kernel, marginals = hand_instance()
    with pytest.raises(FortetBridgeError, match="H > 0"):
        omega_map(np.array([1.0, math.nan]), kernel, marginals)


def test_hilbert_step_over_a_full_mask_is_the_hilbert_distance():
    # the closing's stop rule reads the public metric, bit for bit, on
    # positive pairs whose entries span e^-50 to e^50
    rng = np.random.default_rng(56)
    for n in rng.integers(1, 60, 2000):
        a, b = np.exp(rng.uniform(-50.0, 50.0, (2, n)))
        step = fortet._hilbert_step(a, b, np.ones(n, bool), np.empty(n))
        assert step == hilbert_distance(a, b)


def test_accelerated_and_plain_closings_agree(bench_kernel, bench_marginals,
                                              swap_instance, monkeypatch):
    # ANDERSON_M = 0 is the plain map; both closings stop on the same
    # certificate, so they agree to what the 1e-10 tolerance allows.  On
    # swap both set phi to 0 at the same nodes (96 of them on the gate),
    # which carry no ray constant; phi zeroed on one side only at one more
    # gated node contradicts the ray
    from types import SimpleNamespace
    for kernel, marginals in ((bench_kernel, bench_marginals), swap_instance):
        accelerated = run_fortet(kernel, marginals)
        monkeypatch.setattr(fortet, "ANDERSON_M", 0)
        plain = run_fortet(kernel, marginals)
        monkeypatch.undo()
        assert accelerated.refine_steps < plain.refine_steps
        kept = plain.phi > 0
        assert np.array_equal(accelerated.phi > 0, kept)
        assert verify_uniqueness(accelerated, plain, marginals, tol=1e-8).consistent
        gated = marginals.omega1.values > fortet.SUPPORT_THRESHOLD
        node = np.flatnonzero(kept & gated)[0]
        one_sided = SimpleNamespace(phi=np.where(np.arange(kept.size) == node, 0.0,
                                                 accelerated.phi), psi=accelerated.psi)
        report = verify_uniqueness(one_sided, plain, marginals, tol=1e-8)
        assert report.ratio_spread_phi == math.inf and not report.consistent


def test_solve_keeps_no_per_step_arrays(swap_instance):
    # 75 steps on 401 nodes: three arrays per step would hold 0.72 MB on
    # top of the solve's own ~0.04 MB
    sol, peak = traced_peak(lambda: run_fortet(*swap_instance))
    assert peak < 5e5
    assert len(sol.steps) == sol.iterations + sol.refine_steps == 75


def _held_bytes(root):
    """sys.getsizeof of root and of every object it reaches, each counted
    once; classes are not followed.  The size of a numpy array that owns its
    data includes the data."""
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def test_step_log_holds_a_few_bytes_a_step(swap_solution):
    # 75 rows of three float64 columns in a block that over-allocates ~1/16,
    # not a dict and boxed floats per step (~27 kB), nor a block doubled to
    # 128 rows (3,480 B held)
    log = swap_solution.steps
    assert len(log) == 75 and step_phases(log) == ["scheme"] + ["closing"] * 74
    assert _held_bytes(log) <= 2.5 * 1024


def test_step_log_grows_in_place_under_its_column_views():
    # 1,000 rows (24 kB) appended one at a time peak within the block's
    # ~1/16 slack: a block that doubled by concatenation held the old, its
    # empty twin and the new at once (49.9 kB on growing from 512 rows to
    # 1,024).  A column is a view of the block, so an append while one is
    # alive raises and adds nothing
    rows = np.random.default_rng(8).lognormal(0.0, 20.0, (1000, 3)).tolist()

    def fill():
        log = fortet.StepLog(False)
        for row in rows:
            log.append(*row)
        return log

    log, peak = traced_peak(fill)
    assert peak < 1.2 * 24 * len(rows)
    column = log.column("hilbert_step")
    assert not column.flags.writeable and not column.flags.owndata
    with pytest.raises(BufferError):
        log.append(0.0, 0.0, 0.0)
    assert len(log) == len(rows) and column.tolist() == [r[2] for r in rows]
    del column
    log.append(0.0, 1.0, 2.0)
    assert len(log) == len(rows) + 1 and log.column("hilbert_step")[-1] == 2.0


@pytest.mark.parametrize("points, dim", [(41, 2), (21, 3)])
def test_solve_holds_a_fixed_working_set(points, dim):
    # above the loaded problem, a solve's memory is node-sized arrays.  A
    # closing step holds its input K and the depth-2 Anderson history (four
    # arrays) throughout, and peaks at 8 arrays in each sub-phase: in the
    # map beside omega1 / K or omega2 / G and two arrays inside the apply
    # (the map frees omega1 / K once applied, and the row forms it again);
    # in the step row beside the image, its quotient and one temporary (the
    # Hilbert read takes no masked copy); in the mixer beside the residual
    # and D's two rows (log K is formed again once the residual is held).
    # This reads 8.3 arrays on 41^2 and 8.2 on 21^3, against 9.3 and 9.2
    # when each sub-phase held one array more.  Holding the scheme's last H
    # and H' through the closing, a transposed product beside its copy, or a
    # broadcast's ufunc buffers in the mixer would each add two arrays
    grid = build_grid(dim=dim, radius=8.0, points_per_axis=points)
    kernel = gaussian_kernel(grid, grid, 0.5)
    marginals = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
    sol, peak = traced_peak(lambda: run_fortet(kernel, marginals))
    assert sol.case_tag == "case2"
    assert peak <= 9 * 8 * grid.n_nodes


def test_load_and_solve_hold_no_node_mesh():
    # a 21^3 problem from build_grid to its solution: the weights, the
    # marginals and the solve's working set above.  The marginals read the
    # node mesh once, and condition_star's tail fit reads the axes; a mesh
    # the grid held throughout, three node arrays, took the peak to 16.6
    # arrays
    def load_and_solve():
        grid = build_grid(dim=3, radius=8.0, points_per_axis=21)
        kernel = gaussian_kernel(grid, grid, 0.5)
        marginals = MarginalPair(gaussian_density(grid, 1.0), gaussian_density(grid, 0.8))
        return run_fortet(kernel, marginals)

    sol, peak = traced_peak(load_and_solve)
    assert sol.case_tag == "case2"
    assert peak < 14 * 8 * 21 ** 3


#: s1_resid of a solve that ran the scheme to n ~ 100 (it handed over once its
#: Hilbert step fell below 1e-2) and stopped its closing at tol, on the
#: benchmark and the swap instance
FULL_SCHEME_S1_RESID = {1e-13: (1.1102230246251565e-16, 2.0623283634177433e-07),
                        1e-14: (1.1102230246251565e-16, 2.0623283634177433e-07),
                        1e-15: (1.1102230246251565e-16, 2.0623283634177433e-07)}


@pytest.mark.parametrize("tol", sorted(FULL_SCHEME_S1_RESID))
def test_tight_tolerances_converge_with_no_larger_residual(tol, bench_kernel,
                                                           bench_marginals,
                                                           swap_instance):
    # the closing stops at tol / 10 but not below CLOSING_TOL_FLOOR: at
    # tol = 1e-15 a bare 1e-16 stop never fires and runs out of steps
    instances = ((bench_kernel, bench_marginals), swap_instance)
    for (kernel, marginals), before in zip(instances, FULL_SCHEME_S1_RESID[tol]):
        sol = run_fortet(kernel, marginals, FortetOptions(tol=tol))
        assert sol.case_tag == "case2"
        assert sol.residuals["s1_resid"] <= before


def test_a_solve_short_of_its_marginals_is_not_a_solution(swap_instance):
    # an 11-node table of O(1) entries with one of 1e308: the closing's
    # Hilbert step reads only the nodes above the floor and stops with s1
    # residual 0.146, far above sqrt(tol) times omega1's peak, so run_fortet
    # raises with the run's steps.  Where extraction dropped nodes whose h
    # underflowed, as on swap, the residual beside them is float64's, not
    # the closing's: at tol 1e-13 swap's 2.06e-7 stays a warning, beside
    # the dropped-node one
    grid = build_grid(dim=1, radius=1.0, points_per_axis=11)
    rng = np.random.default_rng(0)
    vals = rng.uniform(0.5, 1.5, (11, 11))
    vals[0, 0] = 1e308
    om1, om2 = rng.uniform(0.2, 1.0, (2, 11))
    marginals = MarginalPair(density_field(grid, om1), density_field(grid, om2))
    with pytest.raises(NonConvergenceError, match="s1 0.146 .* stopped short") as err:
        run_fortet(table_kernel(grid, grid, vals), marginals, FortetOptions(force=True))
    assert step_phases(err.value.trace) == ["scheme"] + ["closing"] * 59
    sol = run_fortet(*swap_instance, FortetOptions(tol=1e-13))
    assert [w.split()[:2] for w in sol.warnings] == [["marginal", "residuals"],
                                                    ["potential", "phi"]]


def test_swap_converges_at_the_rounding_floor(swap_instance):
    # below eps * max|log K| the closing takes plain steps: the Anderson fit
    # would read rounding noise, and it had cycled there without converging
    # from an n = 2 hand-over.  A hand-over at n ~ 10 took 307 closing steps
    for tol in (1e-14, 1e-15):
        sol = run_fortet(*swap_instance, FortetOptions(tol=tol))
        assert (sol.case_tag, sol.iterations) == ("case2", 1)
        assert sol.refine_steps < 307


def test_early_handover_retags_no_random_instance():
    # a case 1 that fires at n0 > 1 is tagged case 2; criterion 3's
    # generator holds none: a hand-over at a Hilbert step below 1e-2 (n ~
    # 100) tagged all 200 instances case 2
    tags = [run_fortet(kernel, marginals, FortetOptions(force=True)).case_tag
            for kernel, marginals in random_instances(2024, 200, 64)]
    assert tags == ["case2"] * 200


def test_second_scheme_step_obeys_the_birkhoff_bound(bench_kernel, bench_marginals,
                                                     swap_instance):
    # why the scheme's steps past n = 1 are not run: H_1 = 1 and 1/2 <= H_2
    # <= 1, so d_H(H_2, H_1) <= log 2, and Omega does not expand the Hilbert
    # metric, so the n = 2 step moves the ray by at most log 2.
    # Criterion 3's instances and the three benchmark instances
    grid2 = build_grid(dim=2, radius=8.0, points_per_axis=41)
    gauss2d = (gaussian_kernel(grid2, grid2, 0.5),
               MarginalPair(gaussian_density(grid2, 1.0), gaussian_density(grid2, 0.8)))
    instances = list(random_instances(2024, 200, 64))
    instances += [(bench_kernel, bench_marginals), gauss2d, swap_instance]
    for kernel, marginals in instances:
        state = fortet_step(fortet_step(None, kernel, marginals), kernel, marginals)
        assert state.diagnostics["hilbert_step"] <= math.log(2.0) + 1e-12


def _extrapolation_reference(D_f, D_g, f, g):
    gamma = np.linalg.lstsq(D_f.T, f, rcond=None)[0]
    return g - gamma @ D_g


def test_mixer_takes_the_plain_input_at_the_rounding_floor():
    rng = np.random.default_rng(11)
    n = 50
    # the images K and their logs g, as the mixer reads them
    Ks = [np.exp(rng.uniform(-30.0, 0.0, n)) for _ in range(3)]
    g0, g1, g2 = map(np.log, Ks)
    # residuals whose Hilbert norm falls step by step: no safeguard clears
    us = [g - rng.normal(0.0, scale, n) for g, scale in zip((g0, g1, g2),
                                                          (1e-3, 5e-4, 2.5e-4))]
    # the residuals as the mixer forms them, f = g - u
    f0, f1, f2 = (g - u for g, u in zip((g0, g1, g2), us))
    mixer = fortet._AndersonMixer(2, n)
    at = slice(None)
    assert mixer.next_input(us[0].copy(), Ks[0], at) is None
    # above the floor: the least-squares extrapolation over the history
    out = mixer.next_input(us[1].copy(), Ks[1], at)
    ref = _extrapolation_reference(np.array([f1 - f0]), np.array([g1 - g0]), f1, g1)
    assert np.max(np.abs(out - ref)) < 1e-12
    out = mixer.next_input(us[2].copy(), Ks[2], at)
    ref = _extrapolation_reference(np.array([f2 - f0, f2 - f1]),
                                   np.array([g2 - g0, g2 - g1]), f2, g2)
    assert np.max(np.abs(out - ref)) < 1e-12
    # a residual of one ulp of max|g| asks for the plain input, and still
    # enters the history and the least norm seen
    u3 = g2.copy()
    i = int(np.argmax(np.abs(g2)))
    u3[i] = np.nextafter(g2[i], 0.0)
    norm = float(np.abs(g2[i] - u3[i]))
    assert 0.0 < norm < np.finfo(float).eps * np.max(np.abs(g2))
    held = mixer.held
    assert mixer.next_input(u3, Ks[2], at) is None
    assert mixer.held == held + 1
    assert mixer.best == norm


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


def test_a_fixed_point_above_1_off_the_support_warns_before_clamping():
    # a narrow omega1 under a wide kernel underflows to 0 at the outermost
    # nodes, where the fixed point exceeds 1: the scan refuses the
    # instance, and forced, h is clamped to 1 there and phi is 0
    grid = build_grid(dim=1, radius=8.0, points_per_axis=401)
    kernel = gaussian_kernel(grid, grid, 0.5)
    marginals = MarginalPair(gaussian_density(grid, 0.2), gaussian_density(grid, 1.0))
    with pytest.raises(FeasibilityError):
        run_fortet(kernel, marginals)
    sol = run_fortet(kernel, marginals, FortetOptions(force=True))
    assert sol.warnings == ("fixed point exceeded 1 by 0.117 before clamping "
                            "(outside the omega1 support)",)
    off = ~marginals.omega1.support
    assert off.any() and np.all(sol.h <= 1.0) and np.all(sol.phi[off] == 0.0)


def test_extract_potentials_drops_nonpositive_h():
    kernel, marginals = hand_instance()
    phi, psi, g_phi, warned = fortet._extract_with_warnings(np.array([1.0, 1.0]),
                                                            kernel, marginals)
    assert np.array_equal(phi, [0.5, 0.5])
    assert np.array_equal(g_phi, [0.75, 0.75])
    assert np.array_equal(psi, marginals.omega2.values / 0.75)
    assert warned == []
    # an h that underflowed to 0 on the support sets phi to 0 there
    phi, _, _, warned = fortet._extract_with_warnings(np.array([0.0, 1.0]),
                                                      kernel, marginals)
    assert np.array_equal(phi, [0.0, 0.5])
    assert len(warned) == 1 and "at 1 support nodes" in warned[0]


def test_extract_potentials_zero_denominator():
    grid = build_grid(dim=1, radius=1.0, points_per_axis=4)
    vals = np.ones((4, 4))
    vals[:, 1] = 0.0
    kernel = table_kernel(grid, grid, vals)
    rng = np.random.default_rng(5)
    marginals = MarginalPair(density_field(grid, rng.uniform(0.1, 1.0, 4)),
                             density_field(grid, rng.uniform(0.1, 1.0, 4)))
    with pytest.raises(KernelSupportError):
        fortet._extract_with_warnings(np.ones(4), kernel, marginals)


def test_coupling_residuals_detect_imbalance(bench_solution, bench_kernel,
                                             bench_marginals):
    good = build_coupling(bench_solution.phi, bench_solution.psi, bench_kernel,
                          bench_marginals)
    assert good.row_marginal_resid < RESID_TOL
    assert good.col_marginal_resid < RESID_TOL
    bad = build_coupling(2.0 * bench_solution.phi, bench_solution.psi,
                         bench_kernel, bench_marginals)
    peak = float(np.max(bench_marginals.omega1.values))
    assert bad.row_marginal_resid == pytest.approx(peak, rel=1e-10)


def test_inf_potential_against_a_vanishing_integral_reads_inf():
    # g(0, 0) = 0 and psi(0) = inf make Int g psi at x = 0 read 0 * inf = NaN;
    # the coupling reports that node as an inf residual
    import warnings
    grid = unit_grid_2()
    kernel = table_kernel(grid, grid, np.array([[0.0, 1.0], [1.0, 1.0]]))
    half = density_field(grid, np.array([0.5, 0.5]), renormalize=False)
    marginals = MarginalPair(half, half)
    phi, psi = np.array([1.0, 1.0]), np.array([math.inf, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def test_nonconvergence_carries_trace(bench_kernel, bench_marginals, monkeypatch):
    # the closing's step cap is the one bound a solve can hit; the error
    # carries the scheme's row and the closing's three
    monkeypatch.setattr(fortet, "REFINE_MAX", 3)
    with pytest.raises(NonConvergenceError, match="within 3 steps") as err:
        run_fortet(bench_kernel, bench_marginals)
    assert step_phases(err.value.trace) == ["scheme"] + ["closing"] * 3


def test_solve_is_the_first_image_and_the_closing(bench_kernel, bench_marginals,
                                                  swap_instance):
    # run_fortet runs one scheme step, n = 1, and closes from its image
    # Omega(1): its h is that closing's fixed point capped at 1, bitwise
    for kernel, marginals in ((bench_kernel, bench_marginals), swap_instance):
        sol = run_fortet(kernel, marginals)
        mass2 = marginals.omega2.mass()
        first = fortet_step(None, kernel, marginals, mass2)
        K = fortet._closing_iteration([first.H_prime], kernel, marginals, 1e-11, mass2,
                                      fortet.StepLog(False))
        assert np.array_equal(sol.h, np.minimum(K, 1.0))
        assert sol.iterations == 1
        assert sol.steps.case1_candidate is first.diagnostics["case1_candidate"]


def test_closing_refuses_a_nan_iterate(bench_kernel, bench_marginals, monkeypatch):
    # the closing checks the mixer's extrapolation, the one path by which a
    # NaN can reach its input, in place of omega_map: a NaN input would map
    # to a finite image, because a NaN G reads as 1
    monkeypatch.setattr(fortet._AndersonMixer, "next_input",
                        lambda self, u, K, at: np.full_like(u, math.nan))
    with pytest.raises(NonConvergenceError, match="NaN") as err:
        run_fortet(bench_kernel, bench_marginals)
    assert step_phases(err.value.trace) == ["scheme", "closing"]


def test_a_nan_on_the_support_shows_in_the_trace():
    # both phases' np.errstate ignore invalid values, so a NaN the map makes
    # on the omega1 support warns of nothing; the step rows and the closing
    # still show it: the scheme's sup change and residual read NaN, and the
    # closing refuses the scheme's image before its first step
    kernel, marginals = _zero_mass_table_instance("nan", row=1)
    with pytest.raises(NonConvergenceError, match="NaN") as err:
        run_fortet(kernel, marginals, FortetOptions(force=True))
    trace = err.value.trace
    assert step_phases(trace) == ["scheme"]
    assert np.isnan(trace.column("sup_change")).all()
    assert np.isnan(trace.column("normalization_residual")).all()


def test_extraction_off_the_support_warns_nothing():
    # the inf entry sits in row 0, where phi = 0, so g * phi reads 0 * inf
    # in column 7, off the omega2 support; extraction runs under the
    # closing's np.errstate, and pytest's error::RuntimeWarning filter turns
    # a warning into a failure
    kernel, marginals = _zero_mass_table_instance("nan")
    sol = run_fortet(kernel, marginals, FortetOptions(force=True))
    assert sol.case_tag == "case2" and sol.warnings == ()
    assert sol.coupling.phi[0] == 0.0 and sol.coupling.psi[7] == 0.0
    assert max(sol.residuals.values()) < 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coupling_pi_is_zero_where_a_potential_is():
    # the inf entry sits in row 0, where phi = 0, and column 7, where psi =
    # 0: pi reads 0 there, as row and col do, not 0 * inf, and warns of
    # nothing; it is finite wherever phi and psi are, and its weighted row
    # and column sums are the coupling's marginal integrals
    kernel, marginals = _zero_mass_table_instance("nan")
    c = run_fortet(kernel, marginals, FortetOptions(force=True)).coupling
    pi = c.pi
    assert c.phi[0] == 0.0 and c.psi[7] == 0.0 and kernel.values[0, 7] == math.inf
    assert np.isfinite(pi[np.isfinite(c.phi)][:, np.isfinite(c.psi)]).all()
    assert not pi[c.phi == 0].any() and not pi[:, c.psi == 0].any()
    assert np.allclose(pi @ kernel.grid2.weights, c.row, rtol=1e-14, atol=0.0)
    assert np.allclose(kernel.grid1.weights @ pi, c.col, rtol=1e-14, atol=0.0)


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
    assert sol.iterations == 1
    assert sol.phi is None and sol.psi is None
    assert all(math.isnan(v) for v in sol.residuals.values())


def test_degenerate_solution_is_refused_by_the_library(bench_grid, bench_kernel):
    # criterion 7's starved omega2, forced: the solution has no potentials,
    # and comparing or interpolating it is a feasibility failure, not a
    # TypeError or IndexError on its None potentials
    from types import SimpleNamespace
    om1 = gaussian_density(bench_grid, 1.0)
    tiny = density_field(bench_grid,
                         gaussian_density(bench_grid, 0.8).values * 1e-16,
                         renormalize=False)
    marginals = MarginalPair(om1, tiny)
    sol = run_fortet(bench_kernel, marginals, FortetOptions(force=True))
    assert sol.case_tag == "degenerate"
    ones = SimpleNamespace(phi=np.ones(bench_grid.n_nodes), psi=np.ones(bench_grid.n_nodes))
    for a, b in ((sol, ones), (ones, sol)):
        with pytest.raises(FeasibilityError, match="^cannot compare a degenerate solution$"):
            verify_uniqueness(a, b, marginals)
    with pytest.raises(FeasibilityError,
                       match="^cannot interpolate a degenerate solution$"):
        entropic_interpolation(sol.phi, sol.psi, bench_kernel, [0.0, 0.5, 1.0])


def test_case1_closes_on_the_sup_one_ray(bench_grid):
    # the pushforward fires case 1 at n = 1.  Int omega1 Omega(1) = Int
    # omega2 = 1, so sup Omega(1) over the omega1 support is within CASE1_EPS
    # of 1, and the closing's sup-1 rescale leaves h at 1 to rounding; the
    # closing stops on its Hilbert step, as in case 2
    kernel = transition_normalized(gaussian_kernel(bench_grid, bench_grid, 0.5))
    om1 = gaussian_density(bench_grid, 1.0)
    sol = run_fortet(kernel, MarginalPair(om1, pushforward(kernel, om1)),
                     FortetOptions(force=True))
    assert (sol.case_tag, sol.iterations, sol.refine_steps) == ("case1", 1, 1)
    assert sol.steps.column("hilbert_step")[-1] < FortetOptions().tol / 10
    assert np.max(np.abs(sol.h - 1.0)) <= fortet.CASE1_EPS


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
