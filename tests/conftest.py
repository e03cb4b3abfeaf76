"""Shared fixtures: the Gaussian benchmark instance and its solves.

Session-scoped because run_fortet/run_sinkhorn on the 401-node benchmark
are the expensive pieces reused by many tests.
"""

import collections
import contextlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from fortetbridge import (MarginalPair, build_grid, gaussian_density,
                          gaussian_kernel, run_fortet, run_sinkhorn)
from fortetbridge.problem import swapped_marginals

BENCH_SIGMA = 0.5
BENCH_SIGMA1 = 1.0
BENCH_SIGMA2 = 0.8
BENCH_RADIUS = 8.0
BENCH_POINTS = 401


@pytest.fixture(scope="session")
def bench_grid():
    return build_grid(dim=1, radius=BENCH_RADIUS, points_per_axis=BENCH_POINTS)


@pytest.fixture(scope="session")
def bench_kernel(bench_grid):
    return gaussian_kernel(bench_grid, bench_grid, BENCH_SIGMA)


@pytest.fixture(scope="session")
def bench_marginals(bench_grid):
    return MarginalPair(gaussian_density(bench_grid, BENCH_SIGMA1),
                        gaussian_density(bench_grid, BENCH_SIGMA2))


@pytest.fixture(scope="session")
def bench_solution(bench_kernel, bench_marginals):
    return run_fortet(bench_kernel, bench_marginals)


@pytest.fixture(scope="session")
def bench_scaling(bench_kernel, bench_marginals):
    return run_sinkhorn(bench_kernel, bench_marginals)


@pytest.fixture(scope="session")
def swap_instance(bench_grid):
    """The criterion-2 instance after the swap: potentials beyond float64."""
    kernel = gaussian_kernel(bench_grid, bench_grid, 0.1)
    marginals = swapped_marginals(MarginalPair(gaussian_density(bench_grid, 0.5),
                                               gaussian_density(bench_grid, 1.0)))
    return kernel, marginals


@pytest.fixture(scope="session")
def swap_solution(swap_instance):
    return run_fortet(*swap_instance)


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes while it ran).  Tracing starts
    with the call, so what exists before it is not counted."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def counting_applies(monkeypatch):
    """A list that gains one entry per KernelOperator.apply or apply_T call
    for the rest of the test."""
    from fortetbridge.problem import KernelOperator
    calls = []
    for name in ("apply", "apply_T"):
        fn = getattr(KernelOperator, name)
        monkeypatch.setattr(KernelOperator, name,
                            lambda self, f, fn=fn: calls.append(fn) or fn(self, f))
    return calls


def _smallest_nonzero(a):
    nonzero = np.abs(a[a != 0])
    return float(nonzero.min()) if nonzero.size else math.inf


def read_order(kernel, x):
    """x in the order problem._contract takes it for kernel: reversed, last
    node first, for a band longer than x (problem._band_product), and as it
    is otherwise.  A reversed view is copied by the product, bitwise as
    the kernel's own contiguous argument is read."""
    return x[::-1] if kernel._reversed else x


@contextlib.contextmanager
def contract_extremes():
    """Record what reaches problem._contract, the one product under
    KernelOperator.apply and apply_T, while the block runs.  Yields a list
    that gains one (smallest nonzero |factor entry|, smallest nonzero
    |argument entry|) pair per call; inf reads "no nonzero entry".  An
    entry below float64's smallest normal is a subnormal operand.  The
    argument arrives in the order the product reads it (read_order), which
    neither extreme depends on."""
    from fortetbridge import problem
    contract, seen = problem._contract, []

    def recording(factors, x):
        seen.append((min(map(_smallest_nonzero, factors)), _smallest_nonzero(x)))
        return contract(factors, x)

    problem._contract = recording
    try:
        yield seen
    finally:
        problem._contract = contract


@contextlib.contextmanager
def kernel_matrix_builds():
    """Record each KernelOperator whose values, the dense n1 x n2 matrix, is
    built while the block runs, by wrapping that cached_property.  Yields a
    list that gains the operator at each build; a matrix cached before the
    block is not built again, so it is not recorded."""
    from functools import cached_property
    from fortetbridge.problem import KernelOperator
    prop, built = KernelOperator.__dict__["values"], []

    def values(self):
        built.append(self)
        return prop.func(self)

    guard = cached_property(values)
    guard.__set_name__(KernelOperator, "values")
    KernelOperator.values = guard
    try:
        yield built
    finally:
        KernelOperator.values = prop


def step_row(log, i):
    """Row i of a fortet.StepLog as a dict, in the keys of a scheme step's
    diagnostics: its three columns, and case1_candidate (the log's flag on
    row 0, the scheme step, and False on a closing row)."""
    i %= len(log)
    row = {name: float(log.column(name)[i]) for name in log.COLUMNS}
    row["case1_candidate"] = i == 0 and log.case1_candidate
    return row


def step_phases(log):
    """The phase of each row of a fortet.StepLog: row 0 is the scheme step."""
    return ["scheme" if i == 0 else "closing" for i in range(len(log))]


#: one step of Fortet's iteration as fortet_steps() records it: its phase
#: ("scheme" or "closing"), its input H, its image (H' = Omega(H) in the
#: scheme, Omega(K) / s in the closing; the arrays themselves), the
#: diagnostics it recorded (its row in the keys of a scheme step's
#: diagnostics, as step_row reads a log row), and copies of both arrays
#: taken before the row was computed
FortetStep = collections.namedtuple(
    "FortetStep", "phase input image record input_then image_then")


@contextlib.contextmanager
def fortet_steps():
    """Record each step of Fortet's iteration taken while the block runs,
    in order, at fortet._step_row, the one call both phases make per step.
    Yields a list that gains one FortetStep per step.  A row called from
    fortet_step is a scheme step's: its input H and its case1 flag are that
    frame's H and case1.  Any other is a closing step's, whose input is the
    row's prev."""
    from fortetbridge import fortet
    row_of, seen = fortet._step_row, []

    def recording(ratio1, image, s, prev, *args):
        caller = sys._getframe(1)
        scheme = caller.f_code.co_name == "fortet_step"
        local = caller.f_locals
        H = local["H"] if scheme else prev
        then = H.copy(), image.copy()
        row = row_of(ratio1, image, s, prev, *args)
        record = dict(zip(fortet.StepLog.COLUMNS, row),
                      case1_candidate=scheme and local["case1"])
        seen.append(FortetStep("scheme" if scheme else "closing", H, image, record, *then))
        return row

    fortet._step_row = recording
    try:
        yield seen
    finally:
        fortet._step_row = row_of


def random_instance(rng, n1, n2, kernel_low=0.1):
    """Strictly positive table kernel + positive unit-mass marginals."""
    from fortetbridge import density_field, table_kernel
    g1 = build_grid(dim=1, radius=1.0, points_per_axis=n1)
    g2 = build_grid(dim=1, radius=1.0, points_per_axis=n2)
    kernel = table_kernel(g1, g2, rng.uniform(kernel_low, 1.0, size=(n1, n2)))
    om1 = density_field(g1, rng.uniform(0.1, 1.0, size=n1))
    om2 = density_field(g2, rng.uniform(0.1, 1.0, size=n2))
    return kernel, MarginalPair(om1, om2)


def random_instances(seed, count, max_nodes):
    """count random_instance draws from one seeded stream, each side with 2
    to max_nodes nodes (criterion 3's generator at seed 2024, max_nodes 64)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n1 = int(rng.integers(2, max_nodes + 1))
        n2 = int(rng.integers(2, max_nodes + 1))
        yield random_instance(rng, n1, n2)
