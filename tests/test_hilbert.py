"""Hilbert projective metric, projective diameters, Birkhoff bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fortetbridge import (birkhoff_contraction, hilbert_distance,
                          homogeneous_map_contraction_check,
                          projective_diameter)
from fortetbridge.errors import FortetBridgeError
from tests.conftest import traced_peak

positive_vectors = st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4)


def test_hand_example_log4():
    assert hilbert_distance([1.0, 2.0], [2.0, 1.0]) == pytest.approx(math.log(4.0), abs=1e-15)


def test_distance_axioms():
    x = np.array([1.0, 3.0, 0.5])
    assert hilbert_distance(x, x) == 0.0
    y = np.array([2.0, 1.0, 1.5])
    assert hilbert_distance(x, y) == pytest.approx(hilbert_distance(y, x), abs=0)
    with pytest.raises(FortetBridgeError):
        hilbert_distance([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(FortetBridgeError):
        hilbert_distance([1.0, 1.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("x, y", [([1.0, math.nan], [1.0, 1.0]),
                                  ([1.0, math.inf], [1.0, 1.0]),
                                  ([math.inf, math.inf], [1.0, 2.0]),
                                  ([], [])])
def test_distance_refuses_entries_that_are_not_finite(x, y):
    # a NaN passes x <= 0 and read nan; an inf read inf, or inf / inf; with
    # no entries the max and min of x / y are undefined
    with pytest.raises(FortetBridgeError, match="finite, strictly positive"):
        hilbert_distance(x, y)
    with pytest.raises(FortetBridgeError, match="finite, strictly positive"):
        hilbert_distance(y, x)


@given(positive_vectors, positive_vectors, st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_distance_is_projective(xs, ys, c):
    x = np.asarray(xs)
    y = np.asarray(ys)
    assert hilbert_distance(c * x, y) == pytest.approx(hilbert_distance(x, y), abs=1e-9)


def test_diameter_2x2():
    diam = projective_diameter([[2.0, 1.0], [1.0, 2.0]])
    assert diam.exact
    assert diam.value == pytest.approx(math.log(4.0), abs=1e-14)


def test_birkhoff_one_third():
    bound = birkhoff_contraction([[2.0, 1.0], [1.0, 2.0]])
    assert bound.guaranteed
    assert abs(bound.ratio - 1.0 / 3.0) < 1e-15


def test_zero_entry_means_no_guarantee():
    bound = birkhoff_contraction([[1.0, 0.0], [1.0, 1.0]])
    assert not bound.guaranteed
    assert bound.ratio == 1.0
    assert math.isinf(bound.diameter)


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_nan_or_inf_entry_means_no_guarantee(entry):
    # as a zero does: a NaN fails every comparison, so a test for entries
    # at or below ZERO_ENTRY passes it, and max(best, nan) drops its distances
    M = np.full((21, 21), 0.5) + np.eye(21)
    M[3, 5] = entry
    for matrix in (M, M.T):
        diam = projective_diameter(matrix)
        assert diam.exact and diam.value == math.inf
    bound = birkhoff_contraction(M)
    assert not bound.guaranteed and bound.ratio == 1.0


def test_contraction_bound_on_random_pairs():
    # d_H(Mx, My) <= tanh(diam/4) * d_H(x, y) for strictly positive M
    rng = np.random.default_rng(42)
    M = rng.uniform(0.2, 2.0, size=(6, 6))
    bound = birkhoff_contraction(M)
    assert bound.guaranteed
    for _ in range(100):
        x = rng.uniform(0.01, 10.0, size=6)
        y = rng.uniform(0.01, 10.0, size=6)
        lhs = hilbert_distance(M @ x, M @ y)
        assert lhs <= bound.ratio * hilbert_distance(x, y) + 1e-12


def test_sampled_diameter_is_lower_bound():
    rng = np.random.default_rng(3)
    M = rng.uniform(0.1, 1.0, size=(10, 100))
    sampled = projective_diameter(M)
    assert not sampled.exact
    # brute force over all column pairs
    best = 0.0
    for a in range(M.shape[1]):
        for b in range(a + 1, M.shape[1]):
            best = max(best, hilbert_distance(M[:, a], M[:, b]))
    assert sampled.value <= best + 1e-12


def test_sampled_diameter_gives_no_guarantee():
    # above EXACT_COLUMN_LIMIT columns the diameter is a sampled lower bound,
    # and so is its tanh(diam / 4)
    M = np.random.default_rng(9).uniform(0.5, 2.0, size=(80, 80))
    diam = projective_diameter(M)
    bound = birkhoff_contraction(M)
    assert not diam.exact and not bound.guaranteed
    assert (bound.diameter, bound.ratio) == (diam.value, math.tanh(diam.value / 4.0))


def test_sampled_diameter_logs_only_the_sampled_columns(bench_kernel):
    # above EXACT_COLUMN_LIMIT columns only the sampled ones are read, so
    # only their log is taken: the call peaks below the matrix itself
    M = bench_kernel.values
    warm = projective_diameter(M)
    diam, peak = traced_peak(lambda: projective_diameter(M))
    assert diam == warm and not diam.exact and math.isfinite(diam.value)
    assert peak < M.nbytes


def test_diameter_monotone_in_columns():
    rng = np.random.default_rng(5)
    M = rng.uniform(0.1, 1.0, size=(8, 12))
    full = projective_diameter(M).value
    sub = projective_diameter(M[:, :6]).value
    assert sub <= full + 1e-15


def test_homogeneity_check_linear_map_passes():
    rng = np.random.default_rng(11)
    M = rng.uniform(0.5, 1.5, size=(5, 5))
    samples = [rng.uniform(0.1, 10.0, size=5) for _ in range(8)]
    check = homogeneous_map_contraction_check(lambda v: M @ v, 1.0, samples)
    assert check
    assert check.max_ratio_excess <= 1e-10


def test_homogeneity_check_catches_expansion():
    # squaring doubles projective distances: degree-1 claim must fail
    rng = np.random.default_rng(12)
    samples = [rng.uniform(0.1, 10.0, size=5) for _ in range(6)]
    check = homogeneous_map_contraction_check(lambda v: v ** 2, 1.0, samples)
    assert not check
    assert check.witness is not None


@pytest.mark.parametrize("shape", [(0, 0), (2, 0), (3,)])
def test_projective_diameter_refuses_an_empty_or_flat_matrix(shape):
    # a 1-D array, even a nonempty one, is no matrix; an empty 2-D one is
    expects = "a matrix" if len(shape) != 2 else "a nonempty matrix"
    with pytest.raises(FortetBridgeError) as refused:
        projective_diameter(np.ones(shape))
    assert str(refused.value) == f"projective_diameter expects {expects}, got shape {shape}"


def test_homogeneity_check_of_one_sample_passes_vacuously():
    # no pair of samples: no excess, and no witness
    check = homogeneous_map_contraction_check(lambda v: v ** 2, 1.0, [np.ones(3)])
    assert check == (True, -math.inf, None)
