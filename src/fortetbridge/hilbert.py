"""Hilbert projective metric on the positive orthant plus contraction bounds.

d_H(x, y) = log( max_i x_i/y_i / min_i x_i/y_i ) is a metric between rays of
the open positive cone; positive linear maps contract it by tanh(diam/4)
where diam is the projective diameter of the map's image.  These are the
convergence diagnostics for both iterative solvers.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import FortetBridgeError

#: entries at or below this are treated as zero when deciding whether a
#: matrix maps into the cone interior (log-ratios overflow beneath it)
ZERO_ENTRY = 1e-280
#: diameters are exact up to this many columns; above it we sample
EXACT_COLUMN_LIMIT = 64
CONTRACTION_SLACK = 1e-10


def hilbert_distance(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise FortetBridgeError("hilbert_distance needs same-length vectors")
    if np.any(x <= 0) or np.any(y <= 0):
        raise FortetBridgeError("hilbert_distance is defined on strictly positive vectors")
    r = x / y
    return float(np.log(r.max() / r.min()))


class ProjectiveDiameter(NamedTuple):
    value: float      # may be inf
    exact: bool       # False when sampled (too many columns) -> lower bound

    @property
    def finite(self) -> bool:
        return np.isfinite(self.value)


def projective_diameter(matrix) -> ProjectiveDiameter:
    """Diameter of the matrix image of the cone interior.

    The image is the convex hull of the column rays, so the diameter is the
    maximum pairwise column distance; exact for <= EXACT_COLUMN_LIMIT
    columns, otherwise a sampled lower bound (flagged exact=False).
    Any entry <= ZERO_ENTRY makes the diameter infinite.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise FortetBridgeError("projective_diameter expects a nonempty matrix")
    if np.any(M <= ZERO_ENTRY):
        return ProjectiveDiameter(float("inf"), True)
    n = M.shape[1]
    if n <= EXACT_COLUMN_LIMIT:
        cols = np.arange(n)
        exact = True
    else:
        cols = np.unique(np.linspace(0, n - 1, EXACT_COLUMN_LIMIT).astype(int))
        exact = False
    best = 0.0
    # the log of the read columns only, in the copy that indexing makes
    sub = M[:, cols]
    np.log(sub, out=sub)
    for a in range(len(cols)):
        diff = sub[:, a:a + 1] - sub            # (m, k)
        d = diff.max(axis=0) + (-diff).max(axis=0)
        best = max(best, float(d.max()))
    return ProjectiveDiameter(best, exact)


class ContractionBound(NamedTuple):
    ratio: float          # tanh(diam/4), or 1.0 when the diameter is infinite
    diameter: float
    guaranteed: bool      # the diameter is finite and exact; a sampled one is
                          # a lower bound, and so is its ratio

    @classmethod
    def of(cls, diam: ProjectiveDiameter) -> "ContractionBound":
        if not diam.finite:
            return cls(1.0, diam.value, guaranteed=False)
        return cls(math.tanh(diam.value / 4.0), diam.value, guaranteed=diam.exact)


def birkhoff_contraction(matrix) -> ContractionBound:
    return ContractionBound.of(projective_diameter(matrix))


class HomogeneityCheck(NamedTuple):
    passed: bool
    max_ratio_excess: float
    witness: Optional[Tuple[np.ndarray, np.ndarray, float, float]] = None

    def __bool__(self) -> bool:
        return self.passed


def homogeneous_map_contraction_check(map_fn: Callable[[np.ndarray], np.ndarray],
                                      degree: float,
                                      samples: Sequence[np.ndarray]) -> HomogeneityCheck:
    """Check d_H(f(x), f(y)) <= degree * d_H(x, y) + slack over sample pairs.

    This is the defining non-expansiveness bound for positive maps that are
    positively homogeneous of the given degree; the fixed-point map of the
    solver has degree 1.  Returns the worst witness pair on failure.
    """
    pts = [np.asarray(s, dtype=float) for s in samples]
    images = [np.asarray(map_fn(p), dtype=float) for p in pts]
    worst = -np.inf
    witness = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dxy = hilbert_distance(pts[i], pts[j])
            dfx = hilbert_distance(images[i], images[j])
            excess = dfx - degree * dxy
            if excess > worst:
                worst = excess
                witness = (pts[i], pts[j], dxy, dfx)
    if witness is None:
        return HomogeneityCheck(True, -np.inf)
    passed = worst <= CONTRACTION_SLACK
    return HomogeneityCheck(passed, float(worst), None if passed else witness)
