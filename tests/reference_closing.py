"""Fortet's closing phase as it was written before its steps were fused:
_closing_iteration with omega_map's map and a step record composed, each
array formed by its own expression, the Hilbert step read on the filtered
nodes alone, and an Anderson mixer whose extrapolation is an array of its
own.  The fused closing in fortetbridge.fortet must return bitwise this
iterate and these records
(test_fortet.py::test_fused_closing_is_bitwise_the_reference).  It
carries its own map, fit and mixer, and imports only constants and the
step log from the package."""

import math
from typing import Dict, List, Optional

import numpy as np

from fortetbridge.errors import NonConvergenceError
from fortetbridge.fortet import ANDERSON_M, EPS, FLOOR_FREEZE, REFINE_MAX, StepLog


def support_ratio(num, den, support) -> np.ndarray:
    """num / den on support and 0 off it; den is not divided by off it."""
    return np.divide(num, den, out=np.zeros(num.shape), where=support)


def support_sup(K, A, steps: StepLog) -> float:
    """max K over the mask A; raises unless it is positive."""
    s = float(K[A].max())
    if not s > 0:
        raise NonConvergenceError("iterate collapsed to zero or NaN on the omega1 "
                                  "support", steps)
    return s


def fit(D, f) -> Optional[List[float]]:
    """gamma minimizing |f - sum_j gamma_j D_j| over the k <= 2 rows of D,
    by Cramer's rule on the normal equations (the rounding fortet._fit
    takes), or None if they are singular or gamma is not finite."""
    M, r = (D @ D.T).tolist(), (D @ f).tolist()
    if len(r) == 1:
        gamma = [r[0] / M[0][0]] if M[0][0] else None
    else:
        det = M[0][0] * M[1][1] - M[0][1] * M[0][1]
        gamma = None if not det else [(M[1][1] * r[0] - M[0][1] * r[1]) / det,
                                      (M[0][0] * r[1] - M[0][1] * r[0]) / det]
    if gamma is None or not all(map(math.isfinite, gamma)):
        return None
    return gamma


class AndersonMixer:
    """fortet._AndersonMixer with the extrapolation formed in a new array."""

    def __init__(self, m: int, n: int):
        self.hist = np.empty((2, m, n))
        self.held = 0
        self.best = math.inf

    def next_input(self, u, g):
        m = self.hist.shape[1]
        if m == 0:
            return None
        f = np.subtract(g, u, out=u)
        norm = float(f.max()) - float(f.min())
        out = None
        if norm > self.best:
            self.held = 0
        else:
            self.best = norm
            if self.held and norm >= EPS * max(float(g.max()), -float(g.min())):
                k = min(self.held, m)
                D = np.empty((k, f.size))
                for j in range(k):
                    np.subtract(f, self.hist[0, j], out=D[j])
                gamma = fit(D, f)
                if gamma is not None:
                    for j in range(k):
                        np.subtract(g, self.hist[1, j], out=D[j])
                    out = np.dot(gamma, D)
                    np.subtract(g, out, out=out)
                else:
                    self.held = 0
        self.hist[0, self.held % m] = f
        self.hist[1, self.held % m] = g
        self.held += 1
        return out


def omega_map(ratio1, kernel, marginals) -> np.ndarray:
    """Omega from omega1 / H (ratio1): G, the fit omega2 / G, its integral."""
    with np.errstate(over="ignore", under="ignore"):
        G = kernel.apply_T(ratio1)
        ratio2 = marginals.omega2.over(
            G, "inner integral G",
            "omega2 > 0 (kernel columns lack support against omega1)")
        del G
        return kernel.apply(ratio2)


def hilbert_step(a, b, mask) -> float:
    """log(max / min) of a / b over the nodes of mask where both are
    positive and finite (inf if there are none)."""
    m = mask & (a > 0) & (b > 0) & np.isfinite(a) & np.isfinite(b)
    if not m.any():
        return math.inf
    r = a[m] / b[m]
    return float(np.log(r.max() / r.min()))


def step_record(ratio1, H_prime, prev, mask, kernel, case1_candidate, mass2,
                scale=1.0) -> Dict[str, float]:
    t = np.multiply(kernel.grid1.weights, ratio1, out=ratio1)
    t *= H_prime * scale
    normalization = float(np.sum(t))
    diag = {
        "sup_change": math.nan,
        "hilbert_step": math.nan,
        "normalization_residual": abs(normalization - mass2),
        "case1_candidate": case1_candidate,
    }
    if prev is not None:
        t = np.subtract(H_prime, prev, out=t)
        diag["sup_change"] = float(np.max(np.abs(t, out=t)))
        diag["hilbert_step"] = hilbert_step(H_prime, prev, mask)
    return diag


@np.errstate(over="ignore", under="ignore")
def closing_iteration(start: List[np.ndarray], kernel, marginals, tol: float,
                      mass2: float, steps: StepLog) -> np.ndarray:
    om1, A = marginals.omega1.values, marginals.omega1.support
    mixer = AndersonMixer(ANDERSON_M, int(np.count_nonzero(A)))
    K0 = start.pop()
    K = np.maximum(K0 / support_sup(K0, A, steps), FLOOR_FREEZE)
    del K0
    for _ in range(REFINE_MAX):
        ratio1 = support_ratio(om1, K, A)
        Kn = omega_map(ratio1, kernel, marginals)
        s = support_sup(Kn, A, steps)
        Kn /= s
        conv_mask = A & (Kn > 10.0 * FLOOR_FREEZE) & (K > 10.0 * FLOOR_FREEZE)
        d = step_record(ratio1, Kn, K, conv_mask, kernel, False, mass2, s)
        steps.append(d["sup_change"], d["normalization_residual"], d["hilbert_step"])
        if d["hilbert_step"] < tol:
            return Kn
        u = np.log(K[A])
        K = np.maximum(Kn, FLOOR_FREEZE)
        u = mixer.next_input(u, np.log(K[A]))
        if u is not None:
            top = float(u.max())
            if not math.isfinite(top):
                raise NonConvergenceError("extrapolated iterate is NaN or inf "
                                          "on the omega1 support", steps)
            u -= top
            K[A] = np.maximum(np.exp(u, out=u), FLOOR_FREEZE, out=u)
    raise NonConvergenceError(
        f"closing iteration did not stabilize within {REFINE_MAX} steps", steps)
