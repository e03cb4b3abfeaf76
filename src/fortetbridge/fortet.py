"""Fortet's fixed-point iteration for the reduced Schrodinger system.

The system to solve is

    phi(x) * Int g(x,y) psi(y) dy = omega1(x)
    psi(y) * Int g(x,y) phi(x) dx = omega2(y)

which reduces, through h = omega1/phi, to the scalar fixed-point equation
h = Omega(h) with

    Omega(h)(x) = Int g(x,y) omega2(y) / G(h, y) dy,
    G(h, y)     = Int g(z,y) omega1(z) / h(z) dz.

The truncated scheme iterates H_n = max(H''_{n-1}, 1/n), H'_n = Omega(H_n),
H''_n = min(1, H'_n) starting from H_1 = 1.  Two regimes terminate it:

* case 1 - at some finite n0 the iterate satisfies H'_{n0} <= 1 everywhere
  on the support of omega1; the limit is then reached by dropping the 1/n
  floor to FLOOR_FREEZE and iterating the plain map to stationarity.
* case 2 - the iterate's sup stays above 1 but the underlying ray
  converges.  The scheme's own scale creep from the min(1, .) cap decays
  only algebraically, so no pointwise-change threshold can fire in
  reasonable time; instead we detect ray convergence with the
  scale-invariant Hilbert step, then close with the same plain-map
  iteration projected to sup = 1 on the support of omega1 (the scale the
  capped scheme approaches).  The closing iterates are genuine fixed
  points to machine precision, which the returned residuals certify.

The published argument proves convergence of the truncated scheme but gives
no stopping rule; the ray-convergence exit used here is an implementation
decision, recorded in the package docs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import bridge
from .errors import (FeasibilityError, FortetBridgeError, KernelSupportError,
                     NonConvergenceError)
from .problem import KernelOperator, MarginalPair, full_report

#: every closing step floors its iterate here; true fixed-point values
#: beneath it are not representable in float64 anyway (the iterate sits on
#: the floor there, and the convergence mask ignores those nodes)
FLOOR_FREEZE = 1e-300
#: the scheme hands over in case 1 once H' <= 1 + CASE1_EPS on the omega1
#: support and in case 2 once its Hilbert step is below RAY_TOL; a sup below
#: DEGENERATE_EPS is degenerate; the closing phase gets REFINE_MAX steps
CASE1_EPS = 1e-12
DEGENERATE_EPS = 1e-13
RAY_TOL = 1e-2
REFINE_MAX = 5000
#: verify_uniqueness reads the ray constants on the nodes where the
#: marginal exceeds this
SUPPORT_THRESHOLD = 1e-12


@dataclass(frozen=True)
class FortetOptions:
    tol: float = 1e-10
    max_iter: int = 10000
    force: bool = False


@dataclass(frozen=True)
class StepRecord:
    """One row of a run's step record: the scalars trace.csv writes for a
    step of either phase.  A run keeps one row per step and no arrays."""

    n: int
    phase: str                     # "scheme" | "closing"
    diagnostics: Dict[str, float]


@dataclass(frozen=True)
class IterationState:
    """One step of the truncated scheme with its arrays, as fortet_step
    returns it; run_fortet keeps only the row of each step.  H_dprime =
    min(1, H_prime) and J_mask = (H_prime > 1) are derived on read."""

    n: int
    H: np.ndarray
    H_prime: np.ndarray
    diagnostics: Dict[str, float]

    def __post_init__(self):
        self.H.setflags(write=False)
        self.H_prime.setflags(write=False)

    @property
    def H_dprime(self) -> np.ndarray:
        return np.minimum(1.0, self.H_prime)

    @property
    def J_mask(self) -> np.ndarray:
        return self.H_prime > 1.0


@dataclass(frozen=True)
class FortetSolution:
    """A tagged solution.  The potentials are held by the coupling pi =
    phi g psi, whose marginal integrals certify the system; a degenerate
    solution has no coupling, and its potentials and residuals read None
    and NaN.  steps holds one StepRecord per step of both phases."""

    h: Optional[np.ndarray]
    case_tag: str                       # "case1" | "case2" | "degenerate"
    trigger_iteration: int              # scheme iteration where the case fired
    iterations: int                     # scheme iterations run (= trigger)
    refine_steps: int                   # closing-phase steps after the trigger
    coupling: Optional[bridge.Coupling]
    warnings: Tuple[str, ...] = ()
    steps: Tuple[StepRecord, ...] = ()
    #: always empty: a run keeps no per-step arrays.  Kept while the
    #: benchmark's tracer sizes the arrays held here (fortet.trace_mb, which
    #: reads 0.0); it goes with the benchmark change that stops reading it
    trace: Tuple[IterationState, ...] = ()

    def __post_init__(self):
        for name in ("h", "phi", "psi"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    @property
    def phi(self) -> Optional[np.ndarray]:
        return None if self.coupling is None else self.coupling.phi

    @property
    def psi(self) -> Optional[np.ndarray]:
        return None if self.coupling is None else self.coupling.psi

    @property
    def residuals(self) -> Dict[str, float]:
        """Sup-norm residuals of the two marginal equations (the coupling's
        row and column residuals) and |mass - Int omega1|."""
        c = self.coupling
        if c is None:
            return dict.fromkeys(("s1_resid", "s2_resid", "marginal_resid"), math.nan)
        mass1 = float(np.sum(c.grid1.weights * c.marginals.omega1.values))
        return {"s1_resid": c.row_marginal_resid, "s2_resid": c.col_marginal_resid,
                "marginal_resid": abs(c.mass - mass1)}


def _masked_hilbert_step(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> float:
    m = mask & (a > 0) & (b > 0) & np.isfinite(a) & np.isfinite(b)
    if not m.any():
        return math.inf
    r = a[m] / b[m]
    return float(np.log(r.max() / r.min()))


def omega_map(H, kernel: KernelOperator, marginals: MarginalPair):
    """One application of the fixed-point map; returns (H_prime, G_of_H).

    G is computed first for every y-node and reused; nodes where omega1 = 0
    contribute nothing to G no matter what H holds there, and nodes where
    omega2 = 0 contribute nothing to H_prime.
    """
    Hv = np.asarray(H, dtype=float)
    om1 = marginals.omega1.values
    om2 = marginals.omega2.values
    A = om1 > 0
    if np.any(Hv[A] <= 0):
        raise FortetBridgeError("omega_map needs H > 0 wherever omega1 > 0")
    with np.errstate(over="ignore", under="ignore"):
        ratio1 = np.where(A, om1 / Hv, 0.0)
        G = kernel.apply_T(ratio1)
        bad = (G == 0) & (om2 > 0)
        if np.any(bad):
            nodes = [int(j) for j in np.flatnonzero(bad)[:8]]
            raise KernelSupportError(
                f"inner integral G vanished at nodes {nodes} where omega2 > 0 "
                "(kernel columns lack support against omega1)")
        ratio2 = np.where(om2 > 0, om2 / np.where(G > 0, G, 1.0), 0.0)
        H_prime = kernel.apply(ratio2)
    return H_prime, G


def _step_record(H: np.ndarray, H_prime: np.ndarray,
                 prev: Optional[np.ndarray], mask: np.ndarray,
                 kernel: KernelOperator, marginals: MarginalPair,
                 case1_candidate: bool, scale: float = 1.0) -> Dict[str, float]:
    """The diagnostics of one step of either phase.

    prev is the previous H_prime (None on the first scheme step) and mask
    the nodes the Hilbert step is taken over.  scale is what the closing
    phase divided Omega(H) by; the normalization residual
    |Int (omega1/H) Omega(H) - mass2| is taken on H_prime * scale.
    """
    om1 = marginals.omega1.values
    with np.errstate(over="ignore", under="ignore"):
        ratio1 = np.where(om1 > 0, om1 / H, 0.0)
    normalization = float(np.sum((kernel.grid1.weights * ratio1) * (H_prime * scale)))
    mass2 = float(np.sum(kernel.grid2.weights * marginals.omega2.values))
    diag = {
        "sup_change": math.nan,
        "hilbert_step": math.nan,
        "normalization_residual": abs(normalization - mass2),
        "case1_candidate": case1_candidate,
    }
    if prev is not None:
        diag["sup_change"] = float(np.max(np.abs(H_prime - prev)))
        diag["hilbert_step"] = _masked_hilbert_step(H_prime, prev, mask)
    return diag


def fortet_step(state: Optional[IterationState], kernel: KernelOperator,
                marginals: MarginalPair) -> IterationState:
    """Advance the truncated scheme by one iteration (state None -> n = 1)."""
    A = marginals.omega1.values > 0
    if state is None:
        n, prev = 1, None
        H = np.ones(kernel.grid1.n_nodes)
    else:
        n, prev = state.n + 1, state.H_prime
        H = np.maximum(state.H_dprime, 1.0 / n)
    H_prime, _ = omega_map(H, kernel, marginals)
    return IterationState(n, H, H_prime, _step_record(
        H, H_prime, prev, A, kernel, marginals,
        bool(np.all(H_prime[A] <= 1.0 + CASE1_EPS))))


def _support_sup(K: np.ndarray, A: np.ndarray, steps: List[StepRecord]) -> float:
    s = float(K[A].max())
    if s <= 0:
        raise NonConvergenceError("iterate collapsed to zero on the omega1 support",
                                  steps)
    return s


def _closing_iteration(K0: np.ndarray, kernel: KernelOperator, marginals: MarginalPair,
                       tol: float, n0: int, normalize: bool,
                       steps: List[StepRecord]) -> Tuple[np.ndarray, int]:
    """Plain fixed-point iteration from K0, each step floored at FLOOR_FREEZE.

    In the ray-converged regime the iterate is additionally rescaled to
    sup = 1 over the omega1 support each step.  Convergence is judged by
    the Hilbert step over nodes clearly above the floor: nodes pinned at
    the floor hold values below float range in exact arithmetic and never
    stabilize bitwise.
    """
    A = marginals.omega1.values > 0
    K = K0 / _support_sup(K0, A, steps) if normalize else K0
    for r in range(1, REFINE_MAX + 1):
        Kf = np.maximum(K, FLOOR_FREEZE)
        image, _ = omega_map(Kf, kernel, marginals)
        s = _support_sup(image, A, steps) if normalize else 1.0
        Kn = image / s
        conv_mask = A & (Kn > 10.0 * FLOOR_FREEZE) & (K > 10.0 * FLOOR_FREEZE)
        d = _step_record(Kf, Kn, K, conv_mask, kernel, marginals, False, s)
        steps.append(StepRecord(n0 + r, "closing", d))
        K = Kn
        if (d["hilbert_step"] if normalize else d["sup_change"]) < tol:
            return K, r
    raise NonConvergenceError(
        f"closing iteration did not stabilize within {REFINE_MAX} steps", steps)


def run_fortet(kernel: KernelOperator, marginals: MarginalPair,
               opts: FortetOptions = FortetOptions()) -> FortetSolution:
    """Run the truncated scheme to a tagged solution.

    Refuses instances whose feasibility report fails hard checks or whose
    integrability estimate looks divergent, unless opts.force is set.  One
    StepRecord per step is attached to the solution (and to the
    NonConvergenceError when the iteration cap is hit); a step's arrays are
    dropped once the next step exists.
    """
    if not opts.force:
        report = full_report(kernel, marginals)
        failed = [k for k, v in report.hypotheses.items() if not v.ok]
        if failed:
            raise FeasibilityError(f"hypothesis checks failed: {', '.join(failed)} "
                                   "(pass force=True to run anyway)")
        if report.condition_star is not None \
                and report.condition_star.verdict != "finite":
            hint = "; swapping the marginals looks feasible" if report.swap_recommended else ""
            raise FeasibilityError("integrability estimate is suspected-divergent"
                                   + hint + " (pass force=True to run anyway)")

    A = marginals.omega1.values > 0
    if not A.any():
        raise FeasibilityError("omega1 has empty support")

    steps: List[StepRecord] = []
    state: Optional[IterationState] = None
    mode = None
    for n in range(1, opts.max_iter + 1):
        state = fortet_step(state, kernel, marginals)
        steps.append(StepRecord(n, "scheme", state.diagnostics))
        if float(state.H_prime.max()) < DEGENERATE_EPS:
            return _finish_degenerate(state, steps)
        d = state.diagnostics
        if d["case1_candidate"]:
            mode, n0 = "case1", n
            break
        if n >= 2 and (d["hilbert_step"] < RAY_TOL or d["sup_change"] < opts.tol):
            mode, n0 = "case2", n
            break
    if mode is None:
        raise NonConvergenceError(
            f"no termination case triggered within max_iter={opts.max_iter}", steps)

    K, refine_steps = _closing_iteration(state.H_prime, kernel, marginals, opts.tol,
                                         n0, normalize=(mode == "case2"), steps=steps)
    over = float(K.max()) - 1.0
    warnings = [f"fixed point exceeded 1 by {over:.3g} before clamping "
                "(outside the omega1 support)"] if over > CASE1_EPS else []
    h = np.minimum(K, 1.0)
    phi, psi, extract_warn = _extract_with_warnings(h, kernel, marginals)
    return FortetSolution(h=h, case_tag=mode, trigger_iteration=n0,
                          iterations=n0, refine_steps=refine_steps,
                          coupling=bridge.build_coupling(phi, psi, kernel, marginals),
                          warnings=tuple(warnings + extract_warn), steps=tuple(steps))


def _finish_degenerate(state: IterationState, steps: List[StepRecord]) -> FortetSolution:
    return FortetSolution(h=state.H_prime, case_tag="degenerate",
                          trigger_iteration=state.n, iterations=state.n,
                          refine_steps=0, coupling=None,
                          warnings=("iterate collapsed below the degeneracy "
                                    "threshold; no potentials extracted",),
                          steps=tuple(steps))


def _extract_with_warnings(h: np.ndarray, kernel: KernelOperator,
                           marginals: MarginalPair):
    om1 = marginals.omega1.values
    om2 = marginals.omega2.values
    A = om1 > 0
    with np.errstate(over="ignore", under="ignore"):
        raw = np.where(A & (h > 0), om1 / np.where(h > 0, h, 1.0), 0.0)
    # h can underflow to 0 (or to a denormal whose reciprocal overflows) when
    # the true potential exceeds float64 range; those nodes are dropped
    usable = np.isfinite(raw)
    phi = np.where(usable, raw, 0.0)
    dropped = int(np.sum(A & ~(usable & (h > 0))))
    warnings = [f"potential phi set to 0 at {dropped} support nodes where h "
                "underflowed; residuals there are meaningless"] if dropped else []
    G = kernel.apply_T(phi)
    bad = (G == 0) & (om2 > 0)
    if np.any(bad):
        nodes = [int(j) for j in np.flatnonzero(bad)[:8]]
        raise KernelSupportError(
            f"integral of g*phi vanished at nodes {nodes} where omega2 > 0")
    psi = np.where(om2 > 0, om2 / np.where(G > 0, G, 1.0), 0.0)
    return phi, psi, warnings


def extract_potentials(h, kernel: KernelOperator,
                       marginals: MarginalPair) -> Tuple[np.ndarray, np.ndarray]:
    """(phi, psi): phi = omega1/h on the omega1 support (0 off it), psi =
    omega2 / (g*phi).

    Raises KernelSupportError when the psi denominator vanishes against a
    positive omega2 node.
    """
    hv = np.asarray(h, dtype=float)
    A = marginals.omega1.values > 0
    if np.any(hv[A] <= 0):
        raise FortetBridgeError("extract_potentials needs h > 0 on the omega1 support")
    phi, psi, _ = _extract_with_warnings(hv, kernel, marginals)
    return phi, psi


def verify_system(phi, psi, kernel: KernelOperator, marginals: MarginalPair) -> Dict[str, float]:
    """Sup-norm residuals of the two marginal equations; pure check."""
    c = bridge.Coupling(phi, psi, kernel, marginals)
    return {"s1_resid": c.row_marginal_resid, "s2_resid": c.col_marginal_resid}


@dataclass(frozen=True)
class UniquenessReport:
    ratio_spread_phi: float
    ratio_spread_psi: float
    c_phi: float
    c_psi: float
    consistent: bool


def _ray_ratio(num: np.ndarray, den: np.ndarray) -> Tuple[float, float]:
    """Median l_med of l = log num - log den and the spread
    exp(l_max - l_med) - exp(l_min - l_med), i.e. (max - min)/median of
    num/den read without overflow.  A node where the ratio is 0, inf or NaN
    reads no ray constant: it makes the spread inf and is left out of the
    median (inf if no node is left)."""
    with np.errstate(all="ignore"):
        l = np.log(num) - np.log(den)
        ok = np.isfinite(l)
        if not ok.all():
            return (float(np.median(l[ok])) if ok.any() else math.inf), math.inf
        med = float(np.median(l))
        return med, float(np.exp(l.max() - med) - np.exp(l.min() - med))


def verify_uniqueness(solution_a, solution_b, marginals: MarginalPair,
                      tol: float = 1e-8) -> UniquenessReport:
    """Compare two solutions of the same problem up to the ray rescaling.

    Solutions agree up to (phi, psi) -> (c*phi, psi/c), so phi_a/phi_b must
    be one constant on the omega1 support and psi_b/psi_a the same constant
    on the omega2 support; spreads are (max - min)/median of those ratios.
    Ratios are read as log differences, so c_phi and c_psi may read inf.
    """
    phi_a, psi_a = solution_a.phi, solution_a.psi
    phi_b, psi_b = solution_b.phi, solution_b.psi
    m1 = marginals.omega1.values > SUPPORT_THRESHOLD
    m2 = marginals.omega2.values > SUPPORT_THRESHOLD
    l_phi, spread_phi = _ray_ratio(phi_a[m1], phi_b[m1])
    l_psi, spread_psi = _ray_ratio(psi_b[m2], psi_a[m2])
    with np.errstate(all="ignore"):
        consistent = bool(spread_phi < tol and spread_psi < tol
                          and abs(np.expm1(l_phi - l_psi)) < tol)
        c_phi, c_psi = float(np.exp(l_phi)), float(np.exp(l_psi))
    return UniquenessReport(spread_phi, spread_psi, c_phi, c_psi, consistent)
