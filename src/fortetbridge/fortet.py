"""Fortet's fixed-point iteration for the reduced Schrodinger system.

The system to solve is

    phi(x) * Int g(x,y) psi(y) dy = omega1(x)
    psi(y) * Int g(x,y) phi(x) dx = omega2(y)

which reduces, through h = omega1/phi, to the scalar fixed-point equation
h = Omega(h) with

    Omega(h)(x) = Int g(x,y) omega2(y) / G(h, y) dy,
    G(h, y)     = Int g(z,y) omega1(z) / h(z) dz.

The truncated scheme (fortet_step) iterates H_n = max(H''_{n-1}, 1/n),
H'_n = Omega(H_n), H''_n = min(1, H'_n) starting from H_1 = 1.  Two regimes
terminate it:

* case 1 - at some finite n0 the iterate satisfies H'_{n0} <= 1 everywhere
  on the support of omega1.
* case 2 - the iterate's sup stays above 1 but the underlying ray
  converges.  The scheme's own scale creep from the min(1, .) cap decays
  geometrically (~0.984 a step on the 1-D Gaussian benchmark, under a
  floor max(2^-n, 1e-300)), but the 1/n floor holds every node where h <
  1/n on the floor and sets an algebraic rate: on {h > 0.1} the scheme's
  gap to h falls about as n^-0.7.  So no pointwise-change threshold can
  fire in reasonable time.

run_fortet takes the scheme's first image H'_1 = Omega(1) and hands over
at n = 1: in case 1 if H'_1 <= 1 + CASE1_EPS on the omega1 support, in
case 2 otherwise.  Both cases close the same way: the 1/n floor drops to
FLOOR_FREEZE and the map is iterated from H'_1 on the ray through sup = 1
over the omega1 support (the scale the capped scheme approaches) until its
Hilbert step is below tol.  Omega is positively homogeneous, so every point
of a fixed ray solves the system.  In case 1 the sup-1 point is also the
unscaled limit to rounding: Int (omega1 / H) Omega(H) = Int omega2 for
every H, so for unit-mass marginals the omega1-weighted mean of Omega(1) is
1, and sup_A Omega(1) lies in [1, 1 + CASE1_EPS]; the rescale moves h by at
most 1e-12 relative.

The scheme's later steps feed the closing nothing.  From n = 2 on its
Hilbert step is only the 1/n floor moving, which most of the omega1 support
sits on: 1/2 <= H_2 <= 1 = H_1 and Omega does not expand the Hilbert metric
(Birkhoff-Hopf), so d_H(H'_2, H'_1) <= log 2, and about log(n/(n-1)) after
that.  Nor is H'_2 a better start: H_2 = max(min(1, H'_1), 1/2) has two
kinks, where the cap and the floor take hold, while Omega(1) is as smooth
as the kernel, and the closing's Anderson step, which fits the error from
its last two differences, takes 8 steps from H'_1 on the 1-D and 2-D
Gaussian benchmark instances against 17 and 20 from H'_2.

The closing phase accelerates the map with a safeguarded Anderson step on
log h (Walker & Ni, SIAM J. Numer. Anal. 2011).  Every closing step still
applies the map once, and the phase returns the image of its last input, so
the closing iterates are genuine fixed points to machine precision, which
the returned residuals certify.

The published argument proves convergence of the truncated scheme but gives
no stopping rule; the hand-over at n = 1 used here is an implementation
decision, recorded in the package docs.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import bridge
from .errors import FeasibilityError, FortetBridgeError, NonConvergenceError
from .problem import KernelOperator, MarginalPair, full_report
from .quadrature import Frozen

#: every closing step floors its iterate here; true fixed-point values
#: beneath it are not representable in float64 anyway (the iterate sits on
#: the floor there, and the convergence mask ignores those nodes)
FLOOR_FREEZE = 1e-300
#: the scheme hands over at n = 1, in case 1 if H'_1 <= 1 + CASE1_EPS on the
#: omega1 support and in case 2 otherwise (module docstring); a sup below
#: DEGENERATE_EPS is degenerate; the closing phase gets REFINE_MAX steps
CASE1_EPS = 1e-12
DEGENERATE_EPS = 1e-13
REFINE_MAX = 5000
#: the closing phase stops once its step is below max(tol / 10,
#: CLOSING_TOL_FLOOR): tol / 10 keeps the residual of a solve that hands
#: over early below that of the full scheme, and float64 rounding keeps the
#: step from falling reliably below ~1e-16, so a tol below 1e-14 stops at
#: the floor instead of running to REFINE_MAX
CLOSING_TOL_FLOOR = 1e-15
#: history depth of the closing phase's Anderson step (0: the plain map),
#: at most 2, whose normal equations _fit solves in closed form.  Each step
#: held costs two support-sized arrays, and the 41 x 41 solve peaks in the
#: closing phase, ~0.02 MB above its artifact writing
ANDERSON_M = 2
#: verify_uniqueness reads the ray constants on the nodes where the
#: marginal exceeds this
SUPPORT_THRESHOLD = 1e-12
#: float64's machine epsilon, the relative rounding of a log-iterate
EPS = float(np.finfo(float).eps)


class FortetOptions(NamedTuple):
    """Solver options, a NamedTuple: opts._replace(force=True) is a copy
    with force set, and FortetOptions._field_defaults the defaults."""

    tol: float = 1e-10
    max_iter: int = 10000
    force: bool = False


class StepLog(Frozen):
    """A run's step record in columns: one row per step of both phases,
    what trace.csv writes, and no arrays of the iterate.  Row i is step n =
    i + 1; row 0 is the scheme's one step, the rest the closing's.  COLUMNS
    are float64 (NaN where the scheme step has no previous image) and
    column reads one; case1_candidate is the scheme step's flag, given at
    construction, since a closing row's is False.  The rows fill one
    float64 block, 24 bytes a step, that doubles when full.  Attributes are
    not assigned: rows are appended, by the run that owns the log."""

    COLUMNS = ("sup_change", "normalization_residual", "hilbert_step")

    def __init__(self, case1_candidate: bool):
        vars(self).update(_block=np.empty(3 * 16), _rows=0,
                          case1_candidate=bool(case1_candidate))

    def __len__(self) -> int:
        return self._rows

    def column(self, name: str) -> np.ndarray:
        """The rows of column name, a read-only view of the block."""
        k = self.COLUMNS.index(name)
        view = self._block[k:3 * self._rows:3]
        view.flags.writeable = False
        return view

    def append(self, sup_change: float, normalization_residual: float,
               hilbert_step: float) -> None:
        """Add the next step's row."""
        state = vars(self)
        block, i = state["_block"], state["_rows"]
        j = 3 * i
        if j == block.size:
            state["_block"] = block = np.concatenate((block, np.empty_like(block)))
        # row-major, so that a row is three stores at int indices
        block[j] = sup_change
        block[j + 1] = normalization_residual
        block[j + 2] = hilbert_step
        state["_rows"] = i + 1


class IterationState(Frozen):
    """One step of the truncated scheme with its arrays, as fortet_step
    returns it; run_fortet keeps only the row of each step.  H_dprime =
    min(1, H_prime) and J_mask = (H_prime > 1) are derived on read."""

    def __init__(self, n: int, H: np.ndarray, H_prime: np.ndarray,
                 diagnostics: Dict[str, float]):
        H.setflags(write=False)
        H_prime.setflags(write=False)
        vars(self).update(n=n, H=H, H_prime=H_prime, diagnostics=diagnostics)

    @property
    def H_dprime(self) -> np.ndarray:
        return np.minimum(1.0, self.H_prime)

    @property
    def J_mask(self) -> np.ndarray:
        return self.H_prime > 1.0


class FortetSolution(Frozen):
    """A tagged solution.  The potentials are held by the coupling pi =
    phi g psi, whose marginal integrals certify the system; a degenerate
    solution has no coupling, and its potentials and residuals read None
    and NaN.  case_tag is "case1", "case2" or "degenerate".  steps is the
    run's StepLog, one row per step of both phases: iterations, a class
    attribute, counts its one scheme row and refine_steps the rest.  trace,
    a class attribute too, is always empty: a run keeps no per-step arrays.
    Only the benchmark's tracer (bench/tracing.py) reads it, for
    fortet.trace_mb (0.0), until the benchmark stops reading it."""

    trace: Tuple[IterationState, ...] = ()
    #: scheme steps run: 1, the step n = 1 whose image decides the case and
    #: starts the closing (module docstring); it is row 0 of steps
    iterations: int = 1

    def __init__(self, h: Optional[np.ndarray], case_tag: str,
                 coupling: Optional[bridge.Coupling], warnings: Tuple[str, ...],
                 steps: StepLog):
        if h is not None:
            h.setflags(write=False)
        vars(self).update(h=h, case_tag=case_tag, coupling=coupling, warnings=warnings,
                          steps=steps)

    @property
    def refine_steps(self) -> int:
        """Closing-phase steps after the scheme."""
        return len(self.steps) - self.iterations

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
        return {"s1_resid": c.row_marginal_resid, "s2_resid": c.col_marginal_resid,
                "marginal_resid": abs(c.mass - c.marginals.omega1.mass())}


def _top(x: np.ndarray) -> float:
    """x.max(), read at x.argmax(): the same entry (NaN if x holds one),
    from the search loop, ~3x faster than the reduction on a few hundred
    nodes.  Of a 0.0 and a -0.0 tied at the top it may pick the other; no
    caller tells them apart."""
    return float(x[x.argmax()])


def _bottom(x: np.ndarray) -> float:
    """x.min() as _top reads x.max()."""
    return float(x[x.argmin()])


def _support_ratio(num: np.ndarray, den: np.ndarray, support: np.ndarray) -> np.ndarray:
    """num / den on support and 0 off it; den is not divided by off it."""
    return np.divide(num, den, out=np.zeros(num.shape), where=support)


def omega_map(H, kernel: KernelOperator, marginals: MarginalPair,
              ratio1: Optional[np.ndarray] = None) -> np.ndarray:
    """One application of the fixed-point map, H_prime = Omega(H): the
    column fit omega2 / G of G = Int g omega1 / H, then its row integral.

    G is computed first for every y-node and freed before the outer
    integral; nodes where omega1 = 0 contribute nothing to G no matter what
    H holds there, and nodes where omega2 = 0 contribute nothing to
    H_prime.  ratio1 is omega1 / H on the omega1 support and 0 off it
    (_support_ratio); a caller that records the step forms it once, from an
    H it keeps positive there, and passes it here, inside its own
    np.errstate(over="ignore", under="ignore").  Without ratio1, H must be
    positive wherever omega1 is, which is checked, and the map enters that
    errstate itself.

    omega2 / G reaches 4.9e-324 where G is large (62-66 subnormal entries
    per map on the criterion-2 post-swap instance); KernelOperator.apply
    takes it at a power-of-two scale 2^k and scales the image back exactly
    with np.ldexp, so no subnormal operand enters the outer integral's
    products, and the image is bitwise the unscaled one wherever that
    formed no subnormal intermediate.
    """
    if ratio1 is None:
        Hv = np.asarray(H, dtype=float)
        omega1 = marginals.omega1
        if not (Hv[omega1.support] > 0).all():
            raise FortetBridgeError("omega_map needs H > 0 wherever omega1 > 0")
        with np.errstate(over="ignore", under="ignore"):
            return omega_map(H, kernel, marginals,
                             _support_ratio(omega1.values, Hv, omega1.support))
    G = kernel.apply_T(ratio1)
    ratio2 = marginals.omega2.over(
        G, "inner integral G",
        "omega2 > 0 (kernel columns lack support against omega1)", out=G)
    del G
    return kernel.apply(ratio2)


def _hilbert_step(a: np.ndarray, b: np.ndarray, mask: np.ndarray,
                  out: np.ndarray) -> float:
    """log(max / min) of a / b over the nodes of mask where both are positive
    and finite (inf if there are none).  The quotient is taken at every node,
    into out, under the caller's np.errstate, and read on mask; the nodes are
    filtered first only where a read quotient is 0, inf or NaN or a read
    entry of a is not positive (two negative entries have a positive one)."""
    q = np.divide(a, b, out=out)[mask]
    if q.size:
        lo, hi = _bottom(q), _top(q)
        if lo > 0 and hi < math.inf and _bottom(a[mask]) > 0:
            return float(np.log(hi / lo))
    a, b = a[mask], b[mask]
    m = (a > 0) & (b > 0) & np.isfinite(a) & np.isfinite(b)
    if not m.any():
        return math.inf
    r = np.divide(a[m], b[m])
    return float(np.log(r.max() / r.min()))


def _step_row(ratio1: np.ndarray, image: np.ndarray, s: float,
              prev: Optional[np.ndarray], mask: np.ndarray, kernel: KernelOperator,
              mass2: float) -> Tuple[float, float, float]:
    """The row of one step of either phase, H -> image = Omega(H) / s, in
    StepLog.COLUMNS order: the sup change of image against prev, the
    normalization residual |Int (omega1/H) image s - mass2|, and the Hilbert
    step of image against prev over mask (_hilbert_step).  ratio1 is omega1
    / H as the map read it; it is overwritten.  prev is None on the
    scheme's first step, whose two comparisons read NaN.  Both phases call
    it under an np.errstate that ignores invalid too: an image that is inf
    off the support (0 * inf, inf - inf, inf / inf) gives NaNs, which the
    residual and the sup change read and the Hilbert step reads only on mask.
    """
    t = np.multiply(kernel.grid1.weights, ratio1, out=ratio1)
    t *= image * s
    residual = abs(float(t.sum()) - mass2)
    if prev is None:
        return math.nan, residual, math.nan
    t = np.subtract(image, prev, out=t)
    return _top(np.abs(t, out=t)), residual, _hilbert_step(image, prev, mask, t)


def fortet_step(state: Optional[IterationState], kernel: KernelOperator,
                marginals: MarginalPair,
                mass2: Optional[float] = None) -> IterationState:
    """Advance the truncated scheme by one iteration (state None -> n = 1).
    mass2 is Int omega2, the value Int (omega1/H) Omega(H) takes for any H;
    it is computed here when not given.  The diagnostics are the step's row
    (_step_row at scale 1, over the omega1 support), keyed by StepLog.COLUMNS,
    and its case1_candidate flag."""
    om1, A = marginals.omega1.values, marginals.omega1.support
    if mass2 is None:
        mass2 = marginals.omega2.mass()
    if state is None:
        n, prev = 1, None
        H = np.ones(kernel.grid1.n_nodes)
    else:
        n, prev = state.n + 1, state.H_prime
        H = np.maximum(state.H_dprime, 1.0 / n)
    # the row's quotient is taken at every node, and may leave float range
    # or, against an image that is inf off the support, read NaN (_step_row)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ratio1 = _support_ratio(om1, H, A)
        H_prime = omega_map(H, kernel, marginals, ratio1=ratio1)
        case1 = bool((H_prime[A] <= 1.0 + CASE1_EPS).all())
        row = _step_row(ratio1, H_prime, 1.0, prev, A, kernel, mass2)
    return IterationState(n, H, H_prime,
                          dict(zip(StepLog.COLUMNS, row), case1_candidate=case1))


def _support_sup(K: np.ndarray, A, log: StepLog) -> float:
    """max K over the omega1 support, indexed by A (a mask or slice(None));
    raises unless it is positive, which a NaN there also fails."""
    s = _top(K[A])
    if not s > 0:
        raise NonConvergenceError("iterate collapsed to zero or NaN on the omega1 "
                                  "support", log)
    return s


class _AndersonMixer:
    """Safeguarded Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 2011)
    for a fixed-point map u -> G(u) on R^n, from the last m steps since the
    history was last cleared."""

    def __init__(self, m: int, n: int):
        # f = G(u) - u and g = G(u) of the history's step j, in row j mod m
        self.hist = np.empty((2, m, n))
        self.held = 0
        self.best = math.inf

    def next_input(self, u: np.ndarray, g: np.ndarray) -> Optional[np.ndarray]:
        """The input after u, whose image is g: the extrapolation g -
        sum_j gamma_j (g - g_j), with gamma the least-squares fit of the
        residual f = g - u by the differences f - f_j over the history
        (_fit).  f is formed in u's buffer, and the extrapolation in f's once
        the history holds f: it takes no array of its own.  None asks for the
        plain input g: with no history, a singular or non-finite fit, a
        residual whose Hilbert norm max - min of f exceeds the least seen so
        far, which also clears the history, or one below eps * max|g|, where
        the fit would read only the rounding of g."""
        m = self.hist.shape[1]
        if m == 0:
            return None
        f = np.subtract(g, u, out=u)
        norm = _top(f) - _bottom(f)
        gamma = None
        if norm > self.best:
            self.held = 0
        else:
            self.best = norm
            if self.held and norm >= EPS * max(_top(g), -_bottom(g)):
                k = min(self.held, m)
                # row by row: broadcast over all k rows at once, numpy
                # allocates ufunc buffers the size of D beside it
                D = np.empty((k, f.size))
                for j in range(k):
                    np.subtract(f, self.hist[0, j], out=D[j])
                gamma = _fit(D, f)
                if gamma is not None:
                    for j in range(k):
                        np.subtract(g, self.hist[1, j], out=D[j])
                else:
                    self.held = 0
        # D has read the history, so the slot held % m is spent: it takes f
        # and g, and f's buffer is free for the extrapolation
        self.hist[0, self.held % m] = f
        self.hist[1, self.held % m] = g
        self.held += 1
        if gamma is None:
            return None
        np.dot(gamma, D, out=f)
        return np.subtract(g, f, out=f)


def _fit(D: np.ndarray, f: np.ndarray) -> Optional[List[float]]:
    """gamma minimizing |f - sum_j gamma_j D_j| over the k <= 2 rows D_j of
    D, or None if the normal equations are singular or gamma is not finite.
    They are solved in closed form, without np.linalg.solve's ~9 us a call."""
    M, r = (D @ D.T).tolist(), (D @ f).tolist()
    if len(r) == 1:
        gamma = [r[0] / M[0][0]] if M[0][0] else None
    else:
        (a, b), (_, c) = M
        det = a * c - b * b
        gamma = None if not det else [(c * r[0] - b * r[1]) / det,
                                      (a * r[1] - b * r[0]) / det]
    return gamma if gamma is not None and all(map(math.isfinite, gamma)) else None


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _closing_iteration(start: List[np.ndarray], kernel: KernelOperator,
                       marginals: MarginalPair, tol: float, mass2: float,
                       log: StepLog) -> np.ndarray:
    """Fixed-point iteration of Omega on the sup-1 ray, with a safeguarded
    Anderson step.

    Each step maps its input K >= FLOOR_FREEZE to T(K) = Omega(K) rescaled
    to sup = 1 over the omega1 support, in either case (module docstring),
    and stops once d_H(T(K), K) is below tol; T(K) is returned, so it is a
    fixed point to that tolerance.  The Hilbert step is taken over nodes
    clearly above the floor: nodes pinned at the floor hold values below
    float range in exact arithmetic and never stabilize bitwise.

    The next input is max(T(K), FLOOR_FREEZE), except on the omega1 support
    where the Anderson mixer extrapolates the log-iterate u = log K from
    the last ANDERSON_M steps (rescaled to sup 1, and floored).

    Each step's row (_step_row) is appended to log.  start holds the
    scheme's first image Omega(1) (module docstring), from which the first
    input is formed; it is taken out of the list and freed once that input
    exists.
    A step holds its input K, omega1 / K, its image T(K) and the mixer's
    history, and frees each once spent: the map runs beside K, omega1 / K
    and the history alone.

    A step enters no np.errstate: this function's, which ignores over-
    and underflow and invalid values (_step_row), covers the map too.  So
    a NaN that the map or apply makes on the support warns of nothing
    either; it shows in the row (a NaN sup change) and in _support_sup's
    refusal, as it does in the scheme's.  K >=
    FLOOR_FREEZE, so a finite K makes omega1 / K 0 off the support without
    _support_ratio's mask; a step's sup change is finite only if its image
    is finite at every node, and the next input is then finite too.

    The support is gathered and scattered through the index at: the mask
    A, or slice(None) where omega1 > 0 at every node, so that the support
    sup, the two log gathers and the extrapolation's write read and write
    views instead of masked copies.
    """
    om1, A = marginals.omega1.values, marginals.omega1.support
    at = slice(None) if A.all() else A
    mixer = _AndersonMixer(ANDERSON_M, int(np.count_nonzero(A)))
    K0 = start.pop()
    K = np.maximum(K0 / _support_sup(K0, at, log), FLOOR_FREEZE)
    del K0
    # the scheme's image is not known finite off the support
    finite = False
    for _ in range(REFINE_MAX):
        ratio1 = np.divide(om1, K) if finite else _support_ratio(om1, K, A)
        Kn = omega_map(K, kernel, marginals, ratio1=ratio1)
        s = _support_sup(Kn, at, log)
        Kn /= s
        mask = np.minimum(Kn, K) > 10.0 * FLOOR_FREEZE
        mask &= A
        sup_change, residual, step = _step_row(ratio1, Kn, s, K, mask, kernel, mass2)
        log.append(sup_change, residual, step)
        if step < tol:
            return Kn
        del ratio1, mask  # spent on the row
        finite = math.isfinite(sup_change)
        u = np.log(K[at])
        K = np.maximum(Kn, FLOOR_FREEZE)
        del Kn
        u = mixer.next_input(u, np.log(K[at]))
        if u is not None:
            # the input is floored, and the image's support sup is checked
            # positive (which a NaN fails), so only an extrapolation can
            # bring a NaN into K; this is omega_map's check on H
            top = _top(u)
            if not math.isfinite(top):
                raise NonConvergenceError("extrapolated iterate is NaN or inf "
                                          "on the omega1 support", log)
            u -= top
            K[at] = np.maximum(np.exp(u, out=u), FLOOR_FREEZE, out=u)
        del u
    raise NonConvergenceError(
        f"closing iteration did not stabilize within {REFINE_MAX} steps", log)


def run_fortet(kernel: KernelOperator, marginals: MarginalPair,
               opts: FortetOptions = FortetOptions()) -> FortetSolution:
    """Solve by the scheme's first step and the closing (module docstring),
    to a tagged solution.

    Raises the refusal of the instance's full_report, if it has one, as a
    FeasibilityError unless opts.force is set; the report is not kept.
    opts.max_iter is not read: the closing is bounded by REFINE_MAX.  The
    run's StepLog, a row of scalars per step, is attached to the solution
    (and to the NonConvergenceError raised when the closing fails).  The
    scheme step's image Omega(1) decides the case tag; the closing starts
    from it and drops it once it has formed its first input.  The closing
    stops once its step is below max(opts.tol / 10, CLOSING_TOL_FLOOR), so
    that a tol float64 cannot meet stops at the floor, not at REFINE_MAX.
    A marginal residual above sqrt(max(opts.tol, CLOSING_TOL_FLOOR)) times
    its marginal's peak is warned of: the closing's Hilbert step skips
    floor-pinned nodes, so it can stop short.
    """
    if not opts.force:
        refusal = full_report(kernel, marginals).refusal
        if refusal is not None:
            raise FeasibilityError(refusal)

    if not marginals.omega1.support.any():
        raise FeasibilityError("omega1 has empty support")

    mass2 = marginals.omega2.mass()
    state = fortet_step(None, kernel, marginals, mass2)
    d = state.diagnostics
    case1 = d["case1_candidate"]
    log = StepLog(case1)
    log.append(d["sup_change"], d["normalization_residual"], d["hilbert_step"])
    if float(state.H_prime.max()) < DEGENERATE_EPS:
        return FortetSolution(h=state.H_prime, case_tag="degenerate", coupling=None,
                              warnings=("iterate collapsed below the degeneracy "
                                        "threshold; no potentials extracted",),
                              steps=log)
    # the closing starts from H'_1 = Omega(1) (module docstring); it takes
    # it out of this list, so that no reference here keeps it alive through
    # the closing phase
    start = [state.H_prime]
    del state
    closing_tol = max(opts.tol / 10, CLOSING_TOL_FLOOR)
    K = _closing_iteration(start, kernel, marginals, closing_tol, mass2, log)
    over = float(K.max()) - 1.0
    warnings = [f"fixed point exceeded 1 by {over:.3g} before clamping "
                "(outside the omega1 support)"] if over > CASE1_EPS else []
    h = np.minimum(K, 1.0)
    phi, psi, extract_warn = _extract_with_warnings(h, kernel, marginals)
    coupling = bridge.build_coupling(phi, psi, kernel, marginals)
    r1, r2 = coupling.row_marginal_resid, coupling.col_marginal_resid
    root = math.sqrt(max(opts.tol, CLOSING_TOL_FLOOR))
    if r1 > root * marginals.omega1.peak or r2 > root * marginals.omega2.peak:
        warnings.append(f"marginal residuals s1 {r1:.3g} and s2 {r2:.3g} exceed sqrt(tol) = "
                        f"{root:.3g} times the marginals' peaks: the closing stopped short")
    return FortetSolution(h=h, case_tag="case1" if case1 else "case2", coupling=coupling,
                          warnings=tuple(warnings + extract_warn), steps=log)


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _extract_with_warnings(h: np.ndarray, kernel: KernelOperator,
                           marginals: MarginalPair):
    """(phi, psi, warnings): phi = omega1 / h on the omega1 support (0 off
    it and where h underflowed), psi = omega2 / (g * phi); KernelSupportError
    when that denominator vanishes where omega2 > 0.  It runs under the
    closing's np.errstate, so an inf kernel entry in a row where phi = 0,
    whose 0 * inf makes g * phi NaN in its column, warns of nothing: that
    NaN is DensityField.over's to read."""
    om1, A = marginals.omega1.values, marginals.omega1.support
    raw = _support_ratio(om1, h, A & (h > 0))
    # h can underflow to 0 (or to a denormal whose reciprocal overflows) when
    # the true potential exceeds float64 range; those nodes are dropped
    usable = np.isfinite(raw)
    phi = np.where(usable, raw, 0.0)
    dropped = int(np.sum(A & ~(usable & (h > 0))))
    warnings = [f"potential phi set to 0 at {dropped} support nodes where h "
                "underflowed; residuals there are meaningless"] if dropped else []
    psi = marginals.omega2.over(kernel.apply_T(phi), "integral of g*phi", "omega2 > 0")
    return phi, psi, warnings


class UniquenessReport(NamedTuple):
    ratio_spread_phi: float
    ratio_spread_psi: float
    c_phi: float
    c_psi: float
    consistent: bool


def _ray_ratio(num: np.ndarray, den: np.ndarray) -> Tuple[float, float]:
    """Median l_med of l = log num - log den and the spread
    exp(l_max - l_med) - exp(l_min - l_med), i.e. (max - min)/median of
    num/den read without overflow.  A node where both are 0 carries no ray
    constant and is dropped.  A node where the ratio is 0, inf or NaN
    contradicts the ray: it makes the spread inf and is left out of the
    median (inf if no node is left)."""
    with np.errstate(all="ignore"):
        l = (np.log(num) - np.log(den))[(num != 0) | (den != 0)]
        ok = np.isfinite(l)
        if not ok.all() or not l.size:
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
