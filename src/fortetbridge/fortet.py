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
from array import array
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import bridge
from .errors import FeasibilityError, FortetBridgeError, NonConvergenceError
from .problem import KernelOperator, MarginalPair, full_report, node_index
from .quadrature import Frozen, _bottom, _top, read_only

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
#: held costs two support-sized arrays; the 41 x 41 solve op peaks in its
#: closing's step row, at 8 node arrays, just above its map
#: (tests/solve_ab.py)
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
    construction, since a closing row's is False.

    The rows fill one array.array('d'), row-major, 24 bytes a step.  It
    grows by one reallocation that over-allocates about 1/16 of its length,
    never by a new block beside the old.  A column is a read-only view of
    that buffer and cannot outlive an append: while a view is alive the
    buffer is exported, and append raises BufferError.  The run that owns
    the log appends all its rows before any column is read.  Attributes
    are not assigned: rows are appended to the block in place."""

    COLUMNS = ("sup_change", "normalization_residual", "hilbert_step")

    def __init__(self, case1_candidate: bool):
        self._store(_block=array("d"), case1_candidate=bool(case1_candidate))

    def __len__(self) -> int:
        return len(self._block) // 3

    def column(self, name: str) -> np.ndarray:
        """The rows of column name, a read-only view of the block."""
        return read_only(np.frombuffer(self._block)[self.COLUMNS.index(name)::3])

    def append(self, sup_change: float, normalization_residual: float,
               hilbert_step: float) -> None:
        """Add the next step's row."""
        self._block.extend((sup_change, normalization_residual, hilbert_step))


class IterationState(Frozen):
    """One step of the truncated scheme with its arrays, as fortet_step
    returns it; run_fortet keeps only the row of each step.  H_dprime =
    min(1, H_prime) and J_mask = (H_prime > 1) are derived on read."""

    def __init__(self, n: int, H: np.ndarray, H_prime: np.ndarray,
                 diagnostics: Dict[str, float]):
        self._store(n=n, H=H, H_prime=H_prime, diagnostics=diagnostics)

    @property
    def H_dprime(self) -> np.ndarray:
        return np.minimum(1.0, self.H_prime)

    @property
    def J_mask(self) -> np.ndarray:
        return self.H_prime > 1.0


class FortetSolution(Frozen):
    """A tagged solution.  h is always a read-only array: min(1, K) of the
    closing's fixed point K, which the potentials are extracted from, or a
    degenerate run's collapsed image Omega(1).  The potentials are held by
    the coupling pi = phi g psi, whose marginal integrals certify the
    system.  A solution is degenerate exactly when it has no coupling: its
    potentials, residuals and case_tag read None, NaN and "degenerate".
    steps is the run's StepLog, one row per step of both phases:
    iterations, a class attribute, counts its one scheme row and
    refine_steps the rest.  trace, a class attribute too, is always empty:
    a run keeps no per-step arrays.
    Only the benchmark's tracer (bench/tracing.py) reads it, for
    fortet.trace_mb (0.0), until the benchmark stops reading it."""

    trace: Tuple[IterationState, ...] = ()
    #: scheme steps run: 1, the step n = 1 whose image decides the case and
    #: starts the closing (module docstring); it is row 0 of steps
    iterations: int = 1

    def __init__(self, h: np.ndarray, coupling: Optional[bridge.Coupling],
                 warnings: Tuple[str, ...], steps: StepLog):
        self._store(h=h, coupling=coupling, warnings=warnings, steps=steps)

    @property
    def case_tag(self) -> str:
        """"case1" or "case2" by steps.case1_candidate, if not degenerate."""
        if self.coupling is None:
            return "degenerate"
        return "case1" if self.steps.case1_candidate else "case2"

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


def omega_map(H, kernel: KernelOperator, marginals: MarginalPair,
              ratio1: Optional[np.ndarray] = None) -> np.ndarray:
    """One application of the fixed-point map, H_prime = Omega(H): the
    fit omega2 / G of G = Int g omega1 / H, then its row integral.  Both
    fits, omega1 / H (ratio1) and omega2 / G, are DensityField.over's.

    G is computed first for every y-node and freed before the outer
    integral; nodes where omega1 = 0 contribute nothing to G no matter what
    H holds there, and nodes where omega2 = 0 contribute nothing to
    H_prime.  A caller forms ratio1 from an H it keeps positive on the
    omega1 support and passes it here, inside its own
    np.errstate(over="ignore", under="ignore"); H is then not read.  The
    map drops its reference to ratio1 once apply_T has read it, so a caller
    that keeps none (the closing hands over the fit it forms in the call)
    does not hold ratio1 beside omega2 / G and the outer integral.  Without
    ratio1, H must be positive wherever omega1 is, which is checked, and
    the map enters that errstate itself.

    omega2 / G reaches 4.9e-324 where G is large (62-66 subnormal entries
    per map on the criterion-2 post-swap instance), which apply scales out
    of the outer integral's products (KernelOperator._scaled_contract).
    """
    if ratio1 is None:
        Hv, omega1 = np.asarray(H, dtype=float), marginals.omega1
        if not (Hv[omega1.support] > 0).all():
            raise FortetBridgeError("omega_map needs H > 0 wherever omega1 > 0")
        with np.errstate(over="ignore", under="ignore"):
            return omega_map(H, kernel, marginals,
                             omega1.over(Hv, "iterate H", "omega1 > 0"))
    G = kernel.apply_T(ratio1)
    del ratio1
    ratio2 = marginals.omega2.over(
        G, "inner integral G",
        "omega2 > 0 (kernel columns lack support against omega1)", out=G)
    del G
    return kernel.apply(ratio2)


def _hilbert_step(a: np.ndarray, b: np.ndarray, mask: np.ndarray,
                  out: np.ndarray) -> float:
    """log(max / min) of a / b over the nodes of mask where both are positive
    and finite (inf if there are none).  The quotient is taken into out,
    under the caller's np.errstate, and its extremes on mask are read in
    place.  Where mask misses a node, out is first filled with the quotient
    at mask's first node, which moves neither extreme, and the quotient is
    taken on mask alone.  Where every read quotient is positive and finite
    and b is positive at every node, as a floored iterate is, so is a on
    mask, and those extremes give the step; otherwise the nodes are
    filtered (two negative entries have a positive quotient)."""
    i = int(mask.argmin())
    if mask[i]:
        q = np.divide(a, b, out=out)
    else:
        i = int(mask.argmax())
        out.fill(a[i] / b[i])
        q = np.divide(a, b, out=out, where=mask)
    if mask[i]:
        lo, hi = _bottom(q), _top(q)
        if lo > 0 and hi < math.inf and _bottom(b) > 0:
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
    # the weighted ratio takes the place of an image * s temporary, and the
    # row's product goes back to ratio1's buffer, freeing it before the sum
    t = kernel.grid1.weighted(ratio1)
    np.multiply(image, s, out=ratio1)
    t = np.multiply(t, ratio1, out=ratio1)
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
    and its case1_candidate flag; the map and the row share one omega1 / H."""
    omega1, A = marginals.omega1, marginals.omega1.support
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
        ratio1 = omega1.over(H, "iterate H", "omega1 > 0")
        H_prime = omega_map(H, kernel, marginals, ratio1=ratio1)
        case1 = bool((H_prime[node_index(A)] <= 1.0 + CASE1_EPS).all())
        row = _step_row(ratio1, H_prime, 1.0, prev, A, kernel, mass2)
    return IterationState(n, H, H_prime,
                          dict(zip(StepLog.COLUMNS, row), case1_candidate=case1))


def _support_sup(K: np.ndarray, A, log: StepLog) -> float:
    """max K over the omega1 support, indexed by A (node_index's index);
    raises unless it is positive, which a NaN there also fails."""
    s = _top(K[A])
    if not s > 0:
        raise NonConvergenceError("iterate collapsed to zero or NaN on the omega1 "
                                  "support", log)
    return s


class _AndersonMixer:
    """Safeguarded Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 2011)
    for a fixed-point map u -> G(u) on R^n, from the last m steps since the
    history was last cleared.  A step holds the 2 x m history rows, the
    residual and, while it fits, m difference rows: the image G(u) = log K
    is formed again rather than held beside them (next_input)."""

    def __init__(self, m: int, n: int):
        # f = G(u) - u and g = G(u) of the history's step j, in row j mod m
        self.hist = np.empty((2, m, n))
        self.held = 0
        self.best = math.inf

    def next_input(self, u: np.ndarray, K: np.ndarray, at) -> Optional[np.ndarray]:
        """The input after u, whose image is g = log K on the support, read
        through at (node_index): the extrapolation g - sum_j gamma_j (g -
        g_j), with gamma the least-squares fit of the residual f = g - u by
        the differences f - f_j over the history (_fit).  f is formed in u's
        buffer, and g twice: once beside f, for f and the norms, and again
        into f's buffer once the history holds f, so that g never sits
        beside f and the fit's difference rows; the extrapolation takes f's
        buffer once the history holds g too.  None asks for the plain input
        g: with no history, a singular or non-finite fit, a residual whose
        Hilbert norm max - min of f exceeds the least seen so far, which
        also clears the history, or one below eps * max|g|, where the fit
        would read only the rounding of g."""
        m = self.hist.shape[1]
        if m == 0:
            return None
        g = np.log(K[at])
        f = np.subtract(g, u, out=u)
        norm = _top(f) - _bottom(f)
        if norm > self.best:
            self.held = 0
        else:
            self.best = norm
        fit = self.held and norm >= EPS * max(_top(g), -_bottom(g))
        del g
        gamma = None
        if fit:
            k = min(self.held, m)
            # row by row: broadcast over all k rows at once, numpy
            # allocates ufunc buffers the size of D beside it
            D = np.empty((k, f.size))
            for j in range(k):
                np.subtract(f, self.hist[0, j], out=D[j])
            gamma = _fit(D, f)
            if gamma is None:
                self.held = 0
        # D has read the history's residuals, so the slot held % m is spent:
        # it takes f, and f's buffer is free for g, which D reads before the
        # slot takes it
        slot = self.held % m
        self.hist[0, slot] = f
        g = np.log(K[at], out=f)
        if gamma is not None:
            for j in range(k):
                np.subtract(g, self.hist[1, j], out=D[j])
        self.hist[1, slot] = g
        self.held += 1
        if gamma is None:
            return None
        np.dot(gamma, D, out=f)
        return np.subtract(self.hist[1, slot], f, out=f)


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
    A step holds its input K and the mixer's history throughout, and each
    of its three sub-phases peaks at 8 node arrays, ANDERSON_M = 2: the map
    is handed omega1 / K, which it frees once applied, so it runs beside K,
    the history and its own two arrays; the row forms omega1 / K again, in
    the buffer the mask is read from, beside K, the image T(K) and the
    history; the mixer (next_input) holds the residual and its difference
    rows beside K and the history.  omega1 / K is omega1's fit
    (DensityField.over): 0 off the support, also where K is inf or NaN
    there, as the scheme's image can be.  The mask is intersected with the
    support only where omega1 vanishes somewhere.

    A step enters no np.errstate: this function's, which ignores over-
    and underflow and invalid values (_step_row), covers the map too.  So
    a NaN that the map or apply makes on the support warns of nothing
    either; it shows in the row (a NaN sup change) and in _support_sup's
    refusal, as it does in the scheme's.

    The support sup, the two log gathers and the extrapolation's write
    index the support through node_index: views where omega1 > 0 at every
    node, the mask A otherwise.
    """
    omega1, A = marginals.omega1, marginals.omega1.support
    at = node_index(A)
    mixer = _AndersonMixer(ANDERSON_M, int(np.count_nonzero(A)))
    K0 = start.pop()
    K = np.maximum(K0 / _support_sup(K0, at, log), FLOOR_FREEZE)
    del K0
    for _ in range(REFINE_MAX):
        # omega1 / K is handed to the map, which frees it once applied; the
        # row forms it again
        Kn = omega_map(K, kernel, marginals, omega1.over(K, "iterate H", "omega1 > 0"))
        s = _support_sup(Kn, at, log)
        Kn /= s
        # the row's omega1 / K is formed in the buffer the mask is read from
        ratio1 = np.minimum(Kn, K)
        mask = ratio1 > 10.0 * FLOOR_FREEZE
        if at is A:
            mask &= A
        ratio1 = omega1.over(K, "iterate H", "omega1 > 0", out=ratio1)
        sup_change, residual, step = _step_row(ratio1, Kn, s, K, mask, kernel, mass2)
        log.append(sup_change, residual, step)
        if step < tol:
            return Kn
        del ratio1, mask  # spent on the row
        u = np.log(K[at])
        K = np.maximum(Kn, FLOOR_FREEZE)
        del Kn
        u = mixer.next_input(u, K, at)
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
    FeasibilityError unless opts.force is set; the report is not kept.  For
    a Gaussian kernel between Gaussian marginals with diagonal covariances
    the refusal is closed form (Bernstein's margin kappa on each axis) and
    reads no grid scan; any other instance is scanned.
    opts.max_iter is not read: the closing is bounded by REFINE_MAX.  The
    run's StepLog, a row of scalars per step, is attached to the solution
    (and to the NonConvergenceError raised when the closing fails).  The
    scheme step's image Omega(1) decides the case tag; the closing starts
    from it and drops it once it has formed its first input.  The closing
    stops once its step is below max(opts.tol / 10, CLOSING_TOL_FLOOR), so
    that a tol float64 cannot meet stops at the floor, not at REFINE_MAX.
    A marginal residual above sqrt(max(opts.tol, CLOSING_TOL_FLOOR)) times
    its marginal's peak raises NonConvergenceError with the run's StepLog
    too: the closing's Hilbert step skips floor-pinned nodes, so it can stop
    short of a solution.  Where extraction dropped nodes whose h
    underflowed, the residual is warned of instead, beside the dropped-node
    warning: the nodes next to them lose float64 range too (swap's 2.06e-7
    at tol 1e-13 sits beside its 132 dropped nodes).  The closing's fixed point K is capped into h in
    its own buffer, so K does not sit beside h through the extraction and
    the coupling.
    """
    if not opts.force:
        refusal = full_report(kernel, marginals).refusal
        if refusal is not None:
            raise FeasibilityError(refusal)

    if not marginals.omega1.support.any():
        raise FeasibilityError("omega1 has empty support")

    mass2 = marginals.omega2.mass()
    state = fortet_step(None, kernel, marginals, mass2)
    log = StepLog(state.diagnostics["case1_candidate"])
    log.append(*map(state.diagnostics.get, StepLog.COLUMNS))
    if float(state.H_prime.max()) < DEGENERATE_EPS:
        return FortetSolution(h=state.H_prime, coupling=None,
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
    h = np.minimum(K, 1.0, out=K)
    del K
    phi, psi, g_phi, extract_warn = _extract_with_warnings(h, kernel, marginals)
    coupling = bridge.build_coupling(phi, psi, kernel, marginals, g_phi)
    r1, r2 = coupling.row_marginal_resid, coupling.col_marginal_resid
    root = math.sqrt(max(opts.tol, CLOSING_TOL_FLOOR))
    if r1 > root * marginals.omega1.peak or r2 > root * marginals.omega2.peak:
        short = (f"marginal residuals s1 {r1:.3g} and s2 {r2:.3g} exceed sqrt(tol) = "
                 f"{root:.3g} times the marginals' peaks: the closing stopped short")
        if not extract_warn:
            raise NonConvergenceError(short, log)
        warnings.append(short)
    return FortetSolution(h=h, coupling=coupling, warnings=tuple(warnings + extract_warn),
                          steps=log)


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _extract_with_warnings(h: np.ndarray, kernel: KernelOperator,
                           marginals: MarginalPair):
    """(phi, psi, g_phi, warnings): phi = omega1 / h on the omega1 support
    (0 off it and where h underflowed), g_phi = apply_T(phi) and psi =
    omega2 / g_phi; KernelSupportError when g_phi vanishes where omega2 > 0.
    It runs under the closing's np.errstate, so an inf kernel entry in a row
    where phi = 0, whose 0 * inf makes g_phi NaN in its column, warns of
    nothing: that NaN is DensityField.over's to read."""
    om1, A = marginals.omega1.values, marginals.omega1.support
    raw = np.divide(om1, h, out=np.zeros(h.shape), where=A & (h > 0))
    # h can underflow to 0 (or to a denormal whose reciprocal overflows) when
    # the true potential exceeds float64 range; those nodes are dropped (the
    # fit DensityField.over would refuse them)
    usable = np.isfinite(raw)
    phi = np.where(usable, raw, 0.0)
    dropped = int(np.sum(A & ~(usable & (h > 0))))
    warnings = [f"potential phi set to 0 at {dropped} support nodes where h "
                "underflowed; residuals there are meaningless"] if dropped else []
    g_phi = kernel.apply_T(phi)
    psi = marginals.omega2.over(g_phi, "integral of g*phi", "omega2 > 0")
    return phi, psi, g_phi, warnings


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
