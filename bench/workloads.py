"""Seeded workload generator for the fortetbridge benchmark.

Each workload is one problem config plus a fixed, repeating cycle of CLI
ops.  Seed 0 gives the exact named instances; any other seed multiplies
each Gaussian scale by an independent factor in [1 - JITTER, 1 + JITTER].
The seed never changes the grid, the op cycle or the op count, so the op
mix of a run does not depend on it.

A run is a fixed number of cycles, set from --seconds by each workload's
nominal cycle time: a constant, the time of one cycle and its reference
passes on a 2-core x86 VM in its slower speed state.  A run is not a fixed
duration, so a slower program runs the same ops for longer and its failure
fraction does not depend on its speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

#: largest relative change the seed applies to a Gaussian scale
JITTER = 0.01

#: Sinkhorn sweep budget of the swap workload (config solver.max_iter).  The
#: same field caps Fortet's scheme phase, which takes 101 steps there.
SWAP_SWEEP_BUDGET = 120


class RegimeError(RuntimeError):
    """A generated instance is not in the regime its workload exercises."""


@dataclass(frozen=True)
class Workload:
    name: str
    config: Dict[str, object]
    ops: Tuple[str, ...]                 # one cycle, repeated in this order
    cycle_s: float                       # nominal seconds per cycle
    exit_codes: Dict[str, int]           # expected exit code per op
    case_tag: str                        # expected summary.json case_tag
    #: per-axis (sigma, sigma1, sigma2) of the solved orientation, for the
    #: closed-form oracle; a 2-D instance is the product over both axes
    oracle: Tuple[float, float, float]
    #: parts of the reference computation timed next to each op
    #: (reference.py); repeated where ops are long, to lower its own noise
    reference: Tuple[str, ...]
    #: largest per-node relative residual allowed on the clean gate nodes,
    #: and the least share of gate nodes that must be clean (checks.py)
    resid_max: float = 1e-6
    min_clean_share: float = 1.0
    swapped: bool = False
    scales: Dict[str, float] = field(default_factory=dict)

    def n_cycles(self, seconds: float) -> int:
        # at least one traced and one untraced cycle in a traced run
        return max(2, round(seconds / self.cycle_s))


def _jitter(rng, value: float) -> float:
    if rng is None:
        return value
    return value * (1.0 + JITTER * float(rng.uniform(-1.0, 1.0)))


def _gaussian(sigma: float) -> Dict[str, object]:
    return {"type": "gaussian", "sigma": sigma}


def _grid(dim: int, points: int) -> Dict[str, object]:
    return {"dim": dim, "radius": 8.0, "points": points, "rule": "trapezoid"}


def make_workload(name: str, seed: int) -> Workload:
    rng = None if seed == 0 else np.random.default_rng(seed)
    if name == "gauss1d":
        s, s1, s2 = (_jitter(rng, v) for v in (0.5, 1.0, 0.8))
        # criterion-1 instance: per-step overhead and step counts set the
        # time; the kernel fits in L2
        return Workload(
            name,
            {"kernel": _gaussian(s), "marginals": [_gaussian(s1), _gaussian(s2)],
             "grid": _grid(1, 401)},
            ops=("solve", "compare", "diagnose"), cycle_s=0.2,
            exit_codes={"solve": 0, "compare": 0, "diagnose": 0},
            case_tag="case2", oracle=(s, s1, s2), reference=("py", "small"),
            scales={"sigma": s, "sigma1": s1, "sigma2": s2})
    if name == "gauss2d":
        # in 2-D the config reads a marginal "sigma" as a per-axis variance
        s, v1, v2 = (_jitter(rng, v) for v in (0.5, 1.0, 0.8))
        # dense kernel build and matvec dominate; the 22.6 MB kernel
        # exceeds L2.  No compare: Sinkhorn would go log-domain here for ~9 s,
        # a path the swap workload already covers.
        return Workload(
            name,
            {"kernel": _gaussian(s), "marginals": [_gaussian(v1), _gaussian(v2)],
             "grid": _grid(2, 41)},
            ops=("solve",), cycle_s=0.7,
            exit_codes={"solve": 0}, case_tag="case2",
            oracle=(s, math.sqrt(v1), math.sqrt(v2)), reference=("exp", "big") * 2,
            scales={"sigma": s, "variance1": v1, "variance2": v2})
    if name == "swap":
        s, s1, s2 = (_jitter(rng, v) for v in (0.1, 0.5, 1.0))
        # criterion-2 post-swap instance: the closing phase dominates, h
        # underflows, and the log-domain Sinkhorn exhausts its sweep budget.
        # Beyond |x| ~ 4.5 the potentials leave the normal float range; the
        # residual is held on the rest, loosely, because the nodes next to
        # subnormal potentials reach ~2e-6 (1.5e-7 in the core).  Three
        # solves per compare give a 20 s run 12 solves for solve_s; the
        # compare always stops at its sweep budget and times that path.
        return Workload(
            name,
            {"kernel": _gaussian(s), "marginals": [_gaussian(s1), _gaussian(s2)],
             "grid": _grid(1, 401), "swap": True,
             "solver": {"max_iter": SWAP_SWEEP_BUDGET}},
            ops=("solve",) * 3 + ("compare",), cycle_s=5.0,
            exit_codes={"solve": 0, "compare": 3}, case_tag="case2",
            oracle=(s, s2, s1), reference=("py", "small") * 4,
            resid_max=1e-4, min_clean_share=0.5, swapped=True,
            scales={"sigma": s, "sigma1": s1, "sigma2": s2})
    raise KeyError(f"unknown workload {name!r}")


def write_config(workload: Workload, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload.name}.json"
    path.write_text(json.dumps(workload.config, sort_keys=True, indent=2) + "\n")
    return path


def check_regime(workload: Workload, problem) -> None:
    """Raise RegimeError unless the loaded problem is in the workload's regime.

    gauss1d and gauss2d must be admissible as given.  swap must be
    admissible as solved, and its forward (unswapped) orientation must be
    suspected-divergent with the swap recommended.
    """
    from fortetbridge.problem import full_report, swapped_marginals
    report = full_report(problem.kernel, problem.marginals)
    if not report.solver_admissible:
        raise RegimeError(f"{workload.name}: instance is not admissible")
    if workload.swapped:
        forward = full_report(problem.kernel, swapped_marginals(problem.marginals))
        if forward.condition_star.verdict != "suspected-divergent" \
                or not forward.swap_recommended:
            raise RegimeError(f"{workload.name}: forward orientation is not "
                              "suspected-divergent with the swap recommended")
