#!/usr/bin/env python3
"""Closing-step A/B of two source trees, in one process.

    python3 tests/closing_steps.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are two `src/` directories (each holding the
fortetbridge package).  Each tree's package is imported under its own name,
and each config below is loaded (config.resolve_config, build_problem) and
solved by that tree's run_fortet with the config's options, as the CLI's
solve does: the bench workloads at seeds 0-39 (bench/workloads.py), the
EXTRA configs of byte_identity.py that carry no tables, and the 72
oracle-labelled 1-D configs of ROADMAP item 3.  One line is printed per
config: the closing steps of both trees ("-" where the run raised before
it had a step record), each run's class (the exit code the CLI would give,
the case tag or error type, and the warning count) and phi's log-ray spread
between the trees, max - min of log phi_old - log phi_new over the nodes
where omega1 > 1e-12 (inf where the two phi are positive on different
nodes).  Then the totals, and the configs whose step count rose or whose
class changed.  The exit code is 0 when no class changed, 1 otherwise.  The
script only reads bench/; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gauss1d", "gauss2d", "swap")
SEEDS = range(40)
#: ROADMAP item 3: kernel sigma, marginal sigmas and radius; the spacing is
#: min(0.04, sigma / 2), and the orientation the oracle's scheme_feasible
SWEEP = dict(sigma=(0.05, 0.2, 0.5, 1.5), sigma1=(0.3, 1.0, 2.5),
             sigma2=(0.3, 1.0, 2.5), radius=(6.0, 10.0))
GATE = 1e-12


def load_tree(src: Path, name: str):
    """The fortetbridge package of src, imported as name, with the modules
    this script reads."""
    pkg = src.resolve() / "fortetbridge"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("bridge", "config", "errors", "fortet"):
        importlib.import_module(f"{name}.{sub}")
    return module


def sweep_configs(oracle):
    for s, s1, s2, radius in itertools.product(*SWEEP.values()):
        spacing = min(0.04, s / 2)
        raw = {"kernel": {"type": "gaussian", "sigma": s},
               "marginals": [{"type": "gaussian", "sigma": s1},
                             {"type": "gaussian", "sigma": s2}],
               "grid": {"dim": 1, "radius": radius,
                        "points": round(2 * radius / spacing) + 1},
               "swap": not oracle(s, s1, s2).scheme_feasible}
        yield f"sweep s={s} s1={s1} s2={s2} R={radius:g}", raw


def configs(oracle):
    """(label, raw config) of each config."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.path.insert(0, str(ROOT / "tests"))
    import byte_identity
    import workloads

    for name, seed in itertools.product(WORKLOADS, SEEDS):
        yield f"{name} seed {seed}", workloads.make_workload(name, seed).config
    for name, (raw, _, *tables) in byte_identity.EXTRA.items():
        if not tables:
            yield name, raw
    yield from sweep_configs(oracle)


def solve(tree, raw):
    """(class, closing steps or None, phi and the gate or None) of one
    config, its class the exit code cli.main would give."""
    errors = tree.errors
    try:
        problem = tree.config.build_problem(tree.config.resolve_config(raw))
        sol = tree.fortet.run_fortet(problem.kernel, problem.marginals, problem.options)
    except errors.FortetBridgeError as exc:
        code = (2 if isinstance(exc, errors.FeasibilityError)
                else 3 if isinstance(exc, errors.NonConvergenceError) else 1)
        log = getattr(exc, "trace", None)
        steps = None if log is None else len(log) - 1
        return f"exit {code} {type(exc).__name__}", steps, None
    except Exception as exc:
        # escaped the CLI's error map: python exits 1 with a traceback
        return f"exit 1 traceback {type(exc).__name__}", None, None
    gate = problem.marginals.omega1.values > GATE
    return (f"exit 0 {sol.case_tag} {len(sol.warnings)} warnings", sol.refine_steps,
            (sol.phi, gate))


def count(steps) -> str:
    return "-" if steps is None else str(steps)


def log_ray_spread(phi_a, phi_b, gate) -> float:
    """max - min of log phi_a - log phi_b on gate, inf where the two are
    positive on different nodes."""
    a, b = phi_a[gate], phi_b[gate]
    if not np.array_equal(a > 0, b > 0):
        return math.inf
    keep = a > 0
    if not keep.any():
        return 0.0
    l = np.log(a[keep]) - np.log(b[keep])
    return float(l.max() - l.min())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)

    old = load_tree(args.old_src, "fortetbridge_old")
    new = load_tree(args.new_src, "fortetbridge_new")
    labels, totals, rose, changed, worst = 0, [0, 0], [], [], 0.0
    with np.errstate(all="ignore"):
        for label, raw in configs(old.bridge.gaussian_oracle):
            (cls_a, steps_a, phi_a), (cls_b, steps_b, phi_b) = (
                solve(tree, raw) for tree in (old, new))
            labels += 1
            spread = "-"
            if phi_a is not None and phi_b is not None:
                value = log_ray_spread(phi_a[0], phi_b[0], phi_a[1])
                worst = max(worst, value)
                spread = f"{value:.2e}"
            if steps_a is not None and steps_b is not None:
                totals[0] += steps_a
                totals[1] += steps_b
                if steps_b > steps_a:
                    rose.append(f"{label} ({steps_a} -> {steps_b})")
            if cls_a != cls_b:
                changed.append(f"{label} ({cls_a} -> {cls_b})")
            cls = cls_a if cls_a == cls_b else f"{cls_a} -> {cls_b}"
            print(f"{label}: steps {count(steps_a)} -> {count(steps_b)}; {cls}; "
                  f"phi log-ray spread {spread}")
    print(f"{labels} configs: closing steps {totals[0]} -> {totals[1]} where both "
          f"ran a closing; worst phi log-ray spread {worst:.2e}")
    print(f"steps rose on {len(rose)}: " + (", ".join(rose) or "none"))
    print(f"class changed on {len(changed)}: " + (", ".join(changed) or "none"))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
