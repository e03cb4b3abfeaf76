#!/usr/bin/env python3
"""Byte-identity A/B check of two source trees through the command line.

    python3 tests/byte_identity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are two `src/` directories (each holding the
fortetbridge package).  For the config that bench/workloads.make_workload
builds for each of WORKLOADS at each of SEEDS, both trees run the five CLI
ops (check, solve, interpolate, compare, diagnose) in a fresh
`python -m fortetbridge.cli` process each, on the same config file; then
they run each config of EXTRA through its own ops the same way.  Each
op's exit code, stdout and every artifact it writes (by name and bytes) are
compared; stderr is not, since it carries wall times.  One line is printed
per op, then a summary.  The exit code is 0 when every op matches, 1
otherwise.  The script only reads bench/; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPS = ("check", "solve", "interpolate", "compare", "diagnose")
WORKLOADS = ("gauss1d", "gauss2d", "swap")
SEEDS = (0, 31)
#: configs beside the workloads, each with the ops it runs: a 21^3 grid,
#: whose node mesh every reader derives from its axes, a 2-D kernel of
#: non-diagonal covariance, whose dense factor reads that mesh
#: (problem._whitened), narrow 1-D marginals, whose omega1 underflows
#: to 0 at 14 edge nodes, so that the closing gathers its support through
#: a mask and KernelOperator.apply keeps its scale there, and two
#: Gauss-Legendre grids: gl1d's non-uniform axis takes one factor that is
#: no band, and gl2d's non-uniform axes take one factor each, its
#: interpolate exiting 1 on an under-resolved slice; and aniso2d, a
#: diagonal anisotropic covariance, whose interpolation slices take each
#: axis at its own scale (its diagnose builds the dense 6561 x 6561
#: kernel, 344 MB).  The 21^3 grid skips compare and diagnose, which take
#: its dense 9261 x 9261 kernel (686 MB).  Two configs cover refusals:
#: divergent1d, the unswapped criterion-2 instance, whose integrability
#: estimate is suspected-divergent, so that check, solve, interpolate and
#: compare exit 2 with the swap hint while diagnose, which reads only the
#: hard checks, runs Sinkhorn to exit 0; and spike1d, a marginal narrower
#: than the grid's spacing, which fails marginal1_continuity, so that
#: every op exits 2, and spike2d, its 2-D analogue, whose screen names a
#: jump along the last axis between nodes 840 and 841.  flat1d, equal marginals under a kernel far narrower
#: than them (kappa = 0.0062), has an integrand that decays only slowly, so
#: that the integrability tail fit must correct for the kernel's column
#: mass lost off the grid's edge to read it as finite and let every op run.
#: wide1d is gauss1d's config under a kernel of sigma = 1e200, whose
#: 2 pi sigma^2 overflows: every op refuses the scale while it loads the
#: problem, with exit 2 and one stderr line, and writes no artifact.
EXTRA = {
    "gauss3d-21": ({"kernel": {"type": "gaussian", "sigma": 0.5},
                    "marginals": [{"type": "gaussian", "sigma": 1.0},
                                  {"type": "gaussian", "sigma": 0.64}],
                    "grid": {"dim": 3, "radius": 8.0, "points": 21}},
                   ("check", "solve", "interpolate")),
    "multivariate2d": ({"kernel": {"type": "gaussian_multivariate",
                                   "covariance": [[0.25, 0.05], [0.05, 0.2]]},
                        "marginals": [{"type": "gaussian", "sigma": 1.0},
                                      {"type": "gaussian", "sigma": 0.8}],
                        "grid": {"dim": 2, "radius": 8.0, "points": 31}},
                       OPS),
    "narrow1d": ({"kernel": {"type": "gaussian", "sigma": 0.5},
                  "marginals": [{"type": "gaussian", "sigma": 0.2},
                                {"type": "gaussian", "sigma": 0.25}],
                  "grid": {"dim": 1, "radius": 8.0, "points": 401}},
                 OPS),
    "gl1d": ({"kernel": {"type": "gaussian", "sigma": 0.5},
              "marginals": [{"type": "gaussian", "sigma": 1.0},
                            {"type": "gaussian", "sigma": 0.8}],
              "grid": {"dim": 1, "radius": 8.0, "points": 201,
                       "rule": "gauss-legendre"}},
             OPS),
    "gl2d": ({"kernel": {"type": "gaussian", "sigma": 0.5},
              "marginals": [{"type": "gaussian", "sigma": 1.0},
                            {"type": "gaussian", "sigma": 0.8}],
              "grid": {"dim": 2, "radius": 6.0, "points": 25,
                       "rule": "gauss-legendre"}},
             OPS),
    "aniso2d": ({"kernel": {"type": "gaussian_multivariate",
                            "covariance": [[0.25, 0.0], [0.0, 0.16]]},
                 "marginals": [{"type": "gaussian", "sigma": 1.0},
                               {"type": "gaussian", "sigma": 0.8}],
                 "grid": {"dim": 2, "radius": 8.0, "points": 81}},
                OPS),
    "divergent1d": ({"kernel": {"type": "gaussian", "sigma": 0.1},
                     "marginals": [{"type": "gaussian", "sigma": 0.5},
                                   {"type": "gaussian", "sigma": 1.0}],
                     "grid": {"dim": 1, "radius": 8.0, "points": 401}},
                    OPS),
    "spike1d": ({"kernel": {"type": "gaussian", "sigma": 0.5},
                 "marginals": [{"type": "gaussian", "sigma": 0.05},
                               {"type": "gaussian", "sigma": 0.8}],
                 "grid": {"dim": 1, "radius": 8.0, "points": 41}},
                OPS),
    "spike2d": ({"kernel": {"type": "gaussian", "sigma": 0.5},
                 "marginals": [{"type": "gaussian", "sigma": 0.05},
                               {"type": "gaussian", "sigma": 0.8}],
                 "grid": {"dim": 2, "radius": 8.0, "points": 41}},
                OPS),
    "flat1d": ({"kernel": {"type": "gaussian", "sigma": 0.5},
                "marginals": [{"type": "gaussian", "sigma": 2.5},
                              {"type": "gaussian", "sigma": 2.5}],
                "grid": {"dim": 1, "radius": 10.0, "points": 501}},
               OPS),
    "wide1d": ({"kernel": {"type": "gaussian", "sigma": 1e200},
                "marginals": [{"type": "gaussian", "sigma": 1.0},
                              {"type": "gaussian", "sigma": 0.8}],
                "grid": {"dim": 1, "radius": 8.0, "points": 401}},
               OPS),
}


def run_op(src: Path, op: str, config: Path, out: Path):
    """(exit code, stdout, {artifact name: bytes}) of one CLI op on src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "fortetbridge.cli", op,
                           "--config", str(config), "--output", str(out)],
                          capture_output=True, text=True, env=env, cwd=config.parent)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return proc.returncode, proc.stdout, files


def differences(a, b) -> list:
    """What differs between two run_op results, as short phrases."""
    (code_a, out_a, files_a), (code_b, out_b, files_b) = a, b
    found = []
    if code_a != code_b:
        found.append(f"exit {code_a} != {code_b}")
    if out_a != out_b:
        found.append("stdout differs")
    for name in sorted(set(files_a) | set(files_b)):
        if files_a.get(name) != files_b.get(name):
            found.append(f"{name} differs" if name in files_a and name in files_b
                         else f"{name} on one side only")
    return found


def cases(work: Path):
    """(label, config file, ops) of each config, written under work."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name, seed in itertools.product(WORKLOADS, SEEDS):
        config = workloads.write_config(workloads.make_workload(name, seed),
                                        work / f"{name}-{seed}")
        yield f"{name} seed {seed}", config, OPS
    for name, (raw, ops) in EXTRA.items():
        config = work / name / f"{name}.json"
        config.parent.mkdir()
        config.write_text(json.dumps(raw, indent=2) + "\n")
        yield name, config, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)

    sides = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    runs = same = 0
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as work:
        for label, config, ops in cases(Path(work)):
            for op in ops:
                results = [run_op(src, op, config, config.parent / side / op)
                           for side, src in sides.items()]
                found = differences(*results)
                runs, same = runs + 1, same + (not found)
                code, _, files = results[0]
                verdict = "; ".join(found) if found else (
                    f"identical (exit {code}, {len(files)} artifacts)")
                print(f"{label} {op}: {verdict}")
    print(f"{same} of {runs} ops identical (exit codes, stdout and artifacts)")
    return 0 if same == runs else 1


if __name__ == "__main__":
    sys.exit(main())
