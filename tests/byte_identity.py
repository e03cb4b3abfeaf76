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
compared; stderr is not, since it carries wall times, but each Python
warning in it is printed, with the side that raised it.  One line is
printed per op, then a summary.  The exit code is 0 when every op matches
and no op of NEW_SRC warns, 1 otherwise.  The script only reads bench/;
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OPS = ("check", "solve", "interpolate", "compare", "diagnose")
WORKLOADS = ("gauss1d", "gauss2d", "swap")
SEEDS = (0, 31)
#: a Python warning as warnings.showwarning prints it: file:line: category: message
WARNING_LINE = re.compile(r"^.*:\d+: (\w+Warning: .*)$", re.MULTILINE)


def _infentry_tables():
    """infentry1d's tables on its 9 nodes of [-1, 1]: the kernel 1e-3
    exp(-(x - y)^2) with an inf at (0, 8), and two Gaussian marginals, 0 at
    that entry's row and column."""
    x = np.linspace(-1.0, 1.0, 9)
    kernel = 1e-3 * np.exp(-np.subtract.outer(x, x) ** 2)
    kernel[0, 8] = math.inf
    omega1, omega2 = np.exp(-x ** 2 / 0.5), np.exp(-x ** 2 / 0.32)
    omega1[0] = omega2[8] = 0.0
    return {"kernel.csv": kernel, "m1.csv": omega1, "m2.csv": omega2}


#: configs beside the workloads, each with the ops it runs: a 21^3 grid,
#: whose node mesh every reader derives from its axes, a 2-D kernel of
#: non-diagonal covariance, whose dense factor reads that mesh
#: (problem._whitened), narrow 1-D marginals, whose omega1 underflows
#: to 0 at 14 edge nodes, so that the closing gathers its support through
#: a mask, and aniso2d, a diagonal anisotropic covariance, whose
#: interpolation slices take each axis at its own scale (its diagnose
#: builds the dense 6561 x 6561 kernel, 344 MB).  The 21^3 grid skips compare and diagnose, which take
#: its dense 9261 x 9261 kernel (686 MB).  aniso2d-swapped solves aniso2d
#: from omega2 to omega1: Bernstein's margin kappa_k reads (+0.048, -0.042)
#: on its two axes, so the continuum integral diverges along the second,
#: while the grid's radial tail fit reads finite; the verdict is kappa's, so
#: check, solve, interpolate and compare exit 2 with the swap hint, and
#: diagnose, which reads only the hard checks, runs.  More configs cover
#: refusals: divergent1d, the unswapped criterion-2 instance, whose
#: integrability estimate is suspected-divergent, so that check, solve,
#: interpolate and compare exit 2 with the swap hint while diagnose, which
#: reads only the hard checks, runs Sinkhorn to exit 0; and spike1d, a
#: marginal narrower than the grid's spacing, and spike2d, its 2-D
#: analogue, whose kappa < 0: their omega1 underflows to 0 at the edge
#: nodes, so the grid scan reads integrability, and refuses it with the
#: swap hint, while diagnose runs.  spike1d-swapped and spike2d-swapped
#: take that hint: kappa > 0, and every op runs.  flat1d, equal
#: marginals under a kernel far narrower than them (kappa = 0.0062), has an
#: integrand that decays only slowly, so that the integrability tail fit
#: must correct for the kernel's column mass lost off the grid's edge to
#: read it as finite and let every op run.  wide1d is gauss1d's config
#: under a kernel of sigma = 1e200, whose 2 pi sigma^2 overflows: every op
#: refuses the scale while it loads the problem, with exit 2 and one stderr
#: line, and writes no artifact.  rownorm1d is gauss1d's config with its
#: kernel's rows normalized, a dense kernel with no Gaussian scales: its
#: products take the dense factor, its verdict the grid scan and its
#: Sinkhorn no band, and interpolate refuses it with exit 1 before it
#: solves.  rownorm2d is its 2-D analogue on a 21 x 21 grid: the one 2-D
#: config whose products take a dense factor and whose verdict takes the
#: grid scan, each reading a tensor grid's weights through its
#: per-axis vectors.  infentry1d is a forced 9-node table config whose
#: kernel holds an inf at entry (0, 8), where omega1[0] = omega2[8] = 0:
#: each integral that meets it reads 0 * inf = NaN, and so does each
#: closing image at node 0, off the omega1 support, so each Hilbert step
#: filters its nodes.  check exits 2, interpolate 1 (a table kernel has no
#: Gaussian scales) and the other ops 0.  An entry is (raw config, ops) or
#: (raw config, ops, tables): the tables, {file name: values}, are written
#: as CSV beside the config (write_extra).  Every grid is the trapezoid
#: lattice: a config naming another grid.rule exits 1, which
#: test_malformed_config_value_is_a_config_error checks.
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
    "aniso2d": ({"kernel": {"type": "gaussian_multivariate",
                            "covariance": [[0.25, 0.0], [0.0, 0.16]]},
                 "marginals": [{"type": "gaussian", "sigma": 1.0},
                               {"type": "gaussian", "sigma": 0.8}],
                 "grid": {"dim": 2, "radius": 8.0, "points": 81}},
                OPS),
    "aniso2d-swapped": ({"kernel": {"type": "gaussian_multivariate",
                                    "covariance": [[0.25, 0.0], [0.0, 0.16]]},
                         "marginals": [{"type": "gaussian", "sigma": 1.0},
                                       {"type": "gaussian", "sigma": 0.8}],
                         "grid": {"dim": 2, "radius": 8.0, "points": 81},
                         "swap": True},
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
    "spike1d-swapped": ({"kernel": {"type": "gaussian", "sigma": 0.5},
                         "marginals": [{"type": "gaussian", "sigma": 0.05},
                                       {"type": "gaussian", "sigma": 0.8}],
                         "grid": {"dim": 1, "radius": 8.0, "points": 41},
                         "swap": True},
                        OPS),
    "spike2d-swapped": ({"kernel": {"type": "gaussian", "sigma": 0.5},
                         "marginals": [{"type": "gaussian", "sigma": 0.05},
                                       {"type": "gaussian", "sigma": 0.8}],
                         "grid": {"dim": 2, "radius": 8.0, "points": 41},
                         "swap": True},
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
    "rownorm1d": ({"kernel": {"type": "gaussian", "sigma": 0.5},
                   "marginals": [{"type": "gaussian", "sigma": 1.0},
                                 {"type": "gaussian", "sigma": 0.8}],
                   "grid": {"dim": 1, "radius": 8.0, "points": 401},
                   "normalize_kernel_rows": True},
                  OPS),
    "rownorm2d": ({"kernel": {"type": "gaussian", "sigma": 0.5},
                   "marginals": [{"type": "gaussian", "sigma": 1.0},
                                 {"type": "gaussian", "sigma": 0.8}],
                   "grid": {"dim": 2, "radius": 8.0, "points": 21},
                   "normalize_kernel_rows": True},
                  OPS),
    "infentry1d": ({"kernel": {"type": "table", "path": "kernel.csv"},
                    "marginals": [{"type": "table", "path": "m1.csv"},
                                  {"type": "table", "path": "m2.csv"}],
                    "grid": {"dim": 1, "radius": 1.0, "points": 9},
                    "solver": {"force": True}},
                   OPS, _infentry_tables()),
}


def write_extra(name: str, directory: Path) -> Path:
    """Write EXTRA[name]'s config, and the tables it carries, into
    directory (made if missing); return the config's path."""
    raw, _, *tables = EXTRA[name]
    directory.mkdir(parents=True, exist_ok=True)
    for file, values in (tables[0] if tables else {}).items():
        np.savetxt(directory / file, values, delimiter=",")
    config = directory / f"{name}.json"
    config.write_text(json.dumps(raw, indent=2) + "\n")
    return config


def run_op(src: Path, op: str, config: Path, out: Path):
    """(exit code, stdout, {artifact name: bytes}, [warning]) of one CLI op
    on src, each warning its stderr line's "category: message"."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "fortetbridge.cli", op,
                           "--config", str(config), "--output", str(out)],
                          capture_output=True, text=True, env=env, cwd=config.parent)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return proc.returncode, proc.stdout, files, WARNING_LINE.findall(proc.stderr)


def differences(a, b) -> list:
    """What differs between two run_op results, as short phrases; the
    warnings are not compared."""
    (code_a, out_a, files_a, _), (code_b, out_b, files_b, _) = a, b
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
    for name, (_, ops, *_) in EXTRA.items():
        yield name, write_extra(name, work / name), ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)

    sides = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    runs = same = 0
    warned = dict.fromkeys(sides, 0)
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as work:
        for label, config, ops in cases(Path(work)):
            for op in ops:
                results = [run_op(src, op, config, config.parent / side / op)
                           for side, src in sides.items()]
                found = differences(*results)
                runs, same = runs + 1, same + (not found)
                code, _, files, _ = results[0]
                verdict = "; ".join(found) if found else (
                    f"identical (exit {code}, {len(files)} artifacts)")
                print(f"{label} {op}: {verdict}")
                for side, (*_, warnings) in zip(sides, results):
                    warned[side] += bool(warnings)
                    for warning in warnings:
                        print(f"  {side} warns: {warning}")
    print(f"{same} of {runs} ops identical (exit codes, stdout and artifacts)")
    print(f"ops that warn: {warned['old']} old, {warned['new']} new")
    return 0 if same == runs and not warned["new"] else 1


if __name__ == "__main__":
    sys.exit(main())
