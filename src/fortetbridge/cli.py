"""Command-line front end.

Subcommands: check, solve, interpolate, diagnose, compare.  Every artifact
is deterministic for a fixed config: JSON is written with sorted keys and
shortest-roundtrip floats, CSVs use fixed column orders, and anything
runtime-dependent (wall time, library versions) goes to the stderr log
only, never into files that byte-level reproducibility tests compare.

Exit codes: 0 success / consistent; 1 input, output, or config problem;
2 hypothesis or feasibility failure (also: comparison found inconsistent
solutions); 3 iteration did not converge (the per-step trace is still
written).

The FORTET_THREADS environment variable caps the BLAS thread pools; it
must take effect before numpy is first imported, which is why this module
defers all numeric imports into the command bodies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from itertools import chain, count, islice, repeat
from pathlib import Path

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

TRACE_COLUMNS = ("n", "sup_change", "normalization_residual", "hilbert_step",
                 "case1_candidate")
#: rows a CSV artifact formats and writes at once: converting whole columns
#: would hold a Python float per cell (~270 kB on a 41 x 41 grid)
CSV_BLOCK_ROWS = 32


def _apply_thread_env() -> None:
    n = os.environ.get("FORTET_THREADS")
    if not n:
        return
    for var in _THREAD_VARS:
        os.environ.setdefault(var, n)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, headers, columns) -> None:
    """Write a CSV artifact: a header row, then one row per cell of the
    equal-length columns.

    A column is a numeric, non-bool array, whose cells are its values by
    repr with NaN as an empty cell, or an iterator of ready str cells.
    Cells and headers must need no quoting; rows end in CRLF, so the bytes
    are what csv.writer writes for the same cells.  Each block of
    CSV_BLOCK_ROWS rows is formatted and written at once (an array sliced,
    an iterator taken with islice), which keeps the Python objects held at
    a time small: a block's cell lists are gone before its str is
    formatted, and the file keeps a 64-byte buffer, not a page, since a
    block is one write anyway.
    """
    import numpy as np
    has_nan = [isinstance(c, np.ndarray) and bool(np.isnan(c).any()) for c in columns]
    row = ",".join(["%s"] * len(columns)) + "\r\n"
    with path.open("wb", buffering=64) as fh:
        fh.write((",".join(headers) + "\r\n").encode())
        for i in count(0, CSV_BLOCK_ROWS):
            cells = []
            for c, nan in zip(columns, has_nan):
                part = (c[i:i + CSV_BLOCK_ROWS].tolist() if isinstance(c, np.ndarray)
                        else list(islice(c, CSV_BLOCK_ROWS)))
                cells.append(["" if v != v else v for v in part] if nan else part)
            if not cells[0]:
                break
            n, cells = len(cells[0]), tuple(chain.from_iterable(zip(*cells)))
            # str of a float is its repr; the block's str and its bytes
            # are held together only while it is encoded
            fh.write((row * n % cells).encode())


def _write_trace(path: Path, log) -> None:
    """trace.csv from a run's fortet.StepLog, read in place: the scheme
    row's case1_candidate cell is the log's flag, each closing row's false."""
    rows = len(log)
    _write_csv(path, TRACE_COLUMNS,
               [map(str, range(1, rows + 1))]
               + [log.column(name) for name in TRACE_COLUMNS[1:4]]
               + [chain(["true" if log.case1_candidate else "false"],
                        repeat("false", rows - 1))])


def _coordinates(grid, slices: int = 1):
    """Column headers and the coordinate columns of slices copies of the
    nodes, one after another.  A single 1-D slice's column is its axis, an
    array, which holds no str per node.  Otherwise the nodes are the axes'
    'ij' mesh, and each axis's column is an iterator over its values, each
    formatted once, not once per node: each cell repeated by the product of
    the later axes' sizes, and the whole run repeated by the earlier axes'
    sizes times slices."""
    headers = ["x"] if grid.dim == 1 else [f"x{k + 1}" for k in range(grid.dim)]
    if grid.dim == 1 and slices == 1:
        return headers, list(grid.axes)
    sizes = [len(ax) for ax in grid.axes]
    return headers, [_mesh_cells([repr(v) for v in ax.tolist()],
                                 math.prod(sizes[k + 1:]),
                                 slices * math.prod(sizes[:k]))
                     for k, ax in enumerate(grid.axes)]


def _mesh_cells(cells, stride: int, runs: int):
    """cells, each repeated stride times, runs times over, generated a cell
    at a time: itertools.cycle would keep a reference per row.  At stride 1
    the list itself is iterated runs times, with no repeat object per cell."""
    if stride == 1:
        return chain.from_iterable(repeat(cells, runs))
    return chain.from_iterable(repeat(c, stride) for _ in range(runs) for c in cells)


def _write_potentials(path: Path, grid, columns) -> None:
    """columns: list of (name, 1-D array) written after the node coordinates."""
    headers, coords = _coordinates(grid)
    _write_csv(path, headers + [name for name, _ in columns],
               coords + [arr for _, arr in columns])


def _check_payload(report) -> dict:
    payload = {
        "hypotheses": {name: r._asdict() for name, r in report.hypotheses.items()},
        "solver_admissible": report.solver_admissible,
        "swap_recommended": report.swap_recommended,
    }
    if report.condition_star is not None:
        payload["condition_star"] = report.condition_star._asdict()
    return payload


def _solution_payload(problem, solution, kl) -> dict:
    import numpy as np
    payload = {
        "problem_hash": problem.problem_hash,
        "config": problem.config,
        "case_tag": solution.case_tag,
        # the scheme hands over at its first step, whose image decides the
        # case; both keys read 1
        "trigger_iteration": solution.iterations,
        "iterations": solution.iterations,
        "refine_steps": solution.refine_steps,
        "residuals": dict(solution.residuals),
        "warnings": list(solution.warnings),
    }
    if solution.h is not None:
        payload["h_min"] = float(np.min(solution.h))
        payload["h_max"] = float(np.max(solution.h))
    if solution.coupling is not None:
        payload["coupling"] = {"mass": solution.coupling.mass}
    if kl is not None:
        payload["kl_objective"] = kl.value
        payload["kl_absolutely_continuous"] = kl.absolutely_continuous
    return payload


def _solve_problem(problem, out: Path):
    """Shared solve path: returns (solution, kl), kl None for degenerate
    runs.  At the iteration cap the per-step trace is written to
    out/trace.csv before the NonConvergenceError propagates to main, which
    exits 3."""
    from . import bridge, fortet
    from .errors import NonConvergenceError
    try:
        solution = fortet.run_fortet(problem.kernel, problem.marginals,
                                     problem.options)
    except NonConvergenceError as exc:
        if exc.trace:
            _write_trace(out / "trace.csv", exc.trace)
        raise
    kl = None
    if solution.coupling is not None:
        kl = bridge.kl_objective(solution.coupling)
    return solution, kl


def cmd_check(args) -> int:
    from . import problem as prob
    from .config import load_problem
    problem = load_problem(args.config)
    report = prob.full_report(problem.kernel, problem.marginals)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "feasibility.json", _check_payload(report))
    for name, check in sorted(report.hypotheses.items()):
        print(f"{name}: {check.status}" + (f" ({check.detail})" if check.detail else ""))
    if report.condition_star is not None:
        print(f"integrability_estimate: {report.condition_star.verdict} "
              f"(estimate {report.condition_star.estimate!r})")
    if report.swap_recommended:
        print("swap_recommended: true")
    print(f"solver_admissible: {report.solver_admissible}")
    return 0 if report.solver_admissible else 2


def cmd_solve(args) -> int:
    from .config import load_problem
    problem = load_problem(args.config)
    if args.force:
        problem = problem._replace(options=problem.options._replace(force=True))
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    solution, kl = _solve_problem(problem, out)
    elapsed = time.perf_counter() - started
    _write_trace(out / "trace.csv", solution.steps)
    payload = _solution_payload(problem, solution, kl)
    _write_json(out / "summary.json", payload)
    if solution.h is not None and solution.phi is not None:
        _write_potentials(out / "potentials.csv", problem.grid,
                          [("phi", solution.phi), ("psi", solution.psi),
                           ("h", solution.h)])
    _log(f"solve finished in {elapsed:.3f} s")
    residuals = payload["residuals"]
    print(f"case_tag={solution.case_tag} iterations={solution.iterations} "
          f"refine_steps={solution.refine_steps} "
          f"s1_resid={residuals['s1_resid']!r} "
          f"s2_resid={residuals['s2_resid']!r}")
    return 0


def cmd_interpolate(args) -> int:
    from . import bridge
    from .config import load_problem
    try:
        times = [float(t) for t in args.times.split(",") if t.strip() != ""]
    except ValueError:
        _log(f"could not parse --times {args.times!r}")
        return 1
    if not times:
        _log("--times is empty")
        return 1
    problem = load_problem(args.config)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    solution, kl = _solve_problem(problem, out)
    if solution.case_tag == "degenerate":
        _log("cannot interpolate a degenerate solution")
        return 2
    interp = bridge.entropic_interpolation(solution.phi, solution.psi,
                                           problem.kernel, times)
    headers, coords = _coordinates(problem.grid, len(interp.times))
    t_cells = _mesh_cells([repr(float(t)) for t in interp.times], problem.grid.n_nodes, 1)
    _write_csv(out / "interpolation.csv", ["t"] + headers + ["density"],
               [t_cells] + coords + [interp.densities.reshape(-1)])
    payload = _solution_payload(problem, solution, kl)
    payload["interpolation_times"] = list(interp.times)
    payload["interpolation_masses"] = list(interp.masses)
    _write_json(out / "summary.json", payload)
    _log(f"interpolation finished in {time.perf_counter() - started:.3f} s")
    print(f"interpolated {len(interp.times)} time slices; "
          f"worst mass drift {max(abs(m - 1.0) for m in interp.masses)!r}")
    return 0


def cmd_diagnose(args) -> int:
    from . import sinkhorn
    from .config import load_problem
    from .errors import FeasibilityError
    from .problem import check_assumptions
    problem = load_problem(args.config)
    # the hard checks solve and compare run: an input they refuse exits 2
    # here too, instead of sweeping to max_iter; their report carries no
    # integrability estimate, so a divergent one does not stop Sinkhorn
    if not problem.options.force:
        refusal = check_assumptions(problem.kernel, problem.marginals).refusal
        if refusal is not None:
            raise FeasibilityError(refusal)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    trace = sinkhorn.sinkhorn_trace_hilbert(problem.kernel, problem.marginals,
                                            tol=problem.options.tol,
                                            max_iter=problem.options.max_iter)
    d_col, d_row = trace.diameter_columns, trace.diameter_rows
    max_ratio = max(trace.ratios) if trace.ratios else None
    payload = {
        "problem_hash": problem.problem_hash,
        "projective_diameter_columns": d_col.value,
        "projective_diameter_columns_exact": d_col.exact,
        "projective_diameter_rows": d_row.value,
        "projective_diameter_rows_exact": d_row.exact,
        "contraction_bound": trace.bound,
        "contraction_guaranteed": trace.guaranteed,
        "sinkhorn_iterations": trace.iterations,
        "hilbert_distances": list(trace.distances),
        "contraction_ratios": list(trace.ratios),
        "max_observed_ratio": max_ratio,
        "ratios_within_bound": (max_ratio is None
                                or max_ratio <= trace.bound + 1e-9),
    }
    _write_json(out / "diagnose.json", payload)
    bound_txt = ("no-contraction-guarantee" if not trace.guaranteed
                 else repr(trace.bound))
    print(f"contraction_bound={bound_txt} sinkhorn_iterations={trace.iterations} "
          f"max_observed_ratio={max_ratio!r}")
    return 0


def cmd_compare(args) -> int:
    from . import fortet, sinkhorn
    from .config import load_problem
    # a tol of inf passes any finite spread, and one <= 0 or NaN passes none
    if not 0 < args.tol < math.inf:
        _log(f"--tol must be finite and positive, not {args.tol!r}")
        return 1
    problem = load_problem(args.config)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    solution, _ = _solve_problem(problem, out)
    if solution.case_tag == "degenerate":
        _log("cannot compare a degenerate solution")
        return 2
    pair = sinkhorn.run_sinkhorn(problem.kernel, problem.marginals,
                                 tol=problem.options.tol,
                                 max_iter=problem.options.max_iter)
    report = fortet.verify_uniqueness(solution, pair,
                                      problem.marginals, tol=args.tol)
    _write_potentials(out / "potentials_fortet.csv", problem.grid,
                      [("phi", solution.phi), ("psi", solution.psi),
                       ("h", solution.h)])
    _write_potentials(out / "potentials_sinkhorn.csv", problem.grid,
                      [("phi", pair.u), ("psi", pair.v)])
    payload = {
        "problem_hash": problem.problem_hash,
        "fortet_iterations": solution.iterations,
        "fortet_refine_steps": solution.refine_steps,
        "sinkhorn_iterations": pair.iterations,
        "ratio_spread_phi": report.ratio_spread_phi,
        "ratio_spread_psi": report.ratio_spread_psi,
        "ray_constant_phi": report.c_phi,
        "ray_constant_psi": report.c_psi,
        "consistent": report.consistent,
        "tolerance": args.tol,
    }
    _write_json(out / "compare.json", payload)
    print(f"consistent={report.consistent} "
          f"ratio_spread_phi={report.ratio_spread_phi!r} "
          f"ratio_spread_psi={report.ratio_spread_psi!r}")
    return 0 if report.consistent else 2


#: the parser, once build_parser has built it
_PARSER = None


def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call in a process and
    shared by every later one, which must not change it.  A build costs
    ~0.9 ms against ~0.05 ms for a parse, a saving only a process that runs
    main more than once sees (a test suite, an in-process benchmark).  Each
    parse_args call fills a fresh namespace, so no call sees another's
    arguments, and main looks up cmd_<command> when it dispatches, so the
    parser holds no command function."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = argparse.ArgumentParser(
        prog="fortetbridge",
        description="Schrodinger-system potentials via Fortet's iteration, "
                    "with a Sinkhorn baseline and bridge diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="problem config JSON")
        p.add_argument("--output", default=".", help="artifact directory")

    p = sub.add_parser("check", help="run feasibility checks only")
    common(p)

    p = sub.add_parser("solve", help="run the fixed-point solver")
    common(p)
    p.add_argument("--force", action="store_true",
                   help="run even when feasibility checks fail")

    p = sub.add_parser("interpolate", help="solve and write time marginals")
    common(p)
    p.add_argument("--times", default="0,0.25,0.5,0.75,1",
                   help="comma-separated times in [0, 1]")

    p = sub.add_parser("diagnose", help="projective-metric diagnostics")
    common(p)

    p = sub.add_parser("compare", help="cross-check the two solvers")
    common(p)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="ray-spread consistency tolerance")
    _PARSER = parser
    return parser


def main(argv=None) -> int:
    _apply_thread_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import (ConfigError, FeasibilityError, FortetBridgeError,
                         NonConvergenceError)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 1
    except OSError as exc:
        _log(f"I/O error: {exc}")
        return 1
    except FeasibilityError as exc:
        _log(f"feasibility failure: {exc}")
        return 2
    except NonConvergenceError as exc:
        _log(f"did not converge: {exc}")
        return 3
    except FortetBridgeError as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
