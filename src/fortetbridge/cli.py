"""Command-line front end.

Subcommands: check, solve, interpolate, diagnose, compare.  Every artifact
is deterministic for a fixed config: JSON is written with sorted keys and
shortest-roundtrip floats, CSVs use fixed column orders, and anything
runtime-dependent (wall time, library versions) goes to the stderr log
only, never into files that byte-level reproducibility tests compare.

Exit codes: 0 success / consistent; 1 input, output, or config problem,
a command line that parse_args refuses and a FORTET_THREADS that is not a
positive integer included; 2 hypothesis or feasibility failure (also:
comparison found inconsistent solutions); 3 iteration did not converge:
Fortet's closing hit its step cap, or stopped with a marginal residual
above sqrt(tol) times that marginal's peak where no potential was dropped,
and solve, interpolate and compare still write its per-step trace.csv; or
Sinkhorn hit its sweep budget, and compare and diagnose write no file.

The FORTET_THREADS environment variable caps the BLAS thread pools; it
must take effect before numpy is first imported, which is why this module
defers all numeric imports into the command bodies.  The command line is
read by parse_args from the COMMANDS table, and no parser outlives a call
of main.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from itertools import chain, count, islice, repeat
from pathlib import Path
from types import SimpleNamespace

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

TRACE_COLUMNS = ("n", "sup_change", "normalization_residual", "hilbert_step",
                 "case1_candidate")
#: rows a CSV artifact formats and writes at once: converting whole columns
#: would hold a Python float per cell (~270 kB on a 41 x 41 grid)
CSV_BLOCK_ROWS = 32


def _apply_thread_env():
    """Copy FORTET_THREADS into each BLAS thread variable not already set.
    A value that is not a positive integer sets none and is returned, for
    main to refuse; otherwise None is returned (an unset or empty
    FORTET_THREADS sets none either)."""
    n = os.environ.get("FORTET_THREADS")
    if not n:
        return None
    if not (n.isascii() and n.isdigit() and int(n) > 0):
        return n
    for var in _THREAD_VARS:
        os.environ.setdefault(var, n)
    return None


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
    return {
        "condition_star": report.condition_star._asdict(),
        "hypotheses": {name: r._asdict() for name, r in report.hypotheses.items()},
        "refusal": report.refusal,
        "solver_admissible": report.solver_admissible,
        "swap_recommended": report.swap_recommended,
    }


def _solution_payload(problem, solution) -> dict:
    import numpy as np
    from . import bridge
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
        "h_min": float(np.min(solution.h)),
        "h_max": float(np.max(solution.h)),
    }
    if solution.coupling is not None:
        kl = bridge.kl_objective(solution.coupling)
        payload["coupling"] = {"mass": solution.coupling.mass}
        payload["kl_objective"] = kl.value
        payload["kl_absolutely_continuous"] = kl.absolutely_continuous
    return payload


def _open(args, gaussian: bool = False):
    """(problem, out): the config loaded and the output directory made.
    Every command calls it after its own flag checks, so a refused flag or
    config leaves no directory.  With gaussian, a kernel with no Gaussian
    scales is refused, with entropic_interpolation's error, before the
    directory is made."""
    from .config import load_problem
    from .errors import FortetBridgeError
    problem = load_problem(args.config)
    if gaussian and problem.kernel.gaussian is None:
        raise FortetBridgeError("interpolation needs a Gaussian kernel")
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return problem, out


def _solve_problem(problem, out: Path):
    """Shared solve path: returns the solution.  If the closing fails, the
    NonConvergenceError's StepLog, which holds the scheme row at least, is
    written to out/trace.csv before the error propagates to main, which
    exits 3."""
    from . import fortet
    from .errors import NonConvergenceError
    try:
        return fortet.run_fortet(problem.kernel, problem.marginals, problem.options)
    except NonConvergenceError as exc:
        _write_trace(out / "trace.csv", exc.trace)
        raise


def cmd_check(args) -> int:
    from . import problem as prob
    problem, out = _open(args)
    report = prob.full_report(problem.kernel, problem.marginals)
    _write_json(out / "feasibility.json", _check_payload(report))
    for name, check in sorted(report.hypotheses.items()):
        print(f"{name}: {check.status}" + (f" ({check.detail})" if check.detail else ""))
    print(f"integrability_estimate: {report.condition_star.verdict} "
          f"(estimate {report.condition_star.estimate!r})")
    if report.swap_recommended:
        print("swap_recommended: true")
    if report.refusal is not None:
        print(f"refusal: {report.refusal}")
    print(f"solver_admissible: {report.solver_admissible}")
    return 0 if report.solver_admissible else 2


def cmd_solve(args) -> int:
    problem, out = _open(args)
    if args.force:
        problem = problem._replace(options=problem.options._replace(force=True))
    started = time.perf_counter()
    solution = _solve_problem(problem, out)
    elapsed = time.perf_counter() - started
    payload = _solution_payload(problem, solution)
    steps = solution.steps
    potentials = None if solution.coupling is None else [
        ("phi", solution.phi), ("psi", solution.psi), ("h", solution.h)]
    # the writers read only the payload, the log and the three arrays: the
    # solution is dropped, and its coupling's row and col with it, and the
    # log once trace.csv is written
    del solution
    _write_trace(out / "trace.csv", steps)
    del steps
    _write_json(out / "summary.json", payload)
    if potentials is not None:
        _write_potentials(out / "potentials.csv", problem.grid, potentials)
    _log(f"solve finished in {elapsed:.3f} s")
    residuals = payload["residuals"]
    print(f"case_tag={payload['case_tag']} iterations={payload['iterations']} "
          f"refine_steps={payload['refine_steps']} "
          f"s1_resid={residuals['s1_resid']!r} "
          f"s2_resid={residuals['s2_resid']!r}")
    return 0


def cmd_interpolate(args) -> int:
    from . import bridge
    try:
        times = [float(t) for t in args.times.split(",") if t.strip() != ""]
    except ValueError:
        _log(f"could not parse --times {args.times!r}")
        return 1
    if not times:
        _log("--times is empty")
        return 1
    # NaN fails both comparisons
    outside = [t for t in times if not 0.0 <= t <= 1.0]
    if outside:
        _log(f"--times must lie in [0, 1], not {outside[0]!r}")
        return 1
    # entropic_interpolation's own check, before the solve it would follow
    problem, out = _open(args, gaussian=True)
    started = time.perf_counter()
    solution = _solve_problem(problem, out)
    if solution.coupling is None:
        _log("cannot interpolate a degenerate solution")
        return 2
    interp = bridge.entropic_interpolation(solution.phi, solution.psi,
                                           problem.kernel, times)
    headers, coords = _coordinates(problem.grid, len(interp.times))
    t_cells = _mesh_cells([repr(float(t)) for t in interp.times], problem.grid.n_nodes, 1)
    _write_csv(out / "interpolation.csv", ["t"] + headers + ["density"],
               [t_cells] + coords + [interp.densities.reshape(-1)])
    payload = _solution_payload(problem, solution)
    payload["interpolation_times"] = list(interp.times)
    payload["interpolation_masses"] = list(interp.masses)
    _write_json(out / "summary.json", payload)
    _log(f"interpolation finished in {time.perf_counter() - started:.3f} s")
    print(f"interpolated {len(interp.times)} time slices; "
          f"worst mass drift {max(abs(m - 1.0) for m in interp.masses)!r}")
    return 0


def cmd_diagnose(args) -> int:
    from . import sinkhorn
    from .errors import FeasibilityError
    from .problem import check_assumptions
    problem, out = _open(args)
    # the exact grid checks solve and compare run: an input they refuse
    # exits 2 here too, instead of sweeping to max_iter; their report
    # carries no integrability estimate, so a divergent one does not stop
    # Sinkhorn
    if not problem.options.force:
        refusal = check_assumptions(problem.kernel, problem.marginals).refusal
        if refusal is not None:
            raise FeasibilityError(refusal)
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
    # a tol of inf passes any finite spread, and one <= 0 or NaN passes none
    if not 0 < args.tol < math.inf:
        _log(f"--tol must be finite and positive, not {args.tol!r}")
        return 1
    problem, out = _open(args)
    solution = _solve_problem(problem, out)
    if solution.coupling is None:
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


#: each command's help line and its flags beyond --config and --output,
#: flag -> (default, help).  A flag whose default is False takes no value
#: and reads True when given; one whose default is a float reads its value
#: as a float; any other takes its value as given.
COMMANDS = {
    "check": ("run feasibility checks only", {}),
    "solve": ("run the fixed-point solver",
              {"--force": (False, "run even when feasibility checks fail")}),
    "interpolate": ("solve and write time marginals",
                    {"--times": ("0,0.25,0.5,0.75,1", "comma-separated times in [0, 1]")}),
    "diagnose": ("projective-metric diagnostics", {}),
    "compare": ("cross-check the two solvers",
                {"--tol": (1e-8, "ray-spread consistency tolerance")}),
}


def _flags(command: str) -> dict:
    """The command's flags, --config (required: its default is None) and
    --output first."""
    return {"--config": (None, "problem config JSON"),
            "--output": (".", "artifact directory"), **COMMANDS[command][1]}


def _shown(name: str, default) -> str:
    """A flag as usage and help show it: with its value's name unless it
    takes none."""
    return name if default is False else f"{name} {name[2:].upper()}"


def _usage(command) -> str:
    """The usage line of a command, or of the program for None."""
    if command is None:
        return "usage: fortetbridge {" + ",".join(COMMANDS) + "} --config CONFIG ..."
    return " ".join(["usage: fortetbridge", command] + [
        _shown(name, default) if default is None else f"[{_shown(name, default)}]"
        for name, (default, _) in _flags(command).items()])


def _help(command):
    """Print the help of a command, or of the program for None, to stdout,
    and exit 0."""
    lines = [_usage(command), ""]
    if command is None:
        lines += ["Schrodinger-system potentials via Fortet's iteration, with a "
                  "Sinkhorn baseline and bridge diagnostics.", "", "commands:"]
        lines += [f"  {name:<12} {text}" for name, (text, _) in COMMANDS.items()]
        lines += ["", "fortetbridge COMMAND --help lists the command's flags."]
    else:
        lines += [COMMANDS[command][0], "", "flags:",
                  f"  {'-h, --help':<16} print this help and exit"]
        for name, (default, text) in _flags(command).items():
            given = f" (default: {default})" if isinstance(default, (str, float)) else ""
            lines.append(f"  {_shown(name, default):<16} {text}{given}")
    print("\n".join(lines))
    raise SystemExit(0)


def _refuse(command, reason: str):
    """Print the usage line and the reason to stderr, and exit 1, the code
    of an input problem."""
    _log(_usage(command))
    _log(f"fortetbridge: error: {reason}")
    raise SystemExit(1)


def parse_args(argv):
    """The command line argv (without the program name) read into a
    namespace: command, config, output and the command's own flags, each
    by its name without the dashes, a flag not given at its default.

    A flag takes its value as the next word, which may start with "-", or
    after "=" in the same word, and the last of a repeated flag wins.
    Flags are matched whole: an abbreviation is refused.  -h or --help
    prints the help of the command before it, or of the program, and exits
    0.  A refused line (no command, an unknown command or flag, another
    command's flag, a missing value, a value for a flag that takes none, a
    float flag's value that is not a float, no --config) prints the usage
    line and the reason to stderr and exits 1."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help(None)
    if command not in COMMANDS:
        choices = ", ".join(COMMANDS)
        _refuse(None, f"a command is required (choose from {choices})"
                if command is None or command.startswith("-")
                else f"unknown command {command!r} (choose from {choices})")
    flags = _flags(command)
    values = {name: default for name, (default, _) in flags.items()}
    words = iter(argv[1:])
    for word in words:
        if word in ("-h", "--help"):
            _help(command)
        name, given, value = word.partition("=")
        if not word.startswith("-"):
            _refuse(command, f"unexpected argument {word!r}")
        if name not in flags:
            _refuse(command, f"{name} is not a flag of {command}"
                    if any(name in own for _, own in COMMANDS.values())
                    else f"unknown flag {name}")
        default = flags[name][0]
        if default is False:
            if given:
                _refuse(command, f"{name} takes no value")
            value = True
        elif not given:
            value = next(words, None)
            if value is None:
                _refuse(command, f"{name} needs a value")
        if isinstance(default, float):
            try:
                value = float(value)
            except ValueError:
                _refuse(command, f"{name} must be a float, not {value!r}")
        values[name] = value
    if values["--config"] is None:
        _refuse(command, "--config is required")
    return SimpleNamespace(command=command,
                           **{name[2:]: value for name, value in values.items()})


def main(argv=None) -> int:
    refused = _apply_thread_env()
    if refused is not None:
        _log(f"FORTET_THREADS must be a positive integer, not {refused!r}")
        return 1
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
