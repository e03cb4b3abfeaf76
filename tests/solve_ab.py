#!/usr/bin/env python3
"""Interleaved in-process A/B of the CLI solve op across two source trees.

    python3 tests/solve_ab.py OLD_SRC NEW_SRC [PAIRS] [--seed SEED]

OLD_SRC and NEW_SRC are two `src/` directories (each holding the
fortetbridge package).  Both trees are imported into one process
(closing_steps.load_tree), and each bench workload's config at SEED
(default 0, the exact named instances) is written through bench/workloads.
Each tree runs the op once untimed; then PAIRS pairs (default 200) are
timed, each pair running both trees' `cli.main(["solve", ...])` back to
back, the tree that goes first alternating from pair to pair.  One line is
printed per workload: each tree's median op time [quartiles] in ms, the
pairs the new tree won, each tree's tracemalloc peaks, and whether the two
trees' exit codes, stdout and artifacts match.  Two peaks are read per
tree, each of one op traced from a gc.collect(), as bench/run.py collects
before it traces, so that no garbage of an earlier op is freed inside the
trace: the first op's and the steady op's.  bench/run.py's peak_mem_mb
reads a process's first solve op, so each tree's first op runs in fresh
interpreters of its own, set up as bench/run.py sets one up (first_ops),
and the median of FRESH of them is read: what one tree's first op
allocates for good would otherwise not be allocated again by the other's,
and the tree that ran first would read higher.  A fresh process's first
op varies by ~0.1 kB from run to run.  The steady op runs in this process,
after the untimed one.  Two more lines per workload name give, for each
tree, every phase's peak in the first op, highest first, so the first
names the phase that sets it, from one more fresh interpreter whose first
op is traced by phase (first_phases); the same for the steady op; the
traced memory at the closing's entry, in kB and in node arrays; and the
peak of each of the closing's three sub-phases (map, step row, mixer) in
node arrays above that entry, from a steady op traced with its phase
boundaries read by a profile hook (phase_peaks).  Phases a few hundred
bytes apart are within one op's run-to-run spread.

Its numbers are diagnostics, on one host: a speed or memory
claim comes from bench/run.py.  The script only reads bench/; pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import inspect
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gauss1d", "gauss2d", "swap")
#: the fresh processes whose median first-op peak is read per tree
FRESH = 3


def run(tree, config: Path, out: Path):
    """(seconds, exit code, stdout) of one solve op; stderr is dropped, since
    it carries wall times."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        code = tree.cli.main(["solve", "--config", str(config), "--output", str(out)])
        elapsed = time.perf_counter() - started
    return elapsed, code, stdout.getvalue()


def traced(tree, config: Path, out: Path):
    """(tracemalloc peak in bytes, exit code, stdout) of one solve op, the
    peak counted from its start after a gc.collect()."""
    gc.collect()
    tracemalloc.start()
    try:
        _, code, stdout = run(tree, config, out)
        return tracemalloc.get_traced_memory()[1], code, stdout
    finally:
        tracemalloc.stop()


#: a fresh interpreter set up as bench/run.py's is before its first op
#: (every module imported, the workload's config written and loaded),
#: which runs solve ops, each traced from a gc.collect(), and prints each
#: op's tracemalloc peak
FIRST_OPS = """\
import contextlib, gc, io, sys, tracemalloc
from pathlib import Path
sys.path.insert(0, {bench!r})
from fortetbridge import cli
from fortetbridge import bridge, config, fortet, hilbert, problem
from fortetbridge import quadrature, sinkhorn
import workloads
work = Path({work!r})
path = workloads.write_config(workloads.make_workload({name!r}, {seed!r}), work)
config.load_problem(path)
for _ in range({ops!r}):
    gc.collect()
    tracemalloc.start()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["solve", "--config", str(path), "--output", str(work / "solve")])
    assert code == 0, code
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def first_ops(src: Path, name: str, seed: int, work: Path, ops: int = 1):
    """The tracemalloc peaks, in bytes, of the first ops solve ops of a
    fresh interpreter that imports fortetbridge from src and is set up as
    bench/run.py sets one up (FIRST_OPS), on workload name at seed; its
    config and artifacts go to work."""
    code = FIRST_OPS.format(bench=str(ROOT / "bench"), work=str(work), name=name,
                            seed=seed, ops=ops)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(src).resolve())] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return [int(line) for line in run.stdout.split()]


#: FIRST_OPS' set-up, then one first op traced by phase (phase_peaks),
#: which prints every phase's peak, highest first (ranked_phases)
FIRST_PHASES = FIRST_OPS[:FIRST_OPS.index("for _ in")] + """\
import types
sys.path.insert(0, {tests!r})
import solve_ab
tree = types.SimpleNamespace(fortet=fortet, bridge=bridge, cli=cli)
with solve_ab.phase_peaks(tree) as peaks:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["solve", "--config", str(path), "--output", str(work / "solve")])
assert code == 0, code
peaks.pop("closing")
print(solve_ab.ranked_phases(peaks))
"""


def first_phases(src: Path, name: str, seed: int, work: Path) -> str:
    """Every phase's peak in the first solve op, highest first
    (ranked_phases), in a fresh interpreter set up as first_ops sets one
    up, with the op's phase boundaries read by phase_peaks' hook."""
    code = FIRST_PHASES.format(bench=str(ROOT / "bench"), tests=str(ROOT / "tests"),
                               work=str(work), name=name, seed=seed)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(src).resolve())] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.strip()


#: the closing's sub-phases, in the order a step runs them
CLOSING = ("closing: map", "closing: step row", "closing: mixer")


@contextlib.contextmanager
def phase_peaks(tree):
    """Trace the block, from a gc.collect(), with the phase boundaries read
    by a sys.setprofile hook: a wrapper would keep its call's arguments
    alive, and hide omega_map freeing the omega1 / K it is handed.  Yields a
    dict that gains, per phase, the largest tracemalloc peak read within it.

    The hook reads the peak at every event, and resets it
    (tracemalloc.reset_peak), less the frame objects that the hook makes
    CPython build, one for each frame it is handed, ~2-3 kB on the
    closing's stack.  Between two events those frames do not change; a
    frame built for a call is counted from that call's event, so the
    segment before it may read up to one frame low.  The hook also makes
    CPython build each code object's line array, once, as many bytes as
    its bytecode (CPython 3.11, for files under 32768 lines): ~50 kB over
    a process's first hooked op, which would read each phase higher than
    the one before.  Those arrays are counted as held from their code's
    first event, for every code reachable from a function or the stack
    when tracing starts (_line_arrays).  What is left of the hook's own
    cost reads ~0.5 kB.

    The phases are the scheme (fortet_step), the closing's three
    sub-phases, run_fortet's tail (from the closing's return to its own:
    h, extraction, coupling and the residual check), KL (kl_objective), the
    three writers, and "other" for the rest (the config's load, the
    feasibility report, the CLI's own work).  A closing sub-phase runs from
    the end of the one before it: the map to omega_map's return, so it
    holds the extrapolation's write and the omega1 fit it is handed; the
    step row to _step_row's return; the mixer to next_input's return.
    Under the "closing" key the dict also holds the traced memory at the
    closing's entry, where the scheme's image is its one node array."""
    fortet, bridge, cli = tree.fortet, tree.bridge, tree.cli

    def code(fn):
        return inspect.unwrap(fn).__code__

    closing = code(fortet._closing_iteration)
    # (event, code) -> the phase that follows it
    bounds = {("call", code(fortet.fortet_step)): "scheme",
              ("return", code(fortet.fortet_step)): "other",
              ("call", closing): CLOSING[0],
              ("return", closing): "tail",
              ("return", code(fortet.run_fortet)): "other",
              ("call", code(bridge.kl_objective)): "KL",
              ("return", code(bridge.kl_objective)): "other"}
    for name, phase in (("_write_trace", "trace writer"), ("_write_json", "summary writer"),
                        ("_write_potentials", "potentials writer")):
        bounds["call", code(getattr(cli, name))] = phase
        bounds["return", code(getattr(cli, name))] = "other"
    # taken only inside the closing: the scheme calls the map and the row too
    steps = {code(fortet.omega_map): CLOSING[1], code(fortet._step_row): CLOSING[2],
             code(fortet._AndersonMixer.next_input): CLOSING[0]}
    peaks = dict.fromkeys(["other", "scheme", *CLOSING, "tail", "KL", "trace writer",
                           "summary writer", "potentials writer", "closing"], 0)
    lines = _line_arrays()
    phase = "other"
    # the sizes of the hook's frames on the stack, made before tracing
    # starts; a return whose call came before the hook pops none
    sizes, depth, held = [0] * 1024, 0, 0

    def read():
        peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        if peak > peaks[phase]:
            peaks[phase] = peak

    def hook(frame, event, arg):
        nonlocal phase, depth, held
        # a pop neither allocates nor shrinks the dict
        held += lines.pop(frame.f_code, 0)
        if event == "call":
            sizes[depth] = sys.getsizeof(frame)
            held += sizes[depth]
            depth += 1
        read()
        if event == "return" and depth:
            depth -= 1
            held -= sizes[depth]
        following = bounds.get((event, frame.f_code))
        if following is None and event == "return" and phase in CLOSING:
            following = steps.get(frame.f_code)
        if following is not None:
            if frame.f_code is closing and event == "call":
                peaks["closing"] = tracemalloc.get_traced_memory()[0] - held
            phase = following

    gc.collect()
    tracemalloc.start()
    sys.setprofile(hook)
    try:
        yield peaks
    finally:
        sys.setprofile(None)
        read()
        tracemalloc.stop()


#: the code objects _line_arrays has sized, and of those the ones whose
#: line array no hook has built yet, with its size: one line array per
#: code for the process's life
_SIZED, _UNBUILT = set(), {}


def _line_arrays() -> dict:
    """_UNBUILT, after adding every code object not sized before, of a
    live function, nested ones too, or of a frame on the stack: the bytes
    of the line array a profile hook makes CPython build for it, as many
    as its bytecode's."""
    stack = [f.__code__ for f in gc.get_objects() if isinstance(f, types.FunctionType)]
    frame = sys._getframe()
    while frame is not None:
        stack.append(frame.f_code)
        frame = frame.f_back
    while stack:
        c = stack.pop()
        if c not in _SIZED:
            _SIZED.add(c)
            _UNBUILT[c] = len(c.co_code)
            stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return _UNBUILT


def ranked_phases(peaks: dict) -> str:
    """Every phase that ran, with its peak in kB, highest first: the first
    sets the op's peak.  A phase that never ran (peak 0) is left out."""
    ranked = sorted(peaks.items(), key=lambda item: -item[1])
    return ", ".join(f"{phase} {peak / 1e3:.1f}" for phase, peak in ranked if peak) + " kB"


def peak_phases(tree, config: Path, out: Path, nodes: int) -> str:
    """Every phase's peak in one steady solve op, highest first
    (ranked_phases); the traced memory at the closing's entry (the loaded
    problem and the scheme's image, among the rest), in kB and in node
    arrays; and each closing sub-phase's peak in node arrays above what
    that entry holds besides the scheme's image (phase_peaks).
    The sub-phase counts do not move with what the entry holds, so an array
    that the loaded problem stops holding shows in the entry only."""
    # the first op under a profile hook pays one-time allocations (~50 kB
    # on gauss1d), so the second is read
    for _ in range(2):
        with phase_peaks(tree) as peaks:
            run(tree, config, out)
    entry = peaks.pop("closing")
    base = entry - 8 * nodes
    arrays = ", ".join(f"{phase[9:]} {(peaks[phase] - base) / (8 * nodes):.2f}"
                       for phase in CLOSING)
    return (ranked_phases(peaks)
            + f"; closing entry {entry / 1e3:.1f} kB, {entry / (8 * nodes):.2f} node arrays"
            + f" (closing node arrays: {arrays})")


def artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def summary(times) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"{1e3 * median:.3f} [{1e3 * q1:.3f}, {1e3 * q3:.3f}] ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("pairs", type=int, nargs="?", default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "bench"))
    sys.path.insert(0, str(ROOT / "tests"))
    import workloads
    from closing_steps import load_tree

    trees, srcs = {}, {"old": args.old_src, "new": args.new_src}
    for side, src in srcs.items():
        trees[side] = load_tree(src, f"fortetbridge_{side}")
        importlib.import_module(f"fortetbridge_{side}.cli")
    with tempfile.TemporaryDirectory(prefix="solve_ab_") as work:
        for name in WORKLOADS:
            workload = workloads.make_workload(name, args.seed)
            config = workloads.write_config(workload, Path(work) / name)
            grid = workload.config["grid"]
            nodes = grid["points"] ** grid["dim"]
            outs = {side: config.parent / side for side in trees}
            first = {side: run(tree, config, outs[side])[1:] + (artifacts(outs[side]),)
                     for side, tree in trees.items()}
            firsts = {side: statistics.median(
                first_ops(src, name, args.seed, Path(work) / side / name)[0]
                for _ in range(FRESH)) for side, src in srcs.items()}
            peaks = {side: traced(tree, config, outs[side])[0]
                     for side, tree in trees.items()}
            first_set = {side: first_phases(src, name, args.seed, Path(work) / side / name)
                         for side, src in srcs.items()}
            phases = {side: peak_phases(tree, config, outs[side], nodes)
                      for side, tree in trees.items()}
            times = {side: [] for side in trees}
            for pair in range(args.pairs):
                order = ("old", "new") if pair % 2 == 0 else ("new", "old")
                for side in order:
                    times[side].append(run(trees[side], config, outs[side])[0])
            won = sum(n < o for o, n in zip(times["old"], times["new"]))
            match = "match" if first["old"] == first["new"] else "DIFFER"
            print(f"{name}: old {summary(times['old'])}; new {summary(times['new'])}; "
                  f"new faster in {won} of {args.pairs}; peak old "
                  f"{peaks['old'] / 1e3:.1f} kB, new {peaks['new'] / 1e3:.1f} kB; "
                  f"first-op peak old {firsts['old'] / 1e3:.1f} kB, "
                  f"new {firsts['new'] / 1e3:.1f} kB; "
                  f"exit, stdout and artifacts {match}")
            for side in trees:
                print(f"  {side}: first-op phase peaks {first_set[side]}; "
                      f"steady phase peaks {phases[side]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
