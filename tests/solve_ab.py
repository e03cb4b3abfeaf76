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
trace: the first op's, the untimed one, and the steady op's, run after it.
The first op is the tree's first after it loads on the first workload,
and the first on its config on the others; bench/run.py's peak_mem_mb
reads a process's first solve op.  A second line per workload names, for
each tree, the phase that sets the steady op's peak and the phase next
below it, from one more steady op traced with each phase's functions
wrapped (phase_peaks).

Its numbers are diagnostics, one process on one host: a speed or memory
claim comes from bench/run.py.  The script only reads bench/; pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gauss1d", "gauss2d", "swap")


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


@contextlib.contextmanager
def phase_peaks(tree):
    """Trace the block, from a gc.collect(), with each phase's functions in
    the tree's modules wrapped, the wrappers made before tracing starts.
    Yields a dict that gains, per phase, the largest tracemalloc peak read
    within one of its calls, and under "other" the largest between them
    (the config's load, the feasibility report, the CLI's own work): each
    call's entry and exit reads the peak of the segment it ends and resets
    it (tracemalloc.reset_peak)."""
    phases = (("fortet", "fortet_step", "scheme"),
              ("fortet", "_closing_iteration", "closing"),
              ("fortet", "_extract_with_warnings", "extraction/coupling"),
              ("bridge", "build_coupling", "extraction/coupling"),
              ("bridge", "kl_objective", "KL"),
              ("cli", "_write_trace", "trace writer"),
              ("cli", "_write_json", "summary writer"),
              ("cli", "_write_potentials", "potentials writer"))
    peaks = dict.fromkeys(["other"] + [phase for _, _, phase in phases], 0)

    def close(phase):
        peaks[phase] = max(peaks[phase], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def wrap(fn, phase):
        def wrapped(*args, **kwargs):
            close("other")
            try:
                return fn(*args, **kwargs)
            finally:
                close(phase)
        return wrapped

    originals = []
    for module, name, phase in phases:
        module = getattr(tree, module)
        originals.append((module, name, getattr(module, name)))
        setattr(module, name, wrap(originals[-1][2], phase))
    try:
        gc.collect()
        tracemalloc.start()
        try:
            yield peaks
            close("other")
        finally:
            tracemalloc.stop()
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


def peak_phases(tree, config: Path, out: Path) -> str:
    """The phase that sets the peak of one steady solve op and the phase
    next below it, with their peaks (phase_peaks)."""
    with phase_peaks(tree) as peaks:
        run(tree, config, out)
    top = sorted(peaks.items(), key=lambda item: -item[1])[:2]
    return "; next ".join(f"{phase} {peak / 1e3:.1f} kB" for phase, peak in top)


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

    trees = {}
    for side, src in (("old", args.old_src), ("new", args.new_src)):
        trees[side] = load_tree(src, f"fortetbridge_{side}")
        importlib.import_module(f"fortetbridge_{side}.cli")
    with tempfile.TemporaryDirectory(prefix="solve_ab_") as work:
        for name in WORKLOADS:
            config = workloads.write_config(workloads.make_workload(name, args.seed),
                                            Path(work) / name)
            outs = {side: config.parent / side for side in trees}
            first = {side: traced(tree, config, outs[side]) + (artifacts(outs[side]),)
                     for side, tree in trees.items()}
            firsts = {side: first[side][0] for side in trees}
            peaks = {side: traced(tree, config, outs[side])[0]
                     for side, tree in trees.items()}
            phases = {side: peak_phases(tree, config, outs[side])
                      for side, tree in trees.items()}
            times = {side: [] for side in trees}
            for pair in range(args.pairs):
                order = ("old", "new") if pair % 2 == 0 else ("new", "old")
                for side in order:
                    times[side].append(run(trees[side], config, outs[side])[0])
            won = sum(n < o for o, n in zip(times["old"], times["new"]))
            match = "match" if first["old"][1:] == first["new"][1:] else "DIFFER"
            print(f"{name}: old {summary(times['old'])}; new {summary(times['new'])}; "
                  f"new faster in {won} of {args.pairs}; peak old "
                  f"{peaks['old'] / 1e3:.1f} kB, new {peaks['new'] / 1e3:.1f} kB; "
                  f"first-op peak old {firsts['old'] / 1e3:.1f} kB, "
                  f"new {firsts['new'] / 1e3:.1f} kB; "
                  f"exit, stdout and artifacts {match}")
            print(f"  steady peak set by: old {phases['old']}; new {phases['new']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
