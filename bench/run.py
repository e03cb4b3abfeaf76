#!/usr/bin/env python3
"""Benchmark of the fortetbridge command line: solve, compare, diagnose.

Run from the repository root:

    python3 bench/run.py --workload gauss1d --seed 0 --seconds 20 --trace 0

One process, one closed-loop client: each op is `fortetbridge.cli.main([...])`
called in-process, and the next op starts when it returns.  There is no
queue, so no op ever waits for another.  A run is a fixed number of cycles
of the workload's ops (see workloads.py), preceded by an untimed pass that
records each op's tracemalloc peak and the solve's accuracy.

A fixed reference computation (reference.py) is timed before and after each
op and each set-up sample.  The gated times (setup_s, solve_s) are rescaled
by it to the reference's nominal speed, which takes most of the host's
speed states out of them; the raw times are printed next to them.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced cycles, prints per-layer metrics from the traced ones and the
tracing overhead, and adds a solve pass under FORTET_THREADS=1.  Both print
a human-readable report, then one JSON line.  Artifacts, the full report
and the spans go to .bench_run/ under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

#: fresh processes timed for setup_s; the median is reported
SETUP_SAMPLES = 5
#: reference timed around each set-up sample (reference.py)
SETUP_REFERENCE = ("import",)
#: wall budget of one op; an op over it is stopped and counted as failed
OP_BUDGET_S = 30.0
#: no op starts later than this into a run; skipped ops count as failed
RUN_BUDGET_S = 140.0
#: solves of the single-thread pass in a traced run
THREADS1_SOLVES = 3
#: metrics printed in the JSON line, by mode (see BENCHMARK.json)
END_TO_END = ("setup_s", "solve_s", "peak_mem_mb")
PER_LAYER = (
    "quadrature.build_grid_s", "config.load_problem_s",
    "problem.kernel_build_s", "problem.kernel_mb", "problem.apply_bytes",
    "problem.full_report_s", "fortet.run_s", "fortet.scheme_s",
    "fortet.closing_s", "fortet.self_s", "fortet.scheme_steps",
    "fortet.closing_steps", "fortet.omega_map_calls", "fortet.omega_map_us",
    "fortet.trace_mb", "fortet.failed", "fortet.run_1thread_s",
    "sinkhorn.failed", "bridge.coupling_s", "bridge.kl_s",
    "bridge.coupling_mb", "cli.self_s", "cli.artifact_kb", "trace.overhead_s")


class OpBudgetExceeded(Exception):
    pass


@contextlib.contextmanager
def _op_budget(seconds: float):
    def expire(signum, frame):
        raise OpBudgetExceeded(f"op exceeded its {seconds:g} s budget")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Runs one workload's ops through cli.main and checks each result."""

    def __init__(self, workload):
        from fortetbridge import cli
        from fortetbridge.config import load_problem
        import workloads
        self.cli = cli
        self.workload = workload
        self.dir = WORK / workload.name
        self.config = workloads.write_config(workload, self.dir)
        self.problem = load_problem(self.config)
        self.hashes = {}
        self.records = []
        self.started = time.perf_counter()

    def out_dir(self, op: str) -> Path:
        return self.dir / op

    def op(self, op: str, cycle: int, tracer=None, memory=False) -> dict:
        import checks
        out = self.out_dir(op)
        out.mkdir(parents=True, exist_ok=True)
        for f in out.iterdir():
            f.unlink()
        record = {"op": op, "cycle": cycle, "traced": tracer is not None,
                  "code": None, "seconds": None, "ref_s": None, "problems": [],
                  "sweeps": None}
        if time.perf_counter() - self.started > RUN_BUDGET_S:
            record["problems"].append(f"run budget of {RUN_BUDGET_S:g} s spent")
            self.records.append(record)
            return record
        argv = [op, "--config", str(self.config), "--output", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        if memory:
            import tracemalloc
            gc.collect()
            tracemalloc.start()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr), _op_budget(OP_BUDGET_S):
                t0 = time.perf_counter()
                if tracer is not None:
                    code = tracer.call("cli.main", self.cli.main, argv)
                else:
                    code = self.cli.main(argv)
                record["seconds"] = time.perf_counter() - t0
        except OpBudgetExceeded as exc:
            record["seconds"] = time.perf_counter() - t0
            record["problems"].append(str(exc))
        except Exception:
            record["problems"].append(traceback.format_exc(limit=3))
        finally:
            if memory:
                record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
        if not record["problems"]:
            record["code"] = code
            try:
                problems, sweeps = checks.check_op(op, code, out, stderr.getvalue(),
                                                   self.workload, self.hashes)
            except (OSError, ValueError) as exc:
                problems, sweeps = [f"{op}: unreadable artifact: {exc}"], None
            record["problems"] += problems
            record["sweeps"] = sweeps
        self.records.append(record)
        return record


def _quantile(values, q: int):
    """The q-th percentile, or None unless 10 samples lie beyond it."""
    if len(values) * (100 - q) < 1000:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def _probe(args, mode: str, env=None) -> str:
    """Run this script in a fresh process in a probe mode; its last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--probe", mode,
           "--t0", repr(_now())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


def _setup(args):
    """The benchmark's set-up: import the CLI and library modules, generate
    the config and run the first load_problem."""
    from fortetbridge import cli  # noqa: F401  (deferred numeric imports)
    from fortetbridge import bridge, config, fortet, hilbert, problem  # noqa: F401
    from fortetbridge import quadrature, sinkhorn  # noqa: F401
    import workloads
    return Runner(workloads.make_workload(args.workload, args.seed))


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _line(name, value, unit, n, note=""):
    print(f"  {name:<30} {_fmt(value):>12} {unit:<6} n={n}"
          + (f"  ({note})" if note else ""))


def _passed(records, op, traced=False):
    """Timed ops of one kind that exited 0 and passed their checks."""
    return [r for r in records
            if r["op"] == op and r["cycle"] >= 0 and r["traced"] == traced
            and r["code"] == 0 and not r["problems"]]


def _ok(records, op, traced=False):
    """Seconds of the ops that _passed."""
    return [r["seconds"] for r in _passed(records, op, traced)]


def _setup_samples(args):
    """(rescaled, raw) set-up seconds of SETUP_SAMPLES fresh processes."""
    import reference
    rescaled, raw = [], []
    before = reference.measure(SETUP_REFERENCE)
    for _ in range(SETUP_SAMPLES):
        seconds = float(_probe(args, "setup"))
        after = reference.measure(SETUP_REFERENCE)
        raw.append(seconds)
        rescaled.append(reference.rescale(seconds, (before + after) / 2,
                                          SETUP_REFERENCE))
        before = after
    return rescaled, raw


def _timed_loop(runner, n_cycles: int, tracer=None) -> None:
    import reference
    parts = runner.workload.reference
    before = reference.measure(parts)
    for cycle in range(n_cycles):
        traced = tracer is not None and cycle % 2 == 0
        with tracer.installed() if traced else contextlib.nullcontext():
            for op in runner.workload.ops:
                record = runner.op(op, cycle, tracer if traced else None)
                after = reference.measure(parts)
                record["ref_s"] = (before + after) / 2
                before = after


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "threads1"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fortetbridge" / "__init__.py").is_file():
        print(f"no fortetbridge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # as the CLI entry point does: FORTET_THREADS must act before numpy loads
    from fortetbridge import cli
    cli._apply_thread_env()
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"fortetbridge was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.probe == "setup":
        _setup(args)
        print(repr(_now() - args.t0))
        return 0
    if args.probe == "threads1":
        return _threads1_probe(args)

    started = time.perf_counter()
    setup, setup_raw = _setup_samples(args) if args.trace == 0 else ([], [])
    runner = _setup(args)
    import checks
    import machine
    import reference
    import workloads
    from tracing import Tracer, layer_metrics
    wl = runner.workload
    workloads.check_regime(wl, runner.problem)
    mach = machine.record()

    # untimed pass: warms up, records tracemalloc peaks, defines the hashes
    peaks = {}
    for op in dict.fromkeys(wl.ops):
        peaks[op] = runner.op(op, -1, memory=True).get("peak_mb")
    potentials = runner.out_dir("solve") / "potentials.csv"
    summary = json.loads((runner.out_dir("solve") / "summary.json").read_text())
    artifact_kb = sum((runner.out_dir("solve") / n).stat().st_size
                      for n in checks.SOLVE_FILES) / 1e3
    acc = checks.accuracy(runner.problem, wl, potentials)

    n_cycles = wl.n_cycles(args.seconds)
    tracer = Tracer() if args.trace else None
    _timed_loop(runner, n_cycles, tracer)

    records = runner.records
    problems = [p for r in records for p in r["problems"]]
    exhausted = [r for r in records if r["sweeps"] is not None]
    correct = not problems and checks.accurate(acc, wl)
    attempted = len(records)

    caches = mach["caches"]
    kernel_bytes = runner.problem.kernel.values.nbytes
    print(f"fortetbridge benchmark: workload {wl.name}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"  machine: nproc={mach['nproc']} blas_threads={mach['blas_threads']} "
          f"FORTET_THREADS={mach['fortet_threads_env']} "
          + " ".join(f"{k}={caches[k] / 2**20:.1f}MiB" for k in ("L2", "L3") if k in caches)
          + f" numpy={mach['numpy']} scipy={mach['scipy']}")
    print(f"  instance: {wl.scales}; {runner.problem.grid.n_nodes} nodes; "
          f"kernel {kernel_bytes / 1e6:.1f} MB, {machine.placement(kernel_bytes, caches)}")
    print(f"  load: one closed-loop client, {n_cycles} cycles of "
          f"{','.join(wl.ops)} = {attempted - len(peaks)} timed ops; no queue, "
          "so waiting time does not exist")
    print(f"  first solve: case_tag={summary['case_tag']} steps="
          f"{summary['iterations']}+{summary['refine_steps']} warnings="
          f"{summary['warnings']}")
    for r in exhausted[:1]:
        print(f"  budget: compare stopped after {r['sweeps']} Sinkhorn sweeps "
              f"in {r['seconds']:.3f} s (exit 3); {len(exhausted)} such ops")
    for p in problems[:5]:
        print(f"  CHECK FAILED: {p}")

    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "machine": mach, "scales": wl.scales, "cycles": n_cycles,
              "first_solve": summary, "records": records, "accuracy": acc,
              "tracemalloc_peak_mb": peaks,
              "setup_samples_s": {"rescaled": setup, "raw": setup_raw}}
    if args.trace == 0:
        solves = _ok(records, "solve")
        compares = _ok(records, "compare")
        diagnoses = _ok(records, "diagnose")
        rescaled = [reference.rescale(r["seconds"], r["ref_s"], wl.reference)
                    for r in _passed(records, "solve")]
        refs = [r["ref_s"] for r in records if r["ref_s"] is not None]
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup),
                        "median, rescaled to the reference's nominal speed"),
            "setup_raw_s": (statistics.median(setup_raw), "s", len(setup_raw), ""),
            "solve_s": (statistics.median(rescaled), "s", len(rescaled),
                        "median, rescaled to the reference's nominal speed"),
            "solve_p50_s": (statistics.median(solves), "s", len(solves), ""),
            "solve_p90_s": (_quantile(solves, 90), "s", len(solves),
                            "needs >= 100 solves"),
            "compare_p50_s": (statistics.median(compares) if compares else None,
                              "s", len(compares), "successful compares"),
            "diagnose_p50_s": (statistics.median(diagnoses) if diagnoses else None,
                               "s", len(diagnoses), ""),
            "reference_s": (statistics.median(refs), "s", len(refs),
                            f"{'+'.join(dict.fromkeys(wl.reference))} x"
                            f"{len(wl.reference) // len(set(wl.reference))}, nominal "
                            f"{reference.nominal(wl.reference):g} s"),
            "fail_frac": ((len(problems) + len(exhausted)) / attempted, "ratio",
                          attempted, f"{len(problems)} failed checks + "
                          f"{len(exhausted)} exhausted budgets of {attempted} ops"),
            "peak_mem_mb": (peaks["solve"], "MB", 1, "tracemalloc, one solve"),
            "rel_resid": (acc["rel_resid"], "1", 1,
                          f"clean gate nodes; must be <= {wl.resid_max:g}"),
            "clean_share": (acc["clean_share"], "ratio", 1,
                            f"must be >= {wl.min_clean_share:g}"),
            "oracle_dev": (acc["oracle_dev"], "1", 1, ""),
            "underflow_nodes": (acc["underflow_nodes"], "count", 1, ""),
        }
        for op, peak in peaks.items():
            metrics[f"{op}.tracemalloc_mb"] = (peak, "MB", 1, "untimed pass")
        selected = END_TO_END
    else:
        tracer.dump(runner.dir / f"spans-seed{args.seed}.jsonl")
        layers = layer_metrics(tracer.spans)
        one = json.loads(_probe(args, "threads1",
                                env=dict(os.environ, FORTET_THREADS="1")))
        traced, plain = _ok(records, "solve", True), _ok(records, "solve")
        metrics = {k: (v, u, c, "") for k, (v, u, c) in layers.items()}
        metrics.update({
            "fortet.run_1thread_s": (one["run_s"], "s", one["n"],
                                     f"FORTET_THREADS=1, blas_threads="
                                     f"{one['blas_threads']}; not gated"),
            "cli.artifact_kb": (artifact_kb, "kB", 1, "solve artifacts"),
            "trace.overhead_s": (statistics.median(traced) - statistics.median(plain),
                                 "s", f"{len(traced)}+{len(plain)}",
                                 "traced minus untraced solve_p50_s"),
        })
        for name in ("problem.kernel_mb", "problem.apply_bytes", "fortet.trace_mb",
                     "bridge.coupling_mb"):
            metrics[name] = metrics[name][:3] + ("computed from array sizes",)
        selected = PER_LAYER
    for name, (value, unit, count, note) in metrics.items():
        _line(name, value, unit, count, note)
    report["metrics"] = {k: {"value": v, "unit": u, "n": c, "note": note}
                         for k, (v, u, c, note) in metrics.items()}
    report["seconds_total"] = time.perf_counter() - started
    (runner.dir / f"report-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(
            [r for r in records if r["problems"]]),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in selected}}))
    return 0


def _threads1_probe(args) -> int:
    """Solves under the caller's FORTET_THREADS; prints median run_fortet."""
    import machine
    from tracing import Tracer, layer_metrics
    runner = _setup(args)
    tracer = Tracer()
    with tracer.installed():
        for k in range(THREADS1_SOLVES):
            runner.op("solve", k, tracer)
    value, _, count = layer_metrics(tracer.spans)["fortet.run_s"]
    print(json.dumps({"run_s": value, "n": count,
                      "blas_threads": machine.blas_threads()}))
    return 0 if not any(r["problems"] for r in runner.records) else 1


if __name__ == "__main__":
    sys.exit(main())
