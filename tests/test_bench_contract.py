"""The names the benchmark reads from the library still resolve and report.

bench/tracing.py wraps the library functions it lists in TARGETS at their
module attributes, and bench/run.py prints the per-layer metrics in
PER_LAYER.  A renamed function or a dropped call leaves a traced run
without its JSON line or with a null metric, so both are checked here on
one seed-0 gauss1d solve.  The swap workload's compare must stop at its
Sinkhorn sweep budget with the stderr line and the span the benchmark's
budget check reads.  The benchmark's files are imported, not changed.
"""

import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: per-layer names of the library's own spans; fortet.run_1thread_s comes
#: from run.py's single-thread probe, not from a span
LAYERS = ("problem.", "fortet.", "bridge.", "cli.self_s")
NOT_FROM_SPANS = {"fortet.run_1thread_s"}


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
        workloads = importlib.import_module("workloads")
        checks = importlib.import_module("checks")
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return tracing, workloads, run, checks


def test_every_traced_target_resolves(bench_modules):
    tracing, _, _, _ = bench_modules
    for module, attr, *_ in tracing.TARGETS:
        mod = importlib.import_module(f"fortetbridge.{module}")
        assert callable(getattr(mod, attr, None)), f"fortetbridge.{module}.{attr}"


def test_traced_solve_reports_every_layer(bench_modules, tmp_path):
    tracing, workloads, run, _ = bench_modules
    from fortetbridge import cli
    config = workloads.write_config(workloads.make_workload("gauss1d", 0), tmp_path)
    tracer = tracing.Tracer()
    argv = ["solve", "--config", str(config), "--output", str(tmp_path / "out")]
    with tracer.installed(), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = tracer.call("cli.main", cli.main, argv)
    assert code == 0
    metrics = tracing.layer_metrics(tracer.spans)
    names = [n for n in run.PER_LAYER
             if n.startswith(LAYERS) and n not in NOT_FROM_SPANS]
    assert "bridge.kl_s" in names and "bridge.coupling_mb" in names
    missing = [n for n in names if metrics.get(n, (None,))[0] is None]
    assert not missing, f"no value for {missing}"
    # a run keeps no per-step arrays, so the tracer's size of them reads 0
    assert metrics["fortet.trace_mb"][0] == 0.0


def test_traced_swap_compare_stops_at_its_sweep_budget(bench_modules, tmp_path):
    tracing, workloads, _, checks = bench_modules
    from fortetbridge import cli
    config = workloads.write_config(workloads.make_workload("swap", 0), tmp_path)
    tracer = tracing.Tracer()
    argv = ["compare", "--config", str(config), "--output", str(tmp_path / "out")]
    stderr = io.StringIO()
    with tracer.installed(), redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = tracer.call("cli.main", cli.main, argv)
    assert code == 3
    match = checks._EXHAUSTED.search(stderr.getvalue())
    assert match is not None and int(match.group(1)) == workloads.SWAP_SWEEP_BUDGET == 120
    sweeps = [s.get("sweeps") for s in tracer.spans if s["name"] == "sinkhorn.run_sinkhorn"]
    assert sweeps == [120]
