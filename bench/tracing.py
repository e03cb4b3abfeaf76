"""Spans around calls into fortetbridge's public functions.

The library is not edited: each function is wrapped at the module attribute
its caller reads (cli.py looks up `fortet.run_fortet` on the module at call
time, run_fortet looks up `fortet_step` in its own module globals, and so
on), for as long as the tracer is installed.  A span holds its name, start,
end, parent span and op id, plus a few sizes read from the call's arguments
or result.  Spans stay in memory until `dump` writes them out once.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional


def _kernel_mb(result, args, kwargs):
    return {"kernel_mb": result.values.nbytes / 1e6,
            "apply_bytes": result.values.shape[0] * result.values.shape[1] * 8}


def _fortet_sizes(result, args, kwargs):
    trace = result.trace
    nbytes = sum(getattr(s, f).nbytes for s in trace
                 for f in ("H", "H_prime", "H_dprime", "G_of_H", "J_mask"))
    return {"trace_mb": nbytes / 1e6}


def _array_mb(result, args, kwargs):
    pi = getattr(result, "pi", result)
    return {"mb": pi.nbytes / 1e6}


def _sweeps(result, args, kwargs):
    return {"sweeps": result.iterations}


def _sweeps_exhausted(exc, args, kwargs):
    return {"sweeps": kwargs.get("max_iter")}


#: (module, attribute, span name, annotate result, annotate exception)
TARGETS = (
    ("config", "load_problem", "config.load_problem", None, None),
    ("config", "build_grid", "quadrature.build_grid", None, None),
    ("config", "gaussian_kernel", "problem.gaussian_kernel", _kernel_mb, None),
    ("fortet", "full_report", "problem.full_report", None, None),
    ("fortet", "run_fortet", "fortet.run_fortet", _fortet_sizes, None),
    ("fortet", "fortet_step", "fortet.fortet_step", None, None),
    ("fortet", "omega_map", "fortet.omega_map", None, None),
    ("sinkhorn", "run_sinkhorn", "sinkhorn.run_sinkhorn", _sweeps, _sweeps_exhausted),
    ("sinkhorn", "sinkhorn_trace_hilbert", "sinkhorn.trace_hilbert", None, None),
    ("sinkhorn", "projective_diameter", "hilbert.projective_diameter", None, None),
    ("hilbert", "projective_diameter", "hilbert.projective_diameter", None, None),
    ("bridge", "build_coupling", "bridge.build_coupling", _array_mb, None),
    ("bridge", "prior_coupling", "bridge.prior_coupling", _array_mb, None),
    ("bridge", "kl_objective", "bridge.kl_objective", None, None),
)


class Tracer:
    """Collects spans while installed; `call` opens the root span of an op."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.op_id = -1

    def _span(self, name: str, fn: Callable, args, kwargs,
              on_result=None, on_error=None):
        index = len(self.spans)
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "op": self.op_id, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span["end"] = time.perf_counter()
            span["error"] = type(exc).__name__
            if on_error is not None:
                span.update(on_error(exc, args, kwargs))
            raise
        finally:
            self._stack.pop()
        span["end"] = time.perf_counter()
        if on_result is not None:
            span.update(on_result(result, args, kwargs))
        return result

    def call(self, name: str, fn: Callable, *args):
        self.op_id += 1
        return self._span(name, fn, args, {})

    def _wrap(self, fn, name, on_result, on_error):
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs, on_result, on_error)
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name, on_result, on_error in TARGETS:
                module = importlib.import_module(f"fortetbridge.{mod_name}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, on_result, on_error))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _median(values) -> Optional[float]:
    return statistics.median(values) if values else None


def layer_metrics(spans: List[dict]) -> Dict[str, tuple]:
    """Per-layer figures as {name: (value or None, unit, sample count)}.

    Times are medians over spans (per call); self time is a span's duration
    minus its direct children's.  Counts are per run_fortet / run_sinkhorn
    call.  Sizes marked computed come from array shapes, not from a
    measurement of the allocator.
    """
    dur = [s["end"] - s["start"] for s in spans]
    children = defaultdict(list)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)
        if s["parent"] is not None:
            children[s["parent"]].append(i)

    def self_time(i):
        return dur[i] - sum(dur[c] for c in children[i])

    def times(name):
        return [dur[i] for i in by_name[name]]

    def values(name, key):
        return [spans[i][key] for i in by_name[name] if key in spans[i]]

    out: Dict[str, tuple] = {}

    def put(name, vals, unit):
        out[name] = (_median(vals), unit, len(vals))

    put("quadrature.build_grid_s", times("quadrature.build_grid"), "s")
    put("config.load_problem_s", times("config.load_problem"), "s")
    put("problem.kernel_build_s", times("problem.gaussian_kernel"), "s")
    put("problem.kernel_mb", values("problem.gaussian_kernel", "kernel_mb"), "MB")
    put("problem.apply_bytes", values("problem.gaussian_kernel", "apply_bytes"), "bytes")
    put("problem.full_report_s", times("problem.full_report"), "s")

    runs = by_name["fortet.run_fortet"]
    scheme, closing, calls, fself = [], [], [], []
    for i in runs:
        kids = children[i]
        steps = [c for c in kids if spans[c]["name"] == "fortet.fortet_step"]
        close = [c for c in kids if spans[c]["name"] == "fortet.omega_map"]
        scheme.append((sum(dur[c] for c in steps), len(steps)))
        closing.append((sum(dur[c] for c in close), len(close)))
        calls.append(len(close) + sum(
            1 for c in steps for g in children[c]
            if spans[g]["name"] == "fortet.omega_map"))
        fself.append(self_time(i))
    put("fortet.run_s", times("fortet.run_fortet"), "s")
    put("fortet.scheme_s", [t for t, _ in scheme], "s")
    put("fortet.closing_s", [t for t, _ in closing], "s")
    put("fortet.self_s", fself, "s")
    put("fortet.scheme_steps", [n for _, n in scheme], "count")
    put("fortet.closing_steps", [n for _, n in closing], "count")
    put("fortet.omega_map_calls", calls, "count")
    put("fortet.omega_map_us", [1e6 * t for t in times("fortet.omega_map")], "us")
    put("fortet.trace_mb", values("fortet.run_fortet", "trace_mb"), "MB")
    out["fortet.failed"] = (sum(1 for i in runs if "error" in spans[i]),
                            "count", len(runs))

    sink = by_name["sinkhorn.run_sinkhorn"]
    put("sinkhorn.run_s", times("sinkhorn.run_sinkhorn"), "s")
    put("sinkhorn.sweeps", values("sinkhorn.run_sinkhorn", "sweeps"), "count")
    put("sinkhorn.sweep_us", [1e6 * dur[i] / spans[i]["sweeps"] for i in sink
                              if spans[i].get("sweeps")], "us")
    out["sinkhorn.failed"] = (sum(1 for i in sink if "error" in spans[i]),
                              "count", len(sink))
    put("sinkhorn.trace_hilbert_s", times("sinkhorn.trace_hilbert"), "s")
    put("hilbert.projective_diameter_s", times("hilbert.projective_diameter"), "s")

    put("bridge.coupling_s", times("bridge.build_coupling"), "s")
    kl_ops = defaultdict(float)
    for name in ("bridge.prior_coupling", "bridge.kl_objective"):
        for i in by_name[name]:
            kl_ops[spans[i]["op"]] += dur[i]
    put("bridge.kl_s", list(kl_ops.values()), "s")
    mb_ops = defaultdict(float)
    for name in ("bridge.build_coupling", "bridge.prior_coupling"):
        for i in by_name[name]:
            mb_ops[spans[i]["op"]] += spans[i]["mb"]
    put("bridge.coupling_mb", list(mb_ops.values()), "MB")

    # cli.main minus all library spans under it: argparse, artifact
    # formatting and writing
    put("cli.self_s", [self_time(i) for i in by_name["cli.main"]], "s")
    return out
