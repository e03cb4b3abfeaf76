"""A fixed reference computation that measures the host's momentary speed.

The benchmark's host (a shared 2-core VM) switches between speed states that
last tens of seconds and slow the same op by up to 1.6x.  A run of 20 s
cannot average them out, so raw op times spread by more between runs than
the changes the benchmark has to resolve.

The benchmark therefore times this reference next to each op and reports
op times rescaled to the reference's nominal speed:

    op_s * nominal_s / measured_s

where measured_s is the mean of the reference run just before and just
after the op.  The reference uses only numpy and the interpreter, never
fortetbridge, so a change to the program moves the rescaled figure exactly
as it moves the raw one.  The raw figures are printed next to it.

The host's speed states do not slow every kind of work alike, so each
workload names the parts that resemble its own work (see workloads.py):
interpreter-bound 1-D solves use "py" and "small", the 2-D solve, which
builds and applies a 22.6 MB kernel, uses "exp" and "big".  Set-up, which
is mostly a fresh interpreter importing numpy and scipy, uses "import".
"""

from __future__ import annotations

import subprocess
import sys
import time
from functools import lru_cache
from typing import Callable, Dict, Tuple

import numpy as np

#: seconds of each part on a 2-core x86 VM in its fast state; they only set
#: the scale of the rescaled figures, so they are fixed once and never tuned
NOMINAL_S: Dict[str, float] = {"py": 2.5e-3, "small": 1.3e-3,
                               "exp": 4.9e-3, "big": 2.5e-3, "import": 0.45}


@lru_cache(maxsize=None)
def _arrays(n: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(12345)
    return rng.random((n, n)), rng.random(n)


def _py() -> None:
    """Interpreter speed: a loop of float arithmetic and dict stores."""
    total, store = 0.0, {}
    for i in range(30000):
        total += i * 0.5
        store[i & 63] = total


def _small() -> None:
    """BLAS on an L2-resident matrix, the 401-node kernel's size."""
    a, x = _arrays(401)
    for _ in range(60):
        a @ x


def _exp() -> None:
    """Vectorised exp over 3.2 MB, as in a kernel build; it writes into a
    fixed buffer, so the allocator's state does not enter the time."""
    values, out = _exp_arrays()
    for _ in range(8):
        np.negative(values, out=out)
        np.exp(out, out=out)


@lru_cache(maxsize=None)
def _exp_arrays() -> Tuple[np.ndarray, np.ndarray]:
    values = _arrays(1681)[0].ravel()[:400_000].copy()
    return values, np.empty_like(values)


def _big() -> None:
    """BLAS on a 22.6 MB matrix, the 1681-node kernel's size."""
    a, x = _arrays(1681)
    for _ in range(4):
        a @ x


def _import() -> None:
    """A fresh interpreter that imports numpy and scipy.linalg.  No timeout:
    with one, the wait polls at up to 50 ms steps and quantises the time."""
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                   check=True)


PARTS: Dict[str, Callable[[], None]] = {
    "py": _py, "small": _small, "exp": _exp, "big": _big, "import": _import}


def nominal(parts: Tuple[str, ...]) -> float:
    return sum(NOMINAL_S[p] for p in parts)


def measure(parts: Tuple[str, ...]) -> float:
    """Wall seconds of one pass over the named parts."""
    t0 = time.perf_counter()
    for p in parts:
        PARTS[p]()
    return time.perf_counter() - t0


def rescale(seconds: float, ref_s: float, parts: Tuple[str, ...]) -> float:
    """An op's seconds at the reference's nominal speed."""
    return seconds * nominal(parts) / ref_s
