"""What the benchmark ran on: cores, BLAS threads, caches, library versions.

Reads /proc and /sys only and changes no setting.  The BLAS thread count is
asked of the OpenBLAS library numpy has loaded, so it is the pool the
program really uses, not only what the environment requested.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Dict, Optional

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _parse_size(text: str) -> Optional[int]:
    text = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    try:
        if text and text[-1] in units:
            return int(text[:-1]) * units[text[-1]]
        return int(text)
    except ValueError:
        return None


def cache_sizes() -> Dict[str, int]:
    """Unified/data cache size in bytes by level ("L1d", "L2", "L3")."""
    sizes: Dict[str, int] = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _parse_size((index / "size").read_text())
        except OSError:
            continue
        if kind == "Instruction" or size is None:
            continue
        sizes["L1d" if level == "1" else f"L{level}"] = size
    return sizes


def blas_threads() -> Optional[int]:
    """Threads of the OpenBLAS pool numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if len(line.split()) > 5}
        libs = sorted(p for p in paths if "openblas" in p.lower() and ".so" in p)
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def record() -> Dict[str, object]:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "fortet_threads_env": os.environ.get("FORTET_THREADS"),
        "caches": cache_sizes(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def placement(nbytes: int, caches: Dict[str, int]) -> str:
    """Smallest cache level that holds nbytes, as text."""
    for level in ("L2", "L3"):
        if level in caches and nbytes <= caches[level]:
            return f"fits {level} ({caches[level] / 2**20:.1f} MiB)"
    return "exceeds L3: DRAM-bound"
