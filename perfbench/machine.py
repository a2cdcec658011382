"""Facts about the machine a run used, and a probe of its current speed.

The machine this benchmark was built on changes speed by up to a third from
one minute to the next, and every timing of a run moves with it. :func:`reference_pass` is a fixed piece of work that uses
no ``moltiers`` code: breadth-first searches over a fixed graph and a
pairwise float comparison in plain Python, and a chain of small numpy
products, the kinds of work the program does. The benchmark runs it between phases and scales its timings to a
machine on which one pass takes :data:`REFERENCE_S` seconds.
"""

from __future__ import annotations

import ctypes
import os
import platform
from collections import deque
from time import perf_counter

import numpy as np

#: Typical time of one reference pass between phases of a run on the machine
#: the bounds were set on (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11,
#: numpy 2.4 with OpenBLAS); the speed the timings are scaled to.
REFERENCE_S = 0.007

_rng = np.random.default_rng(20190405)
_NODES = 400
_GRAPH = [[] for _ in range(_NODES)]
for _a, _b in _rng.integers(0, _NODES, size=(600, 2)).tolist():
    if _a != _b:
        _GRAPH[_a].append(_b)
        _GRAPH[_b].append(_a)
_HIGH = _rng.random(90).tolist()
_LOW = _rng.random(400).tolist()
_ROWS = _rng.standard_normal((30, 16))
_WEIGHT = _rng.standard_normal((16, 16)) / 8.0  # spectral norm below 1: the chain stays bounded


def _reference_work() -> None:
    reached = 0
    for source in range(0, _NODES, 10):
        seen = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in _GRAPH[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        reached += len(seen)
    wins = 0.0
    for p in _HIGH:
        for q in _LOW:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    hidden = _ROWS
    for _ in range(1300):
        hidden = np.maximum(hidden @ _WEIGHT, 0.0) + _ROWS
    if reached == 0 or wins == 0.0 or not np.isfinite(hidden).all():
        raise RuntimeError("reference pass went wrong")


def reference_pass() -> float:
    """Wall time in seconds of the fixed reference work. The work runs twice
    and the second run is timed, so the caches the benchmarked phase left
    behind do not count."""
    _reference_work()
    start = perf_counter()
    _reference_work()
    return perf_counter() - start


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its C API; None when
    the BLAS is another library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }
