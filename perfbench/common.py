"""Shared helpers: repo paths, percentiles, process memory, run metadata."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import sys
import time
from typing import Dict, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    #: The benchmark definition: metric names, units, regression bounds.
    BENCHMARK = json.load(_fh)


def use_repo_src() -> None:
    """Put the checkout's ``src`` on ``sys.path`` (exit 2 when absent)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no program sources at {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


#: BLAS runs one thread.  On a 2-CPU host a second BLAS thread makes no
#: step faster (these matrices are small) but busy-waits on the other
#: CPU, where it competes with the serve load generator and turns any
#: neighbour's load into a stall of every BLAS call.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> Dict[str, str]:
    """Environment for benchmark subprocesses: the repo's ``src`` on the
    import path, one BLAS thread, ``repro.obs`` off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env.pop("REPRO_METRICS", None)
    env.pop("REPRO_TRACE", None)
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) that lets
    +inf entries (failed requests) through instead of producing NaN."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return ordered[lo] if pos == lo else math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def fingerprint_digest(payload) -> str:
    """Stable digest of a JSON-able payload (floats by repr)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, or None if unknown."""
    import numpy  # noqa: F401 - loads the BLAS library into this process

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({l.split()[-1] for l in fh if "openblas" in l and ".so" in l})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def wake_cpus(seconds: float) -> None:
    """Keep every CPU busy for a moment before measuring.  On a virtual
    machine, CPUs parked during an idle spell make the first second of
    multi-threaded BLAS work several times slower."""
    import numpy

    square = numpy.ones((256, 256))
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        square @ square


def run_meta() -> Dict[str, object]:
    """Machine and library facts recorded with every result."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }
