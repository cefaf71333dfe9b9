"""A fixed unit of reference work, timed to track the host's speed.

On a shared virtual machine the CPUs change speed in steps that last
seconds to minutes (another guest on a sibling hyperthread, say): one
and the same ``stream`` step cost 78, 103 or 115 ms of CPU time,
depending on the phase it ran in.  CPU time cannot filter that out.  So
every timed operation is followed by one slice of this unit, and the
operation's CPU time is reported at the reference speed::

    op_ms = op_cpu_s / unit_cpu_s * REFERENCE_MS

where ``REFERENCE_MS`` is what the unit costs on the host's fast phase.
The unit mixes what the workloads spend their time on: small float32
matrix products and elementwise numpy (the stream step), interpreted
Python, and JSON plus base64 decoding of a request line (the serve
path).  Across phases its cost followed a stream step's (correlation
0.78 over 189 steps), and step / unit varied by 8% over 16-step windows
where step CPU time alone varied by 35%.  Under two CPU-bound neighbour
processes the numpy part slowed by 15%, the Python part by 10% and the
JSON part by 8%, so no single kind of work tracks all three workloads.
"""

from __future__ import annotations

import base64
import json
import time

import numpy as np

#: CPU ms of one ``measure()`` slice on the fast phase of the 2-CPU
#: host (Xeon, numpy 2.4, one BLAS thread) the benchmark was built on;
#: slices there ranged 1.5-2.4 ms, in two phases near 1.6 and 2.25 ms.
REFERENCE_MS = 1.6
#: Slices behind a set-up reading (about 7 ms).
SETUP_SLICES = 4


class Calibration:
    """The reference unit; :meth:`measure` runs one slice of it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0xCA11)
        self._unfold = rng.standard_normal((2048, 108)).astype(np.float32)
        self._weight = rng.standard_normal((108, 24)).astype(np.float32)
        self._square = rng.standard_normal((64, 64)).astype(np.float32)
        image = rng.standard_normal((3, 32, 32)).astype(np.float32)
        self._line = json.dumps(
            {"dtype": "<f4", "data": base64.b64encode(image.tobytes()).decode("ascii")}
        )
        self.measure()  # first-call allocations

    def measure(self, repeats: int = 1) -> float:
        """CPU seconds of one slice of the unit, averaged over
        ``repeats`` slices run back to back."""
        started = time.process_time()
        for _ in range(4 * repeats):
            np.maximum(self._unfold @ self._weight, 0.0).sum()
            self._square @ self._square
            total = 0
            for i in range(3000):
                total += i
            for _ in range(2):
                message = json.loads(self._line)
                np.frombuffer(base64.b64decode(message["data"]), dtype=message["dtype"])
        return (time.process_time() - started) / repeats

    def setup_s(self) -> float:
        """CPU seconds this process has run since it started (interpreter
        start-up, imports, builds), at the reference speed of slices
        taken now."""
        spent = time.process_time()
        return self.at_reference(spent, self.measure(SETUP_SLICES)) / 1e3

    @staticmethod
    def at_reference(cpu_s: float, unit_cpu_s: float) -> float:
        """``cpu_s`` of work, in ms at the reference speed, given the CPU
        seconds one slice of the unit took next to it."""
        return cpu_s / unit_cpu_s * REFERENCE_MS
