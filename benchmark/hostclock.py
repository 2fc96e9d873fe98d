"""Host-speed calibration for the benchmark's timings.

The benchmark's host is a shared VM whose speed switches between states
about 40% apart, in phases of seconds to minutes; CPU time follows wall
time, so the slowdown is invisible to the process. No statistic over a 30 s
window removes a phase longer than the window. Instead, a fixed reference
kernel (`kernel`, the benchmark's own code, no blockqkd) runs between timed
segments, and each segment's time is scaled by REFERENCE_S over the mean of
the two kernel runs that bracket it: the segment's time on a host that runs
the kernel in REFERENCE_S. A change to blockqkd moves the scaled time as it
moves the measured one; the kernel does not change between commits.

The kernel mixes what the workloads do: a Python loop of small numpy calls
(the per-block session loop), plain integer arithmetic, an int64
correlation (the operation of Toeplitz hashing) and a permutation. Without
the correlation, sessions dominated by hashing kept a 9% spread between
repeats of the same 16-session round; with it, 3%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's duration on the baseline host (README.md) when it ran
# fast; any fixed value would do, this one keeps scaled times near measured.
REFERENCE_S = 0.015
WARM_UP_RUNS = 5


def kernel() -> int:
    rng = np.random.default_rng(7)
    m = np.eye(4)
    v = np.zeros(4)
    acc = 0
    for _ in range(600):
        x = rng.integers(0, 2, 4)
        v = m @ (v + x)
        acc += int(x.sum()) & 3
    for i in range(10000):
        acc += i * i % 7
    bits = rng.integers(0, 2, 8000).astype(np.int64)
    acc += int(np.correlate(bits, bits[:3000], "valid")[0])
    acc += int(bits[rng.permutation(bits.size)][:64].sum())
    return acc


class HostClock:
    """Runs the reference kernel on demand and keeps every duration."""

    def __init__(self):
        for _ in range(WARM_UP_RUNS):
            kernel()
        self.samples: list[float] = []

    def probe(self) -> float:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from measured to reference-speed time for a segment
        bracketed by kernel runs of `before` and `after` seconds."""
        return REFERENCE_S / (0.5 * (before + after))

    def summary(self) -> dict[str, float]:
        s = self.samples
        return {"probes": len(s), "probe_s_min": min(s), "probe_s_p50": statistics.median(s),
                "probe_s_max": max(s)} if s else {"probes": 0}
