"""A fixed piece of host work that measures how fast the machine is now.

The benchmark runs on shared virtual machines whose speed drifts by up
to 2x over minutes to hours, as other tenants load the host.  Every run
therefore also times this probe, interleaved with its timed passes, and
scales its timing metrics to the host speed at which the probe takes
:attr:`Probe.nominal_s` (see ``README.md``, "Host-speed scaling").

The probe uses only the standard library and NumPy, never the program,
so it does the same work on every commit.  Its mix follows the
program's: a Python set-associative LRU loop (the policy kernels), a
NumPy sort, unique and search over a few MiB (the batched engine and
trace generation), and a zlib inflate (trace-file decoding).
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np


class Probe:
    #: Median probe time at the host speed the scaled metrics are quoted at.
    nominal_s = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(20231021)
        self.addresses = rng.integers(0, 4096, 48_000).tolist()
        # Small arrays, worked on several times, keep the probe's own
        # memory out of the peak-memory metric.
        self.lines = rng.integers(0, 1 << 40, 1 << 18)
        self.blob = zlib.compress(
            rng.integers(0, 64, 3 << 19, dtype=np.uint8).tobytes(), 6)

    def work(self) -> int:
        sets: list[list[int]] = [[] for _ in range(64)]
        hits = 0
        for line in self.addresses:
            ways = sets[line & 63]
            if line in ways:
                ways.remove(line)
                hits += 1
            elif len(ways) == 8:
                ways.pop(0)
            ways.append(line)
        for shift in (16, 17, 18, 19):
            ordered = np.sort(self.lines >> shift)
            firsts = ordered[np.flatnonzero(np.diff(ordered)) + 1]
            hits += int(np.searchsorted(firsts, self.lines[::16] >> shift)[-1])
        return hits + len(zlib.decompress(self.blob))

    def seconds(self) -> float:
        """Wall time of one probe."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def speed(self, seconds: list[float]) -> float:
        """Host speed against the nominal one, from probe times: a time
        measured beside these probes is scaled by multiplying with it, a
        rate by dividing by it."""
        return self.nominal_s / statistics.median(seconds)
