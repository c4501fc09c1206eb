"""Host-speed sampling, to take the host's drift out of pass times.

On a shared virtual machine the same single-threaded pass can run 10-15%
faster or slower from one minute to the next, and 1 s windows differ by up
to 2x, while CPU time moves with wall time: the host, not the scheduler,
changes speed.  While a pass runs, an interval timer interrupts it every
SAMPLE_INTERVAL_S seconds and times one fixed pure-Python reference chunk.
The samples are spread evenly over the pass, so the mean of
NOMINAL_CHUNK_S / chunk_time is the host's mean speed during the pass
relative to the nominal speed.  The pass's wall time, less the time spent
in the samples, times that mean, is the pass time at nominal host speed: a
time in seconds that a change to the program moves and the host does not.
"""

from __future__ import annotations

import signal
import time

SAMPLE_INTERVAL_S = 0.05

# Median time of one reference_chunk() on the reference host (2 vCPU Xeon at
# 2.1 GHz, CPython 3.11.7).  Only the ratio to this constant is used; it sets
# the scale, not the stability, of the reported seconds.
NOMINAL_CHUNK_S = 0.0011


class _Residue:
    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def __add__(self, other):
        return _Residue(self.p, self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.p, self.v * other.v)

    def is_zero(self):
        return self.v == 0


def reference_chunk() -> int:
    """Fixed work in the style of the program's inner loops: small objects
    with slots, method calls, modular ints, tuples and a set."""
    p = 7
    seen = set()
    for a in range(3):
        rows = [tuple(_Residue(p, a * i + j) for j in range(4)) for i in range(4)]
        for b in range(24):
            col = tuple(_Residue(p, b + k) for k in range(4))
            out = [_Residue(p, 0)] * 4
            for i, row in enumerate(rows):
                x = col[i]
                if x.is_zero():
                    continue
                for j, y in enumerate(row):
                    out[j] = out[j] + x * y
            seen.add(tuple(e.v for e in out))
    return len(seen)


class HostSpeedSampler:
    """Context manager: samples host speed while its block runs.

    After the block, ``busy_s`` is the block's wall time less the time spent
    sampling, and ``speed`` the mean host speed relative to nominal.
    """

    def __init__(self):
        self.chunks: list[float] = []
        self.sampling_s = 0.0
        self.busy_s = 0.0
        self._start = 0.0
        self._sampling_at_start = 0.0
        self._old_handler = None

    def _sample(self):
        t0 = time.perf_counter()
        reference_chunk()
        t1 = time.perf_counter()
        self.chunks.append(t1 - t0)
        self.sampling_s += time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self._sample()

    def __enter__(self):
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        self._sampling_at_start = self.sampling_s
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._old_handler)
        self.busy_s = end - self._start - (self.sampling_s - self._sampling_at_start)
        self._sample()
        return False

    def clock(self) -> float:
        """perf_counter less the time spent sampling so far."""
        while True:
            spent = self.sampling_s
            now = time.perf_counter()
            if self.sampling_s == spent:
                return now - spent

    @property
    def speed(self) -> float:
        return sum(NOMINAL_CHUNK_S / c for c in self.chunks) / len(self.chunks)

    @property
    def nominal_s(self) -> float:
        """busy_s converted to seconds at nominal host speed."""
        return self.busy_s * self.speed
