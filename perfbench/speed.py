"""Host speed, tracked with a fixed reference kernel timed during the run.

On a shared virtual machine the CPU time of the same work can grow by up to
2x in slow spells that last from seconds to minutes.  The reference kernel
does a fixed mix of small-array numpy calls and reads of a large array, like
the package's ops, and uses nothing from `mtv`, so no change to the package
can change it.  `run.py` multiplies each op's CPU time by `REF_S` over the
mean kernel time sampled around that op: the times read as on a host where
one kernel call takes `REF_S`, and a slow spell, which slows the ops and the
kernel alike, mostly cancels.
"""
from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time
from array import array

import numpy as np

# CPU seconds of one kernel call on the 2-vCPU x86-64 VM the scale is
# anchored to, in its fast state.  Only a unit: it scales every run alike.
REF_S = 0.9e-3
EVERY_S = 0.1  # process CPU seconds between two samples
REPS = 2  # timed kernel calls per sample, after one untimed warm-up call
WINDOW = 8  # samples averaged for the speed at one op

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_BIG = _rng.standard_normal(1 << 20)  # 8 MB: larger than a core's own caches
_IDX = _rng.integers(0, 1 << 20, size=20000)


def kernel() -> float:
    """Small-array numpy calls, then scattered and strided reads of a large
    array.  Of the mixes tried, this one followed the ops' own CPU time most
    closely through the host's slow spells."""
    acc = 0j
    for j in range(60):
        m = _A @ _A + j
        acc += complex(m[0, 0]) + complex(np.trace(m))
    return abs(acc) + float(_BIG[_IDX].sum()) + float(_BIG[::64].sum())


class Speedometer:
    """Samples the kernel on a CPU-time timer while it is entered: after
    every `EVERY_S` of the process's CPU time, a `SIGPROF` handler makes one
    untimed warm-up call and times the next `REPS`.  The handler runs between
    two bytecodes, so a sample falls wholly inside an op or wholly outside
    it, and long ops are sampled while they run.  An op's own time is its
    CPU time less the samples inside it, and it is scaled by the mean of the
    samples inside it and the `WINDOW // 2` on either side.

    Samples and ops are timed with the thread's CPU clock: while a process
    CPU timer is armed, Linux reads the process CPU clock at tick
    resolution (4 ms here).  With BLAS pinned to one thread, the thread's
    CPU time is the process's."""

    def __init__(self):
        self.starts = array("d")  # CPU clock at each sample's start and end
        self.ends = array("d")
        self.samples = array("d")  # kernel CPU seconds per call

    def sample(self, *_) -> None:
        clock = time.thread_time  # the clock run.py times ops with
        t0 = clock()
        kernel()
        t1 = clock()
        for _ in range(REPS):
            kernel()
        t2 = clock()
        self.starts.append(t0)
        self.ends.append(t2)
        self.samples.append((t2 - t1) / REPS)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scale(self) -> float:
        """Factor that turns CPU seconds into reference seconds, from all
        samples so far."""
        if not self.samples:
            self.sample()
        return REF_S / statistics.fmean(self.samples)

    def op_times(self, op_starts, op_ends) -> tuple[array, array]:
        """The own CPU seconds of the ops that ran between these CPU clock
        readings, and the same in reference seconds."""
        if not self.samples:
            self.sample()
        n = len(self.samples)
        taken = list(itertools.accumulate((e - s for s, e in zip(self.starts, self.ends)),
                                          initial=0.0))
        kernel_s = list(itertools.accumulate(self.samples, initial=0.0))
        half, width = WINDOW // 2, min(WINDOW, n)
        own, ref = array("d"), array("d")
        for t0, t1 in zip(op_starts, op_ends):
            a = bisect.bisect_left(self.starts, t0)  # samples a..b-1 ran inside the op
            b = bisect.bisect_left(self.starts, t1, a)
            lo = max(0, min(a - half, n - width))
            hi = min(n, max(b + half, lo + width))
            op_s = t1 - t0 - (taken[b] - taken[a])
            own.append(op_s)
            ref.append(op_s * REF_S * (hi - lo) / (kernel_s[hi] - kernel_s[lo]))
        return own, ref
