"""Host-speed reference for the end-to-end times.

On a shared host the same solve can run 1.6 times slower for seconds to
minutes at a stretch, and the slowdown shows in CPU time as much as in
wall time. So an untraced run also measures the host's current speed with
a fixed reference workload that does not use schwarzmg: small numpy
operations of the kinds the solver makes (Python-level loops of 10x10
matrix-vector products and of 9x9 tensor-product element kernels, and a
batched 9x9 product over 256 elements), about 0.4 ms a slice. A
``SIGALRM`` interval timer runs one slice every ``PERIOD_S`` seconds while
the timed code works, so the reference sees the same host as the code it
scales; ``BRACKET`` slices before and after the timed code cover phases
shorter than the period.

A timed phase reports its wall time, its own time (the wall time less the
slices run inside it) and its scaled time: the own time times
``REF_SLICE_S`` over the mean slice of the phase, that is, the seconds the
phase would take on a host that runs a slice in ``REF_SLICE_S``. The mean,
not the median: the ticks sample the phase evenly in time, so the mean
slice follows the host's average speed over the phase, short stalls
included, as the phase's own time does. The reference does not depend on
schwarzmg, so a change to the library moves the scaled time as it moves
the own time.
"""

import signal
import statistics
import time

import numpy as np

# Mean slice time under the timer, amid a solve, on a quiet vCPU of an
# Intel Xeon virtual machine (numpy 2.4, OpenBLAS, one thread): the scale
# of the reported seconds.
REF_SLICE_S = 4.1e-4
PERIOD_S = 0.02
BRACKET = 5

_clock = time.perf_counter


class Reference:
    """The fixed reference workload; its inputs do not depend on the seed."""

    def __init__(self):
        rng = np.random.default_rng(20151208)
        self.a = rng.standard_normal((10, 10))
        self.v = rng.standard_normal(10)
        self.d = rng.standard_normal((9, 9))
        self.e = rng.standard_normal((9, 9))
        self.w = rng.standard_normal((9, 9))
        self.blocks = rng.standard_normal((256, 9, 9))
        self.sink = 0.0

    def slice(self) -> float:
        """Run one slice; returns its duration in seconds."""
        t0 = _clock()
        s = 0.0
        for _ in range(30):
            s += float(self.v @ (self.a @ self.v))
        d = self.d
        for _ in range(10):
            s += float(((self.w * (self.e @ d.T)) @ d)[0, 0])
        for _ in range(3):
            s += float((self.blocks @ d).sum())
        self.sink += s
        return _clock() - t0


class Timed:
    """Context manager timing one phase with the reference interleaved.

    After exit: ``wall_s``, ``own_s`` (wall less the slices inside the
    phase), ``slice_s`` (mean slice, bracket slices included) and
    ``scaled_s``. The previous ``SIGALRM`` handler and timer are restored
    however the phase exits.
    """

    def __init__(self, ref: Reference):
        self.ref = ref
        self.slices: list[float] = []

    def _tick(self, signum, frame):
        t0 = _clock()
        self.slices.append(self.ref.slice())
        self._inside += _clock() - t0

    def __enter__(self):
        self.slices.extend(self.ref.slice() for _ in range(BRACKET))
        self._inside = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = _clock()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = _clock()    # after any tick still pending at the stop
        signal.signal(signal.SIGALRM, self._old)
        self.wall_s = t1 - self._t0
        self.own_s = self.wall_s - self._inside
        self.slices.extend(self.ref.slice() for _ in range(BRACKET))
        self.slice_s = statistics.fmean(self.slices)
        self.scaled_s = self.own_s * REF_SLICE_S / self.slice_s
        return False


class Wall:
    """Context manager timing a phase in plain wall time, with the same
    fields as ``Timed``; used for traced runs, whose times are not scaled."""

    slice_s = None

    def __enter__(self):
        self._t0 = _clock()
        return self

    def __exit__(self, *exc):
        self.wall_s = self.own_s = self.scaled_s = _clock() - self._t0
        return False
