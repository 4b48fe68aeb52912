"""Machine-speed calibration for a shared, noisy host.

On a host whose cores are shared with other tenants, the same work can run
20-30 % slower for anything from a fraction of a second to minutes.  The
benchmark therefore runs a short fixed kernel, which uses no tdvarma code,
every INTERVAL_S while operations run and around every chunk or call, and
rescales each operation's time by NOMINAL_S / (mean kernel time during and
around it).  Reported times are thus times at the speed at which the kernel
takes NOMINAL_S; the time spent in the kernel is taken out of them.

The kernel is a miniature of the workloads' own instruction mix: a Gaussian
VAR(1) objective with sinusoidal coefficients evaluated through small Python
objects and NumPy calls on stacks of 2 x 2 matrices, and a lag recurrence of
2 x 2 products kept in a dict of tuple keys.  Among the kernels tried (pure
interpreter work, small NumPy calls, a memory-bound sort, and a tdvarma
likelihood call itself) it tracked the slow phases of table1_n100 best.
Each sample runs the kernel once untimed first, so the timed run does not
measure how much of the cache the interrupted work evicted.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal

import numpy as np

from tracer import clock

NOMINAL_S = 0.0005
HALO = 3            # kernel samples used on each side of an operation
INTERVAL_S = 0.025  # period of the samples taken while an operation runs
WARMUP = 20


class _Sine:
    def __init__(self, slot: int, omega: float):
        self.slot, self.omega = slot, omega

    def value(self, t, theta):
        return theta[self.slot] * np.sin(self.omega * np.asarray(t, dtype=float))


class _Const:
    def __init__(self, v: float):
        self.v = v

    def value(self, t, theta):
        return np.full(np.shape(t), self.v)


_ENTRIES = ((_Sine(0, 0.126), _Sine(1, 0.5)), (_Const(0.0), _Sine(2, 0.128)))
_TS = np.arange(1, 61)
_XS = np.random.default_rng(20150606).standard_normal((60, 2))
_SIG = np.broadcast_to(np.eye(2) + 0.1, (60, 2, 2)).copy()
_THETA = np.array([0.7, 0.4, -0.8])
_STEP = np.array([[0.5, 0.1], [0.0, 0.4]])


def _objective(theta) -> float:
    a = np.zeros(_TS.shape + (2, 2))
    for i, row in enumerate(_ENTRIES):
        for j, f in enumerate(row):
            a[..., i, j] = f.value(_TS, theta)
    lag = np.zeros_like(_XS)
    lag[1:] = _XS[:-1]
    e = _XS - np.einsum("trs,ts->tr", a, lag)
    chol = np.linalg.cholesky(_SIG)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    w = np.linalg.solve(_SIG, e[..., None])[..., 0]
    return 0.5 * float(np.sum(logdet + np.einsum("tr,tr->t", e, w))) + 60 * math.log(2 * math.pi)


def _recurrence(k: int) -> int:
    cells: dict = {}
    acc = np.eye(2)
    for lag in range(1, k):
        acc = acc @ _STEP
        cells[(lag,)] = acc
        cells[(lag, 0)] = cells.get((lag - 1, 0), 0.0) + acc[0, 0]
    return len(cells)


def _kernel() -> float:
    return sum(_objective(_THETA + d) for d in (0.0, 0.01, -0.01)) + _recurrence(60)


class Calibrator:
    """Kernel samples in time order: the clock at the end of each timed
    kernel run, its seconds, and the seconds the sample took in all."""

    def __init__(self):
        self.ends: list = []
        self.seconds: list = []
        self.spent: list = []
        self._busy = False
        self._previous = None
        for _ in range(WARMUP):
            _kernel()

    def start(self) -> None:
        """Also sample every INTERVAL_S from a SIGALRM handler.  The handler
        runs in the main thread between bytecodes, so operations that last
        seconds are calibrated from inside."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def sample(self, repeats: int = 1) -> None:
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()                    # a collection inside the kernel is not machine speed
        try:
            begin = clock()
            _kernel()
            for _ in range(repeats):
                start = clock()
                _kernel()
                end = clock()
                self.ends.append(end)
                self.seconds.append(end - start)
                self.spent.append(end - begin)
                begin = end
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean kernel time of the samples inside [t0, t1]
        and the HALO samples on either side."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        window = self.seconds[max(0, lo - HALO) : hi + HALO]
        return NOMINAL_S * len(window) / sum(window)

    def seconds_within(self, t0: float, t1: float) -> float:
        """Seconds that samples took inside [t0, t1].  A handler cannot run
        in the middle of a clock reading, so a sample lies inside exactly
        when it ends inside."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return sum(self.spent[lo:hi])
