"""Host-speed normalisation of operation times.

Other tenants of a shared host slow this process by up to 1.8x for tens of
seconds at a time (one survey cell measured 80 ms and 145 ms a minute
apart on a 2-vCPU x86-64 guest), and by less for fractions of a second,
so wall-clock rates of the same code spread far more between runs than a
regression bound allows.  A fixed probe kernel, which uses the interpreter
and small numpy arrays as the package does but none of the package's
code, measures the host's current speed: it runs just before and just
after each operation and, from a SIGALRM handler, every PROBE_PERIOD_S
while the operation runs.

An operation's time in reference seconds is its wall time, less the time
of the probes inside it, scaled by REF_PROBE_S over the mean probe time
of that operation: the probes sample the host's speed at even intervals,
so their mean follows the slow-down the operation met on average.
REF_PROBE_S defines the unit: a reference second is the time in which the
host runs the probe 1 / REF_PROBE_S times.  A change to the package moves
reference-second times as it moves wall times; a change to the probe or
to REF_PROBE_S redefines the unit and needs a new baseline.
"""

import math
import signal
import statistics
import time

import numpy as np

PROBE_STEPS = 16
REF_PROBE_S = 0.0005
PROBE_PERIOD_S = 0.02


def kernel():
    """The probe: PROBE_STEPS steps of scalar math, 3x3 rotations, cross
    products and a 6x6 solve.  About 0.5 ms on an unloaded 2-vCPU x86-64
    guest."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    b = rng.standard_normal(6)
    R = np.eye(3)
    v = np.array([1.0, 0.2, -0.1])
    acc = 0.0
    for i in range(PROBE_STEPS):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        R = R @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        w = np.cross(v, R @ v)
        x = np.linalg.solve(A, b + w.sum())
        acc += float(x[0]) + math.hypot(w[0], w[1])
    return acc


class Meter:
    """Times operations in wall and reference seconds."""

    def __init__(self):
        for _ in range(5):                # warm-up
            kernel()
        self.probe_s = []                 # every probe of the run
        self._op = []                     # probes of the current operation

    def _probe(self, signum=None, frame=None):
        t = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t
        self._op.append(dt)
        self.probe_s.append(dt)

    def run(self, fn):
        """Call fn(); return its result, its wall seconds without the
        probes, and its reference seconds."""
        self._op = []
        self._probe()
        old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t
            signal.signal(signal.SIGALRM, old)
        inside = sum(self._op[1:])
        self._probe()
        wall -= inside
        return result, wall, wall * REF_PROBE_S / statistics.fmean(self._op)
