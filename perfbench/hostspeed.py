"""Host-speed probe that puts the benchmark's timings on a fixed scale.

On a shared host a vCPU's speed swings by up to ~1.8x within seconds, with no
steal time reported: a fixed numpy loop took 1.3 to 1.9 s on one 2-vCPU Xeon
VM over a minute, in process time as much as in wall time. Raw wall times
then spread more between runs than any bound a regression check could use.

The probe is a fixed numpy loop with the program's operation mix (Philox
normals, small matmuls, ``np.sin``) that does not touch spdebridge, so a
change to the program cannot change it. A timing is scaled by
``NOMINAL_PROBE_S / mean probe time``, with the probe timed in the same
stretch as the work: ``Sampler`` runs it from an interval timer while the
program runs, so a host that slows down for part of a run slows the probe
for the same part. The reported time is the time the work would take on a
host where the probe takes ``NOMINAL_PROBE_S``.
"""

import signal
import statistics
import time

import numpy as np

NOMINAL_PROBE_S = 0.002
INTERVAL_S = 0.1
MIN_SAMPLES = 10

_ROWS, _MODES, _NODES, _LOOPS = 512, 4, 16, 16
_BASIS = np.sin(np.outer(np.arange(1, _MODES + 1), np.linspace(0, np.pi, _NODES + 2)[1:-1]))
_GEN = np.random.Generator(np.random.Philox(20240917))


def probe():
    """Time one pass of the fixed probe loop, in seconds."""
    x = np.zeros((_ROWS, _MODES))
    t0 = time.perf_counter()
    for _ in range(_LOOPS):
        z = _GEN.standard_normal((_ROWS, _MODES))
        f = 0.5 * np.sin(x @ _BASIS)
        x = 0.99 * x + (0.01 / _NODES) * (f @ _BASIS.T) + 0.1 * z
    return time.perf_counter() - t0


def probes(n):
    """``n`` back-to-back probe times, in seconds."""
    return [probe() for _ in range(n)]


def scale(seconds, probe_times):
    """``seconds`` on the nominal host, given the probe times of the same stretch."""
    return seconds * NOMINAL_PROBE_S / statistics.fmean(probe_times)


class Sampler:
    """Times the probe every ``INTERVAL_S`` of wall time while the block runs.

    The probe runs in a SIGALRM handler, between two bytecodes of the main
    thread; ``spent`` is the wall time the probes took, to be subtracted from
    the block's. A block that stays in one C call for long gets fewer samples;
    ``top_up`` then adds back-to-back probes after it, up to ``MIN_SAMPLES``.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def top_up(self):
        """Add probes after the block; returns how many were added."""
        added = max(0, MIN_SAMPLES - len(self.samples))
        self.samples += probes(added)
        return added
