"""Speed-normalized timing for a shared, noisy machine.

On the shared 2-vCPU KVM virtual machine this benchmark was tuned on
(Intel Xeon, 2 MiB L2 per vCPU), other tenants slow the same
single-threaded work by up to 2x, in phases lasting seconds to minutes;
wall-time medians of 30 s runs spread by 20-34% between runs.  A
``Sampler`` runs a fixed probe when a block starts and then every
``interval`` seconds (SIGALRM), inside the benchmarked process, so that it
measures the speed of the same CPU at the same moments.  A time is then
reported as ``wall * mean(nominal / probe)``, the probes' own time excluded:
seconds at the speed at which a probe takes its nominal time, about this
machine's uncontended speed.  The module imports nothing but ``signal`` and
``time``, so that timing an import does not preload other modules.
"""

from __future__ import annotations

import signal
from time import perf_counter


def _interpreter_work() -> None:
    d = {}
    for i in range(5000):
        d[i & 255] = i * i


class Probe:
    """Fixed interpreter work; takes ``nominal`` seconds at the unit speed."""

    nominal = 3e-4

    def __call__(self) -> float:
        t0 = perf_counter()
        _interpreter_work()
        return perf_counter() - t0


class NumpyProbe(Probe):
    """Interpreter work plus small FFTs, batched and single 3x3
    eigenproblems and two passes over 512 KiB: the mix of the workloads'
    inner loops and working sets.  numpy's functions are bound when the
    probe is built, so a tracer installed later does not count its calls."""

    nominal = 1e-3

    def __init__(self):
        import numpy

        self._rfft, self._irfft = numpy.fft.rfft, numpy.fft.irfft
        self._eig, self._eigh = numpy.linalg.eig, numpy.linalg.eigh
        self._x = numpy.linspace(0.0, 1.0, 1024)
        self._m = numpy.arange(144.0).reshape(16, 3, 3) % 7.0
        self._y = numpy.linspace(0.0, 1.0, 65536)

    def __call__(self) -> float:
        t0 = perf_counter()
        for _ in range(10):
            self._irfft(self._rfft(self._x), n=1024)
        self._eig(self._m)
        for m in self._m[:8]:
            self._eigh(m + m.T)
        self._y.sum()
        self._y.sum()
        _interpreter_work()
        return perf_counter() - t0


class Sampler:
    """Probe the machine's speed while a block runs; restores SIGALRM after."""

    def __init__(self, interval: float, probe: Probe):
        self.interval = interval
        self.probe = probe
        self.probes = []

    def _sample(self, *_):
        self.probes.append(self.probe())

    @property
    def overhead(self) -> float:
        """Seconds spent in probes so far; subtract them from wall time."""
        return sum(self.probes)

    def factor(self) -> float:
        """Mean speed relative to the unit one (1 = nominal seconds per probe)."""
        return sum(self.probe.nominal / p for p in self.probes) / len(self.probes)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
