"""The machine's speed, measured by a fixed kernel while the benchmark runs.

The benchmark runs on a shared machine whose speed swings by up to 2x: from
one tenth of a second to the next (a fixed kernel alternates between two
speeds) and in phases of seconds to a minute.  Raw times of the same code
therefore differ between runs by more than the benchmark's bounds.

``Reference.timing`` times one operation and, while it runs, interrupts it
every ``EVERY_S`` seconds of wall time (``SIGALRM``) to run a fixed kernel
of small numpy calls.  The kernel's own time is taken out of the
operation's time, and the rest is scaled by ``NOMINAL_S`` over the kernel's
mean time during the operation: the result is the time the operation would
take on a machine where the kernel takes ``NOMINAL_S``.  An operation too
short to be interrupted is scaled by the kernel runs just before and just
after it.  The mean, not the median, is used because the speed flips
between two levels, and the median would jump between them.

The kernel is the benchmark's own code, so the scaling is the same for
every commit of the program.  Its numpy functions are bound at import,
before tracing wraps ``numpy.linalg``.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# One kernel run on the machine the benchmark was tuned on, in its usual state.
NOMINAL_S = 0.005
# Wall time between kernel runs inside an operation.
EVERY_S = 0.1
_REPS = 100


@dataclass
class Timing:
    seconds: float = 0.0         # wall time without the kernel runs inside it
    scaled: float = 0.0          # seconds at the nominal kernel speed


class Reference:
    """Kernel samples of the machine's speed, and operations timed with them."""

    _eigh, _svd = staticmethod(np.linalg.eigh), staticmethod(np.linalg.svd)

    def __init__(self):
        rng = np.random.default_rng(12345)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.h = z + z.conj().T
        self.psi = z[0] / np.linalg.norm(z[0])
        self.samples = []            # wall time of every kernel run
        self._in_kernel_s = 0.0
        self.sample()                # the first run pays numpy's lazy set-up
        self.samples.clear()
        self.sample()

    def sample(self) -> None:
        """Run the kernel once and record its wall time."""
        h, psi, eigh, svd = self.h, self.psi, self._eigh, self._svd
        t0 = perf_counter()
        acc = 0.0
        for k in range(_REPS):
            w, v = eigh(h + k * 1e-3)
            u = (v * np.exp(-1j * w)) @ v.conj().T
            s = svd((u @ psi).reshape(2, 2), compute_uv=False)
            p = s[s > 1e-12] ** 2
            acc += float(-np.sum(p * np.log2(p)))
        self.samples.append(perf_counter() - t0)
        if not np.isfinite(acc):
            raise FloatingPointError("reference kernel produced a non-finite value")

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.sample()
        self._in_kernel_s += perf_counter() - t0

    @contextlib.contextmanager
    def timing(self, interrupt: bool = True):
        """Time the block; the returned Timing is filled in when it ends.

        With ``interrupt`` false the block is not interrupted, and it is
        scaled by the kernel runs before and after it.
        """
        timing = Timing()
        first = len(self.samples)
        self._in_kernel_s = 0.0
        if interrupt:
            old = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        t0 = perf_counter()
        try:
            yield timing
        finally:
            if interrupt:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, old)
            timing.seconds = perf_counter() - t0 - self._in_kernel_s
            during = self.samples[first:]
            self.sample()
            ref = during or [self.samples[first - 1], self.samples[-1]]
            timing.scaled = timing.seconds * NOMINAL_S / statistics.fmean(ref)
