"""A fixed reference kernel that measures how fast this machine runs now.

On a shared host the speed of a core drifts by 20-40% within seconds and
over minutes (another tenant on the sibling hyperthread, cache and memory
contention), and wall time and CPU time drift together.  So while a pass
runs, ``SpeedProbe`` interrupts it every ``INTERVAL_S`` of CPU time and
times this kernel in the same thread, in every process of the pass; the
pass's time is then scaled by the mean of ``NOMINAL_S / kernel time`` over
the samples.  The metrics read as seconds at the speed at which the kernel
takes ``NOMINAL_S``.

The kernel does the kind of work the package does, in the same
interpreter, but none of the package's code: polynomial products over
Z/2^n in tuples (as ``padic.rings`` does) and exact ``Fraction`` sums (as
the masses and measures do).  It is part of the benchmark and must not
change, or the figures before and after the change cannot be compared.
"""

from __future__ import annotations

import gc
import glob
import os
import signal
from fractions import Fraction
from time import perf_counter, process_time, thread_time

# The kernel's CPU time on the reference machine (2-CPU Intel Xeon at
# 2.1 GHz, Python 3.11.7) when it was calm.  A constant: it only fixes the
# unit of the scaled metrics.
NOMINAL_S = 0.008
INTERVAL_S = 0.25


class _Ring:
    """Z/2^n [x] / (x^f - red(x)): tuples of f residues."""

    def __init__(self, f: int, n: int):
        self.f = f
        self._mask = (1 << n) - 1
        self._red = tuple((3 * i + 1) & self._mask for i in range(f))

    def mul(self, a, b):
        f, m = self.f, self._mask
        prod = [0] * (2 * f - 1)
        for i in range(f):
            ai = a[i]
            if ai:
                for j in range(f):
                    prod[i + j] += ai * b[j]
        red = self._red
        for k in range(2 * f - 2, f - 1, -1):
            c = prod[k]
            if c:
                base = k - f
                for i in range(f):
                    prod[base + i] += c * red[i]
                prod[k] = 0
        return tuple(prod[i] & m for i in range(f))

    def add(self, a, b):
        m = self._mask
        return tuple((x + y) & m for x, y in zip(a, b))


def kernel() -> int:
    """The fixed work; returns a checksum so that nothing is optimised away."""
    ring = _Ring(3, 40)
    a, b, acc = (1, 2, 3), (5, 7, 11), (0, 0, 0)
    seen = {}
    for _ in range(500):
        a = ring.mul(a, b)
        acc = ring.add(acc, a)
        seen[a[0] & 255] = acc
    s = Fraction(0)
    for i in range(1, 1000):
        s += Fraction(i % 7 + 1, 2 ** (i % 23) * 3)
        if s > 100:
            s -= 100
    return sum(acc) + len(seen) + s.denominator


def speed() -> float:
    """NOMINAL_S over the CPU time the kernel takes now, run once.

    CPU time of this thread, so that waiting for a core (pool workers may
    hold both) does not count.  The cycle collector is off meanwhile: the
    kernel makes no cycles, and a collection would scan the workload's
    heap, whose size varies.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = thread_time()
        kernel()
        return NOMINAL_S / (thread_time() - t0)
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Samples ``speed()`` every INTERVAL_S of CPU time, from SIGPROF.

    The timer counts the process's own CPU time, so a process samples in
    proportion to the work it does, and forked pool workers, which do not
    inherit interval timers, get one of their own; each appends its samples
    to a file under ``worker_dir``, because the pool kills its workers.
    ``speeds`` holds every sample, ``wall`` and ``cpu`` the time this
    process spent in them and ``worker_cpu`` the workers', which the caller
    subtracts from what it timed before ``stop()``.
    """

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.speeds = []
        self.wall = 0.0
        self.cpu = 0.0
        self.worker_cpu = 0.0
        self._log = None  # in a worker: the file its samples go to

    def _sample(self, signum, frame):
        w0, c0 = perf_counter(), process_time()
        v = speed()
        if self._log is None:
            self.speeds.append(v)
            self.wall += perf_counter() - w0
            self.cpu += process_time() - c0
        else:
            with open(self._log, "a") as fh:
                fh.write(f"{v!r} {process_time() - c0!r}\n")

    def _arm(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def _in_worker(self):
        self._log = os.path.join(self.worker_dir, f"speed-{os.getpid()}.txt")
        self._arm()

    def __enter__(self):
        global _active
        os.makedirs(self.worker_dir, exist_ok=True)
        kernel()  # warm-up: the first call runs cold
        _active = self
        self._arm()
        return self

    def stop(self):
        """No sample in this process after this returns."""
        global _active
        signal.setitimer(signal.ITIMER_PROF, 0)
        _active = None

    def __exit__(self, *exc):
        self.stop()
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        for path in glob.glob(os.path.join(self.worker_dir, "speed-*.txt")):
            with open(path) as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) == 2:  # a worker killed while writing leaves a part line
                        self.speeds.append(float(parts[0]))
                        self.worker_cpu += float(parts[1])
            os.remove(path)
        try:
            os.rmdir(self.worker_dir)
        except OSError:
            pass
        if not self.speeds:  # a pass shorter than one interval
            self.speeds.append(speed())
        return False

    def scale(self) -> float:
        """Mean speed over the samples: raw seconds times this are nominal seconds."""
        return sum(self.speeds) / len(self.speeds)


_active = None  # the probe of this process while it samples


def _after_fork():
    if _active is not None:
        _active._in_worker()


os.register_at_fork(after_in_child=_after_fork)
