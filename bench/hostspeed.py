"""How fast the host runs each CPU of the benchmark, moment by moment.

The host's other tenants slow each CPU down on their own, by up to about 1.9x
and switching every second or two, and a job of several seconds is slowed by
the share of its time its CPU was slow.  A probe process pinned to each CPU
times a fixed pure-Python loop (in its own CPU time, so waiting for the CPU
does not count) every ``INTERVAL_S``.  The mean loop time over a job's span,
against ``FULL_SPEED_S``, says how much slower than full speed that CPU ran
during the job, and ``scale`` takes a measured time back to full speed.

Full speed is a constant, not the fastest loop times of the run: at times the
whole host is slow for minutes, both speeds of each CPU included, and a run
inside such a spell would take its own slow loop times for full speed.

The samples go to shared memory, so the probes need nothing from the
benchmark process while it waits on a job.  Timestamps are
``time.perf_counter()``, which on Linux is the system-wide monotonic clock,
so they compare with times taken in job processes.
"""

import mmap
import os
import signal
import statistics
import struct
import time

INTERVAL_S = 0.025
LOOP = 1500  # about 0.6 ms at full speed, so a probe costs a job 2-5%
SLOTS = 8192  # samples per CPU: more than a run's deadline at INTERVAL_S
RECORD = struct.Struct("dd")  # (midpoint, loop CPU seconds)
COUNT = struct.Struct("q")
# the loop's time at full speed: the fastest loop times on the 2-CPU x86-64
# VM the benchmark was written on, Python 3.11.7, were 0.58-0.62 ms
FULL_SPEED_S = 0.0006
# a span with fewer samples inside it uses this many nearest ones
MIN_SAMPLES = 4


def _loop(n):
    s = 0
    w = ""
    for i in range(n):
        w = (w + "ab"[i % 3 == 0])[-9:]
        s += hash(w[i % 5:]) & 7
    return s


def _sample(buf, cpu):
    os.sched_setaffinity(0, {cpu})
    for n in range(SLOTS):
        a = time.perf_counter()
        c = time.thread_time()
        _loop(LOOP)
        used = time.thread_time() - c
        RECORD.pack_into(buf, COUNT.size + n * RECORD.size, (a + time.perf_counter()) / 2, used)
        COUNT.pack_into(buf, 0, n + 1)
        time.sleep(INTERVAL_S)
    signal.pause()


class HostSpeed:
    """One probe process per CPU, from ``start`` to ``stop``."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.pids = {}
        self.bufs = {}
        self.samples = None  # cpu -> [(midpoint, seconds)], once stopped

    def start(self):
        for cpu in self.cpus:
            buf = mmap.mmap(-1, COUNT.size + SLOTS * RECORD.size)
            pid = os.fork()
            if pid == 0:
                try:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    _sample(buf, cpu)
                finally:
                    os._exit(0)
            self.pids[cpu] = pid
            self.bufs[cpu] = buf

    def stop(self):
        """End every probe, wait for it, and read its samples."""
        for pid in self.pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in self.pids.values():
            os.waitpid(pid, 0)
        self.pids = {}
        if self.samples is not None or not self.bufs:
            return
        self.samples = {}
        for cpu, buf in self.bufs.items():
            (n,) = COUNT.unpack_from(buf, 0)
            self.samples[cpu] = [RECORD.unpack_from(buf, COUNT.size + i * RECORD.size)
                                 for i in range(n)]
            buf.close()

    def fastest(self, quantile):
        """This quantile of all the run's loop times."""
        loops = sorted(s for rows in self.samples.values() for _, s in rows)
        return loops[int(quantile * (len(loops) - 1))]

    def slowdown(self, cpus, t0, t1):
        """Mean loop time on `cpus` over [t0, t1], against full speed."""
        means = []
        for cpu in cpus:
            rows = self.samples[cpu]
            inside = [s for t, s in rows if t0 <= t <= t1]
            if len(inside) < MIN_SAMPLES:
                mid = (t0 + t1) / 2
                inside = [s for _, s in sorted(rows, key=lambda r: abs(r[0] - mid))[:MIN_SAMPLES]]
            means.append(statistics.fmean(inside))
        return statistics.fmean(means) / FULL_SPEED_S

    def scale(self, seconds, cpus, t0, t1):
        """`seconds` measured over [t0, t1] on `cpus`, taken back to full speed."""
        return seconds / self.slowdown(cpus, t0, t1)
