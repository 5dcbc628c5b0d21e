"""Shared pieces of the benchmark: results, statistics, host facts."""

import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

P99_WINDOW = 1000   # samples per p99 window: ten lie beyond its p99
#: Seconds one reference pass takes on a quiet host (2-vCPU x86_64 VM,
#: Python 3.11, numpy 2.4 on OpenBLAS, one BLAS thread): the fastest
#: decile of its passes there.  A corrected time reads as if the host
#: had run at that speed.
REFERENCE_NOMINAL_S = {"interpreter": 0.0010, "array": 0.0078}
INTERPRETER_PASSES = 250    # small-array steps per interpreter pass
ARRAY_ELEMENTS = 1_000_000  # column length of the array pass
FACTOR_PASSES = 5           # latest passes a NominalClock's factor uses


@dataclass
class Measurement:
    """What one timed pass of a workload produced.

    ``metrics`` holds the end-to-end values; ``checks`` maps a check
    name to the number of operations it found wrong; ``info`` is
    reported next to the result (sample counts, phase sizes);
    ``detail`` is what the traced run's layer metrics are computed from.
    """

    metrics: dict
    attempted: int
    failed: int
    checks: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def percentile_ms(seconds, q):
    """The ``q``-th percentile of a list of seconds, in milliseconds."""
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def windowed_p99_ms(seconds):
    """99th percentile in ms, as the median over consecutive windows.

    Each window holds at least ``P99_WINDOW`` samples, so its p99 has
    ten samples beyond it; one stalled stretch then moves one window's
    value instead of the whole run's.  Fewer than two windows' worth of
    samples gives the plain p99.
    """
    samples = np.asarray(seconds)
    count = len(samples) // P99_WINDOW
    if count < 2:
        return percentile_ms(samples, 99)
    return median([np.percentile(chunk, 99)
                   for chunk in np.array_split(samples, count)]) * 1e3


def median(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))


class HostReference:
    """Fixed work from the benchmark's own code that measures host speed.

    On a shared host the speed of a core drifts by up to 1.7x over
    seconds to minutes, as neighbours come and go, and a run's times
    move with it.  ``correct(seconds)`` runs one reference pass right
    after a timed unit of work and rescales the unit's time by the
    reference's nominal time over the time the pass just took, so
    the unit reads as if it had run on the quiet host of
    ``REFERENCE_NOMINAL_S``.  The pass calls no library code, so a
    change to the library moves the corrected times as it moves the raw
    ones.  Two kinds resemble the two kinds of work measured:
    ``interpreter`` is a Python loop over small-array numpy steps, like
    serving and training; ``array`` streams million-element columns,
    like the fleet rounds.  ``samples`` keeps every pass's seconds.
    """

    def __init__(self, kind):
        self.kind = kind
        self.nominal_s = REFERENCE_NOMINAL_S[kind]
        rng = np.random.default_rng(0)
        self._inputs = rng.standard_normal((8, 16))
        self._weights = rng.standard_normal((16, 16))
        self._column = rng.random(ARRAY_ELEMENTS) if kind == "array" else None
        self.samples = []

    def _interpreter_pass(self):
        total, seen = 0.0, {}
        for step in range(INTERPRETER_PASSES):
            hidden = np.tanh(self._inputs @ self._weights)
            total += float(hidden.sum())
            seen[step % 17] = total
        return total

    def _array_pass(self):
        scaled = self._column * 1.0001
        return int((scaled > 0.5).sum()) + int(np.cumsum(scaled)[-1] > 0)

    def measure(self):
        """Run one reference pass; returns (and keeps) its seconds."""
        start = time.perf_counter()
        if self._column is None:
            self._interpreter_pass()
        else:
            self._array_pass()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def correct(self, seconds):
        """``seconds`` of work timed just now, on the nominal host."""
        return seconds * self.nominal_s / self.measure()

    def factor(self):
        """Median pass time over the nominal one: >1 on a slow host."""
        if not self.samples:
            return 1.0
        return median(self.samples) / self.nominal_s


class NominalClock:
    """A clock that runs at the pace of the nominal host.

    It advances ``1 / factor`` seconds per real second, where ``factor``
    is how much slower than nominal the host runs just now: the median
    of the latest ``FACTOR_PASSES`` reference passes over the nominal
    pass time.  ``idle()`` runs one more pass; the serving generator
    calls it while it waits for the next arrival, so the factor follows
    the host's speed from millisecond to millisecond.  A server and a
    generator on this clock see arrival gaps, batch windows, token
    rates and SLOs in nominal time, and time latencies in it.
    """

    def __init__(self, reference, recent):
        self._reference = reference
        self._recent = list(recent)[-FACTOR_PASSES:]
        self.factor = median(self._recent) / reference.nominal_s
        self._real = time.perf_counter()
        self._now = 0.0

    def __call__(self):
        real = time.perf_counter()
        self._now += (real - self._real) / self.factor
        self._real = real
        return self._now

    def idle(self):
        """Run one reference pass; later time runs at the new factor."""
        self()
        self._recent = (self._recent[1 - FACTOR_PASSES:]
                        + [self._reference.measure()])
        self.factor = median(self._recent) / self._reference.nominal_s


def repeat_setup(build, repeats, min_seconds, reference):
    """Build ``repeats`` times, and more until ``min_seconds`` are spent.

    Returns (last result, raw seconds, corrected seconds): each build is
    followed by one ``reference`` pass that corrects its time for host
    speed.  Each earlier result is dropped before the next build starts,
    so peak memory holds one system, not all of them.  A cheap set-up is
    repeated more often, so its median is as steady as that of an
    expensive one.
    """
    seconds, corrected = [], []
    system = None
    while len(seconds) < repeats or sum(seconds) < min_seconds:
        system = None
        start = time.perf_counter()
        system = build()
        seconds.append(time.perf_counter() - start)
        corrected.append(reference.correct(seconds[-1]))
    return system, seconds, corrected


def spin_until(deadline, clock=time.perf_counter):
    """Busy-wait until ``clock()`` reaches ``deadline``.

    The generator spins instead of sleeping: on a shared host a sleeping
    thread can wake milliseconds late, which would read as server
    latency.
    """
    while clock() < deadline:
        pass


def peak_rss_mb():
    """VmHWM of this process in MB (ru_maxrss where /proc is absent)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_name():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "{} {}".format(blas.get("name", "unknown"),
                          blas.get("version", "")).strip()


def _git_commit(root):
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_fingerprint(root):
    """Facts about the host that a result is only valid for."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {name: value for name, value in os.environ.items()
                         if name.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(root),
    }
