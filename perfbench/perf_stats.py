"""Measurement helpers shared by the benchmark workloads.

Everything here is pure bookkeeping with no dependency on the program
under test: nearest-rank percentiles, the open-loop arrival schedule
(due times and generator lag), operation outcome counting, and the
machine/run record that travels with every result.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Percentiles tried, highest first, when picking a run's tail percentile.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by the nearest-rank rule.

    The smallest sample such that at least ``q`` percent of the samples
    are less than or equal to it; no interpolation, so the result is
    always one of the measured values.
    """
    if not values:
        raise ValueError("nearest_rank needs at least one value")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in TAIL_CANDIDATES:
        if count - max(1, math.ceil(q / 100.0 * count)) >= TAIL_MIN_BEYOND:
            return q
    return None


class OpenLoopSchedule:
    """Fixed-rate arrivals: request ``i`` is due ``i / rate`` after start.

    Senders claim indices in order; each sleeps until its request is due
    and reports when it actually sent and when the reply completed.
    Latency is measured from the *due* time, so a stall that delays
    later requests is charged to them too; lag is how late the
    generator itself sent.  Both lists are indexed by request.
    """

    def __init__(self, rate: float, count: int, start: float) -> None:
        if rate <= 0 or count < 1:
            raise ValueError("an open-loop schedule needs rate > 0 and count >= 1")
        self.rate = float(rate)
        self.count = int(count)
        self.start = float(start)
        self._next = 0
        self._lock = threading.Lock()
        self.latencies: List[float] = [math.inf] * self.count
        self.lags: List[float] = [0.0] * self.count

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def claim(self) -> Optional[int]:
        """The next unsent request index, or ``None`` when all are taken."""
        with self._lock:
            if self._next >= self.count:
                return None
            index = self._next
            self._next += 1
            return index

    def record(self, index: int, sent: float, done: Optional[float]) -> None:
        """Account one request; ``done=None`` marks a failed request,
        which misses every latency limit (its latency is infinite)."""
        due = self.due(index)
        self.lags[index] = max(0.0, sent - due)
        self.latencies[index] = math.inf if done is None else done - due


def window_medians(values: Sequence[float], size: int) -> List[float]:
    """Nearest-rank medians of consecutive ``size``-sample windows (a
    trailing partial window is dropped unless it is the only one)."""
    if size < 1:
        raise ValueError("window size must be >= 1")
    full = len(values) // size
    if full == 0:
        return [nearest_rank(values, 50)]
    return [nearest_rank(values[i * size:(i + 1) * size], 50) for i in range(full)]


def window_rates(times: Sequence[float], start: float, size: int) -> List[float]:
    """Completions per second over consecutive windows of ``size``
    completions, the first window opening at ``start`` (a trailing
    partial window is dropped unless it is the only one)."""
    if size < 1:
        raise ValueError("window size must be >= 1")
    ordered = sorted(times)
    if not ordered:
        return [0.0]
    full = len(ordered) // size
    if full == 0:
        return [len(ordered) / max(ordered[-1] - start, 1e-9)]
    rates = []
    opened = start
    for window in range(full):
        closed = ordered[(window + 1) * size - 1]
        rates.append(size / max(closed - opened, 1e-9))
        opened = closed
    return rates


class OpCounter:
    """Operations attempted and failed (failed, refused or timed out)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, ok: bool, error: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if error and len(self.errors) < 5:
                    self.errors.append(error)

    def merge(self, other: "OpCounter") -> None:
        with self._lock:
            self.attempted += other.attempted
            self.failed += other.failed
            self.errors.extend(other.errors[: max(0, 5 - len(self.errors))])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def finite_ms(seconds: float, ceiling_s: float) -> float:
    """Seconds as milliseconds, clamped so a failed (infinite) sample
    still serializes as a JSON number."""
    return 1e3 * min(seconds, ceiling_s)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_self_mb() -> float:
    """Peak resident set of this process, MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status(pid: int) -> Dict[str, str]:
    """``/proc/<pid>/status`` as a dict (empty once the process is gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return {}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key] = value.strip()
    return fields


def peak_rss_of_mb(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of a live process, MiB."""
    value = proc_status(pid).get("VmHWM")
    return None if value is None else int(value.split()[0]) / 1024.0


def thread_count(pid: int) -> Optional[int]:
    value = proc_status(pid).get("Threads")
    return None if value is None else int(value)


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``unknown`` when the tree is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> Dict[str, object]:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def sleep_until(deadline: float) -> None:
    remaining = deadline - time.perf_counter()
    if remaining > 0:
        time.sleep(remaining)
