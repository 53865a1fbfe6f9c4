"""Host facts, /proc readers and the host-speed reference of the benchmark.

Nothing here imports the package under test, so the launcher stays light
and the reference cannot move with a change to the package.
"""

from __future__ import annotations

import importlib.metadata
import importlib.util
import math
import os
import platform
import random
from time import perf_counter

#: Optional accelerators the data path can use when installed. Their absence
#: changes which kernel backend runs, so every result records it.
OPTIONAL_MODULES = ("numba", "numexpr", "pyarrow")


def cpu_times() -> tuple[int, int]:
    """(steal ticks, total ticks) summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0, 0
    ticks = [int(x) for x in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already folded into user/nice, so it is not re-added.
    total = sum(ticks[:8])
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, total


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time stolen by the hypervisor between two samples."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def _status_kb(pid: int | str, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def descendants(pid: int) -> list[int]:
    """Live descendant processes of ``pid``, found by walking /proc ppids."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the ppid follows its ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found: list[int] = []
    frontier = [pid]
    while frontier:
        nxt = children.get(frontier.pop(), [])
        found.extend(nxt)
        frontier.extend(nxt)
    return found


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident memory of a process plus its live descendants (MB).

    Sums each process's high-water mark (VmHWM). Forked workers share
    copy-on-write pages with their parent, and each is counted in full.
    """
    pid = os.getpid() if pid is None else pid
    kb = _status_kb(pid, "VmHWM")
    for child in descendants(pid):
        kb += _status_kb(child, "VmHWM")
    return kb / 1024.0


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def host_facts() -> dict:
    """The facts a result needs to be read on another host."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "optional_modules": {
            name: importlib.util.find_spec(name) is not None for name in OPTIONAL_MODULES
        },
    }



class _Sample:
    __slots__ = ("predicted", "observed")

    def __init__(self, predicted: float, observed: float) -> None:
        self.predicted = predicted
        self.observed = observed

    @property
    def log_ratio(self) -> float:
        return math.log(self.observed / self.predicted)


class HostSpeed:
    """Times a fixed reference workload to measure how fast the host is now.

    Shared hosts slow a tenant by up to 2x for seconds to minutes, as other
    tenants come and go, and interpreter work that chases pointers through
    many small objects slows the most. The reference does such work: it
    sorts 16 windows of 256 objects by a computed log ratio, the access
    pattern of the package's residual windows. Run between units, its time
    tracks the slowdown the units suffered; it shares no code with the
    package, so a change to the package cannot move it.
    """

    #: The reference's time on an idle core of the 2-vCPU host the
    #: benchmark was built on; reference-timed units are scaled to it.
    QUIET_S = 1.2e-3

    def __init__(self) -> None:
        rng = random.Random(2024)
        samples = [_Sample(rng.random() + 0.5, rng.random() + 0.5) for _ in range(4096)]
        rng.shuffle(samples)
        self._windows = [samples[i::16] for i in range(16)]

    def sample(self, repeats: int = 2) -> float:
        """Mean seconds of ``repeats`` reference runs."""
        start = perf_counter()
        for _ in range(repeats):
            for window in self._windows:
                sorted(s.log_ratio for s in window)
        return (perf_counter() - start) / repeats
