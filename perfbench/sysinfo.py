"""Process-tree CPU time, driver peak memory and host facts, read from
``/proc`` (``psutil`` is not a dependency of the repository)."""

from __future__ import annotations

import os
import platform
import subprocess
import threading

_TICK = os.sysconf("SC_CLK_TCK")


def _proc_times() -> dict[int, tuple[int, float]]:
    """pid -> (parent pid, user+system CPU seconds) for every live process."""
    out: dict[int, tuple[int, float]] = {}
    for ent in os.listdir("/proc"):
        if not ent.isdigit():
            continue
        try:
            with open(f"/proc/{ent}/stat") as f:
                raw = f.read()
        except OSError:  # exited while listing
            continue
        # the command name may contain spaces; fields resume after ")"
        rest = raw[raw.rindex(")") + 2:].split()
        out[int(ent)] = (int(rest[1]), (int(rest[11]) + int(rest[12])) / _TICK)
    return out


def tree_cpu_seconds(root: int | None = None) -> dict[int, float]:
    """CPU seconds of ``root`` (default: this process) and every live
    descendant — with a local Ray cluster that is the GCS, the raylet and
    all worker processes."""
    root = os.getpid() if root is None else root
    procs = _proc_times()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in procs.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, [root]
    while todo:
        pid = todo.pop()
        if pid in procs:
            out[pid] = procs[pid][1]
            todo.extend(children.get(pid, ()))
    return out


class TreeCpu:
    """CPU seconds this process's tree uses inside a ``with`` block.

    The raylet ignores SIGCHLD, so a Ray worker that exits (an actor
    killed at the end of a crawl) leaves no trace in any parent's
    reaped-children time. A background thread therefore reads the tree
    every ``interval`` seconds and keeps each process's last reading: a
    process that exits inside the block counts up to its last sample, and
    one born inside it counts from zero."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.seconds = 0.0

    def __enter__(self) -> "TreeCpu":
        self._first = tree_cpu_seconds()
        self._last = dict(self._first)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            self._last.update(tree_cpu_seconds())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._last.update(tree_cpu_seconds())
        self.seconds = sum(t - self._first.get(pid, 0.0)
                           for pid, t in self._last.items())


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS counter (VmHWM). Returns False when
    the kernel refuses, in which case ``peak_rss_mb`` reports the peak
    since process start."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def cpu_ticks() -> list[int]:
    """The machine-wide CPU time counters of ``/proc/stat``, in ticks."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(since: list[int]) -> float:
    """Share of all CPU ticks since ``since`` (a ``cpu_ticks()`` reading)
    that were steal: time the hypervisor ran something else on this VM's
    CPUs."""
    d = [b - a for a, b in zip(since, cpu_ticks())]
    return d[7] / max(1, sum(d))


def host_facts(ray_cpus: int, seed: int) -> dict:
    import pyarrow
    import ray

    return {
        "nproc": _nproc(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "os_cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_declared_cpus": ray_cpus,
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def _nproc() -> int | None:
    """What coreutils ``nproc`` prints (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out.strip())
