"""Every process a benchmark run starts ends before the run does.

``ray.shutdown()`` stops the GCS and the raylet, but the raylet's
children — worker processes, the agents — exit on their own a moment
later, re-parented away from the run, and can outlive it. ``adopt_orphans``
makes the run the reaper of such orphans, and ``end_all`` waits for every
descendant to end, terminating the ones that do not, and reaps each.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

import sysinfo

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Have orphaned descendants re-parented to this process, not init."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _descendants() -> list[int]:
    return [p for p in sysinfo.tree_cpu_seconds() if p != os.getpid()]


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def end_all(grace: float = 10.0) -> None:
    """Wait up to ``grace`` seconds for every descendant to exit, then
    send SIGTERM to those left, and SIGKILL 3 s later; reap them all."""
    for sig, wait in ((None, grace), (signal.SIGTERM, 3.0),
                      (signal.SIGKILL, 5.0)):
        left = _descendants()
        if sig is not None:
            for pid in left:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + wait
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            _reap()
            left = _descendants()
        if not left:
            return
        print(f"# {len(left)} child processes still running after "
              f"{'exit wait' if sig is None else sig.name}: {left}",
              file=sys.stderr, flush=True)
