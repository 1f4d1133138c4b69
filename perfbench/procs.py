"""Process hygiene: every process a run starts has ended, and has been
waited for, before the run exits.

The server the ``serve-mixed`` workload launches forks pool workers and a
``multiprocessing`` resource tracker while its tuner times process-pool
plans; the traced run does the same in this process.  Those grandchildren
outlive their parent by a moment.  So the benchmark process becomes a
child subreaper (orphaned descendants are re-parented to it rather than
to init), and :func:`stop_all_children` ends and reaps every child it
has, repeating until none is left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from pathlib import Path
from typing import List

#: ``prctl`` options (linux/prctl.h).
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, arg: int) -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(option, arg, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants."""
    return _prctl(PR_SET_CHILD_SUBREAPER, 1)


def die_with_parent() -> None:
    """``preexec_fn`` for a child: SIGKILL it if this process dies first."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def exit_on_signals() -> None:
    """Turn SIGTERM and SIGHUP into ``SystemExit``, so ``finally`` blocks
    run and the children are stopped."""
    def handler(signum, _frame):
        raise SystemExit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, handler)


def ignore_signals() -> None:
    """Ignore SIGTERM and SIGHUP from here on."""
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, signal.SIG_IGN)


def children() -> List[int]:
    """Pids of this process's children."""
    pid = os.getpid()
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name is in parentheses and may hold spaces
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            out.append(int(entry.name))
    return out


def _reap() -> None:
    """Wait for every child that has already ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_resource_tracker() -> None:
    """End this process's ``multiprocessing`` resource tracker, if it
    started one; it otherwise lives until this process exits."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:
        return
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def stop_all_children(grace_s: float = 10.0) -> None:
    """SIGTERM every child, SIGKILL it after ``grace_s``, reap it; repeat
    for the orphans that re-parents onto this process, until none is
    left."""
    _stop_resource_tracker()
    deadline = time.monotonic() + grace_s
    signalled = set()
    while True:
        _reap()
        pids = children()
        if not pids:
            return
        sig = signal.SIGTERM if time.monotonic() < deadline \
            else signal.SIGKILL
        for pid in pids:
            if (pid, sig) in signalled:
                continue
            signalled.add((pid, sig))
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.01)
