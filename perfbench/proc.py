"""Process-tree accounting from /proc: CPU time, peak RSS, and waiting for
the processes a run started to end."""

from __future__ import annotations

import os
import signal
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int):
    """(ppid, own cpu ticks, start time, state) or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            text = f.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2 :].split()
    # fields[0] is field 3 (state): ppid=4, utime=14, stime=15, start=22
    return int(fields[1]), int(fields[11]) + int(fields[12]), int(fields[19]), fields[0]


def descendants(root: int | None = None) -> dict[int, int]:
    """pid -> start time of every live descendant of ``root``."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    starts = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st:
                children.setdefault(st[0], []).append(int(name))
                starts[int(name)] = st[2]
    out, todo = {}, [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out[c] = starts[c]
            todo.append(c)
    return out


def cpu_snapshot() -> dict:
    """(pid, start time) -> CPU ticks of this process and its live
    descendants."""
    out = {}
    for pid in [os.getpid(), *descendants()]:
        st = _stat(pid)
        if st:
            out[(pid, st[2])] = st[1]
    return out


def cpu_delta_s(before: dict, after: dict) -> float:
    """CPU seconds the process tree spent between two snapshots.  A
    process that started in between counts in full; one that ended in
    between is missed for its last stretch.  Reaped children's totals
    (cutime) are left out on purpose: a long-lived Ray worker reaped in
    the interval would add its whole lifetime."""
    ticks = sum(t - before.get(key, 0) for key, t in after.items())
    return ticks / _TICK


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def wait_gone(procs: dict[int, int], timeout: float = 20.0) -> None:
    """Wait until every (pid, start time) in ``procs`` has exited; after
    half the timeout send SIGTERM, then SIGKILL to what is left."""

    def alive():
        left = {}
        for pid, start in procs.items():
            st = _stat(pid)
            if not st or st[2] != start:
                continue
            if st[3] == "Z":  # ended; reap it if it is our own child
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
                continue
            left[pid] = start
        return left

    deadline = time.monotonic() + timeout
    sent = None
    while True:
        procs = alive()
        if not procs:
            return
        now = time.monotonic()
        if now > deadline:
            raise RuntimeError(f"processes still running: {sorted(procs)}")
        want = signal.SIGKILL if now > deadline - timeout / 4 else (
            signal.SIGTERM if now > deadline - timeout / 2 else None
        )
        if want is not None and want != sent:
            for pid in procs:
                try:
                    os.kill(pid, want)
                except ProcessLookupError:
                    pass
            sent = want
        time.sleep(0.1)
