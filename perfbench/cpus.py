"""CPU placement of a benchmark run.

The run keeps all of its threads and processes together on one CPU at a
time, so a hand-off between them (the interpreter lock passing between
threads, a pipe waking a worker) never waits on a cross-CPU wake-up.  A
helper process moves the whole tree to the next CPU the run may use
every ``PERIOD_S`` seconds.  On a shared host each virtual CPU has slow
stretches of its own, lasting from seconds to minutes; rotating gives
every CPU a share of the run, so one CPU's slow stretch weighs only its
share.  Each move costs the tree its warm caches, so moves are rare
enough to stay out of p99.  See README.md, "CPU placement".

Run as a script, this file is the helper::

    python3 perfbench/cpus.py <root pid> <period s> <cpu> [<cpu> ...]

It moves the tree under ``<root pid>`` until its standard input closes.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys

PERIOD_S = 2.5


def _tree(root: int) -> list[int]:
    """``root`` and every process descended from it."""
    pids, stack = [], [root]
    while stack:
        pid = stack.pop()
        pids.append(pid)
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                    stack.extend(int(c) for c in fh.read().split())
            except OSError:
                pass
    return pids


def move_tree(root: int, cpu: int) -> None:
    """Put every thread of every process under ``root`` on ``cpu``."""
    for pid in _tree(root):
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except OSError:
                pass  # the thread ended since the listing


class Rotation:
    """Pins this process to the first CPU it may use and starts the
    helper that rotates the process tree over those CPUs; :meth:`stop`
    ends the helper and waits for it."""

    def __init__(self, period_s: float = PERIOD_S):
        cpus = sorted(os.sched_getaffinity(0))
        move_tree(os.getpid(), cpus[0])
        self._proc = None
        if len(cpus) > 1:
            self._proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__),
                 str(os.getpid()), str(period_s), *map(str, cpus)],
                stdin=subprocess.PIPE,
            )

    def stop(self) -> None:
        if self._proc is None:
            return
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc = None


def _helper(root: int, period_s: float, cpus: list[int]) -> None:
    turn = 0
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], period_s)
        if ready and not sys.stdin.buffer.read1(4096):
            return  # the run closed the pipe
        if not os.path.exists(f"/proc/{root}"):
            return
        turn = (turn + 1) % len(cpus)
        move_tree(root, cpus[turn])


if __name__ == "__main__":
    _helper(int(sys.argv[1]), float(sys.argv[2]), [int(c) for c in sys.argv[3:]])
