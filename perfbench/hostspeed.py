"""Host speed, sampled while the benchmark's processes run, and the CPU they share.

On a shared host the same pure-Python work runs up to about 1.6x slower in
phases that last from seconds to minutes, and a job's CPU time follows its
wall time, so neither a longer run nor CPU time removes the phases.  What
does is a fixed reference computation timed all through the run: a run's
times are scaled by `REF_S / median(reference reps of the run)`, and a
scaled time reads in seconds of the machine the benchmark was written on,
at its median speed.

The reps are taken while a started process works: the benchmark waits for
a child's exit (or a server's answer) in slices of PERIOD_S and runs one rep
(about 3 ms) after each slice.  Reps taken between processes, while the CPU
is otherwise idle, follow the jobs' speed worse than the raw times do.  The
benchmark, its processes and so the reps all run on one CPU (`pin`), since
the vCPUs of a shared host need not run at the same speed.  Every started
process runs at the lowest priority (`lowest_priority`), so a rep runs
alone and is not stretched by the job it samples; the job waits out each rep,
about 5% of its time, the same share on every commit.

The reference is the kind of work rootspin does (exact Fraction arithmetic,
tuple keys, dict stores) and calls nothing of rootspin, so a change to the
program cannot change it.  It follows the jobs only in part: in the host's
fast phases it ran up to 1.7x faster while CLI jobs ran about 1.4x faster,
and in slow phases the jobs slowed somewhat more than it did.  Adding random
reads over a large table made it follow the fast phases better and the slow
ones worse, so it was left out.
"""

from __future__ import annotations

import os
import select
import time
from fractions import Fraction
from statistics import median

# median time of one rep, taken while a job runs, on one "Intel(R) Xeon(R)
# Processor" vCPU of a 2-vCPU machine with Python 3.11.7
REF_S = 0.0027
PERIOD_S = 0.05


def pin() -> int:
    """Hold this process, and every process it starts, to one of its CPUs."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def lowest_priority() -> None:
    """Run in each started process before exec (Popen's preexec_fn)."""
    os.nice(19)


def rep() -> float:
    """Time one run of the reference computation, in seconds."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 700):
        acc += Fraction(i % 7, i % 11 + 1)
        table[(i % 97, i % 13)] = acc.numerator % 1000
    return time.perf_counter() - t0


class HostSpeed:
    """The reference reps of one run."""

    def __init__(self):
        self.reps: list[float] = []

    def wait(self, fd: int, timeout: float) -> bool:
        """Wait until fd is readable, with a rep after every PERIOD_S; False past timeout.

        fd is a child's pidfd (readable once it exits) or the pipe its
        answer comes on.
        """
        poll = select.poll()
        poll.register(fd, select.POLLIN)
        end = time.perf_counter() + timeout
        while not poll.poll(PERIOD_S * 1000):
            if time.perf_counter() > end:
                return False
            self.reps.append(rep())
        return True

    def scale(self) -> float:
        """Factor that turns the run's wall seconds into reference seconds."""
        return REF_S / median(self.reps) if self.reps else 1.0
