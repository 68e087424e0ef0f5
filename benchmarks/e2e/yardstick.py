"""How fast this process runs at the moment, sampled while it works.

The benchmark runs on shared virtual machines whose neighbours come and
go.  On the 2-core x86-64 VM it was built on (CPython 3.11.7), a fixed
piece of interpreter work slowed by 1.2-1.4x for stretches of 0.5-5 s
and by up to 4x in bursts, with CPU time inflated as much as wall time,
so neither clock gives a steady number: three Table-1 campaigns (about
1 s together) repeated for a minute spread by 14-29% (interquartile
range over median).

A :class:`Sampler` therefore times a small fixed piece of work -- a deep
copy and comparison walk of a 40-node object tree, the kind of work the
state layer does -- every 50 ms of the process's CPU time (``SIGPROF``).
The handler runs in the main thread and reads that thread's CPU clock,
so time spent waiting for the interpreter lock does not count.  The
*speed* at a sample is ``REFERENCE_S / y`` for a sample that took ``y``
seconds, and a timing is reported in *reference seconds*: its measured
duration times the mean speed of the samples taken during it
(:func:`speed`).  The same repeated campaigns then spread by 4%.  Raw
seconds are printed next to every scaled metric.

The two virtual CPUs do not slow down together, and the handler measures
the one the main thread is on, so a process whose work runs in other
threads (the shard supervisor's shards, the service's campaign executor)
is pinned to one CPU (:func:`pin`): pinned, supervised campaigns spread
by 3-8%, unpinned by 18-35%.  A CPython process runs bytecode in one
thread at a time, so pinning costs it little.  Forked pool workers are
single-threaded, sample themselves, and run unpinned.  Traced runs are
pinned the same way, so their per-layer numbers describe the same
schedule.
"""

from __future__ import annotations

import bisect
import copy
import gc
import os
import signal
import statistics
import time
from typing import List, Sequence, Set, Tuple

#: A sample's time on the reference VM in a quiet spell.
REFERENCE_S = 0.00040

#: CPU seconds between samples; each sample costs about 0.4 ms.
INTERVAL_S = 0.05

#: An interval with fewer samples than this takes the nearest ones.
MIN_SAMPLES = 3

Samples = List[Tuple[float, float]]


class _Node:
    def __init__(self, value: int) -> None:
        self.value = value
        self.name = f"n{value}"
        self.meta = {"value": value, "tags": [value, value + 1]}
        self.kids: list = []


def pin(index: int) -> Set[int]:
    """Run the calling thread, and the threads and processes it starts
    from now on, on one CPU: the *index*-th (wrapping) of those it may
    use.  Returns the CPUs it could use before."""
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    return allowed


class Sampler:
    """Records ``(perf_counter time, sample seconds)`` every *interval*
    seconds of the process's CPU time while started."""

    def __init__(self, interval: float = INTERVAL_S, size: int = 40) -> None:
        self.interval = interval
        self.samples: Samples = []
        self._busy = False
        nodes = [_Node(i) for i in range(size)]
        for index, node in enumerate(nodes[1:], start=1):
            nodes[(index - 1) // 3].kids.append(node)
        self._root = nodes[0]

    def start(self) -> None:
        """Install the handler and arm the timer (main thread only).  A
        first sample is taken at once, so that an interval too short for
        any has a nearest one."""
        self._on_signal(signal.SIGPROF, None)
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def start_in_child(self) -> None:
        """In a forked child: drop the parent's samples and arm the timer
        again (a child inherits the handler, not the timer)."""
        self.samples = []
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        # ignored, not default: a signal still in flight must not kill us
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def measure(self) -> float:
        """Thread CPU seconds of one copy + walk, with the collector
        held off so the program's own garbage does not leak in."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.thread_time()
            twin = copy.deepcopy(self._root)
            stack = [(self._root, twin)]
            while stack:
                a, b = stack.pop()
                if a.value != b.value or a.name != b.name or a.meta != b.meta:
                    raise AssertionError("yardstick copy differs")
                stack.extend(zip(a.kids, b.kids))
            return time.thread_time() - started
        finally:
            if enabled:
                gc.enable()

    def _on_signal(self, signum: int, frame: object) -> None:
        if self._busy:  # fired again inside a sample: skip, do not nest
            return
        self._busy = True
        try:
            self.samples.append((time.perf_counter(), self.measure()))
        finally:
            self._busy = False


def speed(samples: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Mean speed over ``[start, end]``: of the *samples* (in time order)
    taken inside it, or, when fewer than :data:`MIN_SAMPLES` were, of the
    ones nearest its middle."""
    if not samples:
        raise ValueError("no speed samples were taken")
    lo = bisect.bisect_left(samples, start, key=lambda s: s[0])
    hi = bisect.bisect_right(samples, end, key=lambda s: s[0])
    chosen = samples[lo:hi]
    if len(chosen) < MIN_SAMPLES:
        middle = (start + end) / 2.0
        around = samples[max(0, lo - MIN_SAMPLES):hi + MIN_SAMPLES]
        chosen = sorted(around, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
    return statistics.fmean(REFERENCE_S / y for _, y in chosen)
