"""Timing on a CPU whose speed drifts: wall time scaled to a reference speed.

On a shared VM one vCPU runs a fixed loop 25-45% slower for seconds at a
time (its host sibling is busy), and two vCPUs drift independently.  A
plain wall-clock figure then measures the neighbours more than the
program.  The benchmark therefore pins itself and the server it starts to
one CPU (children inherit the affinity), probes that CPU's speed between
ops, and reports every interval in *reference seconds*:

    reference seconds = wall seconds * REFERENCE_PROBE_S / probe seconds

where ``probe seconds`` is the median probe around the interval and
``REFERENCE_PROBE_S`` a fixed constant, a typical probe on the 2-core x86
VM the benchmark was written on (its probes ran 0.4-0.9x of it from hour
to hour), so reference seconds are close to wall seconds there.

A probe has two halves of about equal time, none of it the program's own
code: ``ROUND_TRIPS`` loopback round trips between two threads of this
process (interpreter wake-ups, socket syscalls, thread switches: the cost
shape of a small service call) and a numpy sort of ``SORT_VALUES`` doubles
(the cost shape of a large batch).  Over five seeds each of
``stream_dashboard`` and ``windowed_rollover``, the spreads (IQR/median) of
ingest and read rate and p50 latency were 0.16-0.27 unscaled, 0.05-0.12
scaled by a pure-Python loop and 0.03-0.08 scaled by this probe.

A probe must measure the CPU, not the program running beside it.  The
server (and any thread of this process other than the prober's two) may
still be at work after an ack: a group commit finishing, deferred
compaction, a collection.  Such work would slow the probe and so shrink
every interval it scales, and a change that moved work past the ack would
read as faster.  Each probe therefore reads the CPU time of every watched
thread (``/proc/<pid>/task/<tid>/schedstat``, nanoseconds) before and after
it.  All of them share the prober's one CPU, so the time they ran is time
the probe waited: it is taken off the probe's wall time.  A probe during
which they ran more than ``MAX_OTHERS_SHARE`` of it is dropped.  The op
that follows is not held back: post-ack work still overlaps it, as it
would without the probe.
"""

from __future__ import annotations

import bisect
import os
import socket
import statistics
import threading
import time
from typing import List, Optional

import numpy as np

#: A typical probe time on the reference machine; fixed, so that figures of
#: different runs and checkouts compare.
REFERENCE_PROBE_S = 0.0008
ROUND_TRIPS = 40
SORT_VALUES = 40_000
_MESSAGE = b"x" * 32
#: :meth:`Clock.tick` probes once per this much time since its last call,
#: so long ops are bracketed as densely as short ones ...
PROBE_EVERY_S = 0.02
#: ... but at most this many times per call.
MAX_TICK_PROBES = 5
#: Probes whose median scales one interval (at least).
NEAREST = 5
#: Probes this close to an interval count towards its scale.
MARGIN_S = 0.25
#: Probes right before and right after work timed by :meth:`Clock.timed`.
BRACKET_PROBES = 3
#: A probe is dropped if the watched threads ran more than this share of it.
MAX_OTHERS_SHARE = 0.5


def pin_to_one_cpu() -> int:
    """Pin this process, and every process it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _echo(peer: socket.socket) -> None:
    with peer:
        while True:
            data = peer.recv(64)
            if not data:
                return
            peer.sendall(data)


class Clock:
    """Speed probes on a timeline, and intervals scaled by them.

    Owns the echo thread the probes talk to; :meth:`close` (or leaving the
    ``with`` block) stops it."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.probe_s: List[float] = []
        #: Probes dropped because the watched threads ran through much of them.
        self.dropped = 0
        #: Seconds of watched-thread CPU time taken off the kept probes.
        self.others_s = 0.0
        self._last_tick = time.perf_counter() - PROBE_EVERY_S
        #: The server process whose threads are watched (None: none running).
        self.server_pid: Optional[int] = None
        self._unsorted = np.random.default_rng(0).random(SORT_VALUES)
        self._sock, peer = socket.socketpair()
        self._echo = threading.Thread(target=_echo, args=(peer,), name="clock-echo", daemon=True)
        self._echo.start()
        #: This process's own threads that are not watched: the prober's two.
        self._prober_tids = {threading.get_native_id(), self._echo.native_id}

    def __enter__(self) -> "Clock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._sock.close()  # the echo thread sees EOF and returns
        self._echo.join(timeout=10)

    def _others_ns(self) -> int:
        """CPU time so far of every watched thread: the server's, and this
        process's own but for the prober's two."""
        total = 0
        own = os.getpid()
        for pid in (own, self.server_pid):
            if pid is None:
                continue
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except FileNotFoundError:
                continue
            for tid in tids:
                if pid == own and int(tid) in self._prober_tids:
                    continue
                try:
                    with open(f"/proc/{pid}/task/{tid}/schedstat", "rb") as stat:
                        total += int(stat.read().split()[0])
                except (FileNotFoundError, ProcessLookupError):
                    pass  # the thread has just exited
        return total

    def probe(self, count: int = 1) -> None:
        """Time ``count`` probes, less the CPU time of the watched threads."""
        sock = self._sock
        for _ in range(count):
            others = self._others_ns()
            began = time.perf_counter()
            for _ in range(ROUND_TRIPS):
                sock.sendall(_MESSAGE)
                received = 0
                while received < len(_MESSAGE):
                    received += len(sock.recv(64))
            np.sort(self._unsorted)
            elapsed = time.perf_counter() - began
            others = (self._others_ns() - others) / 1e9
            if not 0 <= others <= MAX_OTHERS_SHARE * elapsed:
                self.dropped += 1
                continue
            self.others_s += others
            self.times.append(began)
            self.probe_s.append(elapsed - others)

    def tick(self) -> None:
        """Probe once per ``PROBE_EVERY_S`` since the last tick that probed."""
        now = time.perf_counter()
        due = int((now - self._last_tick) / PROBE_EVERY_S)
        if due:
            self._last_tick = now
            self.probe(min(due, MAX_TICK_PROBES))

    def scale(self, start: float, seconds: float) -> float:
        """``REFERENCE_PROBE_S / probe seconds`` for ``[start, start + seconds]``:
        the median of the probes within ``MARGIN_S`` of it, or of the
        ``NEAREST`` probes to its middle if fewer fall there."""
        times = self.times
        lo = bisect.bisect_left(times, start - MARGIN_S)
        hi = bisect.bisect_right(times, start + seconds + MARGIN_S)
        if hi - lo < NEAREST:
            middle = bisect.bisect_left(times, start + seconds / 2)
            lo = max(0, min(middle - NEAREST // 2, len(times) - NEAREST))
            hi = lo + NEAREST
        if not self.probe_s:
            raise RuntimeError("every speed probe shared its CPU with the server")
        return REFERENCE_PROBE_S / statistics.median(self.probe_s[lo:hi])

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` (begun at ``start``) in reference seconds."""
        return seconds * self.scale(start, seconds)

    def timed(self, fn):
        """``(fn(), its duration in reference seconds)``, for work that no
        probe can interleave with (a process start): probes right before
        and right after it scale it."""
        self.probe(BRACKET_PROBES)
        began = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - began
        self.probe(BRACKET_PROBES)
        return result, self.scaled(began, elapsed)

    def speed(self) -> float:
        """Median probe over the reference (1.0 = reference speed), for the log."""
        return statistics.median(self.probe_s) / REFERENCE_PROBE_S
