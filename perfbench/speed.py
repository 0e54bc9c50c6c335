"""Machine-speed probe, and wall time scaled to a reference speed.

The shared virtual machines this benchmark runs on change speed by 20-40 %
within seconds to minutes, so raw wall times of identical runs spread more
than any bound worth having.  A child therefore times a fixed pure-Python
loop, the probe, throughout its run: a SIGALRM handler runs it every
PROBE_PERIOD_S while the program works (Python runs the handler in the main
thread between bytecodes, so the probe never overlaps the program), and a
burst of probes runs right after set-up.  The time spent in the handler is
taken out of each operation's wall time.

The parent then scales every time by the speed the probes saw around it:

    scaled = net wall time * REF_PROBE_S / median(probe times near it)

which is the time the operation would take at the reference speed, where
one probe takes REF_PROBE_S.  A change in the program moves the scaled
time as much as the raw one; a change in the machine's speed moves the
probe too and cancels.  The probe does not touch the program.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_LOOPS = 6000
REF_PROBE_S = 1.0e-3  # about the probe's median on the reference machine
PROBE_PERIOD_S = 0.05
SETUP_BURST = 40
WINDOW_S = 1.0
LEAST_PROBES = 15


def probe() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    s = 0
    table = {}
    for i in range(PROBE_LOOPS):
        s = (s * 31 + i) % 1000003
        table[i & 63] = s
    return s


class Prober:
    """Times the probe now and then; `samples` holds [start, duration]."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self.spent = 0.0  # wall time spent probing, to take out of the ops
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.samples.append([start, end - start])
        self.spent += end - start

    def burst(self, n: int = SETUP_BURST) -> float:
        """n probes back to back; their median duration."""
        durations = []
        for _ in range(n):
            self.sample()
            durations.append(self.samples[-1][1])
        return statistics.median(durations)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


def slowness(samples: list[list[float]], start: float, end: float) -> float:
    """Median probe time near [start, end] over REF_PROBE_S.

    Uses the probes that began within WINDOW_S of the interval, or, when
    there are fewer than LEAST_PROBES of those, the LEAST_PROBES nearest.
    """
    def distance(s):
        return max(start - s[0], s[0] - end, 0.0)

    near = [s[1] for s in samples if distance(s) <= WINDOW_S]
    if len(near) < LEAST_PROBES:
        near = [s[1] for s in sorted(samples, key=distance)[:LEAST_PROBES]]
    return statistics.median(near) / REF_PROBE_S
