"""Timing at a fixed reference speed.

On a shared host a core's speed is not constant: a fixed pure-Python
loop here reads about 1.8 ms in fast phases and 3.0-3.7 ms in slow ones,
switching within seconds, and the share of slow phases drifts over
minutes.  CPU time follows wall time, so the program runs slower in
those phases; it is not waiting.  Medians of plain wall time over 30 s
windows of one long run spread by 0.27-0.34 (quartile distance over
median), more than any bound a regression check could use.

:class:`SpeedClock` therefore times each call between two runs of a
fixed reference loop, the benchmark's own code that the program cannot
change, and scales the call's wall time by how much slower than
``REF_NOMINAL_S`` the loop ran around it.  On the same windows the
scaled medians spread by 0.02-0.05.  A scaled time is the time the call
would take on a core where the loop takes ``REF_NOMINAL_S``, about the
fast phase of the 2-core VM the benchmark was tuned on (Python 3.11).
The benchmark reports wall times beside the scaled ones.
"""

import time

#: Iterations of the reference loop: a few milliseconds per run, short
#: beside the calls it brackets yet long enough to read steadily.
REF_ITERATIONS = 6000
#: The loop's time that scaled times are expressed at.
REF_NOMINAL_S = 0.002


def reference_work():
    """The reference loop: dict stores and lookups, integer arithmetic
    and tuple hashing, the operations the simulator's interpreter is
    made of."""
    table = {}
    total = 0
    for i in range(REF_ITERATIONS):
        table[i & 1023] = i
        total += table.get(i & 511, 0) % 7
        total ^= hash((i, total)) & 3
    return total


def reference_s():
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


class SpeedClock:
    """Times calls in wall seconds and in reference-speed seconds.

    The loop's run after one call is also the run before the next, so
    back-to-back calls cost one loop each; call :meth:`refresh` after
    untimed work.
    """

    def __init__(self):
        reference_work()
        self.refresh()
        #: Every reference loop time read, in seconds.
        self.references = []

    def refresh(self):
        self.before = reference_s()

    def call(self, fn, *args, **kwargs):
        """(fn's value, wall seconds, reference-speed seconds)."""
        started = time.perf_counter()
        value = fn(*args, **kwargs)
        wall = time.perf_counter() - started
        after = reference_s()
        self.references.append(after)
        scaled = wall * 2 * REF_NOMINAL_S / (self.before + after)
        self.before = after
        return value, wall, scaled
