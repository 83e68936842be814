"""Fixed work that shows how fast the host runs at the moment.

Other tenants of the machine slow every process on it by up to 2x, for
seconds to minutes at a time, in CPU time as much as in wall time.  The
benchmark times a reference next to the program and divides the
program's wall times by the reference times measured around them, so
that a change of the host's speed between runs cancels while a change of
the program's speed does not: the reference is the same on every commit.

- In-process problems: one call of `work()` after each problem.  It
  mixes interpreter steps and calls on small numpy arrays, as the solver
  does.
- Processes (cli and set-up): a bare interpreter, ``python3 -c pass``,
  after each one.  A process spends its start mostly in the kernel
  (exec, page faults, file reads), which `work()` does not follow.
"""

import time

import numpy as np

# Reference wall times, in seconds, at the host speed at which times are
# reported: about their medians on a 2-core machine in a quiet minute
# (0.18 ms and 62 ms), so reported times read close to wall-clock ones.
NOMINAL_S = 0.2e-3  # one `work()` call
START_NOMINAL_S = 0.06  # one bare interpreter, start to exit

_X = np.linspace(-3.0, 3.0, 64)


def work():
    total = 0.0
    for _ in range(40):
        total += float(np.exp(-0.5 * _X * _X).sum())
        for j in range(20):
            total += j * 0.5
    return total


def timed():
    """Wall seconds of one `work()` call."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
