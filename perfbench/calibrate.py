"""A fixed slice of pure-Python work.  Every benchmark interpreter times
one every 0.1 s (worker.py) to gauge how fast the host runs at that moment.

On a shared host the same code runs 10-80% slower for seconds to minutes
at a time, and the guest sees no steal time for it.  Interpreted Python
slows down about alike whether it is this slice or ``sublin``, so the
end-to-end times are reported divided by ``slice time / REFERENCE_S``:
seconds at the reference speed.  The slice uses only built-in modules, so
no change to ``sublin`` can change it, and it imports nothing that
``sublin`` would import later.  The collector is off while it runs, so the
size of the program's heap does not change it either.
"""

import gc
import math
import time

# Median time of one slice on a 2-vCPU KVM guest (Intel Xeon, Python 3.11)
# at the fastest that host was seen to run.
REFERENCE_S = 0.005


def _add(a, b, c, d):
    """a/b + c/d in lowest terms, as fractions.Fraction adds."""
    num, den = a * d + b * c, b * d
    g = math.gcd(num, den)
    return num // g, den // g


def _work():
    acc, table = 0, {}
    for i in range(1, 4001):
        num, _ = _add(i % 13, i + 1, i % 5 + 1, 2 * i + 3)
        acc += num % 7
        key = i & 63
        table[key] = table.get(key, 0) + i * i
        acc += sum(j * j % 5 for j in range(i % 17))
    return acc + len(table)


def slice_s():
    """Seconds one slice takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
