"""Machine-speed probe, used to express times in reference seconds.

On a shared host the same operation's wall time drifts by up to 2x over
minutes as neighbours load the machine, and CPU time drifts with it (the
process is not descheduled; it runs slower).  A run therefore times a
fixed probe between its operations and divides every time it reports by
slowdown = median probe time / REFERENCE_S.  The probe mixes the kinds of
work memepipe does (Python integer loops as in the BK-tree, dict and
float-format work as in the CSV writers, numpy Generator construction as in
the simulator, small 2-D DCTs as in phash) but calls no memepipe code, so
a change to the program cannot move it.
"""

import time

import numpy as np
from scipy.fft import dctn

# Probe time on the reference machine (2-vCPU Intel Xeon host, numpy
# 2.4, scipy 1.17) while the host was quiet.
REFERENCE_S = 0.30

_WORDS = [(i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF for i in range(2000)]
_BLOCK = np.arange(4096.0).reshape(64, 64)


def probe():
    """Seconds this machine takes for the fixed probe work right now."""
    start = time.perf_counter()
    near = 0
    for a in _WORDS[:400]:
        for b in _WORDS:
            if (a ^ b).bit_count() <= 28:
                near += 1
    for _ in range(10):
        table = {}
        for i in range(20_000):
            table[i ^ 12345] = f"{i * 0.5:.9f}"
    for i in range(3000):
        np.random.default_rng([7, 0, i]).standard_normal()
    for _ in range(2500):
        dctn(_BLOCK, norm="ortho")
    return time.perf_counter() - start
