"""A fixed reference computation that tracks how fast the host runs.

The host this benchmark was defined on shares its CPUs with other
tenants.  The CPU time of the same fleet run moved by 30% and more between
runs a few minutes apart, and it moved together with the CPU time of this
reference.  A timed run therefore samples the reference between its
operations and scales its CPU times to a host on which one sample takes
``REFERENCE_S``:

    scaled = measured * REFERENCE_S / mean(samples)

Over ten fleet-env runs this cut the spread (quartile distance over
median) from 0.30 to 0.08.  The reference does not touch the program
under test, so a change to the program moves the scaled time exactly as
it moves the measured one.  Its work resembles the workloads' hot spots:
blake2b over a per-device grid (the fleet program-cache key), numpy on
short vectors (the segment algebra) and interpreted arithmetic (the
simulator).
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from typing import List

import numpy as np

#: CPU seconds of one sample on the reference host: the typical speed of
#: the 2-vCPU Xeon the benchmark was defined on, so scaled times read close
#: to measured ones there.
REFERENCE_S = 0.065

_GRID = np.arange(150 * 1000, dtype=np.float64).reshape(150, 1000)


def sample() -> float:
    """CPU seconds of one pass of the reference work."""
    start = time.process_time()
    for _ in range(20):
        hashlib.blake2b(_GRID.tobytes(), digest_size=16).hexdigest()
    a = np.linspace(0.1, 1.0, 150)
    b = a.copy()
    for _ in range(3000):
        b = np.where(a > 0.5, np.sqrt(b * b + a), b * 0.999)
    acc = 0.0
    for k in range(30000):
        acc += math.sqrt(k + 1.0)
    return time.process_time() - start


def scale(samples: List[float]) -> float:
    """Factor that maps measured CPU seconds onto the reference host."""
    return REFERENCE_S / statistics.mean(samples)
