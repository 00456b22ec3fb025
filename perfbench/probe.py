"""Host-speed probe: a fixed piece of work timed next to every measurement.

The CPU this benchmark was built on is shared, and its speed drifts by up to
a factor of 1.6 over tens of seconds while nothing in the process changes: a
pure Python loop and its CPU time drift alike, so neither CPU time nor a
longer run removes it.  Each end-to-end time is therefore the run's median
wall time scaled by ``NOMINAL_S / p``, with ``p`` the median of the host
probes taken between the run's calls: the time the call would take on a
host where the probe takes ``NOMINAL_S``.  Scaling each call by the probes
next to it would add the probe's own jitter, because the host also changes
within a call; the run-level median only removes the drift between runs.
The probe mixes the kinds of work the CLI does (interpreter loops,
small-array NumPy steps, a BLAS matrix-vector product, ``%.17g``
formatting), uses no ``hyperstab`` code and runs on the same CPU as the
work it scales.  Raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.06
REPEATS = 3


def _probe_once(state: np.ndarray, matrix: np.ndarray) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    b = state.copy()
    for _ in range(1200):
        b[:, 1:] -= 0.1 * (b[:, 1:] - b[:, :-1])
        np.max(np.abs(b))
    for _ in range(80):
        matrix @ b[0]
    ",".join(f"{v:.17g}" for v in b.ravel())
    return time.perf_counter() - t0


def probe() -> float:
    """Median wall time of ``REPEATS`` runs of the fixed probe work, in s.

    The probe's arrays live only inside this call, so it adds nothing to
    the peak resident memory of the calls it sits between."""
    state = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 801))
    matrix = np.random.default_rng(1).uniform(-1.0, 1.0, (801, 801))
    return statistics.median(_probe_once(state, matrix) for _ in range(REPEATS))


def scaled(walls: list[float], probes: list[float]) -> float:
    """Median of ``walls`` at the nominal host speed, given the host probes
    taken during the same run."""
    return statistics.median(walls) * NOMINAL_S / statistics.median(probes)
