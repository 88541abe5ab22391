"""A fixed loop that never touches discordlim, timed to read how fast the
machine runs this process right now.

Other tenants of a shared host slow every instruction of this process,
Python and BLAS alike, by up to 1.8x, for seconds to minutes at a time,
and CPU time slows with wall time. The benchmark times this loop between
batches of ops and scales each op's time by REFERENCE_S over the loop's
time around it, so that its end-to-end times read as times at the
reference machine speed.
"""

from time import perf_counter

import numpy as np

# The loop's time on the 2.0 GHz Xeon vCPU this benchmark was written on,
# at its fastest: about the 5th percentile of ten minutes of back-to-back
# readings.
REFERENCE_S = 0.002
REPEATS = 3
_MATRIX = np.array([[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.2, 0.1],
                    [0.1, 0.2, 0.7, 0.3], [0.0, 0.1, 0.3, 0.4]])
# Bound at import, so that the traced pass's eigensolver counters miss it.
_eigvalsh = np.linalg.eigvalsh


def _loop() -> float:
    start = perf_counter()
    x = 0.0
    for k in range(170):
        x += float(_eigvalsh(_MATRIX + k * 1e-3)[0])
        for j in range(60):
            x += j * 1e-9
    return perf_counter() - start


def calibration() -> float:
    """Seconds for the loop: the fastest of REPEATS back-to-back runs, so
    that an interrupt in one run does not count, while the machine's speed,
    which holds for seconds, does."""
    return min(_loop() for _ in range(REPEATS))
