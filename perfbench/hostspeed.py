"""Host-speed calibration: every time the benchmark reports is in
reference-host seconds.

On a shared virtual machine the vCPU itself runs faster or slower from
minute to minute as other tenants load the host, and CPU time does not
remove that. On the 2-vCPU Xeon VM this benchmark was tuned on, fixed
work took from 0.69 to 1.22 times its median time in 20 s segments a few
minutes apart. A fixed kernel that does not touch polyloj, timed between
items, follows that drift, and each time is scaled by
REFERENCE_S[kind] / (median kernel time measured with it).

Two kinds of work drift differently, so there are two kernels:

- "interpreter": a pure-Python integer loop. Over 20 s segments its
  time correlated 0.93 with nondeg3 items and 0.97 with polytope4 items,
  and scaling by it cut their segment-to-segment spread from 0.11 to
  0.05 and from 0.14 to 0.06. numpy-heavy growth items followed it only
  partly (its time moved 1.45 times as much as theirs).
- "mixed": the same loop plus one numpy pass over a 16 MB array, for
  workloads that are half array work. On growth items it correlated 0.95,
  moved as much as they did, and cut their spread from 0.25 to 0.07.

A change to polyloj cannot change a kernel's time, so the scale cannot
hide a regression; it removes only what the host does. The raw CPU
times and the scale are written beside the scaled values.
"""

import functools
import statistics
import time

ITERATIONS = 60000
ARRAY_SIZE = 2_000_000
# About each kernel's median time on the VM the benchmark was tuned on,
# so that scaled times there read close to raw ones.
REFERENCE_S = {"interpreter": 0.0065, "mixed": 0.0125}


def _loop() -> None:
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7


@functools.cache
def _array():
    import numpy as np

    return np.random.default_rng(0).random(ARRAY_SIZE)


def _array_pass() -> None:
    (_array() * 1.0001 + 0.5).sum()


def kernel(kind: str) -> float:
    """CPU seconds of one run of the kernel of this kind."""
    start = time.process_time()
    _loop()
    if kind == "mixed":
        _array_pass()
    return time.process_time() - start


def sample(kind: str, count: int) -> list[float]:
    return [kernel(kind) for _ in range(count)]


def scale(kind: str, samples) -> float:
    """Factor from this host's seconds, at the speed the samples saw, to
    reference-host seconds."""
    return REFERENCE_S[kind] / statistics.median(samples)
