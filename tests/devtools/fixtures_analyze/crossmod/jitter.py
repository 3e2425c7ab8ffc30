"""Fixture: a caller of a wall-clock helper, clean in every family.

``now_us`` bottoms out in ``time.perf_counter``; that read is reported
once, where it is written (``timing.py``), and not again at each call.
"""

from crossmod.timing import now_us

__all__ = ["measure_jitter_us"]


def measure_jitter_us() -> float:
    start = now_us()
    return now_us() - start
