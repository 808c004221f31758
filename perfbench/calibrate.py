"""Host-speed calibration: a fixed reference workload timed between operations.

The benchmark runs on shared hosts whose speed changes by up to a
factor of two, within seconds and in phases that last minutes (CPU
time moves with wall time, so it is not scheduling but a slower vCPU).
The program is deterministic, so that drift would swamp its own
changes.  The benchmark therefore times, right before and right after
each operation, a fixed pure-Python reference workload and reports
times *at the reference host speed*::

    t_ref = t_measured * REFERENCE_S / reference_time_now

where ``REFERENCE_S`` is a fixed constant.  Compute-bound and
memory-bound code do not slow down alike on a loaded host, so the
reference has one part of each kind, like the program: integer
rectangle geometry over sorted tuples and dict buckets, and string-keyed
dict inserts and lookups in shuffled order.  On a 2-vCPU KVM guest,
over 85 ``contest-m`` fills, medians of four fills scaled by the two
parts (at 10000 rectangles and 50000 records) spread by 0.066
(interquartile range over median), against 0.097 scaled by the geometry
part alone and 0.23 unscaled.  This module imports nothing from the program, so the
reference does not change when the program does.
"""

from __future__ import annotations

import gc
import random
import time

__all__ = ["REFERENCE_S", "reference", "sample"]

#: nominal wall time of :func:`reference`; normalised times are times on
#: a host where the reference takes exactly this long (it takes about
#: 0.1-0.2 s on a 2-vCPU Xeon KVM guest, depending on the host's load)
REFERENCE_S = 0.15


def _rect_overlaps(n: int = 6000, seed: int = 7) -> int:
    """Bucket ``n`` seeded rectangles and sum their pairwise overlaps."""
    rng = random.Random(seed)
    rects = []
    for _ in range(n):
        x, y = rng.randrange(0, 100000), rng.randrange(0, 100000)
        rects.append((x, y, x + rng.randrange(10, 400), y + rng.randrange(10, 400)))
    rects.sort()
    buckets: dict = {}
    for r in rects:
        buckets.setdefault((r[0] // 1000, r[1] // 1000), []).append(r)
    area = 0
    for (bx, by), rs in buckets.items():
        for nb in ((bx + 1, by), (bx, by + 1), (bx, by)):
            for a in rs:
                for b in buckets.get(nb, ()):
                    w = min(a[2], b[2]) - max(a[0], b[0])
                    h = min(a[3], b[3]) - max(a[1], b[1])
                    if w > 0 and h > 0:
                        area += w * h
    return area


def _keyed_lookups(n: int = 30000, seed: int = 3) -> float:
    """Insert ``n`` string-keyed records in shuffled order, look up a third."""
    rng = random.Random(seed)
    records = [(i, rng.random(), str(i)) for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    index = {}
    total = 0.0
    for i in order:
        rec = records[i]
        index[rec[2]] = rec
        total += rec[1]
    for i in order[::3]:
        total += index[str(i)][1]
    return total


def reference() -> None:
    """The fixed reference workload: both parts, once."""
    _rect_overlaps()
    _keyed_lookups()


def sample() -> float:
    """Wall time of one :func:`reference` run now, in seconds."""
    gc.collect()
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
