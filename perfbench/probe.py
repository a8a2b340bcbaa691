"""A fixed unit of work that measures how fast the machine runs right now.

On a shared machine the CPUs can run up to twice as slow for seconds or
minutes at a time, and this shows in CPU time as much as in wall time. A
time measured next to the probe, multiplied by REFERENCE_S / the probe's
time, stays nearly constant across such stretches. ``run.py`` rescales
set-up time and pass time this way (``setup_s``, ``ops_per_ref_s``).

The probe mixes the three kinds of work latekit's hot paths do: interpreted
Python arithmetic, numpy calls on small arrays, and random draws with a
partial sort on medium ones. It does not use latekit, so no change to the
program can change it. Never change it either: values before and after would
not be comparable.
"""
from __future__ import annotations

import math
import time

import numpy as np

# The probe's typical time on the 2-CPU machine the baseline was taken on;
# ops_per_ref_s equals ops_per_s whenever the probe runs this fast.
REFERENCE_S = 0.0125


def probe_seconds() -> float:
    """Wall time of one fixed unit of work."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 5))
    treated = rng.random(200) < 0.5
    ridge = np.eye(5)
    acc = 0.0
    for _ in range(120):
        a, b = x[treated], x[~treated]
        centered = a - a.mean(axis=0)
        gap = a.mean(axis=0) - b.mean(axis=0)
        acc += float(gap @ np.linalg.solve(centered.T @ centered + ridge, gap))
        keys = rng.random((16, 200))
        acc += float(np.argpartition(keys, 99, axis=1)[:, :100].sum()) * 1e-9
        acc += sum(math.sqrt(j + acc % 1.0) for j in range(40))
    if not math.isfinite(acc):
        raise ArithmeticError("probe arithmetic overflowed")
    return time.perf_counter() - start
