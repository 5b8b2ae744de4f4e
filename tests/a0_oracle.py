"""Frozen reference copy of the middle-point loop that certified a0 before the
min-plus sweep, kept only as a test oracle.

For each middle point y it forms the full n x n ratio table
d(x,z) / (d(x,y) + d(y,z)) and keeps the first strict improvement, so the
worst triple is the smallest y attaining the maximum and, for that y, the
first attaining pair (x, z) in row-major order.  The sampled branch indexes
the table two-dimensionally.
"""

import numpy as np


def certify_a0(dist, cap=512, samples=10_000_000, seed=0):
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    if n <= 2:
        return 1.0, "exhaustive", None
    best = 1.0
    worst = None
    if n <= cap:
        for j in range(n):
            denom = d[:, j][:, None] + d[j, :][None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(denom > 0, d / denom, 0.0)
            k = int(np.argmax(ratio))
            i, l = divmod(k, n)
            if ratio[i, l] > best:
                best = float(ratio[i, l])
                worst = (i, j, l)
        return best, "exhaustive", worst
    rng = np.random.default_rng(seed)
    chunk = 1_000_000
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        idx = rng.integers(0, n, size=(3, m))
        x, y, z = idx
        num = d[x, z]
        denom = d[x, y] + d[y, z]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denom > 0, num / denom, 0.0)
        k = int(np.argmax(ratio))
        if ratio[k] > best:
            best = float(ratio[k])
            worst = (int(x[k]), int(y[k]), int(z[k]))
        remaining -= m
    return best, "sampled", worst
