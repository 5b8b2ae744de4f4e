"""Frozen reference for ``kernels.build_semigroup`` and the kernel tables of
``build_exp_ati``/``build_exp_iati``.

This is the earlier form that built each seed through temporaries, scaled
it with a whole ``np.outer(u, u)`` table, formed every difference as a new
table and capped the coarsest homogeneous level with an n x n table of
1/mu(X).  ``test_kernels.py`` asserts that the stack builders reproduce
every table exactly.
"""

import numpy as np

SCALING_TOL = 1e-12
SCALING_CAP = 10_000


def build_semigroup(space, t, a=1.0):
    w = space.weight
    with np.errstate(under="ignore"):
        seed = np.exp(-((space.dist / t) ** a))
    u = 1.0 / np.sqrt(seed @ w)
    for _ in range(SCALING_CAP):
        v = seed @ (u * w)
        err = float(np.max(np.abs(u * v - 1.0)))
        if err <= SCALING_TOL:
            break
        u = np.sqrt(u / v)
    else:
        raise AssertionError(f"scaling stalled at {err:.3e}")
    return np.outer(u, u) * seed


def kernel_tables(space, delta, k_min, k_max, a=1.0, flavor="homogeneous",
                  sigma=1.0):
    """The stack's tables Q_k, k_min <= k <= k_max, of either flavor."""
    prev = build_semigroup(space, delta ** k_min, a=a)
    if flavor == "homogeneous":
        mean = np.full((space.n, space.n), 1.0 / space.total_mass)
        q = {k_min: prev - mean}
    else:
        q = {k_min: build_semigroup(space, sigma, a=a)}
    for k in range(k_min + 1, k_max + 1):
        cur = build_semigroup(space, delta ** k, a=a)
        q[k] = cur - prev
        prev = cur
    return q
