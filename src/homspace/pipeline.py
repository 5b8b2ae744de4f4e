"""Assembly of the standard space -> nets -> cubes -> kernels pipeline.

A `Pipeline` holds a space, a `DyadicSpec` and a `KernelSpec`, and builds
each later stage once, on first read: `levels` (the level range of the
stack, from the space and the specs alone), `cubes` (the nets and refined
cubes that serve it) and `stack` (the kernel stack on them).  A caller that
never reads a kernel table builds no stack.

Default level policy: the coarsest level has scale comparable to the
diameter (the mean-projection cap makes everything coarser exact), and the
finest level runs `FINE_FACTOR` below the minimum point gap so the fine cap
of the telescoping stack is the identity to high accuracy.  Cubes are built
j0 levels deeper than the stack so every stack level has its subcube
decomposition and reference points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .dyadic import (DyadicSpec, build_cubes, build_nets, finest_level,
                     refine_subcubes)
from .kernels import KernelSpec, build_exp_ati, build_exp_iati

# the default finest level lies this far below the minimum point gap
FINE_FACTOR = 16.0


def default_level_range(space, delta=0.5, flavor="homogeneous"):
    """(k_min, k_max): the finest k with delta^k >= diam, and the coarsest
    with delta^k <= min_gap / FINE_FACTOR; inhomogeneous levels run from 0
    to at least 1."""
    inhom = flavor == "inhomogeneous"
    diam = space.diam
    gap = space.min_gap
    if diam <= 0 or not math.isfinite(gap):
        return (0, 1) if inhom else (0, 0)
    k_max = finest_level(delta, gap / FINE_FACTOR) + 1
    if inhom:
        return 0, max(1, k_max)
    k_min = finest_level(delta, diam, ties=True)
    return min(k_min, k_max), max(k_min + 1, k_max)


@dataclass(frozen=True, eq=False)
class Pipeline:
    """The stages of `space` that `dyadic` and `kernel` describe; `levels`,
    `cubes` (its nets are ``cubes.nets``) and `stack` are each built on
    first read, a later one reading the one before."""

    space: object
    dyadic: DyadicSpec = DyadicSpec()
    kernel: KernelSpec = KernelSpec()

    def __post_init__(self):
        self.kernel.check_levels(self.dyadic.k_min, self.dyadic.k_max)

    @cached_property
    def levels(self):
        """The level range of the stack: `default_level_range` unless the
        dyadic spec fixes an end; `KernelSpec.check_levels` holds the range
        to the flavor's rule."""
        dyadic = self.dyadic
        k_lo, k_hi = default_level_range(self.space, dyadic.delta,
                                         self.kernel.flavor)
        k_lo = k_lo if dyadic.k_min is None else dyadic.k_min
        k_hi = k_hi if dyadic.k_max is None else dyadic.k_max
        self.kernel.check_levels(k_lo, k_hi)
        return range(k_lo, k_hi + 1)

    @cached_property
    def cubes(self):
        """Nets and refined cubes, j0 levels past `levels`, so every level
        of it has its subcube decomposition."""
        dyadic, levels = self.dyadic, self.levels
        nets = build_nets(self.space, dyadic.delta,
                          (levels[0], levels[-1] + max(dyadic.j0, 1)),
                          strict=dyadic.strict)
        return refine_subcubes(build_cubes(nets, self.space), dyadic.j0,
                               sampler=dyadic.sampler, seed=dyadic.seed)

    @cached_property
    def stack(self):
        """The kernel stack on `levels`, built on `cubes`."""
        kernel, cubes = self.kernel, self.cubes
        k_range = (self.levels[0], self.levels[-1])
        if kernel.flavor == "homogeneous":
            return build_exp_ati(cubes, k_range=k_range, a=kernel.a)
        return build_exp_iati(cubes, k_range=k_range, a=kernel.a,
                              sigma=kernel.sigma, n_low=kernel.n_low)
