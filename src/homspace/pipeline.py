"""Assembly of the standard space -> nets -> cubes -> kernels pipeline.

`dyadic_stage` builds the nets and cubes of a `DyadicSpec` and fixes the
level range of the stack a `KernelSpec` describes; `stack_stage` builds that
stack on them.  `build_dyadic` and `build_pipeline` are the same stages
taken from keyword arguments.  Commands that never read a kernel table run
the dyadic stage alone.

Default level policy: the coarsest level has scale comparable to the
diameter (the mean-projection cap makes everything coarser exact), and the
finest level runs `fine_factor` below the minimum point gap so the fine cap
of the telescoping stack is the identity to high accuracy.  Cubes are built
j0 levels deeper than the stack so every stack level has its subcube
decomposition and reference points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .dyadic import DyadicSpec, build_cubes, build_nets, refine_subcubes
from .kernels import (DEFAULT_FINE_FACTOR, KernelSpec, build_exp_ati,
                      build_exp_iati)


def default_level_range(space, delta=0.5, flavor="homogeneous",
                        fine_factor=DEFAULT_FINE_FACTOR):
    diam = space.diam
    gap = space.min_gap
    if diam <= 0 or not math.isfinite(gap):
        return 0, 0
    k_min = int(math.floor(math.log(diam) / math.log(delta)))
    while delta ** k_min < diam:
        k_min -= 1
    while delta ** (k_min + 1) >= diam:
        k_min += 1
    if flavor == "inhomogeneous":
        k_min = 0
    target = gap / fine_factor
    k_max = int(math.ceil(math.log(target) / math.log(delta)))
    while delta ** k_max > target:
        k_max += 1
    while delta ** (k_max - 1) <= target:
        k_max -= 1
    return min(k_min, k_max), max(k_min + 1, k_max)


@dataclass
class Pipeline:
    space: object
    cubes: object  # its nets are ``cubes.nets``
    stack: object


def dyadic_stage(space, dyadic, kernel):
    """Nets and refined cubes, and the level range of the stack they serve.

    The range defaults to `default_level_range`; an inhomogeneous one runs
    from 0 to at least 1.  The cubes run j0 levels past the range, so every
    level of it has its subcube decomposition.  Returns (cubes, levels)."""
    kernel.check_levels(dyadic.k_min, dyadic.k_max)
    k_lo, k_hi = default_level_range(space, dyadic.delta, kernel.flavor,
                                     kernel.fine_factor)
    k_lo = k_lo if dyadic.k_min is None else dyadic.k_min
    k_hi = k_hi if dyadic.k_max is None else dyadic.k_max
    if kernel.flavor == "inhomogeneous":
        k_lo, k_hi = 0, max(k_hi, 1)
    replace(dyadic, k_min=k_lo, k_max=k_hi)  # the range must not be empty
    nets = build_nets(space, dyadic.delta, (k_lo, k_hi + max(dyadic.j0, 1)),
                      sigma=dyadic.sigma, deep_margin=dyadic.deep_margin,
                      strict=dyadic.strict)
    cubes = refine_subcubes(build_cubes(nets, space), dyadic.j0,
                            sampler=dyadic.sampler, seed=dyadic.seed)
    return cubes, range(k_lo, k_hi + 1)


def stack_stage(space, cubes, levels, kernel):
    """The kernel stack `kernel` describes on the level range `levels`."""
    k_range = (levels[0], levels[-1])
    if kernel.flavor == "homogeneous":
        return build_exp_ati(space, cubes, k_range=k_range, a=kernel.a,
                             coarse=kernel.coarse)
    return build_exp_iati(space, cubes, k_range=k_range, a=kernel.a,
                          sigma=kernel.sigma, n_low=kernel.n_low)


def build_dyadic(space, delta=0.5, flavor="homogeneous", j0=2,
                 sampler="center", sampler_seed=0, k_min=None, k_max=None,
                 fine_factor=DEFAULT_FINE_FACTOR, net_sigma=None,
                 deep_margin=None, strict=False):
    """`dyadic_stage` of the specs the arguments make; (cubes, levels)."""
    return dyadic_stage(space, DyadicSpec(
        delta=delta, k_min=k_min, k_max=k_max, j0=j0, sampler=sampler,
        seed=sampler_seed, sigma=net_sigma, deep_margin=deep_margin,
        strict=strict), KernelSpec(flavor=flavor, fine_factor=fine_factor))


def build_pipeline(space, delta=0.5, flavor="homogeneous", j0=2,
                   sampler="center", sampler_seed=0, a=1.0, sigma=None,
                   n_low=None, k_min=None, k_max=None, coarse=None,
                   fine_factor=DEFAULT_FINE_FACTOR, net_sigma=None,
                   deep_margin=None, strict=False):
    """Both stages of the specs the arguments make; `sigma`, `n_low` and
    `coarse` are `KernelSpec`'s, null for the flavor's default."""
    kernel = KernelSpec(flavor=flavor, a=a, sigma=sigma, n_low=n_low,
                        coarse=coarse, fine_factor=fine_factor)
    cubes, levels = dyadic_stage(space, DyadicSpec(
        delta=delta, k_min=k_min, k_max=k_max, j0=j0, sampler=sampler,
        seed=sampler_seed, sigma=net_sigma, deep_margin=deep_margin,
        strict=strict), kernel)
    return Pipeline(space, cubes, stack_stage(space, cubes, levels, kernel))
