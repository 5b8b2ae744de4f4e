"""Assembly of the standard space -> nets -> cubes -> kernels pipeline.

`build_dyadic` builds the nets and cubes and fixes the level range;
`build_pipeline` adds the kernel stack on that range.  Commands that never
read a kernel table call `build_dyadic` alone.

Default level policy: the coarsest level has scale comparable to the
diameter (the mean-projection cap makes everything coarser exact), and the
finest level runs `fine_factor` below the minimum point gap so the fine cap
of the telescoping stack is the identity to high accuracy.  Cubes are built
j0 levels deeper than the stack so every stack level has its subcube
decomposition and reference points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dyadic import build_cubes, build_nets, refine_subcubes
from .errors import ParameterError, integer_arg
from .kernels import build_exp_ati, build_exp_iati

DEFAULT_FINE_FACTOR = 16.0


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


def build_dyadic(space, delta=0.5, flavor="homogeneous", j0=2,
                 sampler="center", sampler_seed=0, k_min=None, k_max=None,
                 fine_factor=DEFAULT_FINE_FACTOR, net_sigma=None,
                 deep_margin=None, strict=False):
    """Nets and refined cubes, and the level range of the stack they serve.

    The range defaults to `default_level_range`; an inhomogeneous one runs
    from 0 to at least 1.  The cubes run j0 levels past the range, so every
    level of it has its subcube decomposition.  Returns (cubes, levels)."""
    if flavor not in ("homogeneous", "inhomogeneous"):
        raise ParameterError(f"unknown flavor {flavor!r}")
    auto_min, auto_max = default_level_range(space, delta, flavor, fine_factor)
    k_lo = auto_min if k_min is None else integer_arg("k_min", k_min)
    k_hi = auto_max if k_max is None else integer_arg("k_max", k_max)
    j0 = integer_arg("j0", j0)
    if flavor == "inhomogeneous":
        if k_min is not None and k_lo != 0 or k_max is not None and k_hi < 1:
            raise ParameterError(f"inhomogeneous levels run from 0 to at "
                                 f"least 1, got k_min={k_min!r}, "
                                 f"k_max={k_max!r}")
        k_lo, k_hi = 0, max(k_hi, 1)
    if k_hi < k_lo:
        raise ParameterError(f"empty level range: k_min={k_lo} > "
                             f"k_max={k_hi}")
    net_kwargs = {}
    if net_sigma is not None:
        net_kwargs["sigma"] = net_sigma
    if deep_margin is not None:
        net_kwargs["deep_margin"] = deep_margin
    cube_hi = k_hi + max(j0, 1)
    nets = build_nets(space, delta, (k_lo, cube_hi), strict=strict,
                      **net_kwargs)
    cubes = refine_subcubes(build_cubes(nets, space), j0, sampler=sampler,
                            seed=sampler_seed)
    return cubes, range(k_lo, k_hi + 1)


def build_pipeline(space, delta=0.5, flavor="homogeneous", j0=2,
                   sampler="center", sampler_seed=0, a=1.0, sigma=1.0,
                   n_low=1, k_min=None, k_max=None, coarse="mean",
                   fine_factor=DEFAULT_FINE_FACTOR, net_sigma=None,
                   deep_margin=None, strict=False):
    """`build_dyadic`, then the kernel stack on its level range."""
    cubes, levels = build_dyadic(
        space, delta=delta, flavor=flavor, j0=j0, sampler=sampler,
        sampler_seed=sampler_seed, k_min=k_min, k_max=k_max,
        fine_factor=fine_factor, net_sigma=net_sigma,
        deep_margin=deep_margin, strict=strict)
    k_range = (levels[0], levels[-1])
    if flavor == "homogeneous":
        stack = build_exp_ati(space, cubes, k_range=k_range, a=a,
                              coarse=coarse)
    else:
        stack = build_exp_iati(space, cubes, k_range=k_range, a=a,
                               sigma=sigma, n_low=n_low)
    return Pipeline(space=space, cubes=cubes, stack=stack)
