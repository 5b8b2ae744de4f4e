"""Lipschitz-type difference norms built from ball averages of |f(x)-f(y)|.

The building block is the u-power ball average at radius r = c_tilde *
delta^k,

    A_u(x, k) = [mu(B(x,r))^-1 sum_{y in B(x,r)} |f(x)-f(y)|^u mu_y]^(1/u),

with A_inf the maximum over the ball.  The six norms differ in where the
inner exponent sits and where the x-integration happens:

    Ldot    = [sum_k d^(-ksq) ||A_p(.,k)||_p^q]^(1/q)        (inner exponent p)
    Lb_dot  = [sum_k d^(-ksq) ||A_1(.,k)||_p^q]^(1/q)        (inner L^1 average)
    Lt_dot  = || [sum_k d^(-ksq) A_u(.,k)^q]^(1/q) ||_p      (pointwise first)
    L, Lb   = ||f||_p + the dotted value (full scale sum)
    Lt      = ||f||_p + the Lt_dot expression restricted to k >= 0
    L_tilde, Lb_tilde = the k >= 0 truncations of Ldot / Lb_dot

On a finite space the two-sided scale sum over all of Z is computed exactly:
below the minimum point gap every ball is a singleton and the terms vanish
identically, and once the radius exceeds the diameter every ball is the
whole space, so the remaining terms are constant in k and their geometric
tail (convergent because s > 0) is summed in closed form.

Every norm reads two objects: `difference_scales`, the natural window's
levels with the ball ends and measures of their radii (they depend only on
the space, c_tilde and delta), and one field's `DifferenceTable` of rows
A_e(., k), one stack per inner exponent e, made on first use.  A table's
running sums run rank by rank over the ball index's rank-major order, as
the maximal operator's do, and equal each row's cumulative sum bit for bit.
`lipschitz_norm` and `truncated_norm` take a Field, or a table to read from.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dyadic import finest_level
from .errors import Frozen, ParameterError, integer_arg
from .kernels import _row_blocks
from .norms import (INF, _lp, _lq, check_scales, lebesgue_norm,
                    positive_exponent)
from .space import _accumulate_ranks

VARIANTS = ("Ldot", "L", "Lb_dot", "Lb", "Lt_dot", "Lt")
TRUNCATED_VARIANTS = ("L_tilde", "Lb_tilde")

# variant: (pointwise style, inner exponent, sum over k >= 0 only,
# adds ||f||_p); the inner exponent is the spec's p or u, or 1
_VARIANT_ROWS = {
    "Ldot": (False, "p", False, False),
    "L": (False, "p", False, True),
    "Lb_dot": (False, "1", False, False),
    "Lb": (False, "1", False, True),
    "Lt_dot": (True, "u", False, False),
    "Lt": (True, "u", True, True),
    "L_tilde": (False, "p", True, False),
    "Lb_tilde": (False, "1", True, False),
}


class DifferenceScales(NamedTuple):
    """Levels k (coarse to fine) on one space with the ball ends
    ``ends[i, x]`` and measures ``mass[i, x]`` of B(x, c_tilde*delta^k)."""

    space: object
    c_tilde: float
    delta: float
    levels: tuple
    ends: np.ndarray
    mass: np.ndarray


def _natural_levels(space, c_tilde, delta):
    window = natural_k_window(space, c_tilde, delta)
    return () if window is None else tuple(range(window[0], window[1] + 1))


def difference_scales(space, c_tilde, delta, levels=None):
    """Scales over the given levels, each an integer (`integer_arg`), by
    default the natural window that every norm reads (empty for a single
    point)."""
    check_scales(c_tilde, delta)
    if levels is None:
        levels = _natural_levels(space, c_tilde, delta)
    levels = tuple(integer_arg("difference level", k) for k in levels)
    idx = space.ball_index
    ends = idx.ends(space.dist, [c_tilde * delta ** k for k in levels])
    return DifferenceScales(space, c_tilde, delta, levels, ends,
                            idx.read(idx.weight_prefix, ends))


class DifferenceTable(Frozen):
    """Ball averages A_e(x, k) of one field over the levels of `scales`.

    ``rows(e)`` is a read-only (levels, n) stack, made on first use: the
    differences |f(y) - f(x)| gathered rank-major through the ball index
    (row j holds, for every centre x, its j-th nearest point y) give a
    running sum of mu-weighted e-powers (a running max at e = inf), summed
    rank by rank and read at every ball end at once.  No attribute can be
    rebound; the stacks made so far sit in ``_rows``.
    """

    def __init__(self, f, scales):
        if f.space is not scales.space:
            raise ParameterError("field and scales live on different spaces")
        vars(self).update(field=f, scales=scales, _rows={})

    def rows(self, exponent):
        positive_exponent("inner exponent", exponent)
        if exponent not in self._rows:
            space, ends = self.scales.space, self.scales.ends
            by_rank = space.ball_index.by_rank
            values = self.field.values
            # one n x n buffer, updated in place: the differences, then
            # their running max, or their weighted powers and running sum;
            # the weights are gathered one block of ranks at a time
            run = values[by_rank]
            np.abs(np.subtract(run, values, out=run), out=run)
            if exponent == INF:
                _accumulate_ranks(run, np.maximum)
            else:
                run **= exponent
                for blk in _row_blocks(space.n):
                    run[blk] *= space.weight[by_rank[blk]]
                _accumulate_ranks(run)
            # the ball ends at flat positions end * n + x of the rank-major
            # sums; an empty ball (end -1) reads 0
            flat = ends * space.n + np.arange(space.n)
            rows = np.where(ends >= 0, run.ravel()[flat], 0.0)
            if exponent != INF:
                rows = (rows / self.scales.mass) ** (1.0 / exponent)
            rows.setflags(write=False)
            self._rows[exponent] = rows
        return self._rows[exponent]


def natural_k_window(space, c_tilde, delta):
    """(k_const, k_fine): coarsest computed level (radius just above diam,
    all coarser terms equal it) and finest level with a nonempty ball
    (radius just above the minimum gap).  Returns None for a single point."""
    if not math.isfinite(space.min_gap) or space.diam <= 0:
        return None
    return (finest_level(delta, space.diam, c_tilde),
            finest_level(delta, space.min_gap, c_tilde))


def scale_weights(k_const, k_fine, s, q, delta, nonneg=False):
    """Level list and q-power weights for the exact two-sided scale sum.

    The term at k_const absorbs the constant coarse tail: for q < inf its
    weight is sum_{k <= k_const} delta^(-ksq) in closed form (geometric,
    needs s > 0); at q = inf the sup over the tail sits at k_const.  With
    nonneg=True the sum is restricted to k >= 0.
    """
    if not s > 0:
        raise ParameterError("difference norms need s > 0")
    if nonneg and k_fine < 0:
        return [], []
    start = max(k_const, 0) if nonneg else k_const
    ks = list(range(start, k_fine + 1))
    if not ks:
        return [], []
    if q == INF:
        wts = [delta ** (-k * s) for k in ks]
        return ks, wts
    x = delta ** (-s * q)  # > 1
    wts = [delta ** (-k * s * q) for k in ks]
    if not nonneg:
        # sum_{k <= k_const} x^k = x^k_const * 1/(1 - 1/x)
        wts[0] = x ** k_const / (1.0 - 1.0 / x)
    elif k_const >= 0:
        # sum_{k=0}^{k_const} x^k
        wts[0] = (x ** (k_const + 1) - 1.0) / (x - 1.0)
    return ks, wts


def _scale_sum(table, spec, pointwise, inner, nonneg):
    """[sum_k w_k ||A_e(.,k)||_p^q]^(1/q), or || [sum_k w_k A_e(.,k)^q]^(1/q)
    ||_p in the pointwise style, with exact tail handling."""
    levels = table.scales.levels
    if not levels:
        return 0.0
    ks, wts = scale_weights(levels[0], levels[-1], spec.s, spec.q, spec.delta,
                            nonneg=nonneg)
    if not ks:
        return 0.0
    avgs = table.rows(inner)[ks[0] - levels[0]:]
    weight = table.field.space.weight
    wts = np.asarray(wts)
    if pointwise:
        return _lp(_lq(avgs, spec.q, wts[:, None], axis=0), spec.p, weight)
    # the rows' L^p norms as one matrix-vector product, not `_lp` row by
    # row: the two differ in the last bits, and the frozen oracle pins these
    if spec.p == INF:
        norms = avgs.max(axis=1)
    else:
        norms = (avgs ** spec.p @ weight) ** (1.0 / spec.p)
    return float(_lq(norms, spec.q, wts))


def _norm(f, spec, variant):
    """The variant's row of `_VARIANT_ROWS`, read off a table: `f` itself
    when it is one, else a new table on the natural scales."""
    if not isinstance(f, DifferenceTable):
        f = DifferenceTable(f, difference_scales(f.space, spec.c_tilde,
                                                 spec.delta))
    elif f.scales[1:4] != (spec.c_tilde, spec.delta, _natural_levels(
            f.scales.space, spec.c_tilde, spec.delta)):
        raise ParameterError("table scales are not the natural window of "
                             "the spec's c_tilde and delta")
    pointwise, inner, nonneg, lebesgue = _VARIANT_ROWS[variant]
    exponent = {"p": spec.p, "u": spec.u, "1": 1.0}[inner]
    value = _scale_sum(f, spec, pointwise, exponent, nonneg)
    return lebesgue_norm(f.field, spec.p) + value if lebesgue else value


def lipschitz_norm(f, spec, variant):
    """One of the six Lipschitz-type norms of a Field or of a table's
    field; see the module docstring.

    Undotted variants add ||f||_{L^p}; Lt additionally restricts its scale
    sum to k >= 0 as its definition does, while L and Lb keep the full sum.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}")
    return _norm(f, spec, variant)


def truncated_norm(f, spec, variant):
    """The k >= 0 truncation of the dotted expression (no Lebesgue part)."""
    if variant not in TRUNCATED_VARIANTS:
        raise ParameterError(f"unknown truncated variant {variant!r}")
    return _norm(f, spec, variant)
