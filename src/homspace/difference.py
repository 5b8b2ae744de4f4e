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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .norms import INF, lebesgue_norm

VARIANTS = ("Ldot", "L", "Lb_dot", "Lb", "Lt_dot", "Lt")
TRUNCATED_VARIANTS = ("L_tilde", "Lb_tilde")


def _averages_over_radii(space, values, radii, exponent):
    """Stack of A_e(., r) rows read off the space's sorted ball index.

    Each row x gathers |f(x) - f(y)| in distance order; a running sum of
    the mu-weighted e-powers (a running max for e = inf) read at the end of
    B(x, r) gives every radius at once.
    """
    idx = space.ball_index
    diff = np.abs(values[:, None] - values[idx.order])
    if exponent == INF:
        running = np.maximum.accumulate(diff, axis=1)
    else:
        running = np.cumsum(diff ** exponent * space.weight[idx.order],
                            axis=1)
    rows = []
    for r in radii:
        end = idx.ball_end(r)
        row = idx.read(running, end)
        if exponent != INF:
            row = (row / idx.read(idx.weight_prefix, end)) ** (1.0 / exponent)
        rows.append(row)
    return np.asarray(rows)


@dataclass
class DifferenceProfile:
    """Ball-averaged differences J(f; x, c_tilde*delta^k) per (k, x)."""

    c_tilde: float
    delta: float
    u: float
    k_levels: list[int]
    radii: list[float]
    values: np.ndarray  # (len(k_levels), n)


def difference_profile(f, space, c_tilde, delta, k_range, u=1.0):
    """Profile over an explicit level range (coarse to fine)."""
    if not u > 0:
        raise ParameterError("u must be positive")
    if not 0 < delta < 1 or not c_tilde > 0:
        raise ParameterError("need delta in (0,1) and c_tilde > 0")
    ks = list(range(int(k_range[0]), int(k_range[-1]) + 1))
    radii = [c_tilde * delta ** k for k in ks]
    rows = _averages_over_radii(space, f.values, radii, u)
    return DifferenceProfile(c_tilde=c_tilde, delta=delta, u=u, k_levels=ks,
                             radii=radii, values=rows)


def natural_k_window(space, c_tilde, delta):
    """(k_const, k_fine): coarsest computed level (radius just above diam,
    all coarser terms equal it) and finest level with a nonempty ball
    (radius just above the minimum gap).  Returns None for a single point."""
    diam = space.diam
    gap = space.min_gap
    if not math.isfinite(gap) or diam <= 0:
        return None
    # largest k with c_tilde * delta^k > diam
    k_const = int(math.floor(math.log(diam / c_tilde) / math.log(delta)))
    while c_tilde * delta ** k_const <= diam:
        k_const -= 1
    while c_tilde * delta ** (k_const + 1) > diam:
        k_const += 1
    k_fine = int(math.ceil(math.log(gap / c_tilde) / math.log(delta)))
    while c_tilde * delta ** k_fine <= gap:
        k_fine -= 1
    while c_tilde * delta ** (k_fine + 1) > gap:
        k_fine += 1
    return k_const, k_fine


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


def _combine_besov_style(space, f, spec, inner_exponent, nonneg):
    """[sum_k w_k ||A_e(.,k)||_p^q]^(1/q) with exact tail handling."""
    window = natural_k_window(space, spec.c_tilde, spec.delta)
    if window is None:
        return 0.0
    ks, wts = scale_weights(window[0], window[1], spec.s, spec.q, spec.delta,
                            nonneg=nonneg)
    if not ks:
        return 0.0
    radii = [spec.c_tilde * spec.delta ** k for k in ks]
    avgs = _averages_over_radii(space, f.values, radii, inner_exponent)
    if spec.p == INF:
        norms = avgs.max(axis=1)
    else:
        norms = (avgs ** spec.p @ space.weight) ** (1.0 / spec.p)
    if spec.q == INF:
        return float(np.max(np.asarray(wts) * norms))
    return float(np.sum(np.asarray(wts) * norms ** spec.q) ** (1.0 / spec.q))


def _combine_pointwise_style(space, f, spec, nonneg):
    """|| [sum_k w_k A_u(.,k)^q]^(1/q) ||_p with exact tail handling."""
    window = natural_k_window(space, spec.c_tilde, spec.delta)
    if window is None:
        return 0.0
    ks, wts = scale_weights(window[0], window[1], spec.s, spec.q, spec.delta,
                            nonneg=nonneg)
    if not ks:
        return 0.0
    radii = [spec.c_tilde * spec.delta ** k for k in ks]
    avgs = _averages_over_radii(space, f.values, radii, spec.u)
    wcol = np.asarray(wts)[:, None]
    if spec.q == INF:
        agg = np.max(wcol * avgs, axis=0)
    else:
        agg = np.sum(wcol * avgs ** spec.q, axis=0) ** (1.0 / spec.q)
    if spec.p == INF:
        return float(agg.max())
    return float(np.sum(agg ** spec.p * space.weight) ** (1.0 / spec.p))


def lipschitz_norm(f, spec, variant):
    """One of the six Lipschitz-type norms; see the module docstring.

    Undotted variants add ||f||_{L^p}; Lt additionally restricts its scale
    sum to k >= 0 as its definition does, while L and Lb keep the full sum.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}")
    space = f.space
    if variant == "Ldot":
        return _combine_besov_style(space, f, spec, spec.p, nonneg=False)
    if variant == "L":
        return lebesgue_norm(f, spec.p) + _combine_besov_style(
            space, f, spec, spec.p, nonneg=False)
    if variant == "Lb_dot":
        return _combine_besov_style(space, f, spec, 1.0, nonneg=False)
    if variant == "Lb":
        return lebesgue_norm(f, spec.p) + _combine_besov_style(
            space, f, spec, 1.0, nonneg=False)
    if variant == "Lt_dot":
        return _combine_pointwise_style(space, f, spec, nonneg=False)
    return lebesgue_norm(f, spec.p) + _combine_pointwise_style(
        space, f, spec, nonneg=True)


def truncated_norm(f, spec, variant):
    """The k >= 0 truncation of the dotted expression (no Lebesgue part)."""
    if variant not in TRUNCATED_VARIANTS:
        raise ParameterError(f"unknown truncated variant {variant!r}")
    inner = spec.p if variant == "L_tilde" else 1.0
    return _combine_besov_style(f.space, f, spec, inner, nonneg=True)
